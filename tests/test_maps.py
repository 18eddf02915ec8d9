import math

import numpy as np
import pytest

from inflap.jets import jet_lift
from inflap.maps import (
    CurveMap,
    MapDomainError,
    PerturbationPotentialMap,
    PolarSpiralMap,
    RadialCurveMap,
    ScalarProfileMap,
    TrigQuadMap,
    finite_difference_map_jet,
    polar_decompose,
)
from inflap.profiles import (
    ArcComplement,
    BumpW1,
    BumpZ1,
    GaussianRho,
    PolarPhase,
    choose_M,
)

from helpers import affine_map

INV_E = math.exp(-1.0)


@pytest.fixture(scope="module")
def w1():
    return BumpW1()


@pytest.fixture(scope="module")
def w1_bound(w1):
    return choose_M(w1, samples=20_000)


@pytest.fixture(scope="module")
def w2(w1, w1_bound):
    return ArcComplement(w1, w1_bound.M, cells=2048)


@pytest.fixture(scope="module")
def z_pair():
    z1 = BumpZ1()
    sb = choose_M(z1, samples=20_000)
    return z1, ArcComplement(z1, sb.M, cells=2048), sb


@pytest.fixture(scope="module")
def polar_pair():
    rho = GaussianRho()
    sb = choose_M(rho, samples=20_000)
    return rho, PolarPhase(sb.M, t_max=2.0, cells=2048, rho=rho), sb


def _fd_agrees(map_obj, points, jac_tol=1e-5, hess_tol=1e-3):
    for x in points:
        m = map_obj.map_jet(x)
        fd = finite_difference_map_jet(map_obj, x, h=1e-4)
        jac_scale = max(np.linalg.norm(fd.jacobian), 1.0)
        hess_scale = max(np.linalg.norm(fd.hessian), 1.0)
        assert np.linalg.norm(m.jacobian - fd.jacobian) <= jac_tol * jac_scale
        assert np.linalg.norm(m.hessian - fd.hessian) <= hess_tol * hess_scale


class TestCurveMap:
    def test_outside_support(self, w1, w2, w1_bound):
        u1 = CurveMap(w1, w2, n=2, N=2)
        m = u1.map_jet([5.0, 0.3])
        assert m.value[0] == 0.0
        assert m.value[1] == w2.value(5.0)
        assert m.jacobian[0, 0] == 0.0
        assert m.jacobian[1, 0] == w1_bound.M

    def test_constant_gradient_norm(self, w1, w2, w1_bound):
        u1 = CurveMap(w1, w2, n=1, N=2)
        m_sq = w1_bound.M**2
        rng = np.random.default_rng(21)
        for t in rng.uniform(-4.0, 4.0, size=100):
            m = u1.map_jet([float(t)])
            assert np.einsum("ai,ai->", m.jacobian, m.jacobian) == pytest.approx(
                m_sq, abs=1e-12
            )

    def test_no_cross_dependence(self, w1, w2):
        u1 = CurveMap(w1, w2, n=3, N=2)
        m = u1.map_jet([0.7, 1.0, -2.0])
        assert np.all(m.jacobian[:, 1:] == 0.0)
        assert np.all(m.hessian[:, 1:, :] == 0.0)
        assert np.all(m.hessian[:, :, 1:] == 0.0)

    def test_fd_agreement(self, w1, w2):
        u1 = CurveMap(w1, w2, n=1, N=2)
        rng = np.random.default_rng(22)
        _fd_agrees(u1, [[float(t)] for t in rng.uniform(-2.5, 2.5, size=50)])

    def test_needs_vector_target(self, w1, w2):
        with pytest.raises(ValueError):
            CurveMap(w1, w2, n=1, N=1)


class TestRadialCurveMap:
    def test_inside_hole(self, z_pair):
        z1, z2, _ = z_pair
        u2 = RadialCurveMap(z1, z2, n=2, N=2)
        v = u2.value([0.3, 0.4])
        assert v[0] == 0.0
        assert v[1] == z2.value(0.5)

    def test_origin_rejected(self, z_pair):
        z1, z2, _ = z_pair
        u2 = RadialCurveMap(z1, z2, n=2, N=2)
        with pytest.raises(MapDomainError):
            u2.map_jet([0.0, 0.0])

    def test_eikonal_everywhere(self, z_pair):
        z1, z2, sb = z_pair
        rng = np.random.default_rng(23)
        for n in (1, 2, 3):
            u2 = RadialCurveMap(z1, z2, n=n, N=2)
            for _ in range(34):
                x = rng.uniform(-1.0, 1.0, size=n)
                r = np.linalg.norm(x)
                if r < 0.1:
                    continue
                x = x / r * rng.uniform(0.1, 5.0)
                m = u2.map_jet(x)
                assert np.einsum("ai,ai->", m.jacobian, m.jacobian) == pytest.approx(
                    sb.M**2, abs=1e-12
                )

    def test_one_dimensional_reduction(self, z_pair):
        z1, z2, _ = z_pair
        u2 = RadialCurveMap(z1, z2, n=1, N=2)
        for t in (1.5, 2.0, -2.5):
            m = u2.map_jet([t])
            r = abs(t)
            assert m.value[0] == z1.value(r)
            assert m.jacobian[0, 0] == pytest.approx(z1.d1(r) * math.copysign(1.0, t), abs=1e-15)
            assert m.hessian[0, 0, 0] == pytest.approx(z1.value(jet_lift(r)).d2, rel=1e-12, abs=1e-15)

    def test_fd_agreement(self, z_pair):
        z1, z2, _ = z_pair
        rng = np.random.default_rng(24)
        for n in (1, 2):
            u2 = RadialCurveMap(z1, z2, n=n, N=2)
            pts = []
            while len(pts) < 25:
                x = rng.uniform(-3.0, 3.0, size=n)
                if np.linalg.norm(x) > 0.2:
                    pts.append(x)
            _fd_agrees(u2, pts)

    def test_rotation_invariance_of_modulus(self, z_pair):
        z1, z2, _ = z_pair
        u2 = RadialCurveMap(z1, z2, n=3, N=2)
        rng = np.random.default_rng(25)
        for _ in range(20):
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            x = rng.uniform(0.5, 2.5) * (lambda v: v / np.linalg.norm(v))(rng.normal(size=3))
            a = np.linalg.norm(u2.value(x))
            b = np.linalg.norm(u2.value(q @ x))
            assert abs(a - b) <= 1e-12


class TestPolarSpiralMap:
    def test_modulus_values(self, polar_pair):
        rho, phase, _ = polar_pair
        u3 = PolarSpiralMap(rho, phase, n=1, N=2)
        assert np.linalg.norm(u3.value([0.0])) == pytest.approx(1.0, abs=1e-15)
        assert np.linalg.norm(u3.value([1.0])) == pytest.approx(INV_E, abs=1e-12)
        assert np.linalg.norm(u3.value([-1.0])) == pytest.approx(INV_E, abs=1e-12)

    def test_constant_gradient_norm(self, polar_pair):
        rho, phase, sb = polar_pair
        u3 = PolarSpiralMap(rho, phase, n=1, N=2)
        rng = np.random.default_rng(26)
        for t in rng.uniform(-1.5, 1.5, size=100):
            m = u3.map_jet([float(t)])
            assert np.einsum("ai,ai->", m.jacobian, m.jacobian) == pytest.approx(
                sb.M**2, abs=1e-12
            )

    def test_fd_agreement(self, polar_pair):
        rho, phase, _ = polar_pair
        u3 = PolarSpiralMap(rho, phase, n=1, N=2)
        rng = np.random.default_rng(27)
        _fd_agrees(u3, [[float(t)] for t in rng.uniform(-1.5, 1.5, size=50)])


class TestScalarMaps:
    def test_values_outside_support(self, w1, w1_bound):
        v = ScalarProfileMap(w1, n=1)
        f = PerturbationPotentialMap(w1, w1_bound.M, n=1)
        assert v.value([5.0])[0] == 0.0
        assert f.value([5.0])[0] == 0.5 * w1_bound.M**2

    def test_branch_value(self, w1):
        v = ScalarProfileMap(w1, n=1)
        assert v.value([1.0])[0] == -INV_E

    def test_potential_gradient_formula(self, w1, w1_bound):
        f = PerturbationPotentialMap(w1, w1_bound.M, n=1)
        rng = np.random.default_rng(28)
        for t in rng.uniform(-2.5, 2.5, size=50):
            t = float(t)
            jw = w1.value(jet_lift(t))
            m = f.map_jet([t])
            assert m.jacobian[0, 0] == pytest.approx(-jw.d1 * jw.d2, rel=1e-12, abs=1e-15)

    def test_fd_agreement(self, w1, w1_bound):
        rng = np.random.default_rng(29)
        pts = [[float(t)] for t in rng.uniform(-2.5, 2.5, size=50)]
        _fd_agrees(ScalarProfileMap(w1, n=1), pts)
        _fd_agrees(PerturbationPotentialMap(w1, w1_bound.M, n=1), pts, hess_tol=1e-2)


class TestEmbeddingAndInvariance:
    def test_padding_is_exactly_zero(self, w1, w2):
        u1 = CurveMap(w1, w2, n=2, N=5)
        m = u1.map_jet([0.5, 1.0])
        assert np.all(m.value[2:] == 0.0)
        assert np.all(m.jacobian[2:] == 0.0)
        assert np.all(m.hessian[2:] == 0.0)

    def test_translation_invariance_in_cross_coordinates(self, w1, w2, w1_bound, polar_pair):
        rho, phase, _ = polar_pair
        families = [
            CurveMap(w1, w2, n=3, N=2),
            PolarSpiralMap(rho, phase, n=3, N=2),
            ScalarProfileMap(w1, n=3),
            PerturbationPotentialMap(w1, w1_bound.M, n=3),
        ]
        for fam in families:
            a = fam.map_jet([0.7, 10.0, -3.0])
            b = fam.map_jet([0.7, -5.0, 8.0])
            assert np.array_equal(a.value, b.value)
            assert np.array_equal(a.jacobian, b.jacobian)
            assert np.array_equal(a.hessian, b.hessian)

    def test_dimension_check(self, w1, w2):
        u1 = CurveMap(w1, w2, n=2, N=2)
        with pytest.raises(ValueError):
            u1.map_jet([1.0])


class TestSyntheticMaps:
    def test_affine_jets(self):
        a = np.array([[1.0, 2.0], [0.0, -1.0], [3.0, 3.0]])
        b = np.array([0.5, -0.5, 0.0])
        mp = affine_map(a, b)
        m = mp.map_jet([1.0, 1.0])
        assert np.array_equal(m.value, a @ [1.0, 1.0] + b)
        assert np.array_equal(m.jacobian, a)
        assert np.all(m.hessian == 0.0)

    def test_trig_quad_against_fd(self):
        rng = np.random.default_rng(30)
        for n, big_n in ((1, 2), (2, 3), (3, 2)):
            mp = TrigQuadMap.random(rng, n, big_n)
            pts = [rng.uniform(-1.0, 1.0, size=n) for _ in range(10)]
            _fd_agrees(mp, pts, jac_tol=1e-6, hess_tol=1e-4)


class TestPolarDecomposition:
    def test_at_peak(self, polar_pair):
        rho, phase, _ = polar_pair
        u3 = PolarSpiralMap(rho, phase, n=1, N=2)
        pd = polar_decompose(u3.map_jet([0.0]))
        assert pd.rho == pytest.approx(1.0, abs=1e-15)
        assert pd.direction == pytest.approx([1.0, 0.0], abs=1e-15)

    def test_energy_split_and_orthogonality(self, polar_pair):
        rho, phase, _ = polar_pair
        u3 = PolarSpiralMap(rho, phase, n=1, N=2)
        rng = np.random.default_rng(31)
        for t in rng.uniform(-1.5, 1.5, size=100):
            m = u3.map_jet([float(t)])
            pd = polar_decompose(m)
            lhs = float(np.einsum("ai,ai->", m.jacobian, m.jacobian))
            rhs = float(pd.grad_rho @ pd.grad_rho) + pd.rho**2 * float(
                np.einsum("ai,ai->", pd.grad_direction, pd.grad_direction)
            )
            assert abs(lhs - rhs) <= 1e-9 * abs(lhs)
            assert np.abs(pd.direction @ pd.grad_direction).max() <= 1e-12

    def test_vanishing_map_rejected(self):
        mp = affine_map(np.eye(2), np.zeros(2))
        with pytest.raises(MapDomainError):
            polar_decompose(mp.map_jet([0.0, 0.0]))
