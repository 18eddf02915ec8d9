import math

import numpy as np
import pytest

from inflap.maps import (
    CurveMap,
    MapJet,
    PerturbationPotentialMap,
    ScalarProfileMap,
    TrigQuadMap,
)
from inflap.operators import (
    grad_norm_sq,
    infinity_laplacian,
    normal,
    orthogonal_projection,
    perturbed_scalar,
    tangential,
)
from inflap.profiles import ArcComplement, BumpW1, choose_M

from helpers import affine_map


@pytest.fixture(scope="module")
def u1_setup():
    w1 = BumpW1()
    sb = choose_M(w1, samples=20_000)
    w2 = ArcComplement(w1, sb.M, cells=2048)
    return CurveMap(w1, w2, n=1, N=2), sb


def _random_jet(rng, N, n):
    hess = rng.normal(size=(N, n, n))
    return MapJet(
        rng.normal(size=N),
        rng.normal(size=(N, n)),
        0.5 * (hess + hess.transpose(0, 2, 1)),
    )


class TestGradNormSq:
    def test_zero_jacobian(self):
        m = MapJet(np.zeros(2), np.zeros((2, 3)), np.zeros((2, 3, 3)))
        assert grad_norm_sq(m) == 0.0

    def test_identity_jacobian(self):
        m = MapJet(np.zeros(2), np.eye(2), np.zeros((2, 2, 2)))
        assert grad_norm_sq(m) == 2.0

    def test_constant_on_curve_map(self, u1_setup):
        u1, sb = u1_setup
        rng = np.random.default_rng(40)
        for t in rng.uniform(-3.0, 3.0, size=100):
            assert grad_norm_sq(u1.map_jet([float(t)])) == pytest.approx(
                sb.M**2, abs=1e-12
            )


class TestTangential:
    def test_vanishes_on_curve_map(self, u1_setup):
        u1, sb = u1_setup
        rng = np.random.default_rng(41)
        for t in rng.uniform(-3.0, 3.0, size=100):
            assert np.linalg.norm(tangential(u1.map_jet([float(t)]))) <= 1e-9 * sb.M**3

    def test_zero_hessian_gives_zero(self):
        mp = affine_map(np.array([[1.0, 0.0]]), np.zeros(1))
        assert np.all(tangential(mp.map_jet([2.0, 3.0])) == 0.0)

    def test_matches_fd_gradient_identity(self):
        # Du ⊗ Du : D²u = Du · D(half |Du|²); the right side is computed by
        # central differences of the scalar field half |Du|², an
        # evaluation path independent of the hessian contraction.
        rng = np.random.default_rng(42)
        h = 1e-5
        for _ in range(20):
            n, big_n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            mp = TrigQuadMap.random(rng, n, big_n)
            x = rng.uniform(-1.0, 1.0, size=n)
            m = mp.map_jet(x)
            grad = np.zeros(n)
            for i in range(n):
                e = np.zeros(n)
                e[i] = h
                grad[i] = (
                    0.5 * grad_norm_sq(mp.map_jet(x + e))
                    - 0.5 * grad_norm_sq(mp.map_jet(x - e))
                ) / (2.0 * h)
            ident = m.jacobian @ grad
            t_vec = tangential(m)
            scale = max(np.linalg.norm(t_vec), np.linalg.norm(ident), 1e-8)
            assert np.linalg.norm(t_vec - ident) <= 1e-5 * scale

    def test_cubic_scale_covariance_exact_for_powers_of_two(self):
        rng = np.random.default_rng(43)
        m = _random_jet(rng, 3, 2)
        scaled = MapJet(m.value, 2.0 * m.jacobian, 2.0 * m.hessian)
        assert np.array_equal(tangential(scaled), 8.0 * tangential(m))

    def test_cubic_scale_covariance_general(self):
        rng = np.random.default_rng(44)
        m = _random_jet(rng, 2, 3)
        lam = 1.7
        scaled = MapJet(m.value, lam * m.jacobian, lam * m.hessian)
        assert tangential(scaled) == pytest.approx(lam**3 * tangential(m), rel=1e-12)


class TestProjection:
    def test_zero_jacobian_projects_everywhere(self):
        assert np.array_equal(orthogonal_projection(np.zeros((3, 2))), np.eye(3))

    def test_rank_one_axis(self):
        p = orthogonal_projection(np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert p == pytest.approx(np.diag([0.0, 1.0]), abs=1e-14)

    def test_full_rank_wide_jacobian_kills_everything(self):
        rng = np.random.default_rng(45)
        for n in (2, 3, 4):
            j = rng.normal(size=(2, n))
            assert np.abs(orthogonal_projection(j)).max() <= 1e-12

    def test_properties_on_500_random_jacobians(self):
        rng = np.random.default_rng(46)
        dims = [(N, n) for N in (1, 2, 3, 5) for n in (1, 2, 3)]
        for k in range(500):
            big_n, n = dims[k % len(dims)]
            j = rng.normal(size=(big_n, n))
            p = orthogonal_projection(j)
            assert np.abs(p - p.T).max() <= 1e-13
            assert np.abs(p @ p - p).max() <= 1e-12
            assert np.linalg.norm(p @ j) <= 1e-12 * np.linalg.norm(j)


class TestNormal:
    def test_scalar_maps_give_exact_zero(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            m = _random_jet(rng, 1, int(rng.integers(1, 4)))
            assert np.all(normal(m) == 0.0)
        silent = MapJet(np.zeros(1), np.zeros((1, 2)), np.zeros((1, 2, 2)))
        assert np.all(normal(silent) == 0.0)

    def test_zero_hessian_gives_zero(self):
        m = MapJet(np.zeros(3), np.random.default_rng(48).normal(size=(3, 2)), np.zeros((3, 2, 2)))
        assert np.all(normal(m) == 0.0)

    def test_generally_nonzero_for_curve_map(self, u1_setup):
        # the curve solves only the tangential part; its normal part is
        # M² times the curvature vector, nonzero inside the support
        u1, sb = u1_setup
        assert np.linalg.norm(normal(u1.map_jet([0.5]))) > 1e-3 * sb.M**3


class TestFullOperator:
    def test_affine_maps_are_solutions(self):
        mp = affine_map(np.array([[1.0, 2.0], [3.0, 4.0]]), np.zeros(2))
        ov = infinity_laplacian(mp.map_jet([0.3, -0.7]))
        assert np.all(ov.full == 0.0)

    def test_split_is_consistent(self, u1_setup):
        u1, sb = u1_setup
        ov = infinity_laplacian(u1.map_jet([0.5]))
        assert np.array_equal(ov.full, ov.tangential + ov.normal)
        assert np.linalg.norm(ov.tangential) <= 1e-9 * sb.M**3
        assert ov.full == pytest.approx(ov.normal, abs=1e-9 * sb.M**3)

    def test_scalar_full_equals_tangential(self):
        rng = np.random.default_rng(49)
        for _ in range(20):
            m = _random_jet(rng, 1, 2)
            ov = infinity_laplacian(m)
            assert np.array_equal(ov.full, ov.tangential)

    def test_tangential_perpendicular_to_normal(self):
        # measured only where the normal part is numerically nonzero; for a
        # full-row-rank jacobian the projection is zero and the computed
        # normal is roundoff noise with no meaningful direction
        rng = np.random.default_rng(50)
        eps = np.finfo(float).eps
        checked = 0
        for k in range(500):
            big_n, n = [(3, 1), (3, 2), (5, 2), (5, 3), (2, 1)][k % 5]
            m = _random_jet(rng, big_n, n)
            ov = infinity_laplacian(m)
            t_norm = np.linalg.norm(ov.tangential)
            n_norm = np.linalg.norm(ov.normal)
            lap = np.einsum("bii->b", m.hessian)
            floor = 64.0 * eps * ov.grad_norm_sq * np.linalg.norm(lap)
            if t_norm == 0.0 or n_norm <= floor:
                continue
            checked += 1
            assert abs(float(ov.tangential @ ov.normal)) <= 1e-9 * t_norm * n_norm
        assert checked >= 400

    def test_singular_values_reported(self):
        m = MapJet(np.zeros(2), np.array([[3.0, 0.0], [0.0, 4.0]]), np.zeros((2, 2, 2)))
        ov = infinity_laplacian(m)
        assert ov.singular_values == (4.0, 3.0)


@pytest.fixture(scope="module")
def example3():
    w1 = BumpW1()
    sb = choose_M(w1, samples=20_000)
    return (
        ScalarProfileMap(w1, n=1),
        PerturbationPotentialMap(w1, sb.M, n=1),
        sb,
    )


class TestPerturbedScalar:
    def test_residual_vanishes(self, example3):
        v_map, f_map, sb = example3
        rng = np.random.default_rng(51)
        for t in rng.uniform(-3.0, 3.0, size=100):
            x = [float(t)]
            r = perturbed_scalar(v_map.map_jet(x), f_map.map_jet(x))
            assert abs(r) <= 1e-9 * sb.M**3

    def test_linear_profile_with_no_forcing(self):
        v = affine_map(np.array([[1.0, 0.0]]), np.zeros(1))
        f = affine_map(np.array([[0.0, 0.0]]), np.zeros(1))
        assert perturbed_scalar(v.map_jet([1.0, 2.0]), f.map_jet([1.0, 2.0])) == 0.0

    def test_quadratic_profile_expansion(self):
        # v = x1²/2 has Dv ⊗ Dv : D²v = x1²
        for x1 in (0.5, -1.25, 2.0):
            v = MapJet([0.5 * x1 * x1], [[x1]], [[[1.0]]])
            f = MapJet([0.0], [[0.0]], [[[0.0]]])
            assert perturbed_scalar(v, f) == x1 * x1

    def test_dimension_mismatch(self):
        v = MapJet([0.0], [[1.0]], [[[0.0]]])
        f = MapJet([0.0], [[1.0, 0.0]], [[[0.0, 0.0], [0.0, 0.0]]])
        with pytest.raises(ValueError):
            perturbed_scalar(v, f)
        vector = MapJet(np.zeros(2), np.zeros((2, 1)), np.zeros((2, 1, 1)))
        with pytest.raises(ValueError):
            perturbed_scalar(vector, f)
