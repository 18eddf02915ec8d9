import math

import numpy as np
import pytest

from inflap.checkers import (
    CheckEvaluationError,
    DomainSpec,
    annulus_domain,
    conservation_check,
    directional_check,
    hull_check,
    max_principle_check,
    refine_abscissas,
    residual_certify,
    slab_domain,
)
from inflap.hull import convex_hull, distance_outside, max_outside_distance
from inflap.maps import (
    CurveMap,
    MapJet,
    PolarSpiralMap,
    RadialCurveMap,
    ScalarProfileMap,
    PerturbationPotentialMap,
    VectorMap,
)
from inflap.profiles import (
    ArcComplement,
    BumpW1,
    BumpZ1,
    GaussianRho,
    PolarPhase,
    choose_M,
)

from helpers import affine_map, box_domain

INV_E = math.exp(-1.0)
WITNESSES = (0.0, 1.0, -1.0, 2.0)
GRID = 401  # dense enough for every margin here, fast enough for unit tests


@pytest.fixture(scope="module")
def u1_setup():
    w1 = BumpW1()
    sb = choose_M(w1, samples=20_000)
    w2 = ArcComplement(w1, sb.M, cells=2048)
    return CurveMap(w1, w2, n=1, N=2), sb


@pytest.fixture(scope="module")
def u2_setup():
    z1 = BumpZ1()
    sb = choose_M(z1, samples=20_000)
    z2 = ArcComplement(z1, sb.M, cells=2048)
    return RadialCurveMap(z1, z2, n=1, N=2), sb


@pytest.fixture(scope="module")
def u3_setup():
    rho = GaussianRho()
    sb = choose_M(rho, samples=20_000)
    phase = PolarPhase(sb.M, t_max=2.0, cells=2048, rho=rho)
    return PolarSpiralMap(rho, phase, n=1, N=2), sb


@pytest.fixture(scope="module")
def ex3_setup():
    w1 = BumpW1()
    sb = choose_M(w1, samples=20_000)
    return ScalarProfileMap(w1, n=1), PerturbationPotentialMap(w1, sb.M, n=1), sb


class TestDomains:
    def test_slab_samples(self):
        d = slab_domain(0.0, 2.0, grid_points=11, witnesses=WITNESSES)
        assert np.all((d.interior[:, 0] > 0.0) & (d.interior[:, 0] < 2.0))
        assert 1.0 in d.interior[:, 0]
        assert sorted(d.boundary[:, 0]) == [0.0, 2.0]

    def test_slab_cross_sections(self):
        d = slab_domain(-1.0, 1.0, n=3, grid_points=5, cross_extent=2.0)
        assert d.interior.shape[1] == 3
        assert set(np.unique(d.interior[:, 1])) == {-1.0, 0.0, 1.0}
        assert np.all(np.abs(d.boundary[:, 0]) == 1.0)

    def test_annulus_one_dimensional(self):
        d = annulus_domain(1.0, 3.0, n=1, grid_points=11, witnesses=(2.0,))
        assert len(d.boundary) == 4
        assert sorted(np.abs(d.boundary[:, 0])) == [1.0, 1.0, 3.0, 3.0]
        radii = np.abs(d.interior[:, 0])
        assert np.all((radii > 1.0) & (radii < 3.0))
        assert 2.0 in radii

    def test_annulus_boundary_equation(self):
        d = annulus_domain(1.0, 3.0, n=3, grid_points=7)
        r = np.linalg.norm(d.boundary, axis=1)
        assert np.all(np.minimum(np.abs(r - 1.0), np.abs(r - 3.0)) <= 1e-14)

    def test_box_split(self):
        d = box_domain([(-1.0, 1.0), (0.0, 2.0)], grid_points=5)
        assert len(d.interior) == 9
        assert len(d.boundary) == 16

    def test_refine_contains_coarse_grid(self):
        base = np.linspace(-1.0, 1.0, 41)
        fine = refine_abscissas(base)
        assert len(fine) == 81
        assert set(base).issubset(set(fine))

    def test_degenerate_slab_rejected(self):
        with pytest.raises(ValueError):
            slab_domain(1.0, 1.0)


class TestResidualCertify:
    def test_curve_map_passes(self, u1_setup):
        u1, sb = u1_setup
        d = slab_domain(-3.0, 3.0, grid_points=GRID, witnesses=WITNESSES)
        rep = residual_certify(u1, "tangential", d, 1e-8 * sb.M**3)
        assert rep.passed
        assert rep.n_points >= GRID
        assert rep.sup_residual <= 1e-12

    def test_polar_map_passes(self, u3_setup):
        u3, sb = u3_setup
        d = slab_domain(-1.5, 1.5, grid_points=GRID, witnesses=WITNESSES)
        assert residual_certify(u3, "tangential", d, 1e-8 * sb.M**3).passed

    def test_perturbed_scalar_passes(self, ex3_setup):
        v_map, f_map, sb = ex3_setup
        d = slab_domain(-3.0, 3.0, grid_points=GRID, witnesses=WITNESSES)
        rep = residual_certify(v_map, "perturbed_scalar", d, 1e-8 * sb.M**3, f_map=f_map)
        assert rep.passed

    def test_fd_oracle_path_passes(self, u1_setup):
        u1, sb = u1_setup
        d = slab_domain(-3.0, 3.0, grid_points=201)
        rep = residual_certify(u1, "tangential", d, 1e-3 * sb.M**3, jet_source="fd")
        assert rep.passed
        assert rep.jet_source == "fd"

    def test_failing_tolerance_reports_worst_point(self, u1_setup):
        u1, _ = u1_setup
        d = slab_domain(-3.0, 3.0, grid_points=201)
        rep = residual_certify(u1, "tangential", d, 1e-30)
        assert not rep.passed
        assert rep.worst_point is not None

    def test_evaluation_error_carries_point(self, u3_setup):
        rho = GaussianRho()
        sb = choose_M(rho, samples=20_000)
        short_phase = PolarPhase(sb.M, t_max=1.0, cells=256, rho=rho)
        u3 = PolarSpiralMap(rho, short_phase, n=1, N=2)
        d = slab_domain(-1.5, 1.5, grid_points=51)
        with pytest.raises(CheckEvaluationError) as exc:
            residual_certify(u3, "tangential", d, 1e-8)
        assert abs(exc.value.point[0]) > 1.0

    def test_perturbed_scalar_requires_f_map(self, ex3_setup):
        v_map, _, _ = ex3_setup
        d = slab_domain(-1.0, 1.0, grid_points=11)
        with pytest.raises(ValueError):
            residual_certify(v_map, "perturbed_scalar", d, 1e-8)

    def test_unknown_selector_rejected(self, u1_setup):
        u1, _ = u1_setup
        d = slab_domain(-1.0, 1.0, grid_points=11)
        with pytest.raises(ValueError):
            residual_certify(u1, "bogus", d, 1e-8)


class TestPrincipleChecks:
    def test_modulus_margin_on_polar_map(self, u3_setup):
        u3, _ = u3_setup
        d = slab_domain(-1.0, 1.0, grid_points=GRID, witnesses=WITNESSES)
        v = max_principle_check(lambda x: float(np.linalg.norm(u3.value(x))), d)
        assert v.sup_interior == pytest.approx(1.0, abs=1e-12)
        assert v.max_boundary == pytest.approx(INV_E, abs=1e-12)
        assert v.max_violation_margin == pytest.approx(1.0 - INV_E, abs=1e-12)
        assert v.witness_sup[0] == 0.0

    def test_directional_margin_on_annulus(self, u2_setup):
        u2, _ = u2_setup
        d = annulus_domain(1.0, 3.0, grid_points=GRID, witnesses=(2.0,))
        v = directional_check(u2, [1.0, 0.0], d)
        assert v.max_boundary == 0.0
        assert v.sup_interior == pytest.approx(INV_E, abs=1e-12)
        assert v.max_violation

    def test_constant_field_has_no_violation(self):
        d = slab_domain(-1.0, 1.0, grid_points=21)
        v = max_principle_check(lambda x: 3.25, d)
        assert v.max_violation_margin <= 0.0
        assert v.min_violation_margin <= 0.0

    def test_two_sided_failure_split_across_slabs(self, u1_setup):
        u1, _ = u1_setup
        neg = directional_check(u1, [1.0, 0.0], slab_domain(-2.0, 0.0, grid_points=GRID, witnesses=WITNESSES))
        pos = directional_check(u1, [1.0, 0.0], slab_domain(0.0, 2.0, grid_points=GRID, witnesses=WITNESSES))
        assert neg.max_violation != pos.max_violation
        assert neg.min_violation != pos.min_violation
        assert neg.max_violation != neg.min_violation
        margins = (neg.max_violation_margin, pos.max_violation_margin,
                   neg.min_violation_margin, pos.min_violation_margin)
        assert max(margins) == pytest.approx(INV_E, abs=1e-12)

    def test_monotone_second_component_never_violates(self, u1_setup):
        u1, _ = u1_setup
        for a, b in ((-2.0, 0.0), (0.0, 2.0)):
            v = directional_check(u1, [0.0, 1.0], slab_domain(a, b, grid_points=GRID))
            assert not v.max_violation
            assert not v.min_violation

    def test_direction_scaling(self, u1_setup):
        u1, _ = u1_setup
        d = slab_domain(-2.0, 0.0, grid_points=101, witnesses=WITNESSES)
        base = directional_check(u1, [1.0, 0.0], d)
        scaled = directional_check(u1, [4.0, 0.0], d)
        assert scaled.max_violation_margin == 4.0 * base.max_violation_margin
        general = directional_check(u1, [1.7, 0.0], d)
        assert general.max_violation == base.max_violation
        assert general.max_violation_margin == pytest.approx(
            1.7 * base.max_violation_margin, rel=1e-12
        )

    def test_zero_direction_rejected(self, u1_setup):
        u1, _ = u1_setup
        with pytest.raises(ValueError):
            directional_check(u1, [0.0, 0.0], slab_domain(-1.0, 1.0, grid_points=11))


class TestHullChecks:
    def test_radial_map_escapes_hull(self, u2_setup):
        u2, _ = u2_setup
        d = annulus_domain(1.0, 3.0, grid_points=GRID, witnesses=(2.0,))
        h = hull_check(u2, d)
        assert not h.contained
        assert h.max_outside_distance == pytest.approx(INV_E, abs=1e-9)
        assert abs(h.witness_point[0]) == 2.0

    def test_curve_map_escapes_hull(self, u1_setup):
        u1, _ = u1_setup
        d = slab_domain(-2.0, 2.0, grid_points=GRID, witnesses=WITNESSES)
        h = hull_check(u1, d)
        assert not h.contained
        assert h.max_outside_distance == pytest.approx(INV_E, abs=1e-9)

    def test_affine_on_box_is_contained(self):
        mp = affine_map(np.array([[1.0, 0.5], [-0.25, 2.0]]), np.array([0.3, -0.1]))
        d = box_domain([(-1.0, 1.0), (-1.0, 1.0)], grid_points=9)
        h = hull_check(mp, d)
        assert h.contained
        assert h.max_outside_distance <= 1e-12

    def test_contained_implies_no_directional_violation(self):
        mp = affine_map(np.array([[1.0, 0.5], [-0.25, 2.0]]), np.array([0.3, -0.1]))
        d = box_domain([(-1.0, 1.0), (-1.0, 1.0)], grid_points=9)
        assert hull_check(mp, d).contained
        for k in range(64):
            theta = 2.0 * math.pi * k / 64.0
            v = directional_check(mp, [math.cos(theta), math.sin(theta)], d)
            assert v.max_violation_margin <= 1e-9

    def test_needs_boundary_samples(self, u1_setup):
        u1, _ = u1_setup
        empty = DomainSpec("slab", np.zeros((3, 1)), np.zeros((0, 1)))
        with pytest.raises(ValueError):
            hull_check(u1, empty)


class TestHullGeometry:
    def test_monotone_chain_square(self):
        pts = [(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5), (0.5, 0.0)]
        hull = convex_hull(pts)
        assert len(hull) == 4

    def test_collinear_degenerates_to_segment(self):
        hull = convex_hull([(0, 0), (1, 1), (2, 2), (0.5, 0.5)])
        assert len(hull) == 2
        assert distance_outside([1.0, 1.0], hull) == 0.0
        assert distance_outside([1.0, 2.0], hull) == pytest.approx(math.sqrt(0.5))

    def test_single_point_hull(self):
        hull = convex_hull([(1.0, 2.0), (1.0, 2.0)])
        assert len(hull) == 1
        assert distance_outside([1.0, 5.0], hull) == 3.0

    def test_rotation_invariance(self):
        rng = np.random.default_rng(60)
        for _ in range(20):
            boundary = rng.normal(size=(15, 2))
            interior = rng.normal(size=(25, 2)) * 1.5
            d0, _ = max_outside_distance(interior, boundary)
            theta = rng.uniform(0.0, 2.0 * math.pi)
            rot = np.array([[math.cos(theta), -math.sin(theta)],
                            [math.sin(theta), math.cos(theta)]])
            d1, _ = max_outside_distance(interior @ rot.T, boundary @ rot.T)
            assert abs(d0 - d1) <= 1e-9


class TestConservation:
    def test_curve_map(self, u1_setup):
        u1, sb = u1_setup
        d = slab_domain(-3.0, 3.0, grid_points=GRID, witnesses=WITNESSES)
        rep = conservation_check(u1, d, sb.M**2)
        assert rep.max_dev <= 1e-10 * sb.M**2

    def test_radial_map(self, u2_setup):
        u2, sb = u2_setup
        d = annulus_domain(1.0, 3.0, grid_points=GRID, witnesses=(2.0,))
        assert conservation_check(u2, d, sb.M**2).max_dev <= 1e-10 * sb.M**2

    def test_polar_map(self, u3_setup):
        u3, sb = u3_setup
        d = slab_domain(-1.5, 1.5, grid_points=GRID, witnesses=WITNESSES)
        assert conservation_check(u3, d, sb.M**2).max_dev <= 1e-9 * sb.M**2

    def test_explicit_target(self):
        mp = affine_map(np.array([[3.0, 0.0], [0.0, 4.0]]), np.zeros(2))
        d = box_domain([(-1.0, 1.0), (-1.0, 1.0)], grid_points=5)
        rep = conservation_check(mp, d, target_sq=25.0)
        assert rep.max_dev == 0.0


class _NanAtOnePoint(VectorMap):
    """x -> (x1, x1²), evaluated at NaN in place of x1 = bad."""

    def __init__(self, bad: float):
        super().__init__(1, 2)
        self.bad = bad

    def map_jet(self, x) -> MapJet:
        t = self._as_point(x)[0]
        if t == self.bad:
            t = math.nan
        return MapJet([t, t * t], [[1.0], [2.0 * t]], [[[0.0]], [[2.0]]])


class TestNonFiniteSamples:
    @pytest.mark.parametrize("check", [
        lambda u, d: residual_certify(u, "tangential", d, 1.0),
        lambda u, d: residual_certify(u, "tangential", d, 1.0, jet_source="fd"),
        lambda u, d: max_principle_check(lambda x: u.value(x)[0], d),
        lambda u, d: conservation_check(u, d, 1.0),
        lambda u, d: hull_check(u, d),
    ], ids=["residual_analytic", "residual_fd", "principle", "conservation", "hull"])
    def test_nan_sample_aborts_with_its_point(self, check):
        d = slab_domain(-1.0, 1.0, grid_points=5)  # interior -0.5, 0, 0.5
        with pytest.raises(CheckEvaluationError, match="not finite") as exc:
            check(_NanAtOnePoint(0.5), d)
        np.testing.assert_array_equal(exc.value.point, [0.5])


class TestMonotoneRefinement:
    def test_sup_statistics_never_decrease(self, u1_setup, u3_setup):
        u1, sb1 = u1_setup
        u3, _ = u3_setup
        ts = np.linspace(-1.0, 1.0, 101)
        sup_residuals = []
        sup_moduli = []
        for _ in range(3):
            d = slab_domain(-1.0, 1.0, abscissas=ts)
            rep = residual_certify(u1, "tangential", d, 1e-8 * sb1.M**3)
            sup_residuals.append(rep.sup_residual)
            verdict = max_principle_check(lambda x: float(np.linalg.norm(u3.value(x))), d)
            sup_moduli.append(verdict.sup_interior)
            ts = refine_abscissas(ts)
        assert sup_residuals[0] <= sup_residuals[1] <= sup_residuals[2]
        assert sup_moduli[0] <= sup_moduli[1] <= sup_moduli[2]
