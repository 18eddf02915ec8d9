import itertools
import math

import numpy as np
import pytest

from inflap.checkers import (
    CheckEvaluationError,
    Extremum,
    annulus_domain,
    conservation_check,
    directional_check,
    hull_check,
    max_principle_check,
    residual_certify,
    slab_domain,
)
from inflap.hull import _segment_ends, max_outside_distance
from inflap.jets import BLOCK_POINTS
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
from inflap.scenarios import (
    ScenarioConfig,
    _perturbed_residual,
    _tangential_residual,
    construction,
)

from helpers import (
    ArrayDomain,
    affine_map,
    all_points,
    boundary,
    box_domain,
    exact,
    interior,
    merged_reference,
    reference_annulus,
    reference_slab,
    refine_abscissas,
    sampled_along,
    sampled_deviation,
    sampled_hull,
    sampled_principle,
    sampled_residuals,
    traced_peak,
)

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
        assert np.all((interior(d)[:, 0] > 0.0) & (interior(d)[:, 0] < 2.0))
        assert 1.0 in interior(d)[:, 0]
        assert sorted(boundary(d)[:, 0]) == [0.0, 2.0]

    def test_slab_cross_sections(self):
        d = slab_domain(-1.0, 1.0, n=3, grid_points=5, cross_extent=2.0)
        assert interior(d).shape[1] == 3
        assert set(np.unique(interior(d)[:, 1])) == {-1.0, 0.0, 1.0}
        assert np.all(np.abs(boundary(d)[:, 0]) == 1.0)

    def test_annulus_one_dimensional(self):
        d = annulus_domain(1.0, 3.0, n=1, grid_points=11, witnesses=(2.0,))
        assert len(boundary(d)) == 4
        assert sorted(np.abs(boundary(d)[:, 0])) == [1.0, 1.0, 3.0, 3.0]
        radii = np.abs(interior(d)[:, 0])
        assert np.all((radii > 1.0) & (radii < 3.0))
        assert 2.0 in radii

    def test_annulus_boundary_equation(self):
        d = annulus_domain(1.0, 3.0, n=3, grid_points=7)
        r = np.linalg.norm(boundary(d), axis=1)
        assert np.all(np.minimum(np.abs(r - 1.0), np.abs(r - 3.0)) <= 1e-14)

    def test_box_split(self):
        d = box_domain([(-1.0, 1.0), (0.0, 2.0)], grid_points=5)
        assert len(interior(d)) == 9
        assert len(boundary(d)) == 16

    def test_refine_contains_coarse_grid(self):
        base = np.linspace(-1.0, 1.0, 41)
        fine = refine_abscissas(base)
        assert len(fine) == 81
        assert set(base).issubset(set(fine))

    def test_degenerate_slab_rejected(self):
        with pytest.raises(ValueError):
            slab_domain(1.0, 1.0)


def _witness_cases(lo: float, hi: float, grid_points: int):
    """Witness lists against the grid of [lo, hi]: a node, one ulp either
    side of a node, repeats, the ends, values outside, and signed zeros."""
    node = np.linspace(lo, hi, grid_points)[grid_points // 3]
    mid = 0.5 * (lo + hi)
    return [
        (),
        WITNESSES,
        (node, np.nextafter(node, hi), np.nextafter(node, lo)),
        (mid, mid, 0.25 * lo + 0.75 * hi, mid),
        (lo, hi, lo - 1.0, hi + 7.5, math.nan),
        (0.0, -0.0),
    ]


class TestGeneratedDomains:
    """A domain writes the bits of the domain it stored before: every
    block, in every partition, and every point."""

    @staticmethod
    def _assert_same(domain, reference, sizes):
        assert (domain.label, len(domain), domain.n_interior) == (
            reference.label, len(reference), reference.n_interior)
        expected = all_points(reference)
        for size in (s for s in sizes if len(domain) <= 2000 * s):  # at most 2,000 blocks
            blocks = [domain.points(start, start + size) for start in range(0, len(domain), size)]
            assert np.concatenate(blocks).tobytes() == expected.tobytes(), size
        m, k = domain.n_interior, len(domain) - domain.n_interior
        # a block that spans the join, and each point around it and at the ends
        join = max(m - 3, 0)
        assert domain.points(join, m + 2).tobytes() == expected[join : m + 2].tobytes()
        # every point of a small domain; of a large one the first points,
        # those around the join and the boundary
        rows = range(len(domain))
        if len(domain) > 500:
            rows = {*range(40), *range(m - 20, len(domain))}
        for i in rows:
            assert domain.point(i).tobytes() == expected[i].tobytes(), i
        assert k >= 2

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("grid_points", [2, 3, 11, 2001])
    def test_small_grids_in_every_partition(self, n, grid_points):
        for lo, hi in ((-3.0, 3.0), (-2.0, 0.0), (-1.5, 1.5)):
            for witnesses in _witness_cases(lo, hi, grid_points):
                d = slab_domain(lo, hi, n, grid_points, 1.0, witnesses)
                ref = reference_slab(lo, hi, n, grid_points, 1.0, witnesses)
                self._assert_same(d, ref, (1, 2, 3 ** (n - 1), 4 * n + 1, BLOCK_POINTS))
        for lo, hi in ((1.0, 3.0), (0.5, 2.0)):
            for witnesses in _witness_cases(lo, hi, grid_points):
                d = annulus_domain(lo, hi, n, grid_points, witnesses)
                ref = reference_annulus(lo, hi, n, grid_points, witnesses)
                self._assert_same(d, ref, (1, 2, 2 * n, 5, BLOCK_POINTS))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_large_grid(self, n):
        for witnesses in _witness_cases(-3.0, 3.0, 50_001)[:3]:
            d = slab_domain(-3.0, 3.0, n, 50_001, 1.0, witnesses)
            ref = reference_slab(-3.0, 3.0, n, 50_001, 1.0, witnesses)
            self._assert_same(d, ref, (BLOCK_POINTS, 3 * BLOCK_POINTS + 7))
        d = annulus_domain(1.0, 3.0, n, 50_001, WITNESSES)
        self._assert_same(d, reference_annulus(1.0, 3.0, n, 50_001, WITNESSES), (BLOCK_POINTS,))

    @pytest.mark.parametrize("n", [2, 3])
    def test_zero_width_section_keeps_its_signed_zero(self, n):
        # half of the smallest subnormal extent is 0.0, so one offset is -0.0
        for lo, hi in ((-3.0, 3.0), (0.0, 2.0)):
            d = slab_domain(lo, hi, n, 11, 5e-324, WITNESSES)
            self._assert_same(d, reference_slab(lo, hi, n, 11, 5e-324, WITNESSES), (1, 3, 7))

    def test_annulus_keeps_signed_zeros(self):
        # the -e_i directions put -0.0 in every coordinate but the i-th
        d = annulus_domain(1.0, 3.0, n=2, grid_points=3)
        assert np.signbit(d.point(2)).tolist() == [True, True]
        assert np.signbit(d.point(3)).tolist() == [True, True]


class TestExtremum:
    """A running extremum fed block by block equals whole-array
    np.argmax/np.argmin: the first index wins a tie, across blocks too."""

    @staticmethod
    def _fed(values, sizes, pick):
        e, start = Extremum(pick), 0
        for size in sizes:
            e.feed(values[start : start + size], start)
            start += size
        return e

    @pytest.mark.parametrize("pick", [np.argmax, np.argmin])
    def test_random_blocks(self, pick):
        rng = np.random.default_rng(25)
        for _ in range(200):
            values = rng.integers(-5, 6, size=rng.integers(1, 60)).astype(float)
            cuts = np.sort(rng.integers(0, len(values) + 1, size=rng.integers(0, 6)))
            sizes = np.diff(np.concatenate([[0], cuts, [len(values)]]))
            e = self._fed(values, sizes, pick)
            i = int(pick(values))
            assert (e.value, e.index) == (values[i], i)
            assert e.result(lambda j: j, math.nan) == (values[i], i)

    @pytest.mark.parametrize("pick", [np.argmax, np.argmin])
    def test_tie_across_a_block_boundary(self, pick):
        values = np.array([0.0, 2.0, -2.0, 1.0, 2.0, -2.0, -2.0])
        e = self._fed(values, [2, 3, 2], pick)
        assert e.index == int(pick(values)) == (1 if pick is np.argmax else 2)

    def test_signed_zero_tie_keeps_the_first(self):
        e = self._fed(np.array([-0.0, 0.0, 0.0]), [1, 2], np.argmax)
        assert e.index == 0 and np.signbit(e.value)

    def test_first_non_finite_row_is_recorded_and_raised(self):
        e = Extremum()
        e.feed(np.array([1.0, 2.0]), 0)
        e.feed(np.array([3.0, math.inf, math.nan]), 2)
        e.feed(np.array([math.nan]), 5)
        assert e.bad[0] == 3
        with pytest.raises(CheckEvaluationError, match=exact(
            "evaluation failed at [3.0]: sampled value inf is not finite"
        )) as exc:
            e.result(lambda i: np.array([float(i)]), 0.0)
        assert exc.value.point.tolist() == [3.0]
        rows = Extremum()
        rows.check(np.array([[0.0, 1.0], [math.nan, 1.0]]), 7)
        assert rows.bad[0] == 8 and str(rows.bad[1]) == str(np.array([math.nan, 1.0]))

    def test_nothing_fed_gives_the_empty_value(self):
        e = Extremum()
        e.feed(np.empty(0), 0)
        assert e.result(lambda i: i, -math.inf) == (-math.inf, None)


class TestWitnessMerge:
    """A domain inserts its witnesses into the sorted, distinct grid of its
    interior and gives the bits of concatenating and sorting again, a node
    winning over an equal witness."""

    @pytest.mark.parametrize("extra", [
        [],
        [0.0, 1.0, -1.0, 2.0],  # the scenario witnesses; 0 and ±1 are grid nodes
        [0.5, 0.5, 0.25, 0.5],  # repeated, and between nodes
        [-3.0, 3.0, -7.5, 9.0],  # at and outside the ends
        [np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), 1.0],
        [-0.0],  # equal to the node 0.0, whose sign the domain keeps
    ])
    @pytest.mark.parametrize("slab", [
        (-3.0, 3.0, 601),
        (-3.0, 3.0, 2),  # an empty interior
        (0.0, 1.0, 3),  # the one interior node 0.5
    ], ids=["grid601", "empty", "one"])
    def test_equals_concatenate_and_sort(self, slab, extra):
        a, b, grid_points = slab
        ts = np.linspace(a, b, grid_points)
        expected = merged_reference(ts[(ts > a) & (ts < b)], [w for w in extra if a < w < b])
        merged = interior(slab_domain(a, b, grid_points=grid_points, witnesses=extra))[:, 0]
        assert merged.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("grid_points", [2, 3, 11, 2001, 50_001])
    def test_domains_equal_the_reference_grid(self, grid_points):
        ts = np.linspace(-1.0, 2.0, grid_points)
        inside = [w for w in (*WITNESSES, 0.5, 0.5) if -1.0 < w < 2.0]
        expected = merged_reference(ts[(ts > -1.0) & (ts < 2.0)], inside)
        slab = slab_domain(-1.0, 2.0, grid_points=grid_points, witnesses=(*WITNESSES, 0.5, 0.5))
        assert interior(slab)[:, 0].tobytes() == expected.tobytes()
        rs = np.linspace(0.5, 2.0, grid_points)
        inside = [w for w in WITNESSES if 0.5 < w < 2.0]
        expected = merged_reference(rs[(rs > 0.5) & (rs < 2.0)], inside)
        annulus = annulus_domain(0.5, 2.0, n=1, grid_points=grid_points, witnesses=WITNESSES)
        assert interior(annulus)[::2, 0].tobytes() == expected.tobytes()

    def test_slab_traced_peak(self):
        # concatenating and sorting again peaked at 2.05 MB here
        peak = traced_peak(lambda: slab_domain(-3.0, 3.0, grid_points=50_001, witnesses=WITNESSES))
        assert peak < 1.5e6


class TestResidualCertify:
    def test_curve_map_passes(self, u1_setup):
        u1, sb = u1_setup
        d = slab_domain(-3.0, 3.0, grid_points=GRID, witnesses=WITNESSES)
        rep = residual_certify(sampled_residuals(_tangential_residual, u1, d), d, 1e-8 * sb.M**3)
        assert rep.passed
        assert rep.n_points >= GRID
        assert rep.sup_residual <= 1e-12

    def test_polar_map_passes(self, u3_setup):
        u3, sb = u3_setup
        d = slab_domain(-1.5, 1.5, grid_points=GRID, witnesses=WITNESSES)
        residuals = sampled_residuals(_tangential_residual, u3, d)
        assert residual_certify(residuals, d, 1e-8 * sb.M**3).passed

    def test_perturbed_scalar_passes(self, ex3_setup):
        v_map, f_map, sb = ex3_setup
        d = slab_domain(-3.0, 3.0, grid_points=GRID, witnesses=WITNESSES)
        residuals = sampled_residuals(_perturbed_residual, v_map, d, f_map)
        rep = residual_certify(residuals, d, 1e-8 * sb.M**3)
        assert rep.passed

    def test_fd_oracle_path_passes(self, u1_setup):
        u1, sb = u1_setup
        d = slab_domain(-3.0, 3.0, grid_points=201)
        residuals = sampled_residuals(_tangential_residual, u1, d, fd_step=1e-4)
        rep = residual_certify(residuals, d, 1e-3 * sb.M**3, jet_source="fd")
        assert rep.passed
        assert rep.jet_source == "fd"

    def test_failing_tolerance_reports_worst_point(self, u1_setup):
        u1, _ = u1_setup
        d = slab_domain(-3.0, 3.0, grid_points=201)
        rep = residual_certify(sampled_residuals(_tangential_residual, u1, d), d, 1e-30)
        assert not rep.passed
        assert rep.worst_point is not None

    def test_evaluation_error_carries_point(self, u3_setup):
        rho = GaussianRho()
        sb = choose_M(rho, samples=20_000)
        short_phase = PolarPhase(sb.M, t_max=1.0, cells=256, rho=rho)
        u3 = PolarSpiralMap(rho, short_phase, n=1, N=2)
        d = slab_domain(-1.5, 1.5, grid_points=51)
        with pytest.raises(CheckEvaluationError) as exc:
            residual_certify(sampled_residuals(_tangential_residual, u3, d), d, 1e-8)
        assert abs(exc.value.point[0]) > 1.0


class TestPrincipleChecks:
    def test_modulus_margin_on_polar_map(self, u3_setup):
        u3, _ = u3_setup
        d = slab_domain(-1.0, 1.0, grid_points=GRID, witnesses=WITNESSES)
        modulus = sampled_principle(lambda x: np.linalg.norm(u3.value(x), axis=-1), d)
        v = max_principle_check(modulus, d)
        assert v.sup_interior == pytest.approx(1.0, abs=1e-12)
        assert v.max_boundary == pytest.approx(INV_E, abs=1e-12)
        assert v.max_violation_margin == pytest.approx(1.0 - INV_E, abs=1e-12)
        assert v.witness_sup[0] == 0.0

    def test_directional_margin_on_annulus(self, u2_setup):
        u2, _ = u2_setup
        d = annulus_domain(1.0, 3.0, grid_points=GRID, witnesses=(2.0,))
        v = directional_check(sampled_along(u2, d, [1.0, 0.0]), [1.0, 0.0], d)
        assert v.max_boundary == 0.0
        assert v.sup_interior == pytest.approx(INV_E, abs=1e-12)
        assert v.max_violation

    def test_constant_field_has_no_violation(self):
        d = slab_domain(-1.0, 1.0, grid_points=21)
        v = max_principle_check(sampled_principle(lambda x: np.full(len(x), 3.25), d), d)
        assert v.max_violation_margin <= 0.0
        assert v.min_violation_margin <= 0.0

    def test_two_sided_failure_split_across_slabs(self, u1_setup):
        u1, _ = u1_setup
        d_neg = slab_domain(-2.0, 0.0, grid_points=GRID, witnesses=WITNESSES)
        d_pos = slab_domain(0.0, 2.0, grid_points=GRID, witnesses=WITNESSES)
        neg = directional_check(sampled_along(u1, d_neg, [1.0, 0.0]), [1.0, 0.0], d_neg)
        pos = directional_check(sampled_along(u1, d_pos, [1.0, 0.0]), [1.0, 0.0], d_pos)
        assert neg.max_violation != pos.max_violation
        assert neg.min_violation != pos.min_violation
        assert neg.max_violation != neg.min_violation
        margins = (neg.max_violation_margin, pos.max_violation_margin,
                   neg.min_violation_margin, pos.min_violation_margin)
        assert max(margins) == pytest.approx(INV_E, abs=1e-12)

    def test_monotone_second_component_never_violates(self, u1_setup):
        u1, _ = u1_setup
        for a, b in ((-2.0, 0.0), (0.0, 2.0)):
            d = slab_domain(a, b, grid_points=GRID)
            v = directional_check(sampled_along(u1, d, [0.0, 1.0]), [0.0, 1.0], d)
            assert not v.max_violation
            assert not v.min_violation

    def test_direction_scaling(self, u1_setup):
        u1, _ = u1_setup
        d = slab_domain(-2.0, 0.0, grid_points=101, witnesses=WITNESSES)
        base, scaled, general = (directional_check(sampled_along(u1, d, xi), xi, d)
                                 for xi in ([1.0, 0.0], [4.0, 0.0], [1.7, 0.0]))
        assert scaled.max_violation_margin == 4.0 * base.max_violation_margin
        assert general.max_violation == base.max_violation
        assert general.max_violation_margin == pytest.approx(
            1.7 * base.max_violation_margin, rel=1e-12
        )

    def test_zero_direction_rejected(self, u1_setup):
        u1, _ = u1_setup
        with pytest.raises(ValueError):
            d = slab_domain(-1.0, 1.0, grid_points=11)
            directional_check(sampled_along(u1, d, [0.0, 0.0]), [0.0, 0.0], d)


class TestHullChecks:
    def test_radial_map_escapes_hull(self, u2_setup):
        u2, _ = u2_setup
        d = annulus_domain(1.0, 3.0, grid_points=GRID, witnesses=(2.0,))
        h = hull_check(sampled_hull(u2, d), d)
        assert not h.contained
        assert h.max_outside_distance == pytest.approx(INV_E, abs=1e-9)
        assert abs(h.witness_point[0]) == 2.0

    def test_curve_map_escapes_hull(self, u1_setup):
        u1, _ = u1_setup
        d = slab_domain(-2.0, 2.0, grid_points=GRID, witnesses=WITNESSES)
        h = hull_check(sampled_hull(u1, d), d)
        assert not h.contained
        assert h.max_outside_distance == pytest.approx(INV_E, abs=1e-9)

    # an affine map of x1 sends the slab's two faces to two points, and the
    # interior onto the segment between them
    SEGMENT_MAP = affine_map(np.array([[1.0, 0.0], [-0.25, 0.0]]), np.array([0.3, -0.1]))

    def test_affine_on_slab_is_contained(self):
        d = slab_domain(-1.0, 1.0, n=2, grid_points=9)
        h = hull_check(sampled_hull(self.SEGMENT_MAP, d), d)
        assert h.contained
        assert h.max_outside_distance <= 1e-12

    def test_contained_implies_no_directional_violation(self):
        d = slab_domain(-1.0, 1.0, n=2, grid_points=9)
        assert hull_check(sampled_hull(self.SEGMENT_MAP, d), d).contained
        for k in range(64):
            theta = 2.0 * math.pi * k / 64.0
            xi = [math.cos(theta), math.sin(theta)]
            v = directional_check(sampled_along(self.SEGMENT_MAP, d, xi), xi, d)
            assert v.max_violation_margin <= 1e-9

    def test_needs_boundary_samples(self, u1_setup):
        u1, _ = u1_setup
        empty = ArrayDomain("slab", np.zeros((3, 1)), np.zeros((0, 1)))
        with pytest.raises(ValueError):
            hull_check(sampled_hull(u1, empty), empty)


class TestHullGeometry:
    @pytest.mark.parametrize("boundary", [
        [(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5), (0.5, 0.0)],
        [(0, 0), (1, 1), (2, 2), (0.5, 0.5)],
        [(0, 0), (1, 0), (0, 1), (1, 0)],
        [],
    ], ids=["square", "collinear", "triangle", "empty"])
    def test_boundary_image_not_one_or_two_points_refused(self, boundary):
        count = len(set(boundary))
        with pytest.raises(ValueError, match=exact(
            f"boundary image has {count} distinct points; expected 1 or 2"
        )):
            max_outside_distance(np.zeros((3, 2)), np.asarray(boundary, dtype=float))

    def test_collinear_degenerates_to_segment(self):
        boundary = [(0, 0), (2, 2), (2, 2), (0, 0)]
        assert max_outside_distance([(1.0, 1.0), (0.5, 0.5)], boundary) == (0.0, -1)
        dist, at = max_outside_distance([(1.0, 1.0), (1.0, 2.0)], boundary)
        assert at == 1
        assert dist == pytest.approx(math.sqrt(0.5))
        # past an end, the distance is to that end
        assert max_outside_distance([(3.0, 2.0)], boundary) == (1.0, 0)

    @pytest.mark.parametrize("rows", [
        [(1.0, 2.0), (1.0, 2.0), (1.0, 2.0)],
        [(0.5, 2.0), (-1.0, 0.0), (0.5, 2.0), (-1.0, 0.0)],
        [(0.0, 1.0), (-0.0, 1.0)],
        [(-0.0, 0.5), (0.0, 0.5), (2.0, -0.0), (2.0, 0.0)],
        [(0.5, 2.0), (0.5, -1.0)],
    ], ids=["repeated", "two-repeated", "signed-zero", "signed-zero-pair", "same-x"])
    def test_segment_ends_are_the_unique_rows(self, rows):
        rows = np.asarray(rows)
        ends = _segment_ends(rows)
        assert ends.tolist() == np.unique(rows, axis=0).tolist()
        # a strided slice, as hull_check passes, gives the same rows
        wide = np.zeros((len(rows), 3))
        wide[:, :2] = rows
        assert _segment_ends(wide[:, :2]).tolist() == ends.tolist()

    def test_segment_ends_match_unique_on_random_images(self):
        rng = np.random.default_rng(23)
        values = np.array([-1.0, -0.0, 0.0, 0.5, 2.0])
        for _ in range(2000):
            rows = values[rng.integers(len(values), size=(rng.integers(1, 8), 2))]
            unique = np.unique(rows, axis=0)
            if len(unique) > 2:
                with pytest.raises(ValueError, match=exact(
                    f"boundary image has {len(unique)} distinct points; expected 1 or 2"
                )):
                    _segment_ends(rows)
            else:
                assert _segment_ends(rows).tolist() == unique.tolist()

    def test_single_point_hull(self):
        boundary = [(1.0, 2.0), (1.0, 2.0)]
        assert max_outside_distance([(1.0, 2.0)], boundary) == (0.0, -1)
        assert max_outside_distance([(1.0, 2.0), (1.0, 5.0)], boundary) == (3.0, 1)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(60)
        for ends in [2, 1] * 10:
            boundary = rng.normal(size=(ends, 2))[rng.integers(ends, size=15)]
            interior = rng.normal(size=(25, 2)) * 1.5
            d0, _ = max_outside_distance(interior, boundary)
            theta = rng.uniform(0.0, 2.0 * math.pi)
            rot = np.array([[math.cos(theta), -math.sin(theta)],
                            [math.sin(theta), math.cos(theta)]])
            d1, _ = max_outside_distance(interior @ rot.T, boundary @ rot.T)
            assert abs(d0 - d1) <= 1e-9

    @pytest.mark.parametrize("scenario", ["ex1a", "ex1b"])
    def test_construction_boundary_image_is_at_most_two_points(self, scenario):
        # the fact the segment hull rests on: each boundary face or sphere
        # of a hull domain maps to a single point
        spec = construction(scenario)
        profile = spec.profile()
        M = choose_M(profile, samples=20_000).M
        ((kind, lo, hi),) = [key for key, checks in spec.values if "hull" in dict(checks)]
        for n, big_n, witnesses in itertools.product((1, 2, 3), (2, 3), (True, False)):
            cfg = ScenarioConfig(scenario=scenario, n=n, N=big_n, grid_points=51,
                                 inject_witnesses=witnesses)
            u, _ = spec.build(profile, M, cfg)
            if kind == "annulus":
                d = annulus_domain(lo, hi, n, cfg.grid_points, cfg.witnesses())
            else:
                d = slab_domain(lo, hi, n, cfg.grid_points, cfg.cross_extent, cfg.witnesses())
            images = u.value(boundary(d))[:, :2]
            assert len(np.unique(images, axis=0)) <= 2, (n, big_n, witnesses)


class TestConservation:
    def test_curve_map(self, u1_setup):
        u1, sb = u1_setup
        d = slab_domain(-3.0, 3.0, grid_points=GRID, witnesses=WITNESSES)
        rep = conservation_check(sampled_deviation(u1, d, sb.M**2), d, sb.M**2, tol=1e-10 * sb.M**2)
        assert rep.passed

    def test_radial_map(self, u2_setup):
        u2, sb = u2_setup
        d = annulus_domain(1.0, 3.0, grid_points=GRID, witnesses=(2.0,))
        rep = conservation_check(sampled_deviation(u2, d, sb.M**2), d, sb.M**2, tol=1e-10 * sb.M**2)
        assert rep.passed

    def test_polar_map(self, u3_setup):
        u3, sb = u3_setup
        d = slab_domain(-1.5, 1.5, grid_points=GRID, witnesses=WITNESSES)
        rep = conservation_check(sampled_deviation(u3, d, sb.M**2), d, sb.M**2, tol=1e-9 * sb.M**2)
        assert rep.passed

    def test_explicit_target(self):
        mp = affine_map(np.array([[3.0, 0.0], [0.0, 4.0]]), np.zeros(2))
        d = box_domain([(-1.0, 1.0), (-1.0, 1.0)], grid_points=5)
        rep = conservation_check(sampled_deviation(mp, d, 25.0), d, target_sq=25.0, tol=0.0)
        assert rep.max_dev == 0.0 and rep.passed


class _NanAtOnePoint(VectorMap):
    """x -> (x1, x1²), evaluated at NaN in place of x1 = bad."""

    def __init__(self, bad: float):
        super().__init__(1, 2)
        self.bad = bad

    def map_jet(self, x) -> MapJet:
        t = self._as_point(x)[..., 0]
        t = np.where(t == self.bad, math.nan, t)
        one, zero = np.ones_like(t), np.zeros_like(t)
        value = np.stack([t, t * t], axis=-1)
        jac = np.stack([one, 2.0 * t], axis=-1)[..., None]
        hess = np.stack([zero, 2.0 * one], axis=-1)[..., None, None]
        return MapJet(value, jac, hess)


class TestNonFiniteSamples:
    @pytest.mark.parametrize("check", [
        lambda u, d: residual_certify(sampled_residuals(_tangential_residual, u, d), d, 1.0),
        lambda u, d: residual_certify(
            sampled_residuals(_tangential_residual, u, d, fd_step=1e-4), d, 1.0, jet_source="fd"
        ),
        lambda u, d: max_principle_check(sampled_principle(lambda x: u.value(x)[..., 0], d), d),
        lambda u, d: conservation_check(sampled_deviation(u, d, 1.0), d, 1.0, tol=1.0),
        lambda u, d: hull_check(sampled_hull(u, d), d),
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
            d = slab_domain(-1.0, 1.0, grid_points=2, witnesses=ts)
            residuals = sampled_residuals(_tangential_residual, u1, d)
            rep = residual_certify(residuals, d, 1e-8 * sb1.M**3)
            sup_residuals.append(rep.sup_residual)
            verdict = max_principle_check(
                sampled_principle(lambda x: np.linalg.norm(u3.value(x), axis=-1), d), d
            )
            sup_moduli.append(verdict.sup_interior)
            ts = refine_abscissas(ts)
        assert sup_residuals[0] <= sup_residuals[1] <= sup_residuals[2]
        assert sup_moduli[0] <= sup_moduli[1] <= sup_moduli[2]
