import math

import numpy as np
import pytest

from inflap.jets import BLOCK_POINTS, EvaluationError, Jet2, grid_nodes, jet_lift
from inflap.profiles import (
    ArcComplement,
    BumpW1,
    BumpZ1,
    GaussianRho,
    PolarPhase,
    Profile,
    SpeedBound,
    _grid_argmax_abs_d1,
    choose_M,
    estimate_sup_abs_d1,
)
from inflap.scenarios import ScenarioConfig, run_scenario

from helpers import exact, fd_jet, traced_peak

INV_E = math.exp(-1.0)
SQRT_2_OVER_E = 0.8577638849607068  # closed form sqrt(2/e), peak of |rho'|


class _ConstantProfile(Profile):
    kind = "const"
    sup_search_interval = (-1.0, 1.0)

    def value(self, t):
        return Jet2(4.2) if isinstance(t, Jet2) else np.full(np.shape(t), 4.2)

    def d1(self, t):
        return Jet2(0.0) if isinstance(t, Jet2) else np.zeros(np.shape(t))


@pytest.fixture(scope="module")
def w1():
    return BumpW1()


@pytest.fixture(scope="module")
def z1():
    return BumpZ1()


@pytest.fixture(scope="module")
def rho():
    return GaussianRho()


@pytest.fixture(scope="module")
def w1_bound(w1):
    return choose_M(w1, samples=20_000)


@pytest.fixture(scope="module")
def w2(w1, w1_bound):
    return ArcComplement(w1, w1_bound.M, cells=2048)


class TestBumps:
    def test_w1_outside_support_is_exact_zero(self, w1):
        for t in (3.0, 2.0, -2.0, -100.0, 0.0):
            assert w1.value(jet_lift(t)).as_tuple() == (0.0, 0.0, 0.0)
            assert w1.d1(jet_lift(t)).as_tuple() == (0.0, 0.0, 0.0)

    def test_w1_branch_minimum(self, w1):
        j = w1.value(jet_lift(1.0))
        assert j.val == -INV_E
        assert j.d1 == 0.0

    def test_w1_symmetric_branch(self, w1):
        assert w1.value(jet_lift(-1.0)).val == INV_E

    def test_w1_odd_symmetry(self, w1):
        for t in np.linspace(-2.5, 2.5, 401):
            assert w1.value(-float(t)) == -w1.value(float(t))

    def test_z1_support_and_peak(self, z1):
        assert z1.value(jet_lift(0.5)).as_tuple() == (0.0, 0.0, 0.0)
        assert z1.value(jet_lift(1.0)).as_tuple() == (0.0, 0.0, 0.0)
        assert z1.value(jet_lift(3.0)).as_tuple() == (0.0, 0.0, 0.0)
        j = z1.value(jet_lift(2.0))
        assert j.val == INV_E
        assert j.d1 == 0.0

    def test_z1_positive_and_decreasing_past_peak(self, z1):
        v = z1.value(2.9)
        assert 0.0 < v < INV_E
        ts = np.linspace(2.0, 3.0, 500, endpoint=False)[1:]
        vals = [z1.value(float(t)) for t in ts]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(v > 0.0 for v in vals)

    def test_z1_nonnegative_everywhere(self, z1):
        for t in np.linspace(-1.0, 5.0, 601):
            assert z1.value(float(t)) >= 0.0

    def test_seam_smoothness(self, w1):
        eps = 1e-2
        for t in (2.0 - eps, -2.0 + eps, eps, -eps):
            j = w1.value(jet_lift(t))
            assert abs(j.val) <= 1e-10
            assert abs(j.d1) <= 1e-10
            assert abs(j.d2) <= 1e-10

    def test_no_overflow_arbitrarily_close_to_seams(self, w1):
        for t in (1e-300, 2.0 - 1e-16, 1e-12, -2.0 + 1e-13):
            j = w1.value(jet_lift(t))
            d = w1.d1(jet_lift(t))
            assert all(math.isfinite(v) for v in j.as_tuple() + d.as_tuple())


class TestGaussian:
    def test_peak_jet(self, rho):
        assert rho.value(jet_lift(0.0)).as_tuple() == (1.0, 0.0, -2.0)

    def test_boundary_value(self, rho):
        assert rho.value(jet_lift(1.0)).val == pytest.approx(INV_E, abs=1e-16)

    def test_steepest_slope(self, rho):
        t = 1.0 / math.sqrt(2.0)
        assert abs(rho.value(jet_lift(t)).d1) == pytest.approx(SQRT_2_OVER_E, abs=1e-12)


class TestSupEstimate:
    def test_gaussian_matches_closed_form(self, rho):
        est = estimate_sup_abs_d1(rho, interval=(-6.0, 6.0), samples=100_000)
        assert est == pytest.approx(SQRT_2_OVER_E, abs=1e-6)

    def test_w1_matches_brute_force_grid(self, w1):
        est = estimate_sup_abs_d1(w1, samples=20_000)
        ts = np.linspace(-2.0, 2.0, 1 << 20)
        brute = float(np.abs(w1.d1(ts)).max())
        assert est >= brute - 1e-12
        assert est == pytest.approx(brute, abs=1e-9)

    def test_constant_profile_sup_is_zero(self):
        assert estimate_sup_abs_d1(_ConstantProfile(), samples=1000) == 0.0


class _Spikes(Profile):
    """|d1| is 0 except at the given integer nodes of linspace(0, 3B, 3B + 1)."""

    sup_search_interval = (0.0, 3.0 * BLOCK_POINTS)

    def __init__(self, spikes):
        self.spikes = spikes

    def d1(self, t):
        out = np.zeros(np.shape(t))
        for node, value in self.spikes.items():
            out[np.asarray(t) == node] = value
        return out


def _whole_grid_argmax(profile, samples=100_000):
    vals = np.abs(profile.d1(np.linspace(*profile.sup_search_interval, samples)))
    i = int(np.argmax(vals))
    return i, float(vals[i])


class TestStreamedSupSearch:
    """The block-wise sup search reduces to np.argmax over the whole grid
    without holding an array of the grid's size."""

    @pytest.mark.parametrize("profile", [BumpW1(), BumpZ1(), GaussianRho()], ids=lambda p: p.kind)
    def test_equals_whole_grid_argmax(self, profile):
        a, b = profile.sup_search_interval
        assert _grid_argmax_abs_d1(profile, a, b, 100_000) == _whole_grid_argmax(profile)

    @pytest.mark.parametrize("spikes, expected", [
        # a tie across the first block boundary keeps the first index
        ({BLOCK_POINTS - 1: 2.0, BLOCK_POINTS: -2.0, 2 * BLOCK_POINTS + 5: 2.0}, BLOCK_POINTS - 1),
        # the first NaN wins, even after a larger value and before a second NaN
        ({7.0: 5.0, BLOCK_POINTS + 3: math.nan, 2 * BLOCK_POINTS: math.nan}, BLOCK_POINTS + 3),
    ], ids=["tie", "nan"])
    def test_first_index_as_argmax(self, spikes, expected):
        profile = _Spikes(spikes)
        samples = 3 * BLOCK_POINTS + 1
        i, value = _grid_argmax_abs_d1(profile, *profile.sup_search_interval, samples)
        j, whole = _whole_grid_argmax(profile, samples)
        assert i == j == expected
        assert np.array_equal(value, whole, equal_nan=True)

    @pytest.mark.parametrize("interval", [BumpW1.sup_search_interval, BumpZ1.sup_search_interval,
                                          GaussianRho.sup_search_interval])
    @pytest.mark.parametrize("samples", [1, 2, BLOCK_POINTS, 12_345, 100_000])
    def test_nodes_are_linspace(self, interval, samples):
        blocks = [grid_nodes(*interval, samples, k, min(k + BLOCK_POINTS, samples))
                  for k in range(0, samples, BLOCK_POINTS)]
        assert np.concatenate(blocks).tobytes() == np.linspace(*interval, samples).tobytes()

    def test_traced_peak_is_flat_in_the_grid(self):
        # one grid-sized pass peaked at 2.40 MB at 100,000 nodes, 9.61 MB at 400,000
        small, large = (traced_peak(lambda: choose_M(BumpW1(), samples=samples))
                        for samples in (100_000, 400_000))
        assert small < 0.6e6
        assert large < 1.1 * small


class TestChooseM:
    def test_gaussian_bound(self, rho):
        sb = choose_M(rho, safety=0.05, samples=100_000)
        assert sb.M == pytest.approx(1.05 * SQRT_2_OVER_E, abs=1e-6)
        assert sb.M > sb.sup_estimate

    def test_w1_bound_dominates(self, w1, w1_bound):
        ts = np.linspace(-2.0, 2.0, 50_000)
        assert all(abs(w1.d1(float(t))) < w1_bound.M for t in ts)

    def test_degenerate_profile_rejected(self):
        with pytest.raises(ValueError):
            choose_M(_ConstantProfile(), samples=1000)

    def test_bad_safety_rejected(self, rho):
        with pytest.raises(ValueError):
            choose_M(rho, safety=0.0, samples=1000)

    def test_speed_bound_invariants(self):
        with pytest.raises(ValueError):
            SpeedBound(M=1.0, sup_estimate=1.0, safety=0.05)
        with pytest.raises(ValueError):
            SpeedBound(M=1.1, sup_estimate=1.0, safety=0.0)


class TestArcComplement:
    def test_anchored_at_zero(self, w2, w1_bound):
        j = w2.value(jet_lift(0.0))
        assert j.val == 0.0
        assert j.d1 == w1_bound.M

    def test_slope_is_exactly_m_outside_support(self, w2, w1_bound):
        assert w2.d1(5.0) == w1_bound.M
        assert w2.value(jet_lift(5.0)).d1 == w1_bound.M

    def test_linear_extension_is_exact(self, w2, w1_bound):
        assert w2.value(5.0) == w2.value(2.0) + w1_bound.M * 3.0
        assert w2.value(-4.0) == w2.value(-2.0) - w1_bound.M * 2.0

    def test_constant_speed_identity(self, w1, w2, w1_bound):
        m_sq = w1_bound.M * w1_bound.M
        rng = np.random.default_rng(7)
        for t in rng.uniform(-3.0, 3.0, size=200):
            d1 = w1.d1(float(t))
            q1 = w2.d1(float(t))
            assert abs(d1 * d1 + q1 * q1 - m_sq) <= 1e-12

    def test_odd_value(self, w2):
        # even integrand makes the cumulative integral odd
        assert w2.value(1.3) == pytest.approx(-w2.value(-1.3), rel=1e-12)

    def test_insufficient_bound_rejected(self, w1, w1_bound):
        M = 0.5 * w1_bound.sup_estimate
        message = f"speed bound {M!r} does not dominate the profile derivative at t=-1.8671875"
        with pytest.raises(EvaluationError, match=exact(message)):
            ArcComplement(w1, M, cells=256)

    def test_nonpositive_bound_rejected(self, w1):
        with pytest.raises(ValueError):
            ArcComplement(w1, 0.0)

    def test_value_marches_with_quadrature(self, w2, w1_bound):
        # through the support the value is the cumulative integral of a
        # speed between the conditioning floor and M
        floor = w1_bound.M * math.sqrt(1.0 - 1.0 / (1.0 + w1_bound.safety) ** 2)
        for a, b in ((-1.5, -0.5), (0.25, 1.75)):
            delta = w2.value(b) - w2.value(a)
            assert floor * (b - a) <= delta <= w1_bound.M * (b - a) + 1e-12


@pytest.fixture(scope="module")
def phase(rho):
    sb = choose_M(rho, samples=20_000)
    return PolarPhase(sb.M, t_max=2.0, cells=2048, rho=rho)


class TestPolarPhase:
    def test_anchor_and_slope(self, phase):
        assert phase.value(0.0) == 0.0
        assert phase.d1(jet_lift(0.0)).val == phase.M

    def test_constant_speed_identity(self, phase, rho):
        m_sq = phase.M * phase.M
        rng = np.random.default_rng(11)
        for t in rng.uniform(-1.5, 1.5, size=100):
            t = float(t)
            r = rho.value(t)
            k1 = phase.d1(t)
            p1 = rho.d1(t)
            assert abs(r * r * k1 * k1 + p1 * p1 - m_sq) <= 1e-12

    def test_range_guard(self, phase):
        message = "phase evaluation at t={} outside the guarded range |t| <= 2.0"
        with pytest.raises(EvaluationError, match=exact(message.format(2.5))):
            phase.value(2.5)
        with pytest.raises(EvaluationError, match=exact(message.format(-2.0001))):
            phase.value(jet_lift(-2.0001))

    def test_monotone_increasing(self, phase):
        ts = np.linspace(-1.9, 1.9, 200)
        vals = [phase.value(float(t)) for t in ts]
        assert all(a < b for a, b in zip(vals, vals[1:]))


def _tables(safety=0.05, cells=4096):
    """The W1 and Z1 arc tables and the phase table at t_max 2."""
    tables = []
    for base in (BumpW1(), BumpZ1()):
        tables.append(ArcComplement(base, choose_M(base, safety).M, cells=cells)._table)
    rho = GaussianRho()
    tables.append(PolarPhase(choose_M(rho, safety).M, cells=cells, rho=rho)._table)
    return tables


class TestCorrectionPanel:
    """A value's correction is 4-node Gauss-Legendre on tables whose cells
    are at most CORRECTION_STEP wide and whose every cell's G4 panel matches
    its Kronrod-15 panel; Kronrod-15 elsewhere."""

    def test_default_tables_take_the_short_panel(self):
        assert [tab.short for tab in _tables()] == [True, True, True]

    def test_wide_cells_keep_kronrod(self):
        # 2,048 cells: steps of 2^-9, 1.5·2^-10 and 2^-9
        assert [tab.short for tab in _tables(cells=2048)] == [False, False, False]

    def test_small_safety_keeps_kronrod(self):
        # M² - p'² nearly vanishes where |p'| peaks, and G4 misses by 1e5 ulps and more
        assert [tab.short for tab in _tables(safety=1e-9)] == [False, False, False]

    def test_short_values_are_kronrod_values_to_roundoff(self):
        for tab in _tables():
            t = np.linspace(tab.t_lo, tab.t_hi, 20_001)
            short = tab.value(t)
            tab.short = False
            diff = np.abs(short - tab.value(t))
            assert np.all(diff <= 4.0 * np.spacing(np.abs(short)) + 1e-300)

    def test_small_safety_passes_the_fd_residual(self):
        report = run_scenario(ScenarioConfig(scenario="ex1a", n=2, grid_points=501, safety=1e-9))
        assert [r.passed for r in report.residual] == [True, True]


class TestJetsAgainstFiniteDifferences:
    def _check(self, profile, ts, d1_tol=1e-5, d2_tol=1e-3):
        for t in ts:
            t = float(t)
            jet = profile.value(jet_lift(t))
            fd = fd_jet(profile.value, t, h=1e-4)
            scale1 = max(1.0, abs(fd.d1))
            scale2 = max(1.0, abs(fd.d2))
            assert abs(jet.d1 - fd.d1) <= d1_tol * scale1
            assert abs(jet.d2 - fd.d2) <= d2_tol * scale2

    def test_w1(self, w1):
        rng = np.random.default_rng(3)
        self._check(w1, rng.uniform(-2.5, 2.5, size=200))

    def test_z1(self, z1):
        rng = np.random.default_rng(4)
        self._check(z1, rng.uniform(0.5, 3.5, size=200))

    def test_rho(self, rho):
        rng = np.random.default_rng(5)
        self._check(rho, rng.uniform(-2.0, 2.0, size=200))

    def test_w2(self, w2):
        rng = np.random.default_rng(6)
        self._check(w2, rng.uniform(-2.5, 2.5, size=200))

    def test_z2(self, z1):
        sb = choose_M(z1, samples=20_000)
        z2 = ArcComplement(z1, sb.M, cells=2048)
        rng = np.random.default_rng(8)
        self._check(z2, rng.uniform(0.5, 3.5, size=200))

    def test_phase(self, rho):
        sb = choose_M(rho, samples=20_000)
        phase = PolarPhase(sb.M, t_max=2.0, cells=2048, rho=rho)
        rng = np.random.default_rng(9)
        self._check(phase, rng.uniform(-1.5, 1.5, size=200))

    def test_d1_jets_against_fd_of_d1(self, w1, z1, rho):
        # Looser tolerances than the base jets: near the bump seams the
        # higher derivatives grow fast, so the fd truncation error
        # h²|p''''|/6 itself reaches ~1e-4 at h = 1e-4.
        rng = np.random.default_rng(10)
        for profile, lo, hi in ((w1, -2.5, 2.5), (z1, 0.5, 3.5), (rho, -2.0, 2.0)):
            for t in rng.uniform(lo, hi, size=100):
                t = float(t)
                jd = profile.d1(jet_lift(t))
                fd = fd_jet(profile.d1, t, h=1e-4)
                assert abs(jd.val - fd.val) <= 1e-12 * max(1.0, abs(fd.val))
                assert abs(jd.d1 - fd.d1) <= 1e-3 * max(1.0, abs(fd.d1))
                assert abs(jd.d2 - fd.d2) <= 1e-1 * max(1.0, abs(fd.d2))
