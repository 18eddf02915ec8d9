import math

import numpy as np
import pytest

from inflap.jets import Jet2, JetDomainError, fd_jet, jet_lift
from inflap.profiles import (
    ArcComplement,
    BumpW1,
    BumpZ1,
    GaussianRho,
    PhaseRangeError,
    PolarPhase,
    Profile,
    SpeedBound,
    choose_M,
    estimate_sup_abs_d1,
)

INV_E = math.exp(-1.0)
SQRT_2_OVER_E = 0.8577638849607068  # closed form sqrt(2/e), peak of |rho'|


class _ConstantProfile(Profile):
    kind = "const"
    sup_search_interval = (-1.0, 1.0)

    def value(self, t):
        return Jet2(4.2) if isinstance(t, Jet2) else 4.2

    def d1(self, t):
        return Jet2(0.0) if isinstance(t, Jet2) else 0.0


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
        brute = max(abs(w1.d1(float(t))) for t in ts)
        assert est >= brute - 1e-12
        assert est == pytest.approx(brute, abs=1e-9)

    def test_constant_profile_sup_is_zero(self):
        assert estimate_sup_abs_d1(_ConstantProfile(), samples=1000) == 0.0


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
        with pytest.raises(JetDomainError):
            ArcComplement(w1, 0.5 * w1_bound.sup_estimate, cells=256)

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
        with pytest.raises(PhaseRangeError):
            phase.value(2.5)
        with pytest.raises(PhaseRangeError):
            phase.value(jet_lift(-2.0001))

    def test_monotone_increasing(self, phase):
        ts = np.linspace(-1.9, 1.9, 200)
        vals = [phase.value(float(t)) for t in ts]
        assert all(a < b for a, b in zip(vals, vals[1:]))


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
