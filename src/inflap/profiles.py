"""One-dimensional building blocks with exact second-order jets.

Two compactly supported bumps (odd ``BumpW1`` on (-2, 2), nonnegative
``BumpZ1`` on (1, 3)), the Gaussian ``GaussianRho``, and two
integral-defined companions: ``ArcComplement``, which completes a profile
to a constant-speed pair, and ``PolarPhase``, the phase whose derivative is
sqrt(M² - ρ'²)/ρ.

Every profile exposes

* ``jet(t)``    -- Jet2 of the profile itself (value, d1, d2),
* ``d1_jet(t)`` -- Jet2 of the profile's *derivative* (d1, d2, d3), used
  where a third derivative of the profile is needed downstream,
* ``value(t)`` / ``d1(t)`` -- fast scalar paths for dense sampling.

Integral-defined values are tabulated once by cumulative panel integration
on a fixed grid anchored exactly at t = 0; point evaluation adds a short
correction integral from the nearest node, so evaluation is O(1), smooth in
t, and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .jets import EvaluationError, Jet2, JetDomainError, jet_cos, jet_exp, jet_lift, jet_sin, jet_sqrt
from .quadrature import gauss_kronrod_15

__all__ = [
    "Profile",
    "BumpW1",
    "BumpZ1",
    "GaussianRho",
    "ArcComplement",
    "PolarPhase",
    "PhaseRangeError",
    "SpeedBound",
    "estimate_sup_abs_d1",
    "choose_M",
    "unit_circle_jets",
]

# The bump branches evaluate exp(1/d) with d = s² - 1 < 0.  Once 1/d drops
# below this the value underflows anyway; cutting off early keeps 1/d² from
# overflowing right at the seam and realizes the exact C-infinity limit.
_SEAM_CUTOFF = -1.0 / 690.0


class PhaseRangeError(EvaluationError):
    """Phase evaluation requested outside the guarded range."""


class Profile:
    """Base class: a scalar C-infinity function of one real variable."""

    kind = "profile"
    #: interval outside which the derivative vanishes (may be infinite)
    support: tuple[float, float] = (-math.inf, math.inf)
    #: finite interval on which to search for sup |derivative|
    sup_search_interval: tuple[float, float] = (-6.0, 6.0)

    def jet(self, t: float) -> Jet2:
        raise NotImplementedError

    def d1_jet(self, t: float) -> Jet2:
        """Jet of the derivative: (p', p'', p''') at t."""
        raise NotImplementedError

    def value(self, t: float) -> float:
        return self.jet(t).val

    def d1(self, t: float) -> float:
        return self.d1_jet(t).val


def _bump_jet(sj: Jet2, sign: float) -> Jet2:
    """Jet of sign * exp(1/(s² - 1)) for the branch variable jet sj."""
    d = sj * sj - 1.0
    if d.val >= _SEAM_CUTOFF:
        return Jet2(0.0)
    return jet_exp(1.0 / d) * sign


def _bump_d1_jet(sj: Jet2, sign: float) -> Jet2:
    """Jet of the branch derivative sign * exp(1/d) * (-d'/d²)."""
    d = sj * sj - 1.0
    if d.val >= _SEAM_CUTOFF:
        return Jet2(0.0)
    dp = sj * (2.0 * sj.d1)  # jet of d' = 2 s s'  (s'' = 0)
    u = 1.0 / d
    up = -(dp / (d * d))
    return jet_exp(u) * up * sign


def _bump_value(s: float, sign: float) -> float:
    d = s * s - 1.0
    if d >= _SEAM_CUTOFF:
        return 0.0
    return sign * math.exp(1.0 / d)


def _bump_d1(s: float, s1: float, sign: float) -> float:
    d = s * s - 1.0
    if d >= _SEAM_CUTOFF:
        return 0.0
    return sign * math.exp(1.0 / d) * (-2.0 * s * s1 / (d * d))


class _BranchBump(Profile):
    """Shared evaluation for bumps of the form sign * exp(1/(s(t)² - 1)).

    Subclasses provide ``_branch(t)`` returning (sign, jet of s) inside the
    support and None outside; outside and at seams the jet is exactly zero,
    the classical C-infinity limit.
    """

    @staticmethod
    def _branch(t: float):
        raise NotImplementedError

    def jet(self, t: float) -> Jet2:
        b = self._branch(t)
        if b is None:
            return Jet2(0.0)
        sign, sj = b
        return _bump_jet(sj, sign)

    def d1_jet(self, t: float) -> Jet2:
        b = self._branch(t)
        if b is None:
            return Jet2(0.0)
        sign, sj = b
        return _bump_d1_jet(sj, sign)

    def value(self, t: float) -> float:
        b = self._branch(t)
        if b is None:
            return 0.0
        sign, sj = b
        return _bump_value(sj.val, sign)

    def d1(self, t: float) -> float:
        b = self._branch(t)
        if b is None:
            return 0.0
        sign, sj = b
        return _bump_d1(sj.val, sj.d1, sign)


class BumpW1(_BranchBump):
    """Odd compactly supported bump: negative on (0, 2), positive on (-2, 0).

    Extremes are -1/e at t = 1 and +1/e at t = -1; the function and all
    derivatives vanish identically outside (-2, 2) and at the seams
    t in {-2, 0, 2}.
    """

    kind = "w1"
    support = (-2.0, 2.0)
    sup_search_interval = (-2.0, 2.0)

    @staticmethod
    def _branch(t: float):
        if 0.0 < t < 2.0:
            return -1.0, Jet2(1.0 - t, -1.0, 0.0)
        if -2.0 < t < 0.0:
            return 1.0, Jet2(1.0 + t, 1.0, 0.0)
        return None


class BumpZ1(_BranchBump):
    """Nonnegative bump supported on (1, 3), peak value 1/e at t = 2."""

    kind = "z1"
    support = (1.0, 3.0)
    sup_search_interval = (1.0, 3.0)

    @staticmethod
    def _branch(t: float):
        if 1.0 < t < 3.0:
            return 1.0, Jet2(2.0 - t, -1.0, 0.0)
        return None


class GaussianRho(Profile):
    """The Gaussian profile exp(-t²): strictly positive, peak 1 at t = 0."""

    kind = "rho_star"
    sup_search_interval = (-6.0, 6.0)

    def jet(self, t: float) -> Jet2:
        tj = jet_lift(t)
        return jet_exp(-(tj * tj))

    def d1_jet(self, t: float) -> Jet2:
        tj = jet_lift(t)
        return (-2.0 * tj) * jet_exp(-(tj * tj))

    def value(self, t: float) -> float:
        return math.exp(-(t * t))

    def d1(self, t: float) -> float:
        return -2.0 * t * math.exp(-(t * t))


class _CumulativeTable:
    """Cumulative integral of a scalar integrand, anchored at the node 0.

    Nodes are exact multiples j*step so that j = 0 lands on t = 0 with a
    stored value of exactly 0.  Each cell is integrated with one
    Kronrod-15 panel; the cells are narrow enough that the panel is exact
    to roundoff for the smooth integrands used here.
    """

    def __init__(self, integrand, lo: float, hi: float, cells: int):
        if cells < 16:
            raise ValueError("cells must be at least 16")
        lo = min(lo, 0.0)
        hi = max(hi, 0.0)
        self.step = (hi - lo) / cells
        self.j_lo = math.floor(lo / self.step)
        self.j_hi = math.ceil(hi / self.step)
        self._integrand = integrand
        count = self.j_hi - self.j_lo
        panel = np.empty(count)
        for k in range(count):
            j = self.j_lo + k
            panel[k], _ = gauss_kronrod_15(integrand, j * self.step, (j + 1) * self.step)
        cum = np.zeros(count + 1)
        anchor = -self.j_lo  # index of node j = 0
        acc = 0.0
        for k in range(anchor, count):
            acc += panel[k]
            cum[k + 1] = acc
        acc = 0.0
        for k in range(anchor - 1, -1, -1):
            acc -= panel[k]
            cum[k] = acc
        self._cum = cum
        self.t_lo = self.j_lo * self.step
        self.t_hi = self.j_hi * self.step
        self.lo_value = float(cum[0])
        self.hi_value = float(cum[-1])

    def value(self, t: float) -> float:
        """Integral from 0 to t, for t within the tabulated range."""
        j = math.floor(t / self.step)
        j = min(max(j, self.j_lo), self.j_hi)
        node = j * self.step
        base = float(self._cum[j - self.j_lo])
        if t == node:
            return base
        corr, _ = gauss_kronrod_15(self._integrand, node, t)
        return base + corr


class ArcComplement(Profile):
    """Arc-length complement of a base profile under a speed bound M.

    The derivative is sqrt(M² - base'²), so the pair (base, complement) has
    constant speed M; the value is the cumulative integral of the
    derivative from 0.  Outside the tabulated range the base derivative is
    taken as zero (exact for the compactly supported bumps), so the value
    continues linearly with slope M.
    """

    def __init__(self, base: Profile, M: float, cells: int = 4096):
        if M <= 0.0:
            raise ValueError("speed bound M must be positive")
        self.base = base
        self.M = float(M)
        self.kind = f"arc_complement({base.kind})"
        lo, hi = base.support
        if not (math.isfinite(lo) and math.isfinite(hi)):
            lo, hi = base.sup_search_interval
        self.sup_search_interval = (lo, hi)
        self._table = _CumulativeTable(self._speed, lo, hi, cells)

    def _speed(self, s: float) -> float:
        p1 = self.base.d1(s)
        v = self.M * self.M - p1 * p1
        if v <= 0.0:
            raise JetDomainError(
                f"speed bound {self.M!r} does not dominate the base derivative at s={s!r}"
            )
        return math.sqrt(v)

    def value(self, t: float) -> float:
        tab = self._table
        if t > tab.t_hi:
            return tab.hi_value + self.M * (t - tab.t_hi)
        if t < tab.t_lo:
            return tab.lo_value + self.M * (t - tab.t_lo)
        return tab.value(t)

    def d1(self, t: float) -> float:
        p1 = self.base.d1(t)
        if p1 == 0.0:
            return self.M
        v = self.M * self.M - p1 * p1
        if v <= 0.0:
            raise JetDomainError(
                f"speed bound {self.M!r} does not dominate the base derivative at t={t!r}"
            )
        return math.sqrt(v)

    def d1_jet(self, t: float) -> Jet2:
        jp = self.base.d1_jet(t)
        jq = jet_sqrt(self.M * self.M - jp * jp)
        if jp.val == 0.0:
            # sqrt(M*M) can be off by one ulp; the slope there is exactly M
            return Jet2(self.M, jq.d1, jq.d2)
        return jq

    def jet(self, t: float) -> Jet2:
        jd = self.d1_jet(t)
        return Jet2(self.value(t), jd.val, jd.d1)


class PolarPhase(Profile):
    """Phase K(t) with K' = sqrt(M² - ρ'²)/ρ for the Gaussian profile ρ.

    The integrand grows like M·e^{t²}, so evaluation is guarded to
    |t| <= t_max; beyond that the tabulation would silently lose precision.
    """

    kind = "phase"

    def __init__(self, M: float, t_max: float = 2.0, cells: int = 4096, rho: GaussianRho | None = None):
        if M <= 0.0:
            raise ValueError("speed bound M must be positive")
        if t_max <= 0.0:
            raise ValueError("t_max must be positive")
        self.rho = rho if rho is not None else GaussianRho()
        self.M = float(M)
        self.t_max = float(t_max)
        self.sup_search_interval = (-t_max, t_max)
        self._table = _CumulativeTable(self._integrand, -t_max, t_max, cells)

    def _integrand(self, s: float) -> float:
        r = self.rho.value(s)
        p1 = self.rho.d1(s)
        v = self.M * self.M - p1 * p1
        if v <= 0.0:
            raise JetDomainError(
                f"speed bound {self.M!r} does not dominate the profile derivative at s={s!r}"
            )
        return math.sqrt(v) / r

    def _check_range(self, t: float):
        if abs(t) > self.t_max * (1.0 + 1e-12):
            raise PhaseRangeError(
                f"phase evaluation at t={t!r} outside the guarded range |t| <= {self.t_max!r}"
            )

    def value(self, t: float) -> float:
        self._check_range(t)
        return self._table.value(t)

    def d1(self, t: float) -> float:
        self._check_range(t)
        return self._integrand(t)

    def d1_jet(self, t: float) -> Jet2:
        self._check_range(t)
        jrho = self.rho.jet(t)
        jp = self.rho.d1_jet(t)
        jq = jet_sqrt(self.M * self.M - jp * jp)
        if jp.val == 0.0:
            jq = Jet2(self.M, jq.d1, jq.d2)
        return jq / jrho

    def jet(self, t: float) -> Jet2:
        jd = self.d1_jet(t)
        return Jet2(self.value(t), jd.val, jd.d1)


@dataclass(frozen=True)
class SpeedBound:
    """A speed bound strictly above the numerical sup of |profile'|."""

    M: float
    sup_estimate: float
    safety: float

    def __post_init__(self):
        if not self.safety > 0.0:
            raise ValueError("safety margin must be positive")
        if not self.M > self.sup_estimate:
            raise ValueError("speed bound must strictly dominate the sup estimate")


def _golden_max(f, lo: float, hi: float, tol: float = 1e-12) -> float:
    """Golden-section maximization of a unimodal f on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol * max(1.0, abs(a), abs(b)):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return max(fc, fd)


def estimate_sup_abs_d1(
    profile: Profile,
    interval: tuple[float, float] | None = None,
    samples: int = 100_000,
) -> float:
    """Dense-grid maximum of |profile'| refined by a golden-section polish."""
    a, b = interval if interval is not None else profile.sup_search_interval
    ts = np.linspace(a, b, samples)
    vals = np.abs(np.asarray([profile.d1(t) for t in ts]))
    i = int(np.argmax(vals))
    lo = float(ts[max(i - 1, 0)])
    hi = float(ts[min(i + 1, samples - 1)])
    polished = _golden_max(lambda t: abs(profile.d1(t)), lo, hi)
    return max(float(vals[i]), polished)


def choose_M(
    profile: Profile,
    safety: float = 0.05,
    interval: tuple[float, float] | None = None,
    samples: int = 100_000,
) -> SpeedBound:
    """Pick M = (1 + safety) * sup|profile'|, strictly above the sup.

    The relative margin keeps sqrt(M² - profile'²) bounded away from zero,
    so arc-complement second derivatives stay well conditioned.
    """
    if safety <= 0.0:
        raise ValueError("safety margin must be positive")
    sup = estimate_sup_abs_d1(profile, interval=interval, samples=samples)
    if sup <= 1e-12:
        raise ValueError("profile derivative vanishes; no meaningful speed bound exists")
    return SpeedBound(M=sup * (1.0 + safety), sup_estimate=sup, safety=safety)


def unit_circle_jets(s: float) -> tuple[Jet2, Jet2]:
    """Component jets of the unit-speed circle parameterization (cos s, sin s)."""
    sj = jet_lift(s)
    return jet_cos(sj), jet_sin(sj)
