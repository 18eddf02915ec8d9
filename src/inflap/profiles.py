"""One-dimensional building blocks with exact second-order jets.

Two compactly supported bumps (odd ``BumpW1`` on (-2, 2), nonnegative
``BumpZ1`` on (1, 3)), the Gaussian ``GaussianRho``, and two
integral-defined companions: ``ArcComplement``, which completes a profile
to a constant-speed pair, and ``PolarPhase``, the phase whose derivative is
sqrt(M² - ρ'²)/ρ.

Every profile writes two formulas, ``value(t)`` and ``d1(t)`` (its
derivative).  Each takes a float or a :class:`Jet2` and returns the same
kind: on a float it gives the number, on a jet it also carries the first
two derivatives.  ``value(jet_lift(t))`` is the jet of the profile
(value, d1, d2) and ``d1(jet_lift(t))`` the jet of its derivative
(d1, d2, d3).

Integral-defined values are tabulated once by cumulative panel integration
on a fixed grid anchored exactly at t = 0; point evaluation adds a short
correction integral from the nearest node, so evaluation is O(1), smooth in
t, and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .jets import EvaluationError, Jet2, JetDomainError, jet_exp, jet_sqrt
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
]

# The bump branches evaluate exp(1/d) with d = s² - 1 < 0.  Once 1/d drops
# below this the value underflows anyway; cutting off early keeps 1/d² from
# overflowing right at the seam and realizes the exact C-infinity limit.
_SEAM_CUTOFF = -1.0 / 690.0


class PhaseRangeError(EvaluationError):
    """Phase evaluation requested outside the guarded range."""


class Profile:
    """Base class: a scalar C-infinity function of one real variable.

    Subclasses write ``value`` and ``d1`` for an argument that is a float
    or a Jet2.  On a float they allocate no jet: that path runs for every
    dense sample and every quadrature node.
    """

    kind = "profile"
    #: interval outside which the derivative vanishes (may be infinite)
    support: tuple[float, float] = (-math.inf, math.inf)
    #: finite interval on which to search for sup |derivative|
    sup_search_interval: tuple[float, float] = (-6.0, 6.0)

    def value(self, t):
        raise NotImplementedError

    def d1(self, t):
        raise NotImplementedError


class _BranchBump(Profile):
    """Bumps of the form sign * exp(1/(s² - 1)) with s = offset + slope * t.

    Subclasses provide ``_branch(t)`` returning (sign, offset, slope) of the
    branch containing t inside the support and None outside; outside and at
    seams the profile is exactly zero, the classical C-infinity limit.
    """

    @staticmethod
    def _branch(t: float):
        raise NotImplementedError

    def value(self, t):
        is_jet = isinstance(t, Jet2)
        b = self._branch(t.val if is_jet else t)
        if b is not None:
            sign, offset, slope = b
            s = offset + slope * t
            d = s * s - 1.0
            if is_jet:
                if d.val < _SEAM_CUTOFF:
                    return jet_exp(1.0 / d) * sign
            elif d < _SEAM_CUTOFF:
                return sign * math.exp(1.0 / d)
        return Jet2(0.0) if is_jet else 0.0

    def d1(self, t):
        # sign * exp(1/d) * (-d'/d²) with d' = 2 s s' and s' = slope
        is_jet = isinstance(t, Jet2)
        b = self._branch(t.val if is_jet else t)
        if b is not None:
            sign, offset, slope = b
            s = offset + slope * t
            d = s * s - 1.0
            if is_jet:
                if d.val < _SEAM_CUTOFF:
                    return jet_exp(1.0 / d) * -(s * (2.0 * slope) / (d * d)) * sign
            elif d < _SEAM_CUTOFF:
                return math.exp(1.0 / d) * -(s * (2.0 * slope) / (d * d)) * sign
        return Jet2(0.0) if is_jet else 0.0


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
            return -1.0, 1.0, -1.0
        if -2.0 < t < 0.0:
            return 1.0, 1.0, 1.0
        return None


class BumpZ1(_BranchBump):
    """Nonnegative bump supported on (1, 3), peak value 1/e at t = 2."""

    kind = "z1"
    support = (1.0, 3.0)
    sup_search_interval = (1.0, 3.0)

    @staticmethod
    def _branch(t: float):
        if 1.0 < t < 3.0:
            return 1.0, 2.0, -1.0
        return None


class GaussianRho(Profile):
    """The Gaussian profile exp(-t²): strictly positive, peak 1 at t = 0."""

    kind = "rho_star"
    sup_search_interval = (-6.0, 6.0)

    def value(self, t):
        if isinstance(t, Jet2):
            return jet_exp(-(t * t))
        return math.exp(-(t * t))

    def d1(self, t):
        e = jet_exp(-(t * t)) if isinstance(t, Jet2) else math.exp(-(t * t))
        return -2.0 * t * e


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
        self.integrand = integrand
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
        corr, _ = gauss_kronrod_15(self.integrand, node, t)
        return base + corr


class _IntegralProfile(Profile):
    """A profile tabulated as the integral from 0 of its own ``d1``.

    ``d1`` is built on sqrt(M² - p'²) for a profile p and is also the table
    integrand.  On a jet, ``value`` returns the table value together with
    the jet of ``d1``; that is the profile's jet for the identity jet
    ``jet_lift(t)``, the only jet any caller passes.
    """

    M: float

    def _integral(self, t: float) -> float:
        raise NotImplementedError

    def value(self, t):
        if isinstance(t, Jet2):
            v = self._integral(t.val)
            jd = self.d1(t)
            return Jet2(v, jd.val, jd.d1)
        return self._integral(t)

    def _root(self, p1, t):
        """sqrt(M² - p1²) for p1 = p'(t), on a float or a jet."""
        v = self.M * self.M - p1 * p1
        if isinstance(v, Jet2):
            if v.val > 0.0:
                return jet_sqrt(v)
        elif v > 0.0:
            return math.sqrt(v)
        raise JetDomainError(
            f"speed bound {self.M!r} does not dominate the profile derivative "
            f"at t={getattr(t, 'val', t)!r}"
        )


class ArcComplement(_IntegralProfile):
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
        self._table = _CumulativeTable(self.d1, lo, hi, cells)

    def d1(self, t):
        return self._root(self.base.d1(t), t)

    def _integral(self, t: float) -> float:
        tab = self._table
        if t > tab.t_hi:
            return tab.hi_value + self.M * (t - tab.t_hi)
        if t < tab.t_lo:
            return tab.lo_value + self.M * (t - tab.t_lo)
        return tab.value(t)


class PolarPhase(_IntegralProfile):
    """Phase K(t) with K' = sqrt(M² - ρ'²)/ρ for the Gaussian profile ρ.

    The integrand grows like M·e^{t²}, so ``value`` is guarded to
    |t| <= t_max; beyond that the tabulation would silently lose
    precision.  ``d1`` is the closed-form integrand and is not
    guarded: the table's last cell may reach half a cell past t_max.
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
        self._table = _CumulativeTable(self.d1, -t_max, t_max, cells)

    def d1(self, t):
        return self._root(self.rho.d1(t), t) / self.rho.value(t)

    def _integral(self, t: float) -> float:
        if abs(t) > self.t_max * (1.0 + 1e-12):
            raise PhaseRangeError(
                f"phase evaluation at t={t!r} outside the guarded range |t| <= {self.t_max!r}"
            )
        return self._table.value(t)


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
    # Python floats: scalar arithmetic on numpy floats is several times slower
    vals = np.abs(np.fromiter(map(profile.d1, ts.tolist()), float, samples))
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
