"""One-dimensional building blocks with exact second-order jets.

Two compactly supported bumps (odd ``BumpW1`` on (-2, 2), nonnegative
``BumpZ1`` on (1, 3)), the Gaussian ``GaussianRho``, and two
integral-defined companions: ``ArcComplement``, which completes a profile
to a constant-speed pair, and ``PolarPhase``, the phase whose derivative is
sqrt(M² - ρ'²)/ρ.

Every profile writes two formulas, ``value(t)`` and ``d1(t)`` (its
derivative).  Each takes an array of parameters or a :class:`Jet2` of
such arrays and returns the same kind: on an array it gives the numbers,
on a jet it also carries the first two derivatives.  ``value(jet_lift(t))``
is the jet of the profile (value, d1, d2) and ``d1(jet_lift(t))`` the jet
of its derivative (d1, d2, d3).  One call evaluates a whole batch; each
entry gets the bits the formula gives on a float.

Integral-defined values are tabulated once by cumulative panel integration
on a fixed grid anchored exactly at t = 0; point evaluation adds a short
correction integral from the nearest node, a 4-node panel where the
table's cells are narrow and smooth enough for it, so evaluation is O(1),
smooth in t, and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .jets import (BLOCK_POINTS, EvaluationError, Jet2, exp, first_where, grid_nodes, jet_exp,
                   jet_sqrt)
from .quadrature import gauss_kronrod_15, gauss_legendre_4

__all__ = [
    "Profile",
    "BumpW1",
    "BumpZ1",
    "GaussianRho",
    "ArcComplement",
    "PolarPhase",
    "SpeedBound",
    "estimate_sup_abs_d1",
    "choose_M",
]

# The bump branches evaluate exp(1/d) with d = s² - 1 < 0.  Once 1/d drops
# below this the value underflows anyway; cutting off early keeps 1/d² from
# overflowing right at the seam and realizes the exact C-infinity limit.
_SEAM_CUTOFF = -1.0 / 690.0

class Profile:
    """Base class: a scalar C-infinity function of one real variable.

    Subclasses write ``value`` and ``d1`` for an array or a Jet2 of arrays:
    one call covers every sample of a domain or node of a quadrature panel.
    """

    kind = "profile"
    #: finite interval on which to search for sup |derivative|; a bump's
    #: support, outside which its derivative vanishes
    sup_search_interval: tuple[float, float] = (-6.0, 6.0)

    def value(self, t):
        raise NotImplementedError

    def d1(self, t):
        raise NotImplementedError


def _exp(x):
    return jet_exp(x) if isinstance(x, Jet2) else exp(x)


class _BranchBump(Profile):
    """Bumps of the form sign * exp(1/(s² - 1)) with s = offset + slope * t.

    ``branches`` holds (lo, hi, sign, offset, slope) for each open interval
    of the support.  A formula runs only on the entries of a branch whose
    d = s² - 1 lies below the seam cutoff; everywhere else, outside the
    support and at the seams, the profile is exactly zero, the classical
    C-infinity limit.
    """

    branches: tuple = ()

    def _bump(self, t, formula):
        is_jet = isinstance(t, Jet2)
        shape = np.shape(t.val if is_jet else t)
        flat = np.ravel(t.val if is_jet else t).astype(float, copy=False)
        parts = []
        for lo, hi, sign, offset, slope in self.branches:
            idx = np.flatnonzero((lo < flat) & (flat < hi))
            s = offset + slope * flat[idx]
            idx = idx[s * s - 1.0 < _SEAM_CUTOFF]
            sub = flat[idx]
            if is_jet:
                sub = Jet2(sub, *(c if np.ndim(c) == 0 else np.ravel(c)[idx] for c in (t.d1, t.d2)))
            s = offset + slope * sub
            parts.append((idx, formula(sign, s, s * s - 1.0, slope)))
        out = np.zeros((3 if is_jet else 1, flat.size))  # after the formulas: a lower peak
        for idx, r in parts:
            for row, c in zip(out, r.as_tuple() if is_jet else (r,)):
                row[idx] = c
        rows = [row.reshape(shape) for row in out]
        return Jet2(*rows) if is_jet else rows[0]

    def value(self, t):
        return self._bump(t, lambda sign, s, d, slope: sign * _exp(1.0 / d))

    def d1(self, t):
        # sign * exp(1/d) * (-d'/d²) with d' = 2 s s' and s' = slope; -d'/d² is
        # formed first, so no jet of exp(1/d) is alive while it is: a lower peak
        def formula(sign, s, d, slope):
            slope_term = -(s * (2.0 * slope) / (d * d))
            return _exp(1.0 / d) * slope_term * sign
        return self._bump(t, formula)


class BumpW1(_BranchBump):
    """Odd compactly supported bump: negative on (0, 2), positive on (-2, 0).

    Extremes are -1/e at t = 1 and +1/e at t = -1; the function and all
    derivatives vanish identically outside (-2, 2) and at the seams
    t in {-2, 0, 2}.
    """

    kind = "w1"
    sup_search_interval = (-2.0, 2.0)

    branches = ((0.0, 2.0, -1.0, 1.0, -1.0), (-2.0, 0.0, 1.0, 1.0, 1.0))


class BumpZ1(_BranchBump):
    """Nonnegative bump supported on (1, 3), peak value 1/e at t = 2."""

    kind = "z1"
    sup_search_interval = (1.0, 3.0)

    branches = ((1.0, 3.0, 1.0, 2.0, -1.0),)


class GaussianRho(Profile):
    """The Gaussian profile exp(-t²): strictly positive, peak 1 at t = 0."""

    kind = "rho_star"
    sup_search_interval = (-6.0, 6.0)

    def value(self, t):
        return _exp(-(t * t))

    def d1(self, t):
        return -2.0 * t * _exp(-(t * t))


#: widest cell whose corrections may use the 4-node Gauss-Legendre panel.
#: Measured on full cells against Kronrod-15 over cache_cells 16 to 2^20 and
#: t_max up to 26.6, at safety 0.05 and 0.001, in ulps of the table values at
#: the cell's ends: at step <= 2^-10 the panels differ by at most 2 ulps on
#: both arcs and on the phase up to t_max 8, by 3.8 at t_max 16 and by 21 at
#: t_max 26.6, where both round the same steep integrand and the gap halves
#: with the step; at 2^-9 the W1 arc at safety 0.001 differs by 45
CORRECTION_STEP = 2.0**-10
#: how far each cell's G4 panel may differ from its K15 panel, in those
#: ulps, for a table to use G4 corrections: every table measured above
#: passes, but the phase at t_max 26.6 below 262,144 cells.  A small safety
#: brings M² - p'² near zero and G4's truncation error back at any width:
#: at 4,096 cells the W1 arc differs by 98 ulps at safety 1e-4 and by 5.9e8 at
#: 1e-9, where G4 corrections moved ex1a's FD residual from 4.9e-6 to
#: 5.2e-4, failing it
CORRECTION_ULPS = 8.0


class _CumulativeTable:
    """Cumulative integral of a scalar integrand, anchored at the node 0.

    Nodes are exact multiples j*step so that j = 0 lands on t = 0 with a
    stored value of exactly 0.  Each cell is integrated with one
    Kronrod-15 panel; the cells are narrow enough that the panel is exact
    to roundoff for the smooth integrands used here.  The panels are
    evaluated on consecutive blocks of at most BLOCK_POINTS cells.  A
    value adds one correction panel from its node, shorter than a cell:
    4-node Gauss-Legendre where ``short`` holds, Kronrod-15 otherwise.
    ``short`` holds when step <= CORRECTION_STEP and G4 on every cell
    matches the cell's K15 panel to CORRECTION_ULPS, checked once per
    table with 4 more integrand nodes a cell.
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
        j = np.arange(self.j_lo, self.j_hi)
        blocks = (j[k : k + BLOCK_POINTS] for k in range(0, len(j), BLOCK_POINTS))
        panel = np.concatenate([
            gauss_kronrod_15(integrand, jb * self.step, (jb + 1) * self.step)[0] for jb in blocks
        ])
        anchor = -self.j_lo  # index of node j = 0
        # sequential running sums outward from the anchor node
        cum = np.zeros(len(panel) + 1)
        cum[anchor + 1:] = np.cumsum(panel[anchor:])
        cum[:anchor] = np.cumsum(-panel[:anchor][::-1])[::-1]
        self._cum = cum
        self.short = self.step <= CORRECTION_STEP and self._short_matches(j, panel)
        self.t_lo = self.j_lo * self.step
        self.t_hi = self.j_hi * self.step
        self.lo_value = float(cum[0])
        self.hi_value = float(cum[-1])

    def _short_matches(self, j, panel) -> bool:
        """Whether G4 on every cell is within CORRECTION_ULPS ulps, of the
        larger table value at the cell's ends, of the cell's K15 panel."""
        for k in range(0, len(j), BLOCK_POINTS):
            jb = j[k : k + BLOCK_POINTS]
            short = gauss_legendre_4(self.integrand, jb * self.step, (jb + 1) * self.step)
            ends = np.maximum(np.abs(self._cum[k : k + len(jb)]),
                              np.abs(self._cum[k + 1 : k + 1 + len(jb)]))
            ulp = np.spacing(ends)
            if not np.all(np.abs(short - panel[k : k + len(jb)]) <= CORRECTION_ULPS * ulp):
                return False
        return True

    def value(self, t):
        """Integral from 0 to t, for t within the tabulated range."""
        j = np.clip(np.floor(t / self.step), self.j_lo, self.j_hi)
        node = j * self.step
        base = self._cum[(j - self.j_lo).astype(int)]
        if self.short:
            corr = gauss_legendre_4(self.integrand, node, t)
        else:
            corr, _ = gauss_kronrod_15(self.integrand, node, t)
        return np.where(t == node, base, base + corr)


class _IntegralProfile(Profile):
    """A profile tabulated as the integral from 0 of its own ``d1``.

    ``d1`` is built on sqrt(M² - p'²) for a profile p and is also the table
    integrand.  On a jet, ``value`` returns the table value together with
    the jet of ``d1``; that is the profile's jet for the identity jet
    ``jet_lift(t)``, the only jet any caller passes.
    """

    M: float

    def _integral(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def value(self, t):
        if isinstance(t, Jet2):
            v = self._integral(t.val)
            jd = self.d1(t)
            return Jet2(v, jd.val, jd.d1)
        return self._integral(t)

    def _root(self, p1, t):
        """sqrt(M² - p1²) for p1 = p'(t), on an array or a jet."""
        v = self.M * self.M - p1 * p1
        bad = ~(np.asarray(getattr(v, "val", v)) > 0.0)
        if np.any(bad):
            raise EvaluationError(
                f"speed bound {self.M!r} does not dominate the profile derivative "
                f"at t={first_where(bad, getattr(t, 'val', t))!r}"
            )
        return jet_sqrt(v) if isinstance(v, Jet2) else np.sqrt(v)


class ArcComplement(_IntegralProfile):
    """Arc-length complement of a base profile under a speed bound M.

    The derivative is sqrt(M² - base'²), so the pair (base, complement) has
    constant speed M; the value is the cumulative integral of the
    derivative from 0.  The table spans the base's ``sup_search_interval``,
    the support of either bump; outside it the base derivative is taken as
    zero (exact for the bumps), so the value continues linearly with slope M.
    """

    def __init__(self, base: Profile, M: float, cells: int = 4096):
        if M <= 0.0:
            raise ValueError("speed bound M must be positive")
        self.base = base
        self.M = float(M)
        self.kind = f"arc_complement({base.kind})"
        self._table = _CumulativeTable(self.d1, *base.sup_search_interval, cells)

    def d1(self, t):
        return self._root(self.base.d1(t), t)

    def _integral(self, t):
        tab = self._table
        inside = tab.value(np.clip(t, tab.t_lo, tab.t_hi))
        return np.where(
            t > tab.t_hi,
            tab.hi_value + self.M * (t - tab.t_hi),
            np.where(t < tab.t_lo, tab.lo_value + self.M * (t - tab.t_lo), inside),
        )


class PolarPhase(_IntegralProfile):
    """Phase K(t) with K' = sqrt(M² - ρ'²)/ρ for the Gaussian profile ρ.

    The integrand grows like M·e^{t²}, so ``value`` is guarded to
    |t| <= t_max; beyond that the tabulation would silently lose
    precision.  ``d1`` is the closed-form integrand and is not
    guarded: the table's last cell may reach half a cell past t_max.
    """

    kind = "phase"

    def __init__(self, M: float, t_max: float = 2.0, cells: int = 4096, *, rho: GaussianRho):
        if M <= 0.0:
            raise ValueError("speed bound M must be positive")
        if t_max <= 0.0:
            raise ValueError("t_max must be positive")
        self.rho = rho
        self.M = float(M)
        self.t_max = float(t_max)
        self._table = _CumulativeTable(self.d1, -t_max, t_max, cells)

    def d1(self, t):
        # rho' from the one rho, in GaussianRho.d1's order: one exp per node
        rho = self.rho.value(t)
        return self._root(-2.0 * t * rho, t) / rho

    def _integral(self, t):
        bad = np.abs(t) > self.t_max * (1.0 + 1e-12)
        if np.any(bad):
            raise EvaluationError(
                f"phase evaluation at t={first_where(bad, t)!r} outside the guarded range "
                f"|t| <= {self.t_max!r}"
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


def _grid_argmax_abs_d1(profile: Profile, a: float, b: float, samples: int) -> tuple[int, float]:
    """The index and value of ``np.argmax`` of |profile'| on
    ``np.linspace(a, b, samples)``: the grid is formed and reduced
    BLOCK_POINTS nodes at a time by a running maximum in which the first
    index wins a tie and the first NaN wins outright, so no array of the
    grid's size exists."""
    best, i = -math.inf, 0
    for start in range(0, samples, BLOCK_POINTS):
        stop = min(start + BLOCK_POINTS, samples)
        vals = np.abs(profile.d1(grid_nodes(a, b, samples, start, stop)))
        j = int(np.argmax(vals))
        if vals[j] > best or (math.isnan(vals[j]) and not math.isnan(best)):
            best, i = float(vals[j]), start + j
    return i, best


def estimate_sup_abs_d1(
    profile: Profile,
    interval: tuple[float, float] | None = None,
    samples: int = 100_000,
) -> float:
    """Dense-grid maximum of |profile'| refined by a golden-section polish
    between the maximizing node's two neighbours."""
    if samples < 1:
        raise ValueError("samples must be at least 1")
    a, b = interval if interval is not None else profile.sup_search_interval
    i, best = _grid_argmax_abs_d1(profile, a, b, samples)
    around = grid_nodes(a, b, samples, max(i - 1, 0), min(i + 1, samples - 1) + 1)
    polished = _golden_max(lambda t: float(abs(profile.d1(t))), float(around[0]), float(around[-1]))
    return max(best, polished)


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
    sup = estimate_sup_abs_d1(profile, interval=interval, samples=samples)
    if sup <= 1e-12:
        raise ValueError("profile derivative vanishes; no meaningful speed bound exists")
    return SpeedBound(M=sup * (1.0 + safety), sup_estimate=sup, safety=safety)
