"""Solution maps built from the scalar profiles, with exact jets.

``value`` and ``map_jet`` take a batch of points (..., n) and return values
(..., N) and a :class:`MapJet` with the same leading axes; one point (n,)
is the batch with none.  Every profile map factors through one scalar
variable (the first coordinate or the radius) and states its components
once, as a formula in that variable.  The formula takes an array or a
Jet2, as the profiles do: on an array it gives the map's values, on the
identity jet the univariate jets from which the multivariate jacobians and
hessians are assembled by the chain rule.  Planar constructions embed into
higher target dimension by zero padding, which preserves every identity.

The formulas are elementwise in the variable, so each run of adjacent,
bit-identical entries of it is evaluated once and the results are gathered
back to every point.  The domains order their points so that the copies of
one variable are adjacent: ``slab_domain`` abscissa-major (the 3^(n-1)
cross-section copies of each x1) and ``annulus_domain`` radius-major (the
2n axis directions of each |x|); the finite-difference shifts along the
invariant axes keep that order.  A batch with no adjacent repeats is
evaluated as it is.

The finite-difference oracle evaluates each shifted batch of its stencil
with the map's ``value`` (a profile map's unshifted batch from the runs
read to choose), except when the unshifted variable has adjacent repeats,
as on slabs at n >= 2 and on annuli: then it keeps each shift's runs and a
byte-a-point mask of their starts, and the formulas run once on the
distinct values of all shifts, ``_FORMULA_SLICE`` values at a time.  A
call keeps nothing.  Given a workspace ``out``, a MapJet of at least as
many points, ``map_jet`` and the oracle write into its leading rows and
return views, valid until it is next written: the next block.  ``map_jet``
forms ds ⊗ ds in each component's own hessian rows and the curvature
term d1·dds in the next component's, or in dds itself for the last, so
the only (rows, n, n) array it allocates is the annulus's ``dds``; on a
slab dds is one constant zero.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .jets import EvaluationError, Jet2, jet_cos, jet_lift, jet_sin, sorted_distinct
from .operators import row_norm
from .profiles import ArcComplement, GaussianRho, PolarPhase, Profile

__all__ = [
    "MapJet",
    "VectorMap",
    "CurveMap",
    "RadialCurveMap",
    "PolarSpiralMap",
    "ScalarProfileMap",
    "PerturbationPotentialMap",
    "TrigQuadMap",
    "PolarDecomposition",
    "polar_decompose",
    "finite_difference_map_jet",
]


@dataclass
class MapJet:
    """Value, jacobian and hessian of a map at a batch of points.

    value: (..., N), jacobian: (..., N, n) with entry (a, i) = D_i u_a,
    hessian: (..., N, n, n) with entry (a, i, j) = D²_ij u_a, symmetric in (i, j).
    """

    value: np.ndarray
    jacobian: np.ndarray
    hessian: np.ndarray

    def __post_init__(self):
        self.value = np.asarray(self.value, dtype=float)
        self.jacobian = np.asarray(self.jacobian, dtype=float)
        self.hessian = np.asarray(self.hessian, dtype=float)

    @classmethod
    def empty(cls, shape: tuple, N: int, n: int, out: MapJet | None = None) -> MapJet:
        """Unwritten jets at points of leading shape ``shape``: new, or out's first points."""
        if out is None:
            return cls(*(np.empty(shape + tail) for tail in ((N,), (N, n), (N, n, n))))
        k = math.prod(shape)
        return cls(*(a[:k].reshape(shape + a.shape[1:]) for a in vars(out).values()))

    @property
    def N(self) -> int:
        return self.value.shape[-1]

    @property
    def n(self) -> int:
        return self.jacobian.shape[-1]


class VectorMap:
    """A smooth map from R^n to R^N exposing exact second-order jets."""

    def __init__(self, n: int, N: int):
        if n < 1:
            raise ValueError("source dimension n must be >= 1")
        if N < 1:
            raise ValueError("target dimension N must be >= 1")
        self.n = n
        self.N = N

    def _as_point(self, x) -> np.ndarray:
        p = np.atleast_1d(np.asarray(x, dtype=float))
        if p.shape[-1] != self.n:
            raise ValueError(f"expected points of dimension {self.n}, got shape {p.shape}")
        return p

    def map_jet(self, x, out: MapJet | None = None) -> MapJet:
        """The jets at the points x, which a map may write into the leading rows of
        a workspace out of at least as many points (see the module docstring)."""
        raise NotImplementedError

    def value(self, x) -> np.ndarray:
        return self.map_jet(x).value


def _runs(s):
    """The first entry of each run of adjacent bit-identical entries of s,
    and the mask of those entries, a byte a point in the shape of s; s
    itself and None when no entry repeats its neighbour.  The int64 view
    keeps 0.0 and -0.0 apart."""
    flat = np.ravel(s)
    bits = flat.view(np.int64)
    starts = np.concatenate([[True], bits[1:] != bits[:-1]])
    if starts.all():
        return s, None
    return flat[starts], starts.reshape(np.shape(s))


def _gather(starts):
    """The index that gathers the runs ``starts`` marks back to every entry, or None."""
    return None if starts is None else (np.cumsum(starts) - 1).reshape(starts.shape)


def _spread(c, inv):
    """Results on the runs of ``_runs`` back on every entry, by ``_gather``'s index."""
    return c if inv is None else c[inv]


class _ProfileMap(VectorMap):
    """A map whose components are profile formulas in one scalar variable.

    ``_components(s)`` states them once: on an array it returns their
    values, on the identity jet of s their jets in s.  ``_variable(x)``
    gives s with its gradient and hessian in x, from which ``map_jet``
    assembles jacobians and hessians by the chain rule; here s is the
    first coordinate.  Target components past the formulas are zero padding.
    The formulas run once per run of equal adjacent values of s; s, its
    derivatives and the chain rule stay per point.
    """

    def _components(self, s):
        raise NotImplementedError

    def _scalar(self, x):
        return self._as_point(x)[..., 0]

    def _variable(self, x):
        # x1's hessian is zero: one (1, 1) zero that broadcasts to every entry
        return self._scalar(x), np.eye(self.n)[0], np.zeros((1, 1))

    def _values(self, u, inv, formulas, out=None):
        """The map's values on every entry of a variable whose runs are u,
        gathered by inv, from the results of the formulas on u, written into
        out or a new array."""
        out = np.empty(np.shape(u if inv is None else inv) + (self.N,)) if out is None else out
        for a, v in enumerate(formulas):
            out[..., a] = _spread(v, inv)
        out[..., len(formulas):] = 0.0
        return out

    def value(self, x) -> np.ndarray:
        u, starts = _runs(self._scalar(x))
        return self._values(u, _gather(starts), self._components(u))

    def map_jet(self, x, out: MapJet | None = None) -> MapJet:
        s, ds, dds = self._variable(x)
        u, starts = _runs(s)
        inv = _gather(starts)
        jets = self._components(jet_lift(u))  # before the outputs: a lower peak
        out = MapJet.empty(s.shape, self.N, self.n, out)
        self._values(u, inv, [j.val for j in jets], out.value)
        for a, j in enumerate(jets):
            d1 = np.asarray(_spread(j.d1, inv))[..., None]
            np.multiply(d1, ds, out=out.jacobian[..., a, :])
            # fl(d2·fl(ds ⊗ ds)) + fl(d1·dds); the sum turns a -0.0 product
            # into 0.0.  ds ⊗ ds is formed in the hessian rows themselves; a
            # per-point fl(d1·dds) goes into the next component's rows, not
            # yet written, or for the last component into dds itself
            hess = out.hessian[..., a, :, :]
            spare = out.hessian[..., a + 1, :, :] if a + 1 < self.N else dds
            curv = np.multiply(d1[..., None], dds, out=spare if dds.shape == hess.shape else None)
            np.multiply(ds[..., :, None], ds[..., None, :], out=hess)
            np.multiply(np.asarray(_spread(j.d2, inv))[..., None, None], hess, out=hess)
            np.add(hess, curv, out=hess)
        out.jacobian[..., len(jets):, :] = out.hessian[..., len(jets):, :, :] = 0.0
        return out


class CurveMap(_ProfileMap):
    """Planar curve graph x -> (p(x1), q(x1), 0, ...).

    With q the arc complement of p this is a constant-speed curve composed
    with the first coordinate: |Du|² = M² everywhere.
    """

    def __init__(self, first: Profile, second: ArcComplement, n: int = 1, N: int = 2):
        if N < 2:
            raise ValueError("curve maps need target dimension N >= 2")
        super().__init__(n, N)
        self.first = first
        self.second = second

    def _components(self, s):
        return self.first.value(s), self.second.value(s)


class RadialCurveMap(CurveMap):
    """Radial composition x -> (p(|x|), q(|x|), 0, ...), undefined at 0."""

    def _scalar(self, x):
        r = row_norm(self._as_point(x))
        if np.any(r == 0.0):
            raise EvaluationError("radial map is undefined at the origin")
        return r

    def _variable(self, x):
        p = self._as_point(x)
        r = self._scalar(p)
        unit = p / r[..., None]
        angular = np.multiply(unit[..., :, None], unit[..., None, :])  # (I - unit unitᵀ) / r
        np.subtract(np.eye(self.n), angular, out=angular)
        np.divide(angular, r[..., None, None], out=angular)
        return r, unit, angular


class PolarSpiralMap(_ProfileMap):
    """Polar construction x -> rho(x1) * (cos K(x1), sin K(x1), 0, ...).

    The modulus is the Gaussian profile and the phase makes the speed
    constant: |Du|² = M² wherever the phase is defined.
    """

    def __init__(self, rho: GaussianRho, phase: PolarPhase, n: int = 1, N: int = 2):
        if N < 2:
            raise ValueError("polar maps need target dimension N >= 2")
        super().__init__(n, N)
        self.rho = rho
        self.phase = phase

    def _components(self, s):
        r = self.rho.value(s)
        k = self.phase.value(s)
        if isinstance(s, Jet2):
            return r * jet_cos(k), r * jet_sin(k)
        return r * np.cos(k), r * np.sin(k)


class ScalarProfileMap(_ProfileMap):
    """Scalar map x -> p(x1), lifted to n source dimensions."""

    def __init__(self, profile: Profile, n: int = 1):
        super().__init__(n, 1)
        self.profile = profile

    def _components(self, s):
        return (self.profile.value(s),)


class PerturbationPotentialMap(_ProfileMap):
    """Scalar potential x -> (M² - base'(x1)²) / 2.

    This is half the squared slope of the arc complement of the base, in
    the closed form that avoids any quadrature; its gradient is the linear
    perturbation that cancels the scalar residual of the base profile map.
    """

    def __init__(self, base: Profile, M: float, n: int = 1):
        super().__init__(n, 1)
        self.base = base
        self.M = float(M)

    def _components(self, s):
        p1 = self.base.d1(s)
        return ((self.M * self.M - p1 * p1) * 0.5,)


class TrigQuadMap(VectorMap):
    """Synthetic smooth map: constant + linear + quadratic + trig waves.

    u_a(x) = c_a + L_a·x + x·Q_a x / 2 + sum_k A_ak sin(w_k·x + phi_k).

    Closed-form jacobian and hessian make it a convenient target for the
    operator identities on maps whose |Du|² genuinely varies.
    """

    def __init__(self, constant, linear, quadratic, amplitudes, wavevectors, phases):
        linear = np.asarray(linear, dtype=float)
        super().__init__(linear.shape[1], linear.shape[0])
        self.constant = np.asarray(constant, dtype=float)
        self.linear = linear
        quadratic = np.asarray(quadratic, dtype=float)
        self.quadratic = 0.5 * (quadratic + quadratic.transpose(0, 2, 1))
        self.amplitudes = np.asarray(amplitudes, dtype=float)
        self.wavevectors = np.asarray(wavevectors, dtype=float)
        self.phases = np.asarray(phases, dtype=float)

    @classmethod
    def random(cls, rng: np.random.Generator, n: int, N: int):
        waves = 3
        return cls(
            constant=rng.normal(size=N),
            linear=rng.normal(size=(N, n)),
            quadratic=rng.normal(size=(N, n, n)),
            amplitudes=rng.normal(size=(N, waves)),
            wavevectors=rng.normal(size=(waves, n)),
            phases=rng.uniform(0.0, 2.0 * math.pi, size=waves),
        )

    def map_jet(self, x) -> MapJet:
        p = self._as_point(x)
        theta = np.matvec(self.wavevectors, p) + self.phases
        sin_t = np.sin(theta)
        cos_t = np.cos(theta)
        value = (
            self.constant
            + np.matvec(self.linear, p)
            + 0.5 * np.einsum("aij,...i,...j->...a", self.quadratic, p, p)
            + np.matvec(self.amplitudes, sin_t)
        )
        jac = (
            self.linear
            + np.einsum("aij,...j->...ai", self.quadratic, p)
            + (self.amplitudes * cos_t[..., None, :]) @ self.wavevectors
        )
        hess = self.quadratic - np.einsum(
            "...ak,ki,kj->...aij", self.amplitudes * sin_t[..., None, :],
            self.wavevectors, self.wavevectors,
        )
        return MapJet(value, jac, hess)


@dataclass
class PolarDecomposition:
    """First-order polar data of a map at a batch of points: u = rho * direction."""

    rho: float | np.ndarray     # (...)
    grad_rho: np.ndarray        # (..., n)
    direction: np.ndarray       # (..., N), unit vectors
    grad_direction: np.ndarray  # (..., N, n)


def polar_decompose(m: MapJet) -> PolarDecomposition:
    """Split a nonvanishing MapJet into modulus and unit-direction data.

    The direction gradient satisfies direction·D_i(direction) = 0, so
    |Du|² = |D rho|² + rho² |D direction|².
    """
    rho = row_norm(m.value)
    if np.any(rho == 0.0):
        raise EvaluationError("polar decomposition is undefined where the map vanishes")
    r = rho[..., None]
    direction = m.value / r
    grad_rho = np.vecmat(m.value, m.jacobian) / r
    outer = direction[..., :, None] * grad_rho[..., None, :]
    grad_direction = m.jacobian / r[..., None] - outer / r[..., None]
    return PolarDecomposition(rho, grad_rho, direction, grad_direction)


def _stencil(x, n: int, h: float):
    """The shifted batches of the FD oracle, in its order: x, then x + h e_i
    and x - h e_i for each i, then x ± h e_i ± h e_j for each i < j."""
    e = np.eye(n) * h
    yield x
    for i in range(n):
        yield x + e[i]
        yield x - e[i]
    for i, j in itertools.combinations(range(n), 2):
        yield x + e[i] + e[j]
        yield x + e[i] - e[j]
        yield x - e[i] + e[j]
        yield x - e[i] - e[j]


#: most distinct variable values one formula pass of the FD oracle evaluates
_FORMULA_SLICE = 1024


def _stencil_values(map_obj: VectorMap, x, h: float):
    """The map's values on the shifted batches of ``_stencil``, in its
    order, as ``finite_difference_map_jet`` describes."""
    batches = _stencil(x, map_obj.n, h)
    if not isinstance(map_obj, _ProfileMap):
        return map(map_obj.value, batches)
    u, starts = _runs(map_obj._scalar(next(batches)))
    if starts is None:  # u is the unshifted variable itself
        return itertools.chain([map_obj._values(u, None, map_obj._components(u))],
                               map(map_obj.value, batches))
    try:
        runs = [(u, starts), *(_runs(map_obj._scalar(b)) for b in batches)]
        cat = np.concatenate([np.ravel(u) for u, _ in runs]).view(np.int64)
        bits = sorted_distinct(cat, overwrite=True)
        del cat  # sorted in place and dropped before the formulas run
        distinct = bits.view(float)
        # the formulas run on slices of the distinct values: their
        # temporaries stay a slice's size, whatever the block holds
        parts = [map_obj._components(distinct[k : k + _FORMULA_SLICE])
                 for k in range(0, len(distinct), _FORMULA_SLICE)]
        table = [np.concatenate(c) for c in zip(*parts)]
    except EvaluationError:
        return map(map_obj.value, _stencil(x, map_obj.n, h))

    def look_up(u, starts):
        at = np.searchsorted(bits, u.view(np.int64))
        return map_obj._values(u, _gather(starts), [c[at] for c in table])

    return itertools.starmap(look_up, runs)


def finite_difference_map_jet(map_obj: VectorMap, x, h: float = 1e-4, out=None) -> MapJet:
    """Central-difference MapJet oracle, independent of the analytic jets.

    Jacobian from two-point central differences; hessian diagonal from the
    three-point second difference and mixed entries from the four-point
    cross stencil, symmetrized by construction; the map's values on one
    shifted batch per stencil offset, 1 + 2n + 4·C(n, 2) in all.

    The values come from one ``value`` call per batch, in stencil order, so
    an evaluation error is the first that order meets; a profile map
    evaluates the unshifted batch from the runs of its variable, which it
    reads once to choose.  When that variable has adjacent repeats (slabs
    at n >= 2, annuli) it builds each shifted batch once, keeps only the
    runs of its variable and their starts' mask, runs the formulas once on
    the distinct values of all shifts and looks each shift's runs up there;
    on an evaluation error in that pass it falls back to the ``value``
    calls.  The differences are written into the jacobian and hessian of
    out's leading rows, or of new arrays.
    """
    if h <= 0.0:
        raise ValueError("fd step must be positive")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = map_obj.n
    values = _stencil_values(map_obj, x, h)
    v0 = next(values)
    out = MapJet.empty(v0.shape[:-1], map_obj.N, n, out)
    np.copyto(out.value, v0)
    for i in range(n):
        plus, minus = next(values), next(values)
        d = out.jacobian[..., i]  # (plus - minus) / (2h)
        np.divide(np.subtract(plus, minus, out=d), 2.0 * h, out=d)
        d = out.hessian[..., i, i]  # (plus - 2·v0 + minus) / h², left to right
        np.subtract(plus, np.multiply(2.0, v0, out=d), out=d)
        np.divide(np.add(d, minus, out=d), h * h, out=d)
    for i, j in itertools.combinations(range(n), 2):
        # ((x + e_i + e_j) - (x + e_i - e_j) - (x - e_i + e_j) + (x - e_i - e_j)) / 4h²
        d = out.hessian[..., i, j]
        np.subtract(next(values), next(values), out=d)
        np.subtract(d, next(values), out=d)
        np.divide(np.add(d, next(values), out=d), 4.0 * h * h, out=d)
        out.hessian[..., j, i] = d
    return out
