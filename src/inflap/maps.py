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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .jets import EvaluationError, Jet2, jet_cos, jet_lift, jet_sin
from .operators import row_norm
from .profiles import ArcComplement, GaussianRho, PolarPhase, Profile

__all__ = [
    "MapJet",
    "MapDomainError",
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


class MapDomainError(EvaluationError):
    """A map was evaluated outside its domain of definition."""


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

    def map_jet(self, x) -> MapJet:
        raise NotImplementedError

    def value(self, x) -> np.ndarray:
        return self.map_jet(x).value


class _ProfileMap(VectorMap):
    """A map whose components are profile formulas in one scalar variable.

    ``_components(s)`` states them once: on an array it returns their
    values, on the identity jet of s their jets in s.  ``_variable(x)``
    gives s with its gradient and hessian in x, from which ``map_jet``
    assembles jacobians and hessians by the chain rule; here s is the
    first coordinate.  Target components past the formulas are zero padding.
    """

    def _components(self, s):
        raise NotImplementedError

    def _variable(self, x):
        return self._as_point(x)[..., 0], np.eye(self.n)[0], np.zeros((self.n, self.n))

    def value(self, x) -> np.ndarray:
        s = self._variable(x)[0]
        out = np.zeros(s.shape + (self.N,))
        for a, v in enumerate(self._components(s)):
            out[..., a] = v
        return out

    def map_jet(self, x) -> MapJet:
        s, ds, dds = self._variable(x)
        jets = self._components(jet_lift(s))  # before the outputs: a lower peak
        value = np.zeros(s.shape + (self.N,))
        jac = np.zeros(s.shape + (self.N, self.n))
        hess = np.zeros(s.shape + (self.N, self.n, self.n))
        outer = ds[..., :, None] * ds[..., None, :]
        for a, j in enumerate(jets):
            d1 = np.asarray(j.d1)[..., None]
            value[..., a] = j.val
            jac[..., a, :] = d1 * ds
            hess[..., a, :, :] = np.asarray(j.d2)[..., None, None] * outer + d1[..., None] * dds
        return MapJet(value, jac, hess)


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

    def _variable(self, x):
        p = self._as_point(x)
        r = row_norm(p)
        if np.any(r == 0.0):
            raise MapDomainError("radial map is undefined at the origin")
        unit = p / r[..., None]
        angular = (np.eye(self.n) - unit[..., :, None] * unit[..., None, :]) / r[..., None, None]
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
    def random(cls, rng: np.random.Generator, n: int, N: int, waves: int = 3):
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
        raise MapDomainError("polar decomposition is undefined where the map vanishes")
    r = rho[..., None]
    direction = m.value / r
    grad_rho = np.vecmat(m.value, m.jacobian) / r
    outer = direction[..., :, None] * grad_rho[..., None, :]
    grad_direction = m.jacobian / r[..., None] - outer / r[..., None]
    return PolarDecomposition(rho, grad_rho, direction, grad_direction)


def finite_difference_map_jet(map_obj: VectorMap, x, h: float = 1e-4) -> MapJet:
    """Central-difference MapJet oracle, independent of the analytic jets.

    Jacobian from two-point central differences; hessian diagonal from the
    three-point second difference and mixed entries from the four-point
    cross stencil, symmetrized by construction; one ``value`` call on the
    shifted batch per stencil offset, 1 + 2n + 4·C(n, 2) in all.
    """
    if h <= 0.0:
        raise ValueError("fd step must be positive")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = map_obj.n
    e = np.eye(n) * h
    v0 = map_obj.value(x)
    jac = np.empty(v0.shape + (n,))
    hess = np.empty(v0.shape + (n, n))
    for i in range(n):
        plus, minus = map_obj.value(x + e[i]), map_obj.value(x - e[i])
        jac[..., i] = (plus - minus) / (2.0 * h)
        hess[..., i, i] = (plus - 2.0 * v0 + minus) / (h * h)
    for i, j in itertools.combinations(range(n), 2):
        hess[..., i, j] = hess[..., j, i] = (
            map_obj.value(x + e[i] + e[j])
            - map_obj.value(x + e[i] - e[j])
            - map_obj.value(x - e[i] + e[j])
            + map_obj.value(x - e[i] - e[j])
        ) / (4.0 * h * h)
    return MapJet(v0, jac, hess)
