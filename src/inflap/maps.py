"""Solution maps built from the scalar profiles, with exact pointwise jets.

Every profile map factors through one scalar variable (the first coordinate
or the radius) and states its components once, as a formula in that
variable.  The formula takes a float or a Jet2, as the profiles do: on a
float it gives the map's value, on the identity jet the univariate jets
from which the multivariate jacobians and hessians are assembled by the
chain rule.  Planar constructions embed into higher target dimension by
zero padding, which preserves every identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .jets import EvaluationError, Jet2, jet_cos, jet_lift, jet_sin
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
    """Value, jacobian and hessian of a map at one point.

    value: (N,), jacobian: (N, n) with entry (a, i) = D_i u_a,
    hessian: (N, n, n) with entry (a, i, j) = D²_ij u_a, symmetric in (i, j).
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
        return self.value.shape[0]

    @property
    def n(self) -> int:
        return self.jacobian.shape[1]


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
        if p.shape != (self.n,):
            raise ValueError(f"expected a point of dimension {self.n}, got shape {p.shape}")
        return p

    def map_jet(self, x) -> MapJet:
        raise NotImplementedError

    def value(self, x) -> np.ndarray:
        return self.map_jet(x).value


class _ProfileMap(VectorMap):
    """A map whose components are profile formulas in one scalar variable.

    ``_components(s)`` states them once: on a float it returns their
    values, on the identity jet of s their jets in s.  The variable is the
    first coordinate; target components past the formulas are zero padding.
    """

    def _components(self, s):
        raise NotImplementedError

    def _variable(self, x) -> float:
        return float(self._as_point(x)[0])

    def value(self, x) -> np.ndarray:
        out = np.zeros(self.N)
        for a, v in enumerate(self._components(self._variable(x))):
            out[a] = v
        return out

    def map_jet(self, x) -> MapJet:
        value = np.zeros(self.N)
        jac = np.zeros((self.N, self.n))
        hess = np.zeros((self.N, self.n, self.n))
        for a, j in enumerate(self._components(jet_lift(self._variable(x)))):
            value[a] = j.val
            jac[a, 0] = j.d1
            hess[a, 0, 0] = j.d2
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

    def _radius(self, x) -> tuple[np.ndarray, float]:
        p = self._as_point(x)
        r = float(np.linalg.norm(p))
        if r == 0.0:
            raise MapDomainError("radial map is undefined at the origin")
        return p, r

    def _variable(self, x) -> float:
        return self._radius(x)[1]

    def map_jet(self, x) -> MapJet:
        p, r = self._radius(x)
        unit = p / r
        outer = np.outer(unit, unit)
        angular = (np.eye(self.n) - outer) / r
        value = np.zeros(self.N)
        jac = np.zeros((self.N, self.n))
        hess = np.zeros((self.N, self.n, self.n))
        for a, j in enumerate(self._components(jet_lift(r))):
            value[a] = j.val
            jac[a] = j.d1 * unit
            hess[a] = j.d2 * outer + j.d1 * angular
        return MapJet(value, jac, hess)


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
        return r * math.cos(k), r * math.sin(k)


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
        theta = self.wavevectors @ p + self.phases
        sin_t = np.sin(theta)
        cos_t = np.cos(theta)
        value = (
            self.constant
            + self.linear @ p
            + 0.5 * np.einsum("aij,i,j->a", self.quadratic, p, p)
            + self.amplitudes @ sin_t
        )
        jac = (
            self.linear
            + np.einsum("aij,j->ai", self.quadratic, p)
            + (self.amplitudes * cos_t) @ self.wavevectors
        )
        hess = self.quadratic - np.einsum(
            "ak,ki,kj->aij", self.amplitudes * sin_t, self.wavevectors, self.wavevectors
        )
        return MapJet(value, jac, hess)


@dataclass
class PolarDecomposition:
    """First-order polar data of a map at a point: u = rho * direction."""

    rho: float
    grad_rho: np.ndarray       # (n,)
    direction: np.ndarray      # (N,), unit vector
    grad_direction: np.ndarray  # (N, n)


def polar_decompose(m: MapJet) -> PolarDecomposition:
    """Split a nonvanishing MapJet into modulus and unit-direction data.

    The direction gradient satisfies direction·D_i(direction) = 0, so
    |Du|² = |D rho|² + rho² |D direction|².
    """
    rho = float(np.linalg.norm(m.value))
    if rho == 0.0:
        raise MapDomainError("polar decomposition is undefined where the map vanishes")
    direction = m.value / rho
    grad_rho = m.value @ m.jacobian / rho
    grad_direction = m.jacobian / rho - np.outer(direction, grad_rho) / rho
    return PolarDecomposition(rho, grad_rho, direction, grad_direction)


def finite_difference_map_jet(map_obj: VectorMap, x, h: float = 1e-4) -> MapJet:
    """Central-difference MapJet oracle, independent of the analytic jets.

    Jacobian from two-point central differences; hessian diagonal from the
    three-point second difference and mixed entries from the four-point
    cross stencil, symmetrized by construction.
    """
    if h <= 0.0:
        raise ValueError("fd step must be positive")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = map_obj.n
    v0 = map_obj.value(x)
    N = v0.shape[0]
    plus = np.empty((n, N))
    minus = np.empty((n, N))
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        plus[i] = map_obj.value(x + e)
        minus[i] = map_obj.value(x - e)
    jac = (plus - minus).T / (2.0 * h)
    hess = np.empty((N, n, n))
    for i in range(n):
        hess[:, i, i] = (plus[i] - 2.0 * v0 + minus[i]) / (h * h)
    for i in range(n):
        for j in range(i + 1, n):
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = h
            ej[j] = h
            mixed = (
                map_obj.value(x + ei + ej)
                - map_obj.value(x + ei - ej)
                - map_obj.value(x - ei + ej)
                + map_obj.value(x - ei - ej)
            ) / (4.0 * h * h)
            hess[:, i, j] = mixed
            hess[:, j, i] = mixed
    return MapJet(v0, jac, hess)
