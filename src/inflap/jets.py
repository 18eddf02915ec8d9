"""Second-order forward-mode jets for univariate curves.

A :class:`Jet2` carries the value and first two derivatives of a scalar
function of one curve parameter.  Arithmetic on jets propagates derivatives
by the Leibniz and second-order chain rules, so any expression built from
``jet_lift(t)`` yields derivatives of the composite that are exact to
roundoff.  ``fd_jet`` is the independent central-difference oracle used to
cross-check jet arithmetic.
"""

from __future__ import annotations

import math

__all__ = [
    "Jet2",
    "EvaluationError",
    "JetDomainError",
    "jet_lift",
    "jet_exp",
    "jet_sin",
    "jet_cos",
    "jet_sqrt",
    "fd_jet",
]


class EvaluationError(ValueError):
    """An evaluation left the domain where a map or profile is defined."""


class JetDomainError(EvaluationError):
    """A jet function was evaluated where it is not smoothly defined."""


class Jet2:
    """Value and first two derivatives with respect to one parameter."""

    __slots__ = ("val", "d1", "d2")

    def __init__(self, val: float, d1: float = 0.0, d2: float = 0.0):
        self.val = float(val)
        self.d1 = float(d1)
        self.d2 = float(d2)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.val, self.d1, self.d2)

    def __repr__(self) -> str:
        return f"Jet2({self.val!r}, {self.d1!r}, {self.d2!r})"

    def __eq__(self, other) -> bool:
        if isinstance(other, Jet2):
            return self.as_tuple() == other.as_tuple()
        return NotImplemented

    def chain(self, f0: float, f1: float, f2: float) -> "Jet2":
        """Jet of f∘g for g = self, given f, f', f'' evaluated at g.val."""
        return Jet2(f0, f1 * self.d1, f2 * self.d1 * self.d1 + f1 * self.d2)

    def __add__(self, other):
        if isinstance(other, Jet2):
            return Jet2(self.val + other.val, self.d1 + other.d1, self.d2 + other.d2)
        return Jet2(self.val + other, self.d1, self.d2)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(-self.val, -self.d1, -self.d2)

    def __sub__(self, other):
        if isinstance(other, Jet2):
            return Jet2(self.val - other.val, self.d1 - other.d1, self.d2 - other.d2)
        return Jet2(self.val - other, self.d1, self.d2)

    def __rsub__(self, other):
        return Jet2(other - self.val, -self.d1, -self.d2)

    def __mul__(self, other):
        if isinstance(other, Jet2):
            return Jet2(
                self.val * other.val,
                self.d1 * other.val + self.val * other.d1,
                self.d2 * other.val + 2.0 * self.d1 * other.d1 + self.val * other.d2,
            )
        return Jet2(self.val * other, self.d1 * other, self.d2 * other)

    __rmul__ = __mul__

    def _reciprocal(self):
        if self.val == 0.0:
            raise JetDomainError("reciprocal of a zero-valued jet")
        r = 1.0 / self.val
        return self.chain(r, -r * r, 2.0 * r * r * r)

    def __truediv__(self, other):
        if isinstance(other, Jet2):
            return self * other._reciprocal()
        return Jet2(self.val / other, self.d1 / other, self.d2 / other)

    def __rtruediv__(self, other):
        return self._reciprocal() * other


def jet_lift(t: float) -> Jet2:
    """The identity jet at t: the curve parameter itself."""
    return Jet2(t, 1.0, 0.0)


def jet_exp(j: Jet2) -> Jet2:
    e = math.exp(j.val)
    return j.chain(e, e, e)


def jet_sin(j: Jet2) -> Jet2:
    s, c = math.sin(j.val), math.cos(j.val)
    return j.chain(s, c, -s)


def jet_cos(j: Jet2) -> Jet2:
    s, c = math.sin(j.val), math.cos(j.val)
    return j.chain(c, -s, -c)


def jet_sqrt(j: Jet2) -> Jet2:
    # Strictly positive argument required: at 0 the derivatives blow up,
    # and in the profile formulas a non-positive argument means the speed
    # bound failed to dominate the base derivative.
    if j.val <= 0.0:
        raise JetDomainError(f"sqrt of non-positive jet value {j.val!r}")
    s = math.sqrt(j.val)
    return j.chain(s, 0.5 / s, -0.25 / (s * j.val))


def fd_jet(f, t: float, h: float = 1e-4) -> Jet2:
    """Central-difference jet of a scalar function: the oracle path.

    d1 = (f(t+h) - f(t-h)) / 2h,  d2 = (f(t+h) - 2 f(t) + f(t-h)) / h².
    """
    if h <= 0.0:
        raise ValueError("fd step must be positive")
    fp = f(t + h)
    fm = f(t - h)
    f0 = f(t)
    return Jet2(f0, (fp - fm) / (2.0 * h), (fp - 2.0 * f0 + fm) / (h * h))
