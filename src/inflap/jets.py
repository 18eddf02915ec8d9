"""Second-order forward-mode jets for univariate curves.

A :class:`Jet2` carries the value and first two derivatives of a scalar
function of one curve parameter.  Arithmetic on jets propagates derivatives
by the Leibniz and second-order chain rules, so any expression built from
``jet_lift(t)`` yields derivatives of the composite that are exact to
roundoff.  A jet of an array of parameters evaluates the whole batch in
Taylor mode, elementwise, with the bits each float gets.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BLOCK_POINTS",
    "Jet2",
    "EvaluationError",
    "exp",
    "first_where",
    "grid_nodes",
    "sorted_distinct",
    "jet_lift",
    "jet_exp",
    "jet_sin",
    "jet_cos",
    "jet_sqrt",
]


#: most points one evaluation of a sampled field or of a profile's grid sees,
#: most cells one panel batch of a table build integrates, and most entries
#: of one complex block in ``exp``
BLOCK_POINTS = 4096


class EvaluationError(ValueError):
    """An evaluation left the domain where a jet function, profile or map is defined."""


def exp(x) -> np.ndarray:
    """e**x elementwise, bit for bit equal to libm's ``exp`` (``math.exp``).

    numpy's real ``exp`` differs from libm in the last bit for a few percent
    of arguments; its complex ``exp`` at ``x + 0i`` does not, since both
    C99 ``cexp`` and numpy's fallback form the real part as
    ``exp(x) * cos(0)`` and cos(0) is exactly 1.  The complex form is
    built one block of ``BLOCK_POINTS`` entries at a time, so no complex
    array larger than a block exists; ``tests/test_jets.py`` guards the
    identity on the ranges the profiles use.  Every caller passes
    arguments <= 0; above about 709.78 the result is inf with numpy's
    overflow warning, where ``math.exp`` raises ``OverflowError``.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape)
    flat_in, flat_out = x.reshape(-1), out.reshape(-1)
    for start in range(0, x.size, BLOCK_POINTS):
        block = slice(start, start + BLOCK_POINTS)
        flat_out[block] = np.exp(flat_in[block].astype(complex)).real
    return out


def first_where(mask, values) -> float:
    """The first entry of ``values`` where ``mask`` holds, as a float."""
    return float(np.broadcast_to(values, np.shape(mask))[mask][0])


def grid_nodes(a: float, b: float, samples: int, start: int, stop: int) -> np.ndarray:
    """Nodes start to stop - 1 of ``np.linspace(a, b, samples)``, bit for bit:
    k·step + a with step = (b - a)/(samples - 1), and the last node exactly b."""
    step = (b - a) / (samples - 1) if samples > 1 else 0.0
    nodes = np.arange(start, stop, dtype=float)
    nodes *= step
    nodes += a
    if samples > 1 and stop == samples:
        nodes[-1] = b
    return nodes


def sorted_distinct(a, overwrite: bool = False) -> np.ndarray:
    """np.unique of a 1-D array without NaN: the same sort and adjacent
    compare, without np.unique's ``np.ma.is_masked`` test, whose first call
    imports ``numpy.ma``.  With overwrite, a is sorted in place instead of
    copied."""
    s = a if overwrite else a.copy()
    s.sort()
    keep = np.empty(len(s), dtype=bool)
    keep[:1] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


class Jet2:
    """Value and first two derivatives with respect to one parameter; each
    component is a float or an ndarray, and they broadcast together."""

    __slots__ = ("val", "d1", "d2")
    # ndarray operands defer to the reflected Jet2 operators instead of
    # building object arrays of jets
    __array_ufunc__ = None

    def __init__(self, val, d1=0.0, d2=0.0):
        self.val = val
        self.d1 = d1
        self.d2 = d2

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.val, self.d1, self.d2)

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
        if np.any(self.val == 0.0):
            raise EvaluationError("reciprocal of a zero-valued jet")
        r = 1.0 / self.val
        return self.chain(r, -r * r, 2.0 * r * r * r)

    def __truediv__(self, other):
        if isinstance(other, Jet2):
            return self * other._reciprocal()
        return Jet2(self.val / other, self.d1 / other, self.d2 / other)

    def __rtruediv__(self, other):
        return self._reciprocal() * other


def jet_lift(t) -> Jet2:
    """The identity jet at t: the curve parameter itself."""
    return Jet2(t, 1.0, 0.0)


def jet_exp(j: Jet2) -> Jet2:
    e = exp(j.val)
    return j.chain(e, e, e)


def jet_sin(j: Jet2) -> Jet2:
    s, c = np.sin(j.val), np.cos(j.val)
    return j.chain(s, c, -s)


def jet_cos(j: Jet2) -> Jet2:
    s, c = np.sin(j.val), np.cos(j.val)
    return j.chain(c, -s, -c)


def jet_sqrt(j: Jet2) -> Jet2:
    # Strictly positive argument required: at 0 the derivatives blow up,
    # and in the profile formulas a non-positive argument means the speed
    # bound failed to dominate the base derivative.
    bad = np.asarray(j.val) <= 0.0
    if np.any(bad):
        raise EvaluationError(f"sqrt of non-positive jet value {first_where(bad, j.val)!r}")
    s = np.sqrt(j.val)
    return j.chain(s, 0.5 / s, -0.25 / (s * j.val))
