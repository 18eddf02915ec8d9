"""Fixed quadrature panels: Gauss-Kronrod 7/15 and 4-point Gauss-Legendre.

The Kronrod panel is integrated with the 7-point Gauss rule embedded in
its 15-point Kronrod extension; the difference of the two rules is the
local error estimate and comes at no extra function evaluations.  The
profile tables integrate each cell with one Kronrod panel.  Each
evaluation adds one correction panel from the nearest node, which spans
less than a cell: the Gauss-Legendre panel, 4 integrand nodes, where the
table's cells are narrow enough for it to be exact to roundoff, and the
Kronrod panel elsewhere (``profiles._CumulativeTable``).  There is no
adaptive bisection.
"""

from __future__ import annotations

__all__ = ["gauss_kronrod_15", "gauss_legendre_4"]

# Kronrod-15 abscissae (positive half) and weights; Gauss-7 weights attach
# to the odd-indexed abscissae plus the midpoint.
_XGK = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993944,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
)
_WGK = (
    0.0229353220105292,
    0.0630920926299786,
    0.1047900103222502,
    0.1406532597155259,
    0.1690047266392679,
    0.1903505780647854,
    0.2044329400752989,
)
_WGK_CENTER = 0.2094821410847278
_WG = (
    0.1294849661688697,
    0.2797053914892767,
    0.3818300505051189,
)
_WG_CENTER = 0.4179591836734694
# Gauss-Legendre 4 abscissae (positive half) and weights
_XGL = (0.33998104358485626, 0.8611363115940526)
_WGL = (0.6521451548625461, 0.34785484513745385)


def gauss_kronrod_15(f, a: float, b: float) -> tuple[float, float]:
    """One Kronrod-15 panel on [a, b]: (value, error estimate).

    The estimate is |K15 - G7|, conservative for smooth integrands.
    """
    half = 0.5 * (b - a)
    center = 0.5 * (a + b)
    fc = f(center)
    resk = _WGK_CENTER * fc
    resg = _WG_CENTER * fc
    for i in range(7):
        dx = half * _XGK[i]
        s = f(center - dx) + f(center + dx)
        resk += _WGK[i] * s
        if i % 2 == 1:
            resg += _WG[i // 2] * s
    return resk * half, abs((resk - resg) * half)


def gauss_legendre_4(f, a: float, b: float) -> float:
    """One 4-point Gauss-Legendre panel on [a, b], exact for polynomials of
    degree 7; no error estimate."""
    half = 0.5 * (b - a)
    center = 0.5 * (a + b)
    res = 0.0
    for x, w in zip(_XGL, _WGL):
        dx = half * x
        res += w * (f(center - dx) + f(center + dx))
    return res * half
