"""The integral-defined profiles against 40-digit quadrature.

The oracle integrates the closed-form slopes with mpmath, so it shares
neither the Jet2 arithmetic nor the float tables with the library.
"""

import pytest

mp = pytest.importorskip("mpmath").mp

from inflap.profiles import ArcComplement, BumpW1, BumpZ1, GaussianRho, PolarPhase, choose_M

TOL = 5e-14


def _bump_slope(s, sign, slope):
    """d/dt of sign * exp(1/(s² - 1)) where ds/dt = slope."""
    d = s * s - 1
    if d >= 0:
        return mp.zero
    return sign * mp.exp(1 / d) * (-2 * s * slope / (d * d))


def _w1_slope(t):
    if 0 < t < 2:
        return _bump_slope(1 - t, -1, -1)
    if -2 < t < 0:
        return _bump_slope(1 + t, 1, 1)
    return mp.zero


def _z1_slope(t):
    if 1 < t < 3:
        return _bump_slope(2 - t, 1, -1)
    return mp.zero


def _rho_slope(t):
    return -2 * t * mp.exp(-t * t)


def _oracle(integrand, t, breaks):
    t = mp.mpf(t)
    lo, hi = min(t, 0), max(t, 0)
    nodes = [lo] + [mp.mpf(b) for b in breaks if lo < b < hi] + [hi]
    value = mp.quad(integrand, nodes)
    return value if t >= 0 else -value


def _arc_integrand(slope, M):
    M = mp.mpf(M)
    return lambda s: mp.sqrt(M * M - slope(s) ** 2)


# points within 1e-12 of every seam, the extrema and the tabulated ends
W1_POINTS = (-2.5, -2.0 - 1e-12, -2.0 + 1e-12, -1.0, -1e-12, 1e-12, 0.7, 2.0 - 1e-12, 2.0 + 1e-12)
Z1_POINTS = (0.5, 1.0 - 1e-12, 1.0 + 1e-12, 2.0 - 1e-12, 2.0 + 1e-12, 2.6, 3.0 - 1e-12, 3.0 + 1e-12)
PHASE_POINTS = (-1.99, -1.5, -1e-12, 1e-12, 0.3, 0.9, 1.5, 1.99)


@pytest.fixture(scope="module", autouse=True)
def forty_digits():
    with mp.workdps(40):
        yield


@pytest.mark.parametrize("profile_cls, slope, breaks, points", [
    (BumpW1, _w1_slope, (-2, -1, 0, 1, 2), W1_POINTS),
    (BumpZ1, _z1_slope, (1, 2, 3), Z1_POINTS),
], ids=["w1", "z1"])
def test_arc_complement_matches_mpmath(profile_cls, slope, breaks, points):
    base = profile_cls()
    arc = ArcComplement(base, choose_M(base).M)
    integrand = _arc_integrand(slope, arc.M)
    for t in points:
        expected = _oracle(integrand, t, breaks)
        assert abs(arc.value(t) - expected) <= TOL, t


def test_polar_phase_matches_mpmath():
    rho = GaussianRho()
    phase = PolarPhase(choose_M(rho).M, rho=rho)
    root = _arc_integrand(_rho_slope, phase.M)
    integrand = lambda s: root(s) / mp.exp(-s * s)  # noqa: E731
    for t in PHASE_POINTS:
        expected = _oracle(integrand, t, (-1, 0, 1))
        assert abs(phase.value(t) - expected) <= TOL, t
