import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inflap.profiles import ArcComplement, BumpW1, choose_M
from inflap.quadrature import gauss_kronrod_15, gauss_legendre_4


def test_constant_on_unit_interval():
    val, err = gauss_kronrod_15(lambda x: 1.0, 0.0, 1.0)
    assert val == pytest.approx(1.0, abs=1e-14)
    assert err >= 0.0


def test_sin_over_half_period():
    val, _ = gauss_kronrod_15(math.sin, 0.0, math.pi)
    assert val == pytest.approx(2.0, abs=1e-12)


def test_orientation_flips_sign():
    fwd, _ = gauss_kronrod_15(math.exp, 0.0, 1.0)
    bwd, _ = gauss_kronrod_15(math.exp, 1.0, 0.0)
    assert bwd == -fwd


def test_empty_interval_is_zero():
    assert gauss_kronrod_15(math.exp, 2.0, 2.0) == (0.0, 0.0)


def test_odd_function_integrates_to_zero():
    # the nodes are symmetric about the midpoint, so the terms cancel
    f = lambda x: x * math.exp(-x * x) + math.sin(3.0 * x)  # noqa: E731
    val, _ = gauss_kronrod_15(f, -2.5, 2.5)
    assert abs(val) <= 1e-12


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=-1.8, max_value=1.8))
def test_additivity_at_split_point(c):
    f = lambda x: math.exp(0.3 * x) * math.cos(2.0 * x)  # noqa: E731
    whole, _ = gauss_kronrod_15(f, -2.0, 2.0)
    left, _ = gauss_kronrod_15(f, -2.0, c)
    right, _ = gauss_kronrod_15(f, c, 2.0)
    assert abs(whole - (left + right)) <= 2e-10


def test_gauss_legendre_4_is_exact_to_degree_seven():
    # sum of x^k over [0, 2] for k <= 7, and the first power it misses
    septic = lambda x: sum(x**k for k in range(8))  # noqa: E731
    assert gauss_legendre_4(septic, 0.0, 2.0) == pytest.approx(
        sum(2.0 ** (k + 1) / (k + 1) for k in range(8)), rel=1e-15)
    assert gauss_legendre_4(lambda x: x**8, 0.0, 1.0) != pytest.approx(1.0 / 9.0, rel=1e-6)


def test_gauss_legendre_4_on_arrays_matches_each_panel():
    a, b = np.array([0.0, 0.5, -1.0]), np.array([0.25, 0.5, 2.0])
    f = lambda x: 1.0 / (1.0 + x * x)  # noqa: E731
    together = gauss_legendre_4(f, a, b)
    apart = [gauss_legendre_4(f, float(lo), float(hi)) for lo, hi in zip(a, b)]
    np.testing.assert_array_equal(together, apart)
    assert together[1] == 0.0


def _richardson_trapezoid(f, a, b, n=1 << 20):
    """Trapezoid sums at n and n/2 points, Richardson-extrapolated: the
    independent fixed-step oracle."""
    xs = np.linspace(a, b, n + 1)
    ys = f(xs)
    fine = np.trapezoid(ys, xs)
    coarse = np.trapezoid(ys[::2], xs[::2])
    return fine + (fine - coarse) / 3.0


def test_speed_integrand_matches_richardson_oracle():
    # the cumulative table the library evaluates, against an oracle that
    # shares only the integrand with it
    w1 = BumpW1()
    sb = choose_M(w1, samples=20_000)
    w2 = ArcComplement(w1, sb.M)
    oracle = _richardson_trapezoid(w2.d1, 0.0, 2.0)
    assert w2.value(2.0) == pytest.approx(oracle, abs=1e-10)


def test_gk15_panel_exact_on_low_degree_polynomials():
    # the embedded Gauss-7 rule is exact through degree 13, Kronrod-15
    # through degree 22; both integrate x^6 exactly so the estimate is ~0
    val, err = gauss_kronrod_15(lambda x: x**6, -1.0, 1.0)
    assert val == pytest.approx(2.0 / 7.0, rel=1e-14)
    assert err <= 1e-14
