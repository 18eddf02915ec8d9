import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inflap.jets import (
    BLOCK_POINTS,
    EvaluationError,
    Jet2,
    jet_cos,
    jet_exp,
    jet_lift,
    jet_sin,
    jet_sqrt,
)
from inflap.jets import exp as jets_exp
from inflap.profiles import _SEAM_CUTOFF

from helpers import exact, fd_jet


def test_lift_is_identity_jet():
    assert jet_lift(3.0).as_tuple() == (3.0, 1.0, 0.0)
    assert jet_lift(0.0).as_tuple() == (0.0, 1.0, 0.0)
    assert jet_lift(-2.5).as_tuple() == (-2.5, 1.0, 0.0)


def test_square_of_lift():
    j = jet_lift(3.0)
    assert (j * j).as_tuple() == (9.0, 6.0, 2.0)


def test_exp_and_sin_at_zero():
    assert jet_exp(jet_lift(0.0)).as_tuple() == (1.0, 1.0, 1.0)
    assert jet_sin(jet_lift(0.0)).as_tuple() == (0.0, 1.0, 0.0)


def test_sqrt_domain_error():
    with pytest.raises(EvaluationError, match=exact("sqrt of non-positive jet value 0.0")):
        jet_sqrt(Jet2(0.0, 1.0, 0.0))
    with pytest.raises(EvaluationError, match=exact("sqrt of non-positive jet value -1.0")):
        jet_sqrt(Jet2(-1.0))


def _libm_exp(x):
    return np.array([math.exp(v) for v in np.ravel(x)]).reshape(np.shape(x))


def _bump_exponents(rng, size):
    # 1/d for d in [-1, _SEAM_CUTOFF), |d| log-uniform so every decade of (-690, -1] is drawn
    d = -np.exp(rng.uniform(math.log(-_SEAM_CUTOFF), 0.0, size))
    return 1.0 / d[d < _SEAM_CUTOFF]


def _gaussian_exponents(rng, size):
    # -t² out to where the largest accepted t_max tabulates rho, exp(-t²) >= the least normal
    return -rng.uniform(0.0, math.sqrt(-math.log(sys.float_info.min)), size) ** 2


def _subnormal_exponents(rng, size):
    return rng.uniform(-745.2, -708.4, size)


@pytest.mark.parametrize("draw, lo, hi", [
    (_bump_exponents, -690.0, -1.0),
    (_gaussian_exponents, -708.4, 0.0),
    (_subnormal_exponents, -745.2, -708.4),
], ids=["bump", "gaussian", "subnormal_result"])
def test_exp_equals_libm_bit_for_bit(draw, lo, hi):
    x = draw(np.random.default_rng(20261019), 120_000)
    assert x.size >= 100_000 and lo <= x.min() and x.max() <= hi
    assert np.array_equal(jets_exp(x).view(np.int64), _libm_exp(x).view(np.int64))


def test_exp_special_values():
    for v in (0.0, -0.0, -math.inf):
        assert jets_exp(v).view(np.int64) == np.float64(math.exp(v)).view(np.int64)
    assert np.isnan(jets_exp(math.nan))


@pytest.mark.parametrize("x", [
    np.float64(-0.5),
    -np.arange(12.0).reshape(3, 4),
    (-np.arange(24.0).reshape(3, 8))[:, ::2],
    -np.linspace(0.0, 700.0, 2 * BLOCK_POINTS + 3),
], ids=["0d", "2d", "non_contiguous", "ragged_blocks"])
def test_exp_keeps_shape_and_layout(x):
    e = jets_exp(x)
    assert e.dtype == np.float64 and e.flags.c_contiguous and e.shape == np.shape(x)
    assert np.array_equal(e.view(np.int64), _libm_exp(x).view(np.int64))


def test_fd_jet_on_square():
    j = fd_jet(lambda t: t * t, 3.0, h=1e-4)
    assert abs(j.d1 - 6.0) <= 1e-7
    assert abs(j.d2 - 2.0) <= 1e-4


def test_fd_jet_on_exp():
    j = fd_jet(math.exp, 0.0, h=1e-4)
    assert abs(j.d1 - 1.0) <= 1e-8


def test_fd_jet_rejects_bad_step():
    with pytest.raises(ValueError):
        fd_jet(math.exp, 0.0, h=0.0)


def _random_composition(rng):
    """A random polynomial/exp/trig composition with O(1) coefficients."""
    a, b, c, d = (float(x) for x in rng.uniform(-1.5, 1.5, size=4))
    p = [float(x) for x in rng.uniform(-1.0, 1.0, size=3)]
    kind = int(rng.integers(0, 4))

    def f(t):
        poly = p[0] + p[1] * t + p[2] * t * t
        if kind == 0:
            return jet_sin(a * t + b) * jet_exp(c * jet_cos(d * t)) if isinstance(t, Jet2) \
                else math.sin(a * t + b) * math.exp(c * math.cos(d * t))
        if kind == 1:
            inner = poly * poly + 1.0
            return poly / inner
        if kind == 2:
            if isinstance(t, Jet2):
                return jet_exp(jet_sin(a * t) * 0.5) + poly
            return math.exp(math.sin(a * t) * 0.5) + poly
        if isinstance(t, Jet2):
            return jet_sqrt(poly * poly + 1.0) * jet_cos(b * t)
        return math.sqrt(poly * poly + 1.0) * math.cos(b * t)

    return f


def test_jets_match_fd_on_random_compositions():
    # 1000 random compositions at random abscissae: d1 to 1e-5, d2 to 1e-3
    # relative (scale floored at 1 since all coefficients are O(1)).
    rng = np.random.default_rng(20240917)
    for _ in range(1000):
        f = _random_composition(rng)
        t = float(rng.uniform(-2.0, 2.0))
        jet = f(jet_lift(t))
        fd = fd_jet(lambda s: f(s), t, h=1e-4)
        scale1 = max(1.0, abs(fd.d1))
        scale2 = max(1.0, abs(fd.d2))
        assert abs(jet.d1 - fd.d1) <= 1e-5 * scale1
        assert abs(jet.d2 - fd.d2) <= 1e-3 * scale2


_jet_floats = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(_jet_floats, _jet_floats, _jet_floats, _jet_floats, _jet_floats, _jet_floats)
def test_product_obeys_leibniz(v1, d1, s1, v2, d2, s2):
    a = Jet2(v1, d1, s1)
    b = Jet2(v2, d2, s2)
    prod = a * b
    assert prod.d1 == pytest.approx(a.d1 * b.val + a.val * b.d1, rel=1e-12, abs=1e-12)
    assert prod.d2 == pytest.approx(
        a.d2 * b.val + 2.0 * a.d1 * b.d1 + a.val * b.d2, rel=1e-12, abs=1e-12
    )


@settings(max_examples=200, deadline=None)
@given(_jet_floats, _jet_floats, _jet_floats)
def test_exp_matches_closed_form(val, d1, d2):
    # (e^g)' = e^g g' and (e^g)'' = e^g (g'' + g'^2)
    e = math.exp(val)
    j = jet_exp(Jet2(val, d1, d2))
    assert j.val == e
    assert j.d1 == pytest.approx(e * d1, rel=1e-15)
    assert j.d2 == pytest.approx(e * (d2 + d1 * d1), rel=1e-12, abs=1e-12 * e)


@settings(max_examples=200, deadline=None)
@given(
    _jet_floats, _jet_floats, _jet_floats,
    st.floats(min_value=0.5, max_value=10.0), _jet_floats, _jet_floats,
)
def test_division_inverts_multiplication(v1, d1, s1, v2, d2, s2):
    a = Jet2(v1, d1, s1)
    b = Jet2(v2, d2, s2)
    back = (a / b) * b
    assert back.val == pytest.approx(a.val, rel=1e-10, abs=1e-10)
    assert back.d1 == pytest.approx(a.d1, rel=1e-9, abs=1e-8)
    assert back.d2 == pytest.approx(a.d2, rel=1e-9, abs=1e-7)
