import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inflap.jets import (
    EvaluationError,
    Jet2,
    jet_cos,
    jet_exp,
    jet_lift,
    jet_sin,
    jet_sqrt,
)

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
