"""Batched evaluation gives every point the bits it gets on its own, and a
failing batch names its first failing point in domain order."""

import numpy as np
import pytest

from inflap.checkers import (
    CheckEvaluationError,
    DomainSpec,
    conservation_check,
    directional_check,
    hull_check,
    residual_certify,
)
from inflap.maps import (
    CurveMap,
    PerturbationPotentialMap,
    PolarSpiralMap,
    RadialCurveMap,
    ScalarProfileMap,
    TrigQuadMap,
    finite_difference_map_jet,
    polar_decompose,
)
from inflap.profiles import ArcComplement, BumpW1, BumpZ1, GaussianRho, PolarPhase, choose_M

# seams, branch switches, extrema and table edges of the profiles
SPECIAL = (-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 1e-12, -1e-12, 2.0 - 1e-12, 1.5)


@pytest.fixture(scope="module")
def maps():
    w1, z1, rho = BumpW1(), BumpZ1(), GaussianRho()
    m_w1 = choose_M(w1, samples=20_000).M
    m_z1 = choose_M(z1, samples=20_000).M
    m_rho = choose_M(rho, samples=20_000).M
    w2 = ArcComplement(w1, m_w1, cells=512)
    z2 = ArcComplement(z1, m_z1, cells=512)
    phase = PolarPhase(m_rho, t_max=2.0, cells=512, rho=rho)
    rng = np.random.default_rng(7)
    out = {}
    for n in (1, 3):
        out[f"curve_n{n}"] = CurveMap(w1, w2, n=n, N=3)
        out[f"radial_n{n}"] = RadialCurveMap(z1, z2, n=n, N=2)
        out[f"polar_n{n}"] = PolarSpiralMap(rho, phase, n=n, N=2)
        out[f"scalar_n{n}"] = ScalarProfileMap(w1, n=n)
        out[f"potential_n{n}"] = PerturbationPotentialMap(w1, m_w1, n=n)
        out[f"trig_n{n}"] = TrigQuadMap.random(rng, n, 3)
    return out


def _points(name, n):
    rng = np.random.default_rng(8)
    first = np.concatenate([SPECIAL, rng.uniform(-3.5, 3.5, size=40)])
    if name.startswith("polar"):
        first = np.clip(first, -1.9, 1.9)
    pts = np.column_stack([first, rng.uniform(-1.0, 1.0, size=(len(first), n - 1))])
    if name.startswith("radial"):
        pts = pts[np.linalg.norm(pts, axis=1) > 0.0]
    return pts


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def _assert_rows_match(batch, rows, fields=("value", "jacobian", "hessian")):
    for field in fields:
        np.testing.assert_array_equal(
            _bits(getattr(batch, field)), _bits(np.concatenate([getattr(r, field) for r in rows]))
        )


@pytest.mark.parametrize("name", [f"{k}_n{n}" for n in (1, 3) for k in
                                  ("curve", "radial", "polar", "scalar", "potential", "trig")])
def test_batch_equals_batches_of_one(maps, name):
    u = maps[name]
    pts = _points(name, u.n)
    one = [pts[i:i + 1] for i in range(len(pts))]
    np.testing.assert_array_equal(_bits(u.value(pts)), _bits(np.concatenate([u.value(p) for p in one])))
    _assert_rows_match(u.map_jet(pts), [u.map_jet(p) for p in one])
    _assert_rows_match(finite_difference_map_jet(u, pts, h=1e-4),
                       [finite_difference_map_jet(u, p, h=1e-4) for p in one])
    if name.startswith("polar"):
        _assert_rows_match(polar_decompose(u.map_jet(pts)),
                           [polar_decompose(u.map_jet(p)) for p in one],
                           ("rho", "grad_rho", "direction", "grad_direction"))


def test_single_point_is_the_unbatched_row(maps):
    u = maps["curve_n3"]
    pts = _points("curve", 3)
    batch = u.map_jet(pts)
    for i, x in enumerate(pts[:8]):
        m = u.map_jet(x)
        assert m.value.shape == (3,) and m.hessian.shape == (3, 3, 3)
        np.testing.assert_array_equal(_bits(m.hessian), _bits(batch.hessian[i]))


class TestFirstFailure:
    # the phase is guarded to |t| <= 2: 2.5 and -2.7 fail, 2.5 first in domain order
    INTERIOR = np.array([[0.5], [2.5], [1.0], [-2.7], [0.0]])
    MESSAGE = ("evaluation failed at [2.5]: phase evaluation at t=2.5 outside the "
               "guarded range |t| <= 2.0")

    @pytest.fixture(scope="class")
    def polar(self, maps):
        return maps["polar_n1"]

    @pytest.mark.parametrize("check", [
        lambda u, d: residual_certify(u, "tangential", d, 1.0),
        lambda u, d: residual_certify(u, "tangential", d, 1.0, jet_source="fd"),
        lambda u, d: directional_check(u, [1.0, 0.0], d),
        lambda u, d: conservation_check(u, d, 1.0),
        lambda u, d: hull_check(u, d),
    ], ids=["residual_analytic", "residual_fd", "principle", "conservation", "hull"])
    def test_first_failing_point_and_message(self, polar, check):
        d = DomainSpec("slab", self.INTERIOR, np.array([[-1.0], [1.0]]))
        with pytest.raises(CheckEvaluationError) as exc:
            check(polar, d)
        assert str(exc.value) == self.MESSAGE
        np.testing.assert_array_equal(exc.value.point, [2.5])

    def test_radial_origin(self, maps):
        u = maps["radial_n3"]
        interior = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        d = DomainSpec("annulus", interior, np.array([[3.0, 0.0, 0.0]]))
        with pytest.raises(CheckEvaluationError) as exc:
            residual_certify(u, "tangential", d, 1.0)
        assert str(exc.value) == ("evaluation failed at [0.0, 0.0, 0.0]: "
                                  "radial map is undefined at the origin")
