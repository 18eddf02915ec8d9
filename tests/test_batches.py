"""Batched evaluation gives every point the bits it gets on its own, and a
failing batch names its first failing point in domain order.  Runs of equal
scalar variables, as the domains emit them, are evaluated once, and the FD
oracle reads each shifted batch of its stencil once and evaluates each
distinct shifted variable once."""

import copy
import itertools
import math

import numpy as np
import pytest

from inflap.checkers import (
    CheckEvaluationError,
    annulus_domain,
    conservation_check,
    directional_check,
    hull_check,
    residual_certify,
    slab_domain,
)
from inflap.jets import EvaluationError
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
from inflap.profiles import (
    ArcComplement,
    BumpW1,
    BumpZ1,
    GaussianRho,
    PolarPhase,
    choose_M,
)
from inflap.scenarios import _tangential_residual

from helpers import (
    ArrayDomain,
    all_points,
    boundary,
    exact,
    interior,
    sampled_along,
    sampled_deviation,
    sampled_hull,
    sampled_residuals,
)

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
    for n in (1, 2, 3, 4):
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


def _repeat_points(name, n):
    """Slab-style runs of each first coordinate over the cross-section
    copies, with an adjacent 0.0/-0.0 pair and repeated seams, then
    annulus-style axis directions of each radius.  At most 9 copies per
    abscissa, as every point is also evaluated on its own."""
    first = np.array([-2.0, -2.0, -1.0, 0.0, -0.0, 0.0, 0.0, 1e-12, 2.0, 2.0, 2.0, 2.5])
    if name.startswith("polar"):
        first = np.clip(first, -1.9, 1.9)
    cross = np.array(list(itertools.product((-0.5, 0.0, 0.5), repeat=n - 1)), dtype=float)
    cross = cross[::max(1, len(cross) // 9)]
    slab = np.column_stack([np.repeat(first, len(cross)), np.tile(cross, (len(first), 1))])
    dirs = np.concatenate([np.eye(n), -np.eye(n)])
    annulus = (np.array([1.5, 1.5, 1.75])[:, None, None] * dirs).reshape(-1, n)
    pts = np.concatenate([slab, annulus])
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


@pytest.mark.parametrize("name", [f"{k}_n{n}" for n in (1, 2, 3, 4) for k in
                                  ("curve", "radial", "polar", "scalar", "potential", "trig")])
def test_batch_equals_batches_of_one(maps, name):
    u = maps[name]
    for pts in (_points(name, u.n), _repeat_points(name, u.n)):
        one = [pts[i:i + 1] for i in range(len(pts))]
        np.testing.assert_array_equal(_bits(u.value(pts)),
                                      _bits(np.concatenate([u.value(p) for p in one])))
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


CHECKS = [
    lambda u, d: residual_certify(sampled_residuals(_tangential_residual, u, d), d, 1.0),
    lambda u, d: residual_certify(
        sampled_residuals(_tangential_residual, u, d, fd_step=1e-4), d, 1.0, jet_source="fd"
    ),
    lambda u, d: directional_check(sampled_along(u, d, [1.0, 0.0]), [1.0, 0.0], d),
    lambda u, d: conservation_check(sampled_deviation(u, d, 1.0), d, 1.0, tol=1.0),
    lambda u, d: hull_check(sampled_hull(u, d), d),
]
CHECK_IDS = ["residual_analytic", "residual_fd", "principle", "conservation", "hull"]


class TestFirstFailure:
    # the phase is guarded to |t| <= 2: 2.5 and -2.7 fail, 2.5 first in domain order
    INTERIOR = np.array([[0.5], [2.5], [1.0], [-2.7], [0.0]])
    MESSAGE = ("evaluation failed at [2.5]: phase evaluation at t=2.5 outside the "
               "guarded range |t| <= 2.0")

    @pytest.fixture(scope="class")
    def polar(self, maps):
        return maps["polar_n1"]

    @pytest.mark.parametrize("check", CHECKS, ids=CHECK_IDS)
    def test_first_failing_point_and_message(self, polar, check):
        d = ArrayDomain("slab", self.INTERIOR, np.array([[-1.0], [1.0]]))
        with pytest.raises(CheckEvaluationError) as exc:
            check(polar, d)
        assert str(exc.value) == self.MESSAGE
        np.testing.assert_array_equal(exc.value.point, [2.5])

    @pytest.mark.parametrize("check", CHECKS, ids=CHECK_IDS)
    def test_failure_repeated_across_copies(self, maps, check):
        # at n = 3 each abscissa has 9 adjacent cross-section copies; in the
        # slab's order -2.7 comes first, and 2.5 fails as well
        u = maps["polar_n3"]
        inner = interior(slab_domain(-3.0, 3.0, n=3, grid_points=2,
                                     witnesses=[0.5, 2.5, 1.0, -2.7, 0.0]))
        outer = boundary(slab_domain(-1.0, 1.0, n=3, grid_points=2))
        with pytest.raises(CheckEvaluationError) as exc:
            check(u, ArrayDomain("slab", inner, outer))
        with pytest.raises(CheckEvaluationError) as alone:
            check(u, ArrayDomain("slab", inner[:1], outer))
        assert str(exc.value) == str(alone.value) == (
            "evaluation failed at [-2.7, -0.5, -0.5]: phase evaluation at t=-2.7 outside the "
            "guarded range |t| <= 2.0")
        np.testing.assert_array_equal(exc.value.point, [-2.7, -0.5, -0.5])

    @pytest.mark.parametrize("t", [2.5, -2.7])
    def test_fd_oracle_names_the_unshifted_value(self, maps, t):
        # every value of this stencil fails; the oracle names the one its
        # first shifted batch, the unshifted points, raises
        message = f"phase evaluation at t={t} outside the guarded range |t| <= 2.0"
        with pytest.raises(EvaluationError, match=exact(message)):
            finite_difference_map_jet(maps["polar_n2"], [[t, -0.5], [t, 0.5]], h=1e-4)

    @pytest.mark.parametrize("n", [1, 2])
    def test_fd_oracle_fails_in_stencil_order(self, maps, n):
        # x + h e1 leaves the guarded range at 2.00005 before x - h e1 does at
        # -2.00005; at n = 2 the cross-section copies repeat x1, so the shared
        # formula pass runs first and meets -2.00005 first in its sorted values
        t = 2.0 - 5e-5
        x = np.array([[t, -0.5], [t, 0.5], [-t, -0.5], [-t, 0.5]])[::2 if n == 1 else 1, :n]
        message = "phase evaluation at t=2.00005 outside the guarded range |t| <= 2.0"
        with pytest.raises(EvaluationError, match=exact(message)):
            finite_difference_map_jet(maps[f"polar_n{n}"], x, h=1e-4)

    def test_fd_residual_failure_after_shared_copies(self, maps):
        # in slab order 0.5 and 1.0 come first, so every failing prefix holds
        # repeated variables before the first copy of 2.5
        u = maps["polar_n3"]
        inner = interior(slab_domain(-3.0, 3.0, n=3, grid_points=2, witnesses=[0.5, 2.5, 1.0]))
        outer = boundary(slab_domain(-1.0, 1.0, n=3, grid_points=2))
        check = CHECKS[CHECK_IDS.index("residual_fd")]
        with pytest.raises(CheckEvaluationError) as exc:
            check(u, ArrayDomain("slab", inner, outer))
        first = inner[np.flatnonzero(inner[:, 0] == 2.5)[0]]
        with pytest.raises(CheckEvaluationError) as alone:
            check(u, ArrayDomain("slab", first[None], outer))
        assert str(exc.value) == str(alone.value) == (
            "evaluation failed at [2.5, -0.5, -0.5]: phase evaluation at t=2.5 outside the "
            "guarded range |t| <= 2.0")
        np.testing.assert_array_equal(exc.value.point, [2.5, -0.5, -0.5])

    def test_radial_origin(self, maps):
        u = maps["radial_n3"]
        interior = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        d = ArrayDomain("annulus", interior, np.array([[3.0, 0.0, 0.0]]))
        with pytest.raises(CheckEvaluationError) as exc:
            residual_certify(sampled_residuals(_tangential_residual, u, d), d, 1.0)
        assert str(exc.value) == ("evaluation failed at [0.0, 0.0, 0.0]: "
                                  "radial map is undefined at the origin")


def _record_arguments(profile):
    """Wrap the profile's value and d1 so that each call records the
    parameter array it gets (the values of a jet)."""
    args = []
    for name in ("value", "d1"):
        def recorded(t, method=getattr(profile, name)):
            args.append(getattr(t, "val", t))
            return method(t)
        setattr(profile, name, recorded)
    return args


def test_copies_of_one_variable_are_evaluated_once(maps):
    w1 = BumpW1()
    u = CurveMap(w1, ArcComplement(w1, maps["curve_n3"].second.M, cells=512), n=3, N=2)
    d = slab_domain(-3.0, 3.0, n=3, grid_points=201)
    pts = all_points(d)
    args = _record_arguments(w1)
    u.value(pts)
    u.map_jet(pts)
    assert args and {np.size(a) for a in args} == {len(pts) // 9}


def test_a_batch_without_repeats_is_evaluated_as_it_is():
    w1 = BumpW1()
    u = ScalarProfileMap(w1, n=1)
    d = slab_domain(-3.0, 3.0, n=1, grid_points=201)
    pts = all_points(d)
    args = _record_arguments(w1)
    u.value(pts)
    u.map_jet(pts)
    assert len(args) == 2
    for a in args:
        assert np.size(a) == len(pts) and np.shares_memory(a, pts)


def _count_scalar_reads(u):
    """Record the points of each call of the map's ``_scalar``, which reads
    the scalar variable of one batch."""
    calls = []

    def counted(x, method=u._scalar):
        calls.append(x)
        return method(x)

    u._scalar = counted
    return calls


@pytest.mark.parametrize("name, domain", [
    ("curve_n3", lambda: slab_domain(-3.0, 3.0, n=3, grid_points=201)),
    ("curve_n1", lambda: slab_domain(-3.0, 3.0, n=1, grid_points=201)),
    ("radial_n3", lambda: annulus_domain(1.0, 3.0, n=3, grid_points=201)),
], ids=["slab_n3_repeats", "slab_n1_no_repeats", "annulus_n3"])
def test_fd_oracle_reads_each_shifted_batch_once(maps, name, domain):
    u = copy.copy(maps[name])
    pts, h = interior(domain()), 1e-4
    calls = _count_scalar_reads(u)
    finite_difference_map_jet(u, pts, h=h)
    assert len(calls) == 1 + 2 * u.n + 4 * math.comb(u.n, 2)
    np.testing.assert_array_equal(calls[0], pts)


def test_fd_oracle_evaluates_each_distinct_shifted_variable_once(maps):
    w1 = BumpW1()
    u = CurveMap(w1, ArcComplement(w1, maps["curve_n3"].second.M, cells=512), n=3, N=2)
    d = slab_domain(-3.0, 3.0, n=3, grid_points=201)
    x1, h = interior(d)[:, 0], 1e-4
    # the shifts along x2 and x3 add 0.0 to x1
    shifted = np.concatenate([x1, x1 + h, x1 - h, x1 + 0.0])
    distinct = np.unique(shifted.view(np.int64))
    calls = _count_scalar_reads(u)
    args = _record_arguments(w1)
    finite_difference_map_jet(u, interior(d), h=h)
    assert len(calls) == 1 + 2 * 3 + 4 * 3
    # first.value(s) comes first; the complement's panel nodes have its size
    np.testing.assert_array_equal(np.sort(args[0].view(np.int64)), distinct)
    assert {np.size(a) for a in args} == {len(distinct)}
    # the profile calls of the whole oracle are those of one formula pass
    in_oracle = len(args)
    u._components(distinct.view(float))
    assert len(args) == 2 * in_oracle


def test_fd_oracle_without_repeats_evaluates_every_shift():
    w1 = BumpW1()
    u = ScalarProfileMap(w1, n=1)
    pts = interior(slab_domain(-3.0, 3.0, n=1, grid_points=201))
    calls = _count_scalar_reads(u)
    args = _record_arguments(w1)
    finite_difference_map_jet(u, pts, h=1e-4)
    assert len(calls) == 3
    assert [np.size(a) for a in args] == [len(pts)] * 3
