"""Every field is sampled in consecutive blocks of at most BLOCK_POINTS
domain points, a residual sweep in blocks sized by its jets, and the
speed-bound grid in blocks of BLOCK_POINTS nodes.  Each point is evaluated
once, reports equal those of one whole-domain batch byte for byte, the
first failure is named as one batch names it, one block's results are
alive at a time, and the traced peak of a run grows neither with its grid
nor with the source dimension."""

import gc
import math
import os
import resource
import subprocess
import sys
import weakref
from dataclasses import replace

import numpy as np
import pytest

from inflap import checkers, profiles, scenarios
from inflap.checkers import (
    CheckEvaluationError,
    DomainSpec,
    Extremum,
    HullReduction,
    PrincipleExtrema,
    annulus_domain,
    conservation_check,
    directional_check,
    hull_check,
    max_principle_check,
    residual_certify,
    sample,
    slab_domain,
)
from inflap.jets import BLOCK_POINTS, EvaluationError
from inflap.maps import MapJet, PolarSpiralMap, VectorMap
from inflap.profiles import GaussianRho, PolarPhase, choose_M
from inflap.reports import emit_report
from inflap.scenarios import (
    WITNESS_ABSCISSAS,
    ScenarioConfig,
    _tangential_residual,
    construction,
    run_scenario,
)

from helpers import (
    ArrayDomain,
    all_points,
    exact,
    sampled_along,
    sampled_deviation,
    sampled_hull,
    sampled_principle,
    sampled_residuals,
    traced_peak,
)

WHOLE = 10**9  # a block size no domain here reaches: one batch per field


def _swept_blocks(boundary_first: bool):
    """Sweep a slab of 2·BLOCK_POINTS + 99 interior points and 2 boundary
    points; its blocks, and the start and result each recorder got."""
    d = slab_domain(-3.0, 3.0, grid_points=2 * BLOCK_POINTS + 101)
    blocks = []

    def field(x):
        blocks.append(x.copy())
        return 2.0 * x[:, 0], x

    class Recorder(list):
        def feed(self, values, start):
            self.append((start, values))

    doubled, points = Recorder(), Recorder()
    sample(field, d, [doubled, points], boundary_first)
    assert [start for start, _ in doubled] == [start for start, _ in points]
    return d, blocks, doubled, points


def _assert_domain_order(d, blocks, doubled, points):
    # each recorder got every point once; in domain order, their values
    assert all(len(b) <= BLOCK_POINTS for b in blocks)
    assert sum(map(len, blocks)) == len(d)

    def in_order(fed):
        return np.concatenate([v for _, v in sorted(fed, key=lambda s: s[0])])

    np.testing.assert_array_equal(in_order(points), all_points(d))
    np.testing.assert_array_equal(in_order(doubled), 2.0 * all_points(d)[:, 0])


def test_each_point_is_evaluated_once_in_domain_order():
    # three blocks, the last one spanning the join of interior and boundary
    d, blocks, doubled, points = _swept_blocks(boundary_first=False)
    assert [start for start, _ in doubled] == [0, BLOCK_POINTS, 2 * BLOCK_POINTS]
    np.testing.assert_array_equal(np.concatenate(blocks), all_points(d))
    _assert_domain_order(d, blocks, doubled, points)


def test_boundary_first_sweep_tops_up_the_boundary_block():
    # the 2 boundary points and the first BLOCK_POINTS - 2 interior ones,
    # evaluated in domain order and fed boundary first; then the interior
    d, blocks, doubled, points = _swept_blocks(boundary_first=True)
    m, rest = d.n_interior, BLOCK_POINTS - 2
    assert [len(b) for b in blocks] == [BLOCK_POINTS, BLOCK_POINTS, 101]
    first = np.concatenate([d.points(0, rest), d.points(m, m + 2)])
    np.testing.assert_array_equal(blocks[0], first)
    assert [start for start, _ in doubled] == [m, 0, rest, rest + BLOCK_POINTS]
    _assert_domain_order(d, blocks, doubled, points)


def _emitted(monkeypatch, scenario, block):
    # the block size both samplers read
    monkeypatch.setattr(checkers, "BLOCK_POINTS", block)
    monkeypatch.setattr(profiles, "BLOCK_POINTS", block)
    report = run_scenario(ScenarioConfig(scenario=scenario, n=3, grid_points=301))
    return emit_report([report], with_timings=False)


@pytest.mark.parametrize("scenario", ["ex1a", "ex1b", "ex2", "ex3"])
def test_blocks_give_the_whole_batch_report(monkeypatch, scenario):
    whole = _emitted(monkeypatch, scenario, WHOLE)
    # every domain here holds 1,806 (annulus) or 2,709 points or more: at least 4 blocks
    fields = []

    def counted_sample(f, domain, *args, **kwargs):
        seen = []

        def field(x):
            seen.append(len(x))
            return f(x)

        sample(field, domain, *args, **kwargs)
        fields.append((len(domain), seen))

    monkeypatch.setattr(scenarios, "sample", counted_sample)
    assert _emitted(monkeypatch, scenario, 500) == whole
    assert fields and all(sum(seen) == size and len(seen) >= 3 for size, seen in fields)
    assert all(max(seen) <= 500 for _, seen in fields)


@pytest.mark.parametrize("scenario, n, N, grid, rows", [
    ("ex1a", 1, 2, 10_001, 4096),  # BLOCK_POINTS: the n = 1 workloads keep their blocks
    ("ex1a", 3, 2, 2001, 2048),    # 18 entries a point
    ("ex1b", 2, 3, 2001, 3072),    # 12 entries a point
    ("ex2", 3, 4, 1001, 2048),     # the floor: 36 entries would allow 1,024 points
    ("ex3", 2, 1, 2001, 4096),     # u's and the forcing map's jets, 8 entries a point
    ("ex1b", 10, 2, 201, 2048),    # the floor, at 200 entries a point
])
def test_residual_blocks_are_sized_by_their_jets(monkeypatch, scenario, n, N, grid, rows):
    sizes = []

    def recorded_sample(f, domain, *args, **kwargs):
        seen = []

        def field(x):
            seen.append(len(x))
            return f(x)

        sample(field, domain, *args, **kwargs)
        sizes.append((len(domain), seen))

    monkeypatch.setattr(scenarios, "sample", recorded_sample)
    run_scenario(ScenarioConfig(scenario=scenario, n=n, N=N, grid_points=grid))
    entries = (2 if scenario == "ex3" else 1) * N * n * n  # hessian entries a point
    (size, analytic), (_, fd), *values = sizes
    assert analytic == fd and sum(analytic) == size and len(analytic) >= 2
    # every block but the last is full; a full block holds at most
    # BLOCK_ENTRIES hessian entries, or the floor's points
    assert set(analytic[:-1]) == {rows} and analytic[-1] <= rows
    assert rows * entries <= checkers.BLOCK_ENTRIES or rows == checkers.ROW_FLOOR
    assert all(max(seen) <= BLOCK_POINTS for _, seen in values)


def test_principle_checks_keep_the_registry_order():
    for name in ("ex1a", "ex1b", "ex2", "ex3"):
        report = run_scenario(ScenarioConfig(scenario=name, grid_points=51))
        checks = [check for _, pairs in construction(name).values for check, _ in pairs]
        assert list(report.principle) == [check for check in checks if check != "hull"]


def _label(key) -> str:
    kind, lo, hi = key
    return (annulus_domain(lo, hi) if kind == "annulus" else slab_domain(lo, hi)).label


@pytest.mark.parametrize("scenario", ["ex1a", "ex1b", "ex2", "ex3"])
def test_each_value_domain_is_sampled_once(monkeypatch, scenario):
    spec = construction(scenario)
    names = [name for _, pairs in spec.values for name, _ in pairs]
    assert len(set(names)) == len(names) and names.count("hull") <= 1
    assert set(spec.detect) <= set(names) - {"hull"}

    # each sampled field's domain label, and the domain each checker reads
    labels, read = [], []

    def recorded_sample(f, domain, *args, **kwargs):
        labels.append(domain.label)
        sample(f, domain, *args, **kwargs)

    def reader(checker):
        def check(*args):
            read.append(next(a for a in args if isinstance(a, DomainSpec)))
            return checker(*args)
        return check

    monkeypatch.setattr(scenarios, "sample", recorded_sample)
    monkeypatch.setattr(scenarios, "directional_check", reader(directional_check))
    monkeypatch.setattr(scenarios, "hull_check", reader(hull_check))
    report = run_scenario(ScenarioConfig(scenario=scenario, n=2, grid_points=101))
    residual = _label(spec.residual_domain)
    assert labels == [residual, residual] + [_label(key) for key, _ in spec.values]
    assert list(report.principle) == [name for name in names if name != "hull"]
    if scenario == "ex1b":
        # xi_e1 and the hull check reduce the one sweep of the annulus
        assert len(read) == 2 and read[0] is read[1]
        assert report.hull.domain == report.principle["xi_e1"].domain == residual


def test_one_value_field_is_alive_at_a_time(monkeypatch):
    # before each block is evaluated, the results of every block but the
    # last are gone: no sweep keeps what it hands to its reductions
    monkeypatch.setattr(checkers, "BLOCK_POINTS", 64)
    blocks, swept = [], []

    def watched_sample(f, domain, *args, **kwargs):
        def field(x):
            gc.collect()
            assert all(ref() is None for refs in blocks[:-1] for ref in refs)
            result = f(x)
            blocks.append([weakref.ref(r) for r in result])
            return result

        swept.append(domain.label)
        sample(field, domain, *args, **kwargs)

    monkeypatch.setattr(scenarios, "sample", watched_sample)
    assert run_scenario(ScenarioConfig(scenario="ex1a", n=2, grid_points=51)).overall_pass
    # two sweeps of the residual slab and three value domains, each of
    # several blocks
    assert len(swept) == 5 and len(blocks) > 2 * len(swept)


@pytest.fixture(scope="module")
def polar():
    rho = GaussianRho()
    phase = PolarPhase(choose_M(rho, samples=20_000).M, t_max=2.0, cells=512, rho=rho)
    return PolarSpiralMap(rho, phase, n=1, N=2)


class _NanAt(VectorMap):
    """x -> (x1, x1²), evaluated at NaN in place of x1 in ``bad``."""

    def __init__(self, *bad: float):
        super().__init__(1, 2)
        self.bad = bad

    def map_jet(self, x) -> MapJet:
        t = self._as_point(x)[..., 0]
        t = np.where(np.isin(t, self.bad), math.nan, t)
        one, zero = np.ones_like(t), np.zeros_like(t)
        value = np.stack([t, t * t], axis=-1)
        jac = np.stack([one, 2.0 * t], axis=-1)[..., None]
        hess = np.stack([zero, 2.0 * one], axis=-1)[..., None, None]
        return MapJet(value, jac, hess)


CHECKS = {
    "residual_analytic": lambda u, d: residual_certify(
        sampled_residuals(_tangential_residual, u, d), d, 1.0
    ),
    "residual_fd": lambda u, d: residual_certify(
        sampled_residuals(_tangential_residual, u, d, fd_step=1e-4), d, 1.0, jet_source="fd"
    ),
    "principle": lambda u, d: max_principle_check(
        sampled_principle(lambda x: u.value(x)[..., 0], d), d
    ),
    "directional": lambda u, d: directional_check(sampled_along(u, d, [1.0, 0.0]), [1.0, 0.0], d),
    "conservation": lambda u, d: conservation_check(sampled_deviation(u, d, 1.0), d, 1.0, tol=1.0),
    "hull": lambda u, d: hull_check(sampled_hull(u, d), d),
}

# 13 interior points: with blocks of 4, the first failure (index 9) lies in
# the third block and a second one (index 11) after it
INTERIOR = np.array([[0.0], [0.1], [0.2], [0.3], [0.4], [0.5], [0.6], [0.7], [0.8],
                     [2.5], [0.9], [-2.7], [1.0]])
BOUNDARY = np.array([[-1.5], [1.5]])


def _failure(monkeypatch, check, u, block):
    monkeypatch.setattr(checkers, "BLOCK_POINTS", block)
    with pytest.raises(CheckEvaluationError) as exc:
        check(u, ArrayDomain("slab", INTERIOR, BOUNDARY))
    return str(exc.value), exc.value.point.tolist()


@pytest.mark.parametrize("check", CHECKS.values(), ids=CHECKS.keys())
def test_evaluation_error_in_a_later_block(monkeypatch, polar, check):
    # the phase is guarded to |t| <= 2: 2.5 and -2.7 fail, 2.5 first
    whole = _failure(monkeypatch, check, polar, WHOLE)
    assert whole == ("evaluation failed at [2.5]: phase evaluation at t=2.5 outside the "
                     "guarded range |t| <= 2.0", [2.5])
    assert _failure(monkeypatch, check, polar, 4) == whole


@pytest.mark.parametrize("check", CHECKS.values(), ids=CHECKS.keys())
def test_nan_in_a_later_block(monkeypatch, check):
    u = _NanAt(2.5, -2.7)
    whole = _failure(monkeypatch, check, u, WHOLE)
    assert whole[1] == [2.5] and "not finite" in whole[0]
    assert _failure(monkeypatch, check, u, 4) == whole


def _traced_peak(scenario: str, grid_points: int, n: int = 1) -> int:
    cfg = ScenarioConfig(scenario=scenario, n=n, grid_points=grid_points)
    return traced_peak(lambda: run_scenario(cfg))


def test_traced_peak_is_flat_in_the_source_dimension():
    # the same 48,000 annulus points at n = 2 and n = 3: blocks of 4,096
    # points of 8 hessian entries against 2,048 of 18 (4,096 of 18 read
    # 2.69 MB against 2.13 MB)
    assert _traced_peak("ex1b", 8001, n=3) < 1.2 * _traced_peak("ex1b", 12_001, n=2)


def test_traced_peak_grows_far_slower_than_the_domain():
    # four times the points (18,009 -> 72,009 on the residual slab); whole-
    # domain batches quadrupled the peak with them, 8.9 -> 30.6 MB
    assert _traced_peak("ex1a", 8001, n=3) < 2 * _traced_peak("ex1a", 2001, n=3)


@pytest.mark.parametrize("scenario, n, small, large", [
    # stored points and per-point results: 2.5 -> 16.0 MB
    ("ex1a", 3, 2001, 32_001),
    # the peak is one block's jets, largest for a block inside the bump's
    # support: every grid from 16,001 has one (0.96 MB), while at 2,001 the
    # one block of 2,003 points stays below set-up's 0.43 MB peak
    ("ex3", 1, 16_001, 200_001),
])
def test_traced_peak_is_flat_in_the_grid(scenario, n, small, large):
    assert _traced_peak(scenario, large, n) < 1.2 * _traced_peak(scenario, small, n)


_FAULTS = """
import resource
from inflap.scenarios import ScenarioConfig, run_scenario
for grid in (2001, 8001, 32001):  # the first run warms the process
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_scenario(ScenarioConfig(scenario="ex1a", n=3, grid_points=grid))
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_minor_faults_do_not_grow_with_the_blocks():
    # each residual block that 32,001 adds over 8,001 faults in fewer pages
    # than one block's hessian occupies (2,048 x 2 x 3 x 3 floats, 72 pages
    # of 4 KiB): the sweeps reuse their jets' buffers instead of mapping new
    # ones every block (the per-block allocations faulted 540-630 pages a
    # block of 4,096 points)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-c", _FAULTS], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    _, small, large = map(int, proc.stdout.split())
    _, lo, hi = construction("ex1a").residual_domain
    rows = checkers.jet_rows(2 * 3 * 3)  # the residual sweeps' block at N = 2, n = 3
    blocks = [math.ceil(len(slab_domain(lo, hi, 3, grid, 1.0, WITNESS_ABSCISSAS)) / rows)
              for grid in (8001, 32001)]
    hessian_pages = rows * 2 * 3 * 3 * 8 / resource.getpagesize()
    assert (large - small) / (blocks[1] - blocks[0]) < hessian_pages


def _verdicts(make, blocks, finish, overwrite: float):
    """The verdicts, or errors, of one reduction fed the blocks, each then
    overwritten with ``overwrite``, and of one fed copies of them."""
    kept, fresh = make(), make()
    for start, block in blocks:
        block = block.copy()
        fresh.feed(block.copy(), start)
        kept.feed(block, start)
        block.fill(overwrite)
    verdicts = []
    for reduction in (kept, fresh):
        try:
            record = finish(reduction)
        except CheckEvaluationError as exc:
            verdicts.append(str(exc))
        else:
            verdicts.append({key: np.asarray(v).tolist() for key, v in vars(record).items()})
    return verdicts


def _images(*interior):
    """The segment from (0, 0) to (1, 0) as the boundary image, fed first,
    then the interior image blocks."""
    return [(5, np.array([[0.0, 0.0], [1.0, 0.0]])),
            *((start, np.array(block)) for start, block in interior)]


def test_reductions_own_what_they_keep():
    # a sweep reuses its jets' buffers from block to block, so a reduction must
    # keep copies: overwriting every array it was fed leaves its verdict as is
    d = ArrayDomain("slab", [[0.1], [0.2], [0.3], [0.4], [0.5]], [[-1.0], [1.0]])
    values = [(0, np.array([0.3, 2.0, -1.0])), (3, np.array([2.0, 0.5])),
              (5, np.array([0.7, -0.2]))]
    residual = lambda e: residual_certify(e, d, 1.0)  # noqa: E731
    hull = lambda: HullReduction(d.n_interior)  # noqa: E731
    cases = [
        (Extremum, values, residual),
        (lambda: PrincipleExtrema(lambda v: v, d.n_interior), values,
         lambda e: max_principle_check(e, d)),
        (hull, _images((0, [[0.5, 0.2], [0.5, 0.0], [0.9, -0.4]]), (3, [[0.2, 0.4], [3.0, 0.0]])),
         lambda e: hull_check(e, d)),
        # the first non-finite value or image is named as it was fed
        (Extremum, [(0, np.array([1.0, math.inf, 0.5]))], residual),
        (hull, _images((0, [[0.5, 0.2], [math.inf, 0.0]])), lambda e: hull_check(e, d)),
    ]
    for make, blocks, finish in cases:
        for overwrite in (math.nan, 0.0):
            kept, fresh = _verdicts(make, blocks, finish, overwrite)
            assert kept == fresh


class _Injected(VectorMap):
    """x -> (x1, x1²), except at the abscissas of ``rows``, where the value
    is that row, and those of ``errors``, where an EvaluationError is raised."""

    def __init__(self, n: int, rows=None, errors=(), value=None):
        super().__init__(n, 2)
        self.rows, self.errors = rows or {}, errors
        self.base = value or (lambda x: np.stack([x[:, 0], x[:, 0] ** 2], axis=-1))

    def value(self, x):
        x = self._as_point(x)
        failing = np.isin(x[:, 0], self.errors)
        if failing.any():
            raise EvaluationError(f"injected at x1 = {x[failing, 0][0]!r}")
        out = self.base(x)
        for t, row in self.rows.items():
            out[x[:, 0] == t] = row
        return out

    def map_jet(self, x, out=None) -> MapJet:  # new arrays: a map may leave out unused
        value = self.value(x)
        return MapJet(value, np.zeros(value.shape + (self.n,)),
                      np.zeros(value.shape + (self.n, self.n)))


NODES = np.linspace(-2.0, 0.0, 11)  # the value slab's grid at grid_points=11


def _run_injected(monkeypatch, u, checks, n=1, block=4):
    """ex1a's runner on ``u`` with one value slab (-2, 0) and the given
    checks; its residual slab (5, 6) holds no injected abscissa."""
    monkeypatch.setattr(checkers, "BLOCK_POINTS", block)
    spec = replace(
        construction("ex1a"), build=lambda profile, M, cfg: (u, None),
        residual=lambda u_jets, f_jets: np.zeros(len(u_jets.value)),
        residual_domain=("slab", 5.0, 6.0), conservation_scale=None,
        values=((("slab", -2.0, 0.0), checks),), detect=("xi_e1",),
    )
    monkeypatch.setitem(scenarios._CONSTRUCTIONS, "ex1a", spec)
    return run_scenario(ScenarioConfig(scenario="ex1a", n=n, grid_points=11))


class TestPrecedence:
    """Which failure a run names when a field has several."""

    ALONG = (("xi_e1", scenarios._along(0)),)

    def test_an_evaluation_error_wins_over_an_earlier_nan(self, monkeypatch):
        # blocks of 4: the NaN at node 1 is in the first interior block, the
        # error at node 9 in the third
        u = _Injected(1, rows={NODES[1]: (math.nan, 0.0)}, errors=(NODES[9],))
        with pytest.raises(CheckEvaluationError, match=r"injected at x1 = ") as exc:
            _run_injected(monkeypatch, u, self.ALONG)
        np.testing.assert_array_equal(exc.value.point, [NODES[9]])

    def test_the_first_check_names_its_nan(self, monkeypatch):
        # the modulus of (1e200, 0) overflows at node 2, before the NaN at
        # node 6 that the first check, xi_e1, meets
        u = _Injected(1, rows={NODES[2]: (1e200, 0.0), NODES[6]: (math.nan, 0.0)})
        checks = self.ALONG + (("modulus", scenarios._modulus),)
        with np.errstate(over="ignore"), pytest.raises(
            CheckEvaluationError, match="sampled value nan is not finite"
        ) as exc:
            _run_injected(monkeypatch, u, checks)
        np.testing.assert_array_equal(exc.value.point, [NODES[6]])
        # first, the modulus names its own first non-finite value
        with np.errstate(over="ignore"), pytest.raises(
            CheckEvaluationError, match="sampled value inf is not finite"
        ) as exc:
            _run_injected(monkeypatch, u, checks[::-1])
        np.testing.assert_array_equal(exc.value.point, [NODES[2]])

    def test_an_interior_failure_wins_over_a_boundary_one(self, monkeypatch):
        # the hull's domain is swept boundary first; -2 is a boundary abscissa
        u = _Injected(1, errors=(-2.0, NODES[7]))
        with pytest.raises(CheckEvaluationError) as exc:
            _run_injected(monkeypatch, u, self.ALONG + (("hull", scenarios._hull),))
        np.testing.assert_array_equal(exc.value.point, [NODES[7]])
        # with no interior failure the boundary one is named
        u = _Injected(1, errors=(-2.0,))
        with pytest.raises(CheckEvaluationError) as exc:
            _run_injected(monkeypatch, u, self.ALONG + (("hull", scenarios._hull),))
        np.testing.assert_array_equal(exc.value.point, [-2.0])

    def test_a_segment_refusal_comes_after_a_non_finite_image(self, monkeypatch):
        # (x1, x2) sends the boundary of the slab to 6 distinct points
        plane = lambda x: x[:, :2].copy()  # noqa: E731
        checks = (("hull", scenarios._hull),) + self.ALONG
        u = _Injected(2, rows={NODES[3]: (math.nan, 0.0)}, value=plane)
        with pytest.raises(CheckEvaluationError, match="not finite") as exc:
            _run_injected(monkeypatch, u, checks, n=2)
        np.testing.assert_array_equal(exc.value.point, [NODES[3], -0.5])
        with pytest.raises(ValueError, match=exact(
            "boundary image has 6 distinct points; expected 1 or 2"
        )) as exc:
            _run_injected(monkeypatch, _Injected(2, value=plane), checks, n=2)
        assert not isinstance(exc.value, EvaluationError)
