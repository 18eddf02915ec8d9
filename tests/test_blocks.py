"""Every field is sampled in consecutive blocks of at most BLOCK_POINTS
domain points, and the speed-bound grid in blocks of as many nodes.
Each point is evaluated once, reports equal those of one whole-domain batch
byte for byte, the first failure is named as one batch names it, one value
field is alive at a time, and the traced peak of a run grows far slower
than its domain."""

import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from inflap import checkers, profiles, scenarios
from inflap.checkers import (
    CheckEvaluationError,
    DomainSpec,
    annulus_domain,
    conservation_check,
    directional_check,
    hull_check,
    max_principle_check,
    residual_certify,
    sample,
    slab_domain,
)
from inflap.jets import BLOCK_POINTS
from inflap.maps import MapJet, PolarSpiralMap, VectorMap
from inflap.profiles import GaussianRho, PolarPhase, choose_M
from inflap.reports import emit_report
from inflap.scenarios import ScenarioConfig, _tangential_residual, construction, run_scenario

from helpers import sampled_grad_sq, sampled_residuals

WHOLE = 10**9  # a block size no domain here reaches: one batch per field


def _all_points(d: DomainSpec) -> np.ndarray:
    return np.concatenate([d.interior, d.boundary])


def test_each_point_is_evaluated_once_in_domain_order():
    # 2·BLOCK_POINTS + 99 interior points and 2 boundary points: three blocks,
    # the last one spanning the join of interior and boundary
    d = slab_domain(-3.0, 3.0, grid_points=2 * BLOCK_POINTS + 101)
    blocks = []

    def field(x):
        blocks.append(x.copy())
        return 2.0 * x[:, 0], x

    doubled, points = sample(field, d)
    assert len(blocks) == 3 and all(len(b) <= BLOCK_POINTS for b in blocks)
    np.testing.assert_array_equal(np.concatenate(blocks), _all_points(d))
    np.testing.assert_array_equal(points, _all_points(d))
    np.testing.assert_array_equal(doubled, 2.0 * _all_points(d)[:, 0])


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

    def counted_sample(f, domain):
        seen = []

        def field(x):
            seen.append(len(x))
            return f(x)

        out = sample(field, domain)
        fields.append((len(domain), seen))
        return out

    monkeypatch.setattr(scenarios, "sample", counted_sample)
    assert _emitted(monkeypatch, scenario, 500) == whole
    assert fields and all(sum(seen) == size and len(seen) >= 3 for size, seen in fields)
    assert all(max(seen) <= 500 for _, seen in fields)


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

    # each sampled field's domain label, and the value fields each checker reads
    labels, read = [], []

    def recorded_sample(f, domain):
        labels.append(domain.label)
        return sample(f, domain)

    def reader(checker):
        def check(values, *args, **kwargs):
            read.append(values)
            return checker(values, *args, **kwargs)
        return check

    monkeypatch.setattr(scenarios, "sample", recorded_sample)
    monkeypatch.setattr(scenarios, "directional_check", reader(directional_check))
    monkeypatch.setattr(scenarios, "hull_check", reader(hull_check))
    report = run_scenario(ScenarioConfig(scenario=scenario, n=2, grid_points=101))
    residual = _label(spec.residual_domain)
    assert labels == [residual, residual] + [_label(key) for key, _ in spec.values]
    assert list(report.principle) == [name for name in names if name != "hull"]
    if scenario == "ex1b":
        # xi_e1 and the hull check read the one sample of the annulus
        assert len(read) == 2 and read[0] is read[1]
        assert report.hull.domain == report.principle["xi_e1"].domain == residual


def test_one_value_field_is_alive_at_a_time(monkeypatch):
    # ex1a reads three value domains: (-2, 0), (0, 2) and the hull's (-2, 2)
    alive = []

    def watched_sample(f, domain):
        gc.collect()
        assert all(ref() is None for ref in alive)
        out = sample(f, domain)
        if not isinstance(out, tuple):
            alive.append(weakref.ref(out))
        return out

    monkeypatch.setattr(scenarios, "sample", watched_sample)
    assert run_scenario(ScenarioConfig(scenario="ex1a", n=2, grid_points=51)).overall_pass
    assert len(alive) == 3


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
    "principle": lambda u, d: max_principle_check(sample(lambda x: u.value(x)[..., 0], d), d),
    "directional": lambda u, d: directional_check(sample(u.value, d), [1.0, 0.0], d),
    "conservation": lambda u, d: conservation_check(sampled_grad_sq(u, d), d, 1.0, tol=1.0),
    "hull": lambda u, d: hull_check(sample(u.value, d), d),
}

# 13 interior points: with blocks of 4, the first failure (index 9) lies in
# the third block and a second one (index 11) after it
INTERIOR = np.array([[0.0], [0.1], [0.2], [0.3], [0.4], [0.5], [0.6], [0.7], [0.8],
                     [2.5], [0.9], [-2.7], [1.0]])
BOUNDARY = np.array([[-1.5], [1.5]])


def _failure(monkeypatch, check, u, block):
    monkeypatch.setattr(checkers, "BLOCK_POINTS", block)
    with pytest.raises(CheckEvaluationError) as exc:
        check(u, DomainSpec("slab", INTERIOR, BOUNDARY))
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


def _traced_peak(grid_points: int) -> int:
    tracemalloc.start()
    try:
        run_scenario(ScenarioConfig(scenario="ex1a", n=3, grid_points=grid_points))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_traced_peak_grows_far_slower_than_the_domain():
    # four times the points (18,009 -> 72,009 on the residual slab); whole-
    # domain batches quadrupled the peak with them, 8.9 -> 30.6 MB
    assert _traced_peak(8001) < 2 * _traced_peak(2001)
