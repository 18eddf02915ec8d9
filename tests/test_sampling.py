"""Each construction samples each of its fields once and every check reduces
a sampled field: the jets once per map on the residual domain, the values
once per distinct principle or hull domain.  Reported points are copies, so
a report keeps no sampled array alive."""

import collections

import numpy as np
import pytest

from inflap import scenarios
from inflap.checkers import CheckEvaluationError, hull_check
from inflap.maps import PolarSpiralMap, _ProfileMap
from inflap.profiles import GaussianRho, PolarPhase, choose_M
from inflap.scenarios import ScenarioConfig, run_scenario

from helpers import ArrayDomain, sampled_hull

SMALL = dict(n=2, grid_points=51)


def _count_evaluations(monkeypatch):
    """Count map_jet and value calls per map class, outside the FD oracle."""
    calls = collections.Counter()
    in_oracle = []
    for name in ("map_jet", "value"):
        def counted(self, x, *args, _method=getattr(_ProfileMap, name), _name=name, **kwargs):
            if not in_oracle:
                calls[type(self).__name__, _name] += 1
            return _method(self, x, *args, **kwargs)
        monkeypatch.setattr(_ProfileMap, name, counted)
    oracle = scenarios.finite_difference_map_jet

    def marked(*args, **kwargs):
        in_oracle.append(True)
        try:
            return oracle(*args, **kwargs)
        finally:
            in_oracle.pop()

    monkeypatch.setattr(scenarios, "finite_difference_map_jet", marked)
    return calls


@pytest.mark.parametrize("scenario, maps, value_calls", [
    ("ex1a", ("CurveMap",), 3),
    ("ex1b", ("RadialCurveMap",), 1),
    ("ex2", ("PolarSpiralMap",), 1),
    ("ex3", ("ScalarProfileMap", "PerturbationPotentialMap"), 2),
])
def test_each_field_is_sampled_once(monkeypatch, scenario, maps, value_calls):
    calls = _count_evaluations(monkeypatch)
    assert run_scenario(ScenarioConfig(scenario=scenario, **SMALL)).overall_pass
    expected = {(m, "map_jet"): 1 for m in maps}
    expected[maps[0], "value"] = value_calls
    assert dict(calls) == expected


@pytest.mark.parametrize("scenario", ["ex1a", "ex1b", "ex2", "ex3"])
def test_reported_points_own_their_data(scenario):
    report = run_scenario(ScenarioConfig(scenario=scenario, **SMALL))
    points = [r.worst_point for r in report.residual]
    if report.conservation is not None:
        points.append(report.conservation.worst_point)
    for verdict in report.principle.values():
        points += [verdict.witness_sup, verdict.witness_inf]
    if report.hull is not None:
        points += [report.hull.witness_point, report.hull.witness_image]
    assert all(p is not None for p in points)
    assert all(p.base is None for p in points)


def test_hull_names_an_interior_failure_before_a_boundary_one():
    rho = GaussianRho()
    phase = PolarPhase(choose_M(rho, samples=20_000).M, t_max=2.0, cells=512, rho=rho)
    u = PolarSpiralMap(rho, phase, n=1, N=2)
    # the phase is guarded to |t| <= 2: 2.5 (interior) and -2.7 (boundary) fail
    d = ArrayDomain("slab", np.array([[0.5], [2.5]]), np.array([[-2.7], [1.0]]))
    with pytest.raises(CheckEvaluationError) as exc:
        hull_check(sampled_hull(u, d), d)
    np.testing.assert_array_equal(exc.value.point, [2.5])
