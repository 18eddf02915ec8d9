import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from inflap import cli, scenarios
from inflap.cli import main
from inflap.jets import EvaluationError
from inflap.maps import PolarDecomposition, polar_decompose
from inflap.operators import normal, orthogonal_projection, tangential
from inflap.profiles import BumpW1, BumpZ1, GaussianRho, PolarPhase, choose_M
from inflap.reports import (
    CSV_HEADER,
    dumps_canonical,
    emit_profile_tables,
    emit_report,
    report_dict,
    report_rows,
)
from inflap.scenarios import (
    MAX_CACHE_CELLS,
    MAX_DOMAIN_POINTS,
    MAX_HESSIAN_ENTRIES,
    SCENARIO_NAMES,
    ScenarioConfig,
    construction,
    run_scenario,
    validate_config,
)

from helpers import merged_reference

INV_E = math.exp(-1.0)

# fast config used throughout: dense enough for all margins here
FAST = dict(grid_points=201, cache_cells=256)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: (check, metric, status) of each CSV row, in emission order
EXPECTED_ROWS = {
    "ex1a": [
        ("residual_analytic", "sup_residual", "pass"),
        ("residual_fd", "sup_residual", "pass"),
        ("conservation", "max_dev", "pass"),
        ("principle_xi_e1_minus", "margin", "info"),
        ("principle_xi_e1_plus", "margin", "info"),
        ("principle_xi_e2_minus", "margin", "info"),
        ("principle_xi_e2_plus", "margin", "info"),
        ("hull", "max_outside_distance", "outside"),
        ("overall", "overall_pass", "pass"),
    ],
    "ex1b": [
        ("residual_analytic", "sup_residual", "pass"),
        ("residual_fd", "sup_residual", "pass"),
        ("conservation", "max_dev", "pass"),
        ("principle_xi_e1", "margin", "info"),
        ("hull", "max_outside_distance", "outside"),
        ("overall", "overall_pass", "pass"),
    ],
    "ex2": [
        ("residual_analytic", "sup_residual", "pass"),
        ("residual_fd", "sup_residual", "pass"),
        ("conservation", "max_dev", "pass"),
        ("principle_modulus", "margin", "info"),
        ("overall", "overall_pass", "pass"),
    ],
    "ex3": [
        ("residual_analytic", "sup_residual", "pass"),
        ("residual_fd", "sup_residual", "pass"),
        ("principle_v_minus", "margin", "info"),
        ("principle_v_plus", "margin", "info"),
        ("overall", "overall_pass", "pass"),
    ],
    "properties": [
        ("property_perpendicularity", "max_relative_dot", "pass"),
        ("property_polar_identity", "max_relative_error", "pass"),
        ("property_projection", "max_asymmetry", "pass"),
        ("property_scalar_normal_zero", "max_abs", "pass"),
        ("property_tangential_gradient_identity", "max_relative_error", "pass"),
        ("overall", "overall_pass", "pass"),
    ],
}


@pytest.fixture(scope="module")
def fast_reports():
    return {name: run_scenario(ScenarioConfig(scenario=name, **FAST)) for name in SCENARIO_NAMES}


@pytest.fixture(scope="module")
def ex2_report(fast_reports):
    return fast_reports["ex2"]


class TestCanonicalJson:
    def test_sorted_keys_and_17_digit_floats(self):
        doc = {"b": 1.0 / 3.0, "a": [True, None, 7]}
        text = dumps_canonical(doc)
        assert text == '{"a":[true,null,7],"b":0.33333333333333331}'

    def test_floats_roundtrip_bit_exactly(self):
        rng = np.random.default_rng(70)
        values = [float(x) for x in rng.normal(size=200) * 10.0 ** rng.integers(-20, 20, size=200)]
        parsed = json.loads(dumps_canonical(values))
        assert parsed == values

    def test_numpy_scalars_and_arrays(self):
        doc = {"x": np.float64(0.5), "v": np.array([1.0, 2.0]), "k": np.int64(3), "t": np.bool_(True)}
        assert dumps_canonical(doc) == '{"k":3,"t":true,"v":[1,2],"x":0.5}'

    def test_non_finite_values_become_strings(self):
        assert dumps_canonical(float("-inf")) == '"-inf"'

    def test_rejects_non_string_keys(self):
        with pytest.raises(TypeError):
            dumps_canonical({1: "x"})


class TestReportEmission:
    def test_modulus_margin_key_path(self, ex2_report):
        doc = json.loads(emit_report([ex2_report]))
        scenario = doc["reports"][0]
        assert scenario["scenario"] == "ex2"
        margin = scenario["principle"]["modulus"]["margin"]
        assert margin == pytest.approx(1.0 - INV_E, abs=1e-9)

    def test_roundtrip_is_bit_exact(self, ex2_report):
        original = report_dict(ex2_report, with_timings=False)
        parsed = json.loads(emit_report([ex2_report], with_timings=False))["reports"][0]

        def compare(a, b):
            if isinstance(a, dict):
                assert set(a) == set(b)
                for k in a:
                    compare(a[k], b[k])
            elif isinstance(a, (list, tuple)):
                assert len(a) == len(b)
                for x, y in zip(a, b):
                    compare(x, y)
            elif isinstance(a, float):
                assert a == b  # bit-exact through 17 significant digits
            else:
                assert a == b

        compare(original, parsed)

    def test_timings_are_segregated(self, ex2_report):
        with_t = json.loads(emit_report([ex2_report], with_timings=True))["reports"][0]
        without = json.loads(emit_report([ex2_report], with_timings=False))["reports"][0]
        assert "timings" in with_t
        assert "timings" not in without
        del with_t["timings"]
        assert dumps_canonical(with_t) == dumps_canonical(without)

    def test_csv_row_count_matches_executed_checks(self, fast_reports):
        for name, report in fast_reports.items():
            payload = emit_report([report], fmt="csv").decode()
            rows = list(csv.reader(io.StringIO(payload)))
            assert tuple(rows[0]) == CSV_HEADER
            assert [(r[1], r[3], r[6]) for r in rows[1:]] == EXPECTED_ROWS[name]
            assert all(r[0] == name for r in rows[1:])
            assert len(report_rows(report)) == len(rows) - 1

    @pytest.mark.parametrize("args", [["all", "--grid", "51", "--n", "2"],
                                      ["properties", "--seed", "3"]])
    def test_csv_rows_equal_their_json_leaves(self, args, tmp_path):
        # each row's value and threshold are the .17g text of the JSON leaves
        # its check and metric name, and its status is that section's flag
        paths = {fmt: tmp_path / f"report.{fmt}" for fmt in ("json", "csv")}
        for fmt, path in paths.items():
            assert main([*args, "--format", fmt, "--no-timings", "--out", str(path)]) == 0
        reports = {r["scenario"]: r for r in json.loads(paths["json"].read_text())["reports"]}
        rows = list(csv.DictReader(io.StringIO(paths["csv"].read_text())))

        def text(leaf):  # a JSON leaf as CSV text; a missing leaf is ""
            if isinstance(leaf, (int, float)) and not isinstance(leaf, bool):
                return format(leaf, ".17g")
            return "" if leaf is None else str(leaf)

        def flag(passed):
            return "pass" if passed else "fail"

        for row in rows:
            report = reports[row["scenario"]]
            kind, _, key = row["check"].partition("_")
            if kind == "residual":
                section, domain = report["residual"][key], report["residual"]["domain"]
                status = flag(section["pass"])
            elif kind == "principle":
                section, status = report["principle"][key], "info"
                domain = section["domain"]
            elif kind == "property":
                section, domain = report["properties"][key], ""
                status = flag(section["pass"])
            elif kind == "overall":
                section, domain, status = report, "", flag(report["overall_pass"])
            else:
                section = report[kind]
                domain = section["domain"]
                status = (("contained" if section["contained"] else "outside")
                          if kind == "hull" else flag(section["pass"]))
            assert (row["domain"], row["value"], row["threshold"], row["status"]) == (
                domain, text(section[row["metric"]]), text(section.get("tol")), status
            ), row
        assert {r["scenario"] for r in rows} == set(reports)

    def test_unknown_format_rejected(self, ex2_report):
        with pytest.raises(ValueError):
            emit_report([ex2_report], fmt="xml")


class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self):
        cfg = ScenarioConfig(scenario="ex2", **FAST)
        first = emit_report([run_scenario(cfg)], with_timings=False)
        second = emit_report([run_scenario(cfg)], with_timings=False)
        assert first == second

    def test_properties_runs_respect_seed(self):
        a = run_scenario(ScenarioConfig(scenario="properties", seed=5, **FAST))
        b = run_scenario(ScenarioConfig(scenario="properties", seed=5, **FAST))
        c = run_scenario(ScenarioConfig(scenario="properties", seed=6, **FAST))
        assert emit_report([a], with_timings=False) == emit_report([b], with_timings=False)
        stat = lambda r: r.properties["perpendicularity"].stats["max_relative_dot"]  # noqa: E731
        assert stat(a) != stat(c)

    def test_scenario_alone_matches_its_report_in_all(self, tmp_path):
        def reports(name):
            out = tmp_path / f"{name}.json"
            assert main([name, "--grid", "201", "--no-timings", "--out", str(out)]) == 0
            return json.loads(out.read_text())["reports"]

        together = reports("all")
        assert [r["scenario"] for r in together] == list(SCENARIO_NAMES)
        for name, report in zip(SCENARIO_NAMES, together):
            assert dumps_canonical(reports(name)) == dumps_canonical([report])


class TestValidation:
    def test_unknown_scenario(self):
        errors = validate_config(ScenarioConfig(scenario="nope"))
        assert any("scenario" in e for e in errors)

    def test_field_errors_are_named(self):
        cfg = ScenarioConfig(scenario="ex2", grid_points=1, safety=-1.0, hull_tol=0.0)
        errors = validate_config(cfg)
        joined = " ".join(errors)
        for field in ("grid_points", "safety", "hull_tol"):
            assert field in joined

    def test_run_scenario_rejects_invalid_config(self):
        with pytest.raises(ValueError):
            run_scenario(ScenarioConfig(scenario="ex2", N=1))

    @pytest.mark.parametrize("scenario, n, grid_points, capped", [
        ("ex1a", 1, MAX_DOMAIN_POINTS, False),
        ("ex1a", 1, MAX_DOMAIN_POINTS + 1, True),
        ("ex3", 3, MAX_DOMAIN_POINTS // 9, False),
        ("ex3", 3, MAX_DOMAIN_POINTS // 9 + 1, True),
        ("ex1b", 2, MAX_DOMAIN_POINTS // 4, False),
        ("ex1b", 2, MAX_DOMAIN_POINTS // 4 + 1, True),
        ("ex2", 20, 2001, True),
        ("ex1a", 10**9, 2, True),
        ("ex1b", 10**9, 2, True),
        ("properties", 20, 2001, False),  # the property suite samples no domain
    ])
    def test_domain_size_is_capped(self, scenario, n, grid_points, capped):
        """A slab holds grid_points·3^(n-1) points, an annulus grid_points·2n."""
        errors = validate_config(ScenarioConfig(scenario=scenario, n=n, grid_points=grid_points))
        assert any(e.startswith("grid_points, n:") for e in errors) == capped

    @pytest.mark.parametrize("scenario, n, N, grid_points, capped", [
        ("ex1a", 3, 2, MAX_HESSIAN_ENTRIES // 162, False),
        ("ex1a", 3, 2, MAX_HESSIAN_ENTRIES // 162 + 1, True),
        ("ex1b", 2, 3, MAX_HESSIAN_ENTRIES // 48, False),
        ("ex1b", 2, 3, MAX_HESSIAN_ENTRIES // 48 + 1, True),
        ("ex3", 4, 10**9, MAX_HESSIAN_ENTRIES // 432, False),  # scalar maps whatever N
        ("ex3", 4, 10**9, MAX_HESSIAN_ENTRIES // 432 + 1, True),
        ("properties", 20, 10**9, 2001, False),
    ])
    def test_jet_field_size_is_capped(self, scenario, n, N, grid_points, capped):
        """The residual domain's jets total grid_points·copies·N·n² hessian entries, N = 1 on ex3."""
        cfg = ScenarioConfig(scenario=scenario, n=n, N=N, grid_points=grid_points)
        assert any(e.startswith("grid_points, n, N:") for e in validate_config(cfg)) == capped

    @pytest.mark.parametrize("grid_points, capped", [
        (MAX_DOMAIN_POINTS, False),
        (MAX_DOMAIN_POINTS + 1, True),
    ])
    def test_property_suite_grid_is_capped(self, grid_points, capped):
        """The suite samples no domain, but its profile tables have grid_points rows."""
        errors = validate_config(ScenarioConfig(scenario="properties", grid_points=grid_points))
        assert errors == ([f"grid_points: must be <= {MAX_DOMAIN_POINTS}, got {grid_points}"]
                          if capped else [])

    def test_the_suite_entry_builds_the_ex2_construction(self):
        suite, ex2 = construction("properties"), construction("ex2")
        assert (suite.profile, suite.build, suite.residual_domain) == \
            (ex2.profile, ex2.build, ex2.residual_domain)
        assert suite.values == () and suite.run is not ex2.run
        with pytest.raises(KeyError):
            construction("nope")

    @pytest.mark.parametrize("scenario", SCENARIO_NAMES)
    def test_each_entry_states_what_its_maps_take(self, monkeypatch, scenario):
        """The maps an entry builds take at least its least N targets, the
        residual map's jets have the hessian rows validation counts, and a
        phase table is built exactly where the entry states one."""
        spec = construction(scenario)
        profile = spec.profile()
        M = choose_M(profile, samples=20_000).M
        phases = []

        def phase(*args, **kwargs):
            phases.append(PolarPhase(*args, **kwargs))
            return phases[-1]
        monkeypatch.setattr(scenarios, "PolarPhase", phase)
        for n, N in ((1, 2), (3, 2), (2, 5)):
            phases.clear()
            cfg = ScenarioConfig(scenario=scenario, n=n, N=N, cache_cells=256)
            maps = [m for m in spec.build(profile, M, cfg) if m is not None]
            assert min(m.N for m in maps) >= spec.least_N
            x = np.zeros((1, n))
            x[0, 0] = 0.5 * spec.residual_domain[2]  # inside the slab or annulus
            rows = N if spec.targets is None else spec.targets
            assert maps[0].map_jet(x).hessian.shape[1:] == (rows, n, n)
            assert (spec.phase is not None) == (len(phases) == 1)


def _scaled_polar(m):
    """polar_decompose with |D rho| 0.1% too large: the energy split fails."""
    pd = polar_decompose(m)
    return PolarDecomposition(pd.rho, 1.001 * pd.grad_rho, pd.direction, pd.grad_direction)


def _tilted_polar(m):
    """polar_decompose with each column of the direction's gradient turned
    1e-6 towards the direction: its norm, and so the energy split, is kept,
    but the direction is no longer orthogonal to its gradient."""
    pd = polar_decompose(m)
    g = pd.grad_direction
    turned = math.cos(1e-6) * g + math.sin(1e-6) * np.linalg.norm(
        g, axis=-2, keepdims=True) * pd.direction[..., :, None]
    return PolarDecomposition(pd.rho, pd.grad_rho, pd.direction, turned)


class TestPropertyVerdicts:
    """A statistic past its tolerance fails its own property, and only that
    one, and the run exits 1."""

    @staticmethod
    def _failing(monkeypatch, tmp_path, operator, patched):
        monkeypatch.setattr(scenarios, operator, patched)
        out = tmp_path / "report.json"
        assert main(["properties", "--no-timings", "--out", str(out)]) == 1
        doc = json.loads(out.read_text())["reports"][0]
        assert doc["overall_pass"] is False
        props = doc["properties"]
        return props, [name for name, section in props.items() if not section["pass"]]

    @pytest.mark.parametrize("name, statistic, tol, operator, patched", [
        ("projection", "max_idempotency_defect", "tol", "orthogonal_projection",
         lambda jacobian: 1.01 * orthogonal_projection(jacobian)),
        ("perpendicularity", "max_relative_dot", "tol", "normal",
         lambda m: normal(m) + (m.N > 1) * 1e-3 * tangential(m)),
        ("scalar_normal_zero", "max_abs", None, "normal",
         lambda m: normal(m) + (m.N == 1) * 1e-300),
        ("tangential_gradient_identity", "max_relative_error", "tol", "tangential",
         lambda m: 1.001 * tangential(m)),
        ("polar_identity", "max_relative_error", "tol", "polar_decompose", _scaled_polar),
        ("polar_identity", "max_direction_dot", "dot_tol", "polar_decompose", _tilted_polar),
    ], ids=["projection", "perpendicularity", "scalar_normal_zero",
            "tangential_gradient_identity", "polar_identity", "polar_direction_dot"])
    def test_statistic_past_its_tolerance(self, monkeypatch, tmp_path, name, statistic, tol,
                                          operator, patched):
        props, failed = self._failing(monkeypatch, tmp_path, operator, patched)
        assert failed == [name]
        section = props[name]
        assert section[statistic] > (0.0 if tol is None else section[tol])
        # the other statistics of the property stay within its tolerances
        for key, value in section.items():
            if key.startswith("max_") and key != statistic:
                assert value <= section["dot_tol" if key == "max_direction_dot" else "tol"]

    @pytest.mark.xfail(strict=True, reason=(
        "the gradient identity's central difference of half |Du|² at h = fd_step has an "
        "O(h²) truncation error, above the 1e-5 tolerance where |T| is small: "
        "1.0049e-5 at seed 87, 5.45e-4 at seed 178, 1.21e-3 at seed 4243 (ROADMAP item 1)"))
    @pytest.mark.parametrize("seed", [87, 178, 4243])
    def test_suite_passes_at_seed(self, seed):
        assert run_scenario(ScenarioConfig(scenario="properties", seed=seed)).overall_pass

    def test_perpendicularity_without_a_kept_sample(self, monkeypatch, tmp_path):
        props, failed = self._failing(monkeypatch, tmp_path, "normal", lambda m: 0.0 * normal(m))
        assert failed == ["perpendicularity"]
        assert props["perpendicularity"]["nonzero_normal_samples"] == 0
        assert props["perpendicularity"]["max_relative_dot"] == 0.0


class TestCli:
    def test_all_green_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["ex2", "--grid", "201", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == 1
        assert doc["reports"][0]["overall_pass"] is True

    def test_multiple_scenarios_single_document(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["ex3", "ex2", "--grid", "201", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert [r["scenario"] for r in doc["reports"]] == ["ex3", "ex2"]

    def test_failed_check_exit_one(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["ex2", "--grid", "201", "--tol-scale", "1e-20", "--out", str(out)])
        assert code == 1
        doc = json.loads(out.read_text())
        assert doc["reports"][0]["overall_pass"] is False

    def test_degenerate_grid_without_witnesses_exit_one(self, tmp_path):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("inject_witnesses=false\ngrid_points=2\n")
        code = main(["ex2", "--config", str(cfgfile), "--out", str(tmp_path / "r.json")])
        assert code == 1

    def test_degenerate_domains_report_empty_extrema(self, tmp_path):
        # grid 2 without witnesses leaves every principle and hull interior empty
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("inject_witnesses=false\n")
        out = tmp_path / "r.json"
        assert main(["ex1a", "ex1b", "--grid", "2", "--config", str(cfgfile), "--out", str(out)]) == 1
        for rep in json.loads(out.read_text())["reports"]:
            for v in rep["principle"].values():
                assert (v["sup_interior"], v["inf_interior"]) == ("-inf", "inf")
                assert v["witness_sup"] is None and v["witness_inf"] is None
            assert rep["hull"]["contained"] is True
            assert rep["hull"]["max_outside_distance"] == 0
            assert rep["hull"]["witness_point"] is None

    def test_unknown_scenario_exit_two(self, capsys):
        assert main(["nonsense"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["all", "bogus"], ["bogus", "all"], ["ex1a", "all", "bogus"]])
    def test_unknown_scenario_next_to_all_exit_two(self, monkeypatch, capsys, argv):
        # "all" replaces the names, so an unknown one was dropped and the run exited 0
        def never(cfg):
            pytest.fail(f"ran {cfg.scenario}")

        monkeypatch.setattr(cli, "run_scenario", never)
        assert main(argv) == 2
        assert "unknown scenario name(s): bogus" in capsys.readouterr().err

    def test_bad_config_key_exit_two(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("gridpoints=7\n")
        assert main(["ex2", "--config", str(cfgfile)]) == 2
        assert "gridpoints" in capsys.readouterr().err

    def test_config_scenario_key_exit_two(self, tmp_path, capsys):
        # the scenarios come from the command line; a config key must not replace them
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("scenario=ex3\n")
        assert main(["ex1a", "ex1b", "--grid", "51", "--config", str(cfgfile),
                     "--out", str(tmp_path / "r.json")]) == 2
        assert "'scenario'" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_invalid_field_value_exit_two(self, capsys):
        assert main(["ex2", "--grid", "1"]) == 2
        assert "grid_points" in capsys.readouterr().err

    def test_every_config_is_validated_before_any_run(self, tmp_path, monkeypatch, capsys):
        runs = []

        def counted(cfg):
            runs.append(cfg.scenario)
            return run_scenario(cfg)

        monkeypatch.setattr(cli, "run_scenario", counted)
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("t_max=1.0\n")  # too short for ex2 only
        assert main(["ex1a", "ex1b", "ex2", "--grid", "51", "--config", str(cfgfile),
                     "--out", str(tmp_path / "r.json")]) == 2
        assert runs == []
        assert "t_max" in capsys.readouterr().err

    def test_oversized_domain_exit_two_without_running(self, monkeypatch, capsys):
        def never(cfg):
            pytest.fail(f"ran {cfg.scenario} with n = {cfg.n}")

        monkeypatch.setattr(cli, "run_scenario", never)
        assert main(["all", "--n", "20"]) == 2
        assert "grid_points, n:" in capsys.readouterr().err

    def test_oversized_profile_tables_exit_two_without_running(self, tmp_path, monkeypatch,
                                                               capsys):
        def never(cfg):
            pytest.fail(f"ran {cfg.scenario} with grid_points = {cfg.grid_points}")

        monkeypatch.setattr(cli, "run_scenario", never)
        assert main(["properties", "--grid", str(MAX_DOMAIN_POINTS + 1),
                     "--emit-profiles", str(tmp_path / "profiles")]) == 2
        assert capsys.readouterr().err == (
            f"error: grid_points: must be <= {MAX_DOMAIN_POINTS}, got {MAX_DOMAIN_POINTS + 1}\n")
        assert not (tmp_path / "profiles").exists()

    @pytest.mark.parametrize("argv, message", [
        (["ex3", "--N", "0"], "N: must be >= 1"),
        (["ex3", "--N", "-3"], "N: must be >= 1"),
        (["properties", "--N", "-1"], "N: must be >= 1"),
        (["ex1a", "--N", "1"], "N: must be >= 2 for the vector-valued scenarios"),
    ])
    def test_target_dimension_below_one_exit_two_without_running(self, monkeypatch, capsys,
                                                                 argv, message):
        def never(cfg):
            pytest.fail(f"ran {cfg.scenario} with N = {cfg.N}")

        monkeypatch.setattr(cli, "run_scenario", never)
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("flags", [["--N", "1000000000"], ["--n", "8", "--grid", "900"]])
    def test_oversized_jets_exit_two_without_running(self, monkeypatch, capsys, flags):
        # both pass the point cap: 2,001 and 1,968,300 points on ex1a's slab
        def never(cfg):
            pytest.fail(f"ran {cfg.scenario} with n = {cfg.n}, N = {cfg.N}")

        monkeypatch.setattr(cli, "run_scenario", never)
        assert main(["all", *flags]) == 2
        err = capsys.readouterr().err
        assert "grid_points, n, N:" in err and "grid_points, n:" not in err

    @pytest.mark.parametrize("cells", [10**9, 10**12, MAX_CACHE_CELLS + 1])
    def test_oversized_tables_exit_two_without_running(self, tmp_path, monkeypatch, capsys, cells):
        # a table build evaluates 15 Kronrod nodes of every cell at once
        def never(cfg):
            pytest.fail(f"ran {cfg.scenario} with cache_cells = {cfg.cache_cells}")

        monkeypatch.setattr(cli, "run_scenario", never)
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text(f"cache_cells={cells}\n")
        assert main(["all", "--config", str(cfgfile)]) == 2
        assert "cache_cells:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, config, name", [
        (["ex1a", "--safety", "1", "--tol-scale", "1.7e308"], "", "residual_tol_scale"),
        (["ex1b", "--safety", "1"], "fd_tol_scale=1e308\n", "fd_tol_scale"),
    ])
    def test_tolerance_scale_overflow_exit_two_without_running(self, tmp_path, monkeypatch,
                                                               capsys, argv, config, name):
        # scale * M³ rounded to inf, and a residual check against an inf tolerance passed
        def never(cfg):
            pytest.fail(f"ran {cfg.scenario} with {name} = {getattr(cfg, name)}")

        monkeypatch.setattr(cli, "run_scenario", never)
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text(config)
        assert main([*argv, "--config", str(cfgfile)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name}: must keep the tolerance") and err.count("\n") == 1

    def test_largest_tolerance_scale_is_accepted(self):
        largest = sys.float_info.max / 8.0
        for name in SCENARIO_NAMES:
            cfg = ScenarioConfig(scenario=name, safety=1.0, residual_tol_scale=largest,
                                 fd_tol_scale=largest)
            assert validate_config(cfg) == []

    def test_out_of_range_fd_step_alone_is_reported(self, tmp_path, monkeypatch, capsys):
        # the t_max range of ex2 was derived from the bad step and failed as well
        def never(cfg):
            pytest.fail(f"ran {cfg.scenario} with fd_step = {cfg.fd_step}")

        monkeypatch.setattr(cli, "run_scenario", never)
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("fd_step=10\n")
        assert main(["ex2", "--config", str(cfgfile)]) == 2
        assert capsys.readouterr().err == (
            "error: fd_step: must satisfy 1.5 + fd_step > 1.5 and fd_step <= 0.01, got 10.0\n"
        )

    @pytest.mark.parametrize("config, message", [
        ("n=abc\n", "n: cannot parse int from 'abc'"),
        ("safety=x\n", "safety: cannot parse float from 'x'"),
    ], ids=["int", "float"])
    def test_unparsable_value_names_its_key(self, tmp_path, monkeypatch, capsys, config,
                                            message):
        def never(cfg):
            pytest.fail(f"ran {cfg.scenario} with an unparsable {config!r}")

        monkeypatch.setattr(cli, "run_scenario", never)
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text(config)
        assert main(["ex1a", "--config", str(cfgfile)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_cross_extent_setting_the_reach_is_named(self, tmp_path, monkeypatch, capsys):
        # half the cross_extent is the reach, and no fd_step up to 0.01 moves 5e19
        def never(cfg):
            pytest.fail(f"ran {cfg.scenario} with cross_extent = {cfg.cross_extent}")

        monkeypatch.setattr(cli, "run_scenario", never)
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("cross_extent=1e20\n")
        assert main(["ex1a", "--n", "2", "--config", str(cfgfile)]) == 2
        assert capsys.readouterr().err == (
            "error: fd_step, cross_extent: must satisfy 5e+19 + fd_step > 5e+19 and "
            "fd_step <= 0.01, got 0.0001 and cross_extent 1e+20, whose half is the reach\n"
        )

    def test_largest_table_is_accepted(self):
        for name in SCENARIO_NAMES:
            cfg = ScenarioConfig(scenario=name, cache_cells=MAX_CACHE_CELLS)
            assert validate_config(cfg) == []

    def test_numpy_ma_is_never_imported(self, tmp_path):
        # np.unique tests np.ma.is_masked, and its first call imports numpy.ma;
        # the run builds domains with witnesses, hulls and profile tables
        code = (
            "import contextlib, io, sys\n"
            "from inflap.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(['all', '--grid', '51', '--n', '2', '--no-timings',\n"
            f"                 '--emit-profiles', {str(tmp_path)!r}])\n"
            "assert code == 0, code\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": SRC},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_evaluation_error_exit_three(self, monkeypatch, capsys):
        def undefined(self, t):
            raise EvaluationError("profile undefined here")

        # choose_M reads only d1, so the failure surfaces in the residual check
        monkeypatch.setattr(BumpW1, "value", undefined)
        assert main(["ex3", "--grid", "51"]) == 3
        assert "aborted" in capsys.readouterr().err

    def test_non_finite_property_statistic_exit_three(self, monkeypatch, capsys):
        # a NaN |Du|² leaves perpendicularity without a kept sample, a finite
        # 0.0, and makes every gradient-identity error NaN
        monkeypatch.setattr(scenarios, "grad_norm_sq", lambda m: math.nan)
        assert main(["properties", "--grid", "51"]) == 3
        assert capsys.readouterr().err == (
            "error: scenario properties aborted: property tangential_gradient_identity: "
            "max_relative_error is nan, not finite\n")

    def test_unexpected_exception_exit_four(self, monkeypatch, capsys):
        def broken(cfg):
            raise RuntimeError("injected")

        monkeypatch.setattr(cli, "run_scenario", broken)
        assert main(["ex2", "--grid", "51"]) == 4
        err = capsys.readouterr().err
        assert "error: internal error: RuntimeError: injected" in err
        assert "Traceback" not in err

    def test_flags_override_config_file(self, tmp_path):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("grid_points=51\n# comment line\nseed=3\n")
        out = tmp_path / "report.json"
        assert main(["ex2", "--config", str(cfgfile), "--grid", "201", "--out", str(out)]) == 0
        cfg = json.loads(out.read_text())["reports"][0]["config"]
        assert cfg["grid_points"] == 201
        assert cfg["seed"] == 3

    def test_no_timings_is_byte_stable(self, tmp_path):
        outs = [tmp_path / "a.json", tmp_path / "b.json"]
        for out in outs:
            assert main(["ex2", "--grid", "201", "--no-timings", "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("argv, config, field", [
        (["ex3", "--safety", "nan"], None, "safety"),
        (["ex3", "--safety", "inf"], None, "safety"),
        (["ex3", "--tol-scale", "nan"], None, "residual_tol_scale"),
        (["properties", "--seed", "-1"], None, "seed"),
        (["ex1b"], "hull_tol=nan\n", "hull_tol"),
        (["ex3", "--safety", "1e-17"], None, "safety"),
        (["ex3", "--safety", "1e200"], None, "safety"),
        (["ex2"], "t_max=0.5\n", "t_max"),
        (["ex2"], "t_max=1.5\n", "t_max"),
        (["properties"], "t_max=0.5\n", "t_max"),
        (["ex2"], "t_max=30\n", "t_max"),
        (["properties"], "t_max=1000\n", "t_max"),
        (["ex2"], "t_max=26.6\ncache_cells=17\n", "t_max"),
        (["ex2"], "t_max=26.7\n", "t_max"),
        (["ex1a"], "fd_step=1e308\n", "fd_step"),
        (["ex3"], "fd_step=1e-300\n", "fd_step"),
    ], ids=["safety_nan", "safety_inf", "tol_scale_nan", "seed_negative", "config_hull_tol_nan",
            "safety_below_eps", "safety_overflow", "ex2_t_max_short", "ex2_t_max_no_fd_room",
            "properties_t_max_short", "ex2_t_max_underflow", "properties_t_max_underflow",
            "ex2_t_max_odd_cells", "ex2_t_max_inf_in_table", "ex1a_fd_step_huge",
            "ex3_fd_step_below_ulp"])
    def test_non_finite_or_out_of_range_value_exit_two(self, tmp_path, argv, config, field):
        if config is not None:
            cfgfile = tmp_path / "cfg"
            cfgfile.write_text(config)
            argv = [*argv, "--config", str(cfgfile)]
        proc = subprocess.run(
            [sys.executable, "-m", "inflap.cli", *argv, "--out", str(tmp_path / "r.json")],
            env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2
        assert field in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_csv_format(self, tmp_path):
        out = tmp_path / "report.csv"
        assert main(["ex2", "--grid", "201", "--format", "csv", "--out", str(out)]) == 0
        rows = list(csv.reader(io.StringIO(out.read_text())))
        assert tuple(rows[0]) == CSV_HEADER
        assert len(rows) > 1

    def test_stdout_emission(self, capsys):
        assert main(["ex2", "--grid", "201", "--no-timings"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["reports"][0]["scenario"] == "ex2"


_FUZZ_FLOATS = (math.nan, math.inf, -math.inf, -1.0, 0.0, 1e-300, 1e-17, 1e-4, 0.05, 1.0, 2.0,
                27.0, 1e3, 1e200, 1e308)
_FLOAT_FIELDS = ("safety", "residual_tol_scale", "fd_tol_scale", "hull_tol", "t_max", "fd_step",
                 "cross_extent")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow at the extreme draws
@settings(max_examples=60, deadline=None, derandomize=True)
@example(scenario="ex2", floats={"t_max": 1e3, "safety": 0.05}, grid_points=11, n=1,
         cache_cells=16, inject_witnesses=True)
@given(
    scenario=st.sampled_from(SCENARIO_NAMES),
    floats=st.dictionaries(st.sampled_from(_FLOAT_FIELDS), st.sampled_from(_FUZZ_FLOATS),
                           min_size=2, max_size=2),
    grid_points=st.sampled_from((2, 3, 11, 51)),
    n=st.sampled_from((1, 2)),
    cache_cells=st.sampled_from((16, 17, 64)),
    inject_witnesses=st.booleans(),
)
def test_cli_fuzz_has_a_defined_exit_code(scenario, floats, grid_points, n, cache_cells,
                                          inject_witnesses):
    """Any config: a pass, a failed check, a config error or an evaluation
    error (0-3); never an internal error (4) or an escaping exception."""
    config = {**floats, "grid_points": grid_points, "n": n, "cache_cells": cache_cells,
              "inject_witnesses": inject_witnesses}
    with tempfile.TemporaryDirectory() as tmp:
        cfgfile = os.path.join(tmp, "cfg")
        with open(cfgfile, "w") as fh:
            fh.writelines(f"{key}={value!r}\n" for key, value in config.items())
        with contextlib.redirect_stderr(io.StringIO()):
            code = main([scenario, "--config", cfgfile, "--out", os.path.join(tmp, "r.json")])
    assert code in (0, 1, 2, 3)


class TestProfileTables:
    def test_tabulated_extrema_match_figures(self, tmp_path):
        paths = emit_profile_tables(tmp_path, ["ex1a", "ex1b", "ex2"], grid_points=801)
        tables = {}
        for path in paths:
            with open(path) as fh:
                rows = list(csv.DictReader(fh))
            name = path.rsplit("/", 1)[-1].removesuffix(".csv")
            tables[name] = [(float(r["t"]), float(r["value"])) for r in rows]
        w1_vals = [v for _, v in tables["w1"]]
        assert min(w1_vals) == -INV_E
        assert max(w1_vals) == INV_E
        z1_vals = [v for _, v in tables["z1"]]
        assert max(z1_vals) == INV_E
        assert min(z1_vals) == 0.0
        rho_vals = [v for _, v in tables["rho_star"]]
        assert max(rho_vals) == 1.0

    def test_cli_emits_profiles(self, tmp_path):
        out_dir = tmp_path / "profiles"
        code = main([
            "ex2", "--grid", "201", "--emit-profiles", str(out_dir),
            "--out", str(tmp_path / "r.json"),
        ])
        assert code == 0
        assert (out_dir / "rho_star.csv").exists()

    @pytest.mark.parametrize("grid_points", [2, 800, 801])
    def test_abscissas_equal_the_reference_merge(self, tmp_path, grid_points):
        # 801 nodes hold the five witnesses, 800 do not, 2 are the ends alone
        ts = merged_reference(np.linspace(-4.0, 4.0, grid_points), [-2.0, -1.0, 0.0, 1.0, 2.0])
        for path in emit_profile_tables(tmp_path, ["ex1a", "ex1b", "ex2"], grid_points):
            with open(path) as fh:
                rows = list(csv.DictReader(fh))
            profile = {"w1": BumpW1, "z1": BumpZ1, "rho_star": GaussianRho}[
                os.path.basename(path).removesuffix(".csv")]()
            t, value = (np.array([float(r[k]) for r in rows]) for k in ("t", "value"))
            assert t.tobytes() == ts.tobytes()
            assert value.tobytes() == profile.value(ts).tobytes()

    def test_tables_follow_the_construction_registry(self, tmp_path):
        def written(scenarios, out_dir):
            paths = emit_profile_tables(out_dir, scenarios, grid_points=11)
            assert sorted(os.listdir(out_dir)) == sorted(os.path.basename(p) for p in paths)
            return [os.path.basename(p) for p in paths]

        assert written(["properties"], tmp_path / "a") == ["rho_star.csv"]
        assert written(SCENARIO_NAMES, tmp_path / "b") == ["w1.csv", "z1.csv", "rho_star.csv"]
        with pytest.raises(KeyError):
            emit_profile_tables(tmp_path / "c", ["nope"], grid_points=11)
