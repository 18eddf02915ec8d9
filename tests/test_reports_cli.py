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
from inflap.jets import JetDomainError
from inflap.profiles import BumpW1
from inflap.reports import (
    CSV_HEADER,
    dumps_canonical,
    emit_profile_tables,
    emit_report,
    parse_report,
    report_dict,
    report_rows,
)
from inflap.scenarios import SCENARIO_NAMES, ScenarioConfig, run_scenario, validate_config

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
        doc = parse_report(emit_report(ex2_report))
        scenario = doc["reports"][0]
        assert scenario["scenario"] == "ex2"
        margin = scenario["principle"]["modulus"]["margin"]
        assert margin == pytest.approx(1.0 - INV_E, abs=1e-9)

    def test_roundtrip_is_bit_exact(self, ex2_report):
        original = report_dict(ex2_report, with_timings=False)
        parsed = parse_report(emit_report(ex2_report, with_timings=False))["reports"][0]

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
        with_t = parse_report(emit_report(ex2_report, with_timings=True))["reports"][0]
        without = parse_report(emit_report(ex2_report, with_timings=False))["reports"][0]
        assert "timings" in with_t
        assert "timings" not in without
        del with_t["timings"]
        assert dumps_canonical(with_t) == dumps_canonical(without)

    def test_csv_row_count_matches_executed_checks(self, fast_reports):
        for name, report in fast_reports.items():
            payload = emit_report(report, fmt="csv").decode()
            rows = list(csv.reader(io.StringIO(payload)))
            assert tuple(rows[0]) == CSV_HEADER
            assert [(r[1], r[3], r[6]) for r in rows[1:]] == EXPECTED_ROWS[name]
            assert all(r[0] == name for r in rows[1:])
            assert len(report_rows(report)) == len(rows) - 1

    def test_unknown_format_rejected(self, ex2_report):
        with pytest.raises(ValueError):
            emit_report(ex2_report, fmt="xml")


class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self):
        cfg = ScenarioConfig(scenario="ex2", **FAST)
        first = emit_report(run_scenario(cfg), with_timings=False)
        second = emit_report(run_scenario(cfg), with_timings=False)
        assert first == second

    def test_properties_runs_respect_seed(self):
        a = run_scenario(ScenarioConfig(scenario="properties", seed=5, **FAST))
        b = run_scenario(ScenarioConfig(scenario="properties", seed=5, **FAST))
        c = run_scenario(ScenarioConfig(scenario="properties", seed=6, **FAST))
        assert emit_report(a, with_timings=False) == emit_report(b, with_timings=False)
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

    def test_bad_config_key_exit_two(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("gridpoints=7\n")
        assert main(["ex2", "--config", str(cfgfile)]) == 2
        assert "gridpoints" in capsys.readouterr().err

    def test_invalid_field_value_exit_two(self, capsys):
        assert main(["ex2", "--grid", "1"]) == 2
        assert "grid_points" in capsys.readouterr().err

    def test_evaluation_error_exit_three(self, monkeypatch, capsys):
        def undefined(self, t):
            raise JetDomainError("profile undefined here")

        # choose_M reads only d1, so the failure surfaces in the residual check
        monkeypatch.setattr(BumpW1, "value", undefined)
        assert main(["ex3", "--grid", "51"]) == 3
        assert "aborted" in capsys.readouterr().err

    def test_non_finite_property_statistic_exit_three(self, monkeypatch, capsys):
        monkeypatch.setattr(scenarios, "grad_norm_sq", lambda m: math.nan)
        assert main(["properties", "--grid", "51"]) == 3
        err = capsys.readouterr().err
        assert "not finite" in err
        assert "Traceback" not in err

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
