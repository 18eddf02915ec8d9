"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them on
success).  Scenario runs use the default desk-scale configuration: 2001
grid points per axis, safety 0.05, seed 0.
"""

import contextlib
import json
import math

import numpy as np
import pytest

from inflap.checkers import max_principle_check, residual_certify, slab_domain
from inflap.maps import CurveMap, PolarSpiralMap
from inflap.profiles import ArcComplement, BumpW1, GaussianRho, PolarPhase, choose_M
from inflap.reports import emit_report
from inflap.scenarios import ScenarioConfig, _tangential_residual, run_scenario

from helpers import refine_abscissas, sampled_principle, sampled_residuals

INV_E = 0.36787944117144233          # exp(-1)
ONE_MINUS_INV_E = 0.6321205588285577  # 1 - exp(-1)


@contextlib.contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE CRITERION {num} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE CRITERION {num} ({label}): PASS")


@pytest.fixture(scope="module")
def reports():
    return {
        name: run_scenario(ScenarioConfig(scenario=name))
        for name in ("ex1a", "ex1b", "ex2", "ex3", "properties")
    }


@pytest.fixture(scope="module")
def docs(reports):
    """Each scenario's report as the JSON object the CLI emits."""
    return {name: json.loads(emit_report([rep]))["reports"][0] for name, rep in reports.items()}


def test_criterion_1_residual_certification(docs):
    with criterion(1, "residual certification, analytic and fd paths"):
        for name in ("ex1a", "ex1b", "ex2", "ex3"):
            rep = docs[name]
            m = rep["speed_bound"]["M"]
            analytic = rep["residual"]["analytic"]
            fd = rep["residual"]["fd"]
            assert analytic["points"] >= 2001
            assert analytic["tol"] == 1e-8 * m**3
            assert analytic["sup_residual"] <= analytic["tol"]
            assert analytic["pass"]
            assert fd["tol"] == 1e-3 * m**3
            assert fd["sup_residual"] <= fd["tol"]
            assert fd["pass"]
            assert rep["timings"]["total_s"] < 2.0


def test_criterion_2_modulus_margin(docs):
    with criterion(2, "sup 1 vs boundary 1/e for the polar construction"):
        v = docs["ex2"]["principle"]["modulus"]
        assert abs(v["sup_interior"] - 1.0) <= 1e-9
        assert abs(v["max_boundary"] - INV_E) <= 1e-9
        assert abs(v["margin"] - ONE_MINUS_INV_E) <= 1e-9


def test_criterion_3_hull_failure(docs):
    with criterion(3, "convex hull failure with 1/e escape distance"):
        rep = docs["ex1b"]
        hull = rep["hull"]
        assert hull["contained"] is False
        assert abs(hull["max_outside_distance"] - INV_E) <= 1e-6
        assert rep["principle"]["xi_e1"]["max_boundary"] == 0.0


def test_criterion_4_two_sided_principle_failure(docs):
    with criterion(4, "one slab breaks the maximum, the other the minimum principle"):
        for name, keys in (("ex1a", ("xi_e1_minus", "xi_e1_plus")),
                           ("ex3", ("v_minus", "v_plus"))):
            verdicts = [docs[name]["principle"][k] for k in keys]
            max_flags = [v["max_violation"] for v in verdicts]
            min_flags = [v["min_violation"] for v in verdicts]
            assert sum(max_flags) == 1
            assert sum(min_flags) == 1
            assert max_flags.index(True) != min_flags.index(True)
            max_side = verdicts[max_flags.index(True)]
            min_side = verdicts[min_flags.index(True)]
            assert abs(max_side["margin"] - INV_E) <= 1e-9
            assert abs(min_side["min_margin"] - INV_E) <= 1e-9
            for v in verdicts:
                assert v["max_boundary"] == 0.0
                assert v["min_boundary"] == 0.0


def test_criterion_5_eikonal_conservation(docs):
    with criterion(5, "constant squared gradient norm on all scenario grids"):
        for name in ("ex1a", "ex1b", "ex2"):
            c = docs[name]["conservation"]
            assert c["max_dev"] <= 1e-9 * c["target_sq"]


def test_criterion_6_operator_property_suite(docs):
    with criterion(6, "projection, perpendicularity, gradient identity, scalar normal"):
        p = docs["properties"]["properties"]
        proj = p["projection"]
        assert proj["samples"] >= 500
        assert proj["max_asymmetry"] <= 1e-12
        assert proj["max_idempotency_defect"] <= 1e-12
        assert proj["max_annihilation_rel"] <= 1e-12
        perp = p["perpendicularity"]
        assert perp["nonzero_normal_samples"] > 0
        assert perp["max_relative_dot"] <= 1e-9
        assert p["tangential_gradient_identity"]["max_relative_error"] <= 1e-5
        assert p["scalar_normal_zero"]["max_abs"] == 0.0


def test_criterion_7_polar_identity(docs):
    with criterion(7, "energy split of the polar decomposition"):
        polar = docs["properties"]["properties"]["polar_identity"]
        assert polar["samples"] >= 100
        assert polar["max_relative_error"] <= 1e-9
        assert polar["max_direction_dot"] <= 1e-12


def test_criterion_8_determinism_and_monotonicity(reports):
    with criterion(8, "byte-identical reruns and nested-grid monotone sups"):
        cfg = ScenarioConfig(scenario="ex2")
        again = run_scenario(cfg)
        assert emit_report([reports["ex2"]], with_timings=False) == emit_report(
            [again], with_timings=False
        )

        w1 = BumpW1()
        sb = choose_M(w1)
        u1 = CurveMap(w1, ArcComplement(w1, sb.M), n=1, N=2)
        rho = GaussianRho()
        sb_rho = choose_M(rho)
        u3 = PolarSpiralMap(rho, PolarPhase(sb_rho.M, rho=rho), n=1, N=2)
        ts = np.linspace(-1.0, 1.0, 251)
        sup_residuals, sup_moduli = [], []
        for _ in range(3):
            d = slab_domain(-1.0, 1.0, grid_points=2, witnesses=ts)
            sup_residuals.append(
                residual_certify(
                    sampled_residuals(_tangential_residual, u1, d), d, 1e-8 * sb.M**3
                ).sup_residual
            )
            sup_moduli.append(
                max_principle_check(
                    sampled_principle(lambda x: np.linalg.norm(u3.value(x), axis=-1), d), d
                ).sup_interior
            )
            ts = refine_abscissas(ts)
        assert sup_residuals[0] <= sup_residuals[1] <= sup_residuals[2]
        assert sup_moduli[0] <= sup_moduli[1] <= sup_moduli[2]
