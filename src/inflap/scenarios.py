"""Scenario registry and runners.

Each counterexample scenario is a small data entry: the profile its speed
bound is chosen for, the map it builds, the residual it certifies, its
domains, its principle and hull checks and the margin it must detect.  One
runner builds the construction from scratch, certifies that the residual
vanishes over a dense grid with both the analytic jets and the
finite-difference oracle, measures the principle/hull margins on the
scenario domains and applies the pass rule.  The randomized property suite
has its own runner.  Results are the typed records of ``checkers``;
``reports`` renders them.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, get_type_hints

import numpy as np

from .checkers import (
    ConservationReport,
    HullVerdict,
    PrincipleVerdict,
    ResidualReport,
    annulus_domain,
    conservation_check,
    directional_check,
    hull_check,
    max_principle_check,
    residual_certify,
    slab_domain,
)
from .maps import (
    CurveMap,
    MapJet,
    PerturbationPotentialMap,
    PolarSpiralMap,
    RadialCurveMap,
    ScalarProfileMap,
    TrigQuadMap,
    polar_decompose,
)
from .operators import grad_norm_sq, normal, orthogonal_projection, tangential
from .profiles import (
    ArcComplement,
    BumpW1,
    BumpZ1,
    GaussianRho,
    PolarPhase,
    SpeedBound,
    choose_M,
)

__all__ = [
    "ScenarioConfig",
    "CheckReport",
    "PropertyCheck",
    "SCENARIO_NAMES",
    "validate_config",
    "run_scenario",
    "INV_E",
    "WITNESS_ABSCISSAS",
]

INV_E = math.exp(-1.0)

# Abscissas where the analytic extrema are attained; injecting them into
# interior grids turns the margin checks into near-exact comparisons.
WITNESS_ABSCISSAS = (0.0, 1.0, -1.0, 2.0)

_VECTOR_SCENARIOS = ("ex1a", "ex1b", "ex2")
SCENARIO_NAMES = ("ex1a", "ex1b", "ex2", "ex3", "properties")


@dataclass
class ScenarioConfig:
    scenario: str
    n: int = 1
    N: int = 2
    grid_points: int = 2001
    safety: float = 0.05
    residual_tol_scale: float = 1e-8
    fd_tol_scale: float = 1e-3
    hull_tol: float = 1e-9
    seed: int = 0
    t_max: float = 2.0
    cache_cells: int = 4096
    fd_step: float = 1e-4
    cross_extent: float = 1.0
    inject_witnesses: bool = True
    format: str = "json"

    def witnesses(self):
        return WITNESS_ABSCISSAS if self.inject_witnesses else ()


_POSITIVE_FIELDS = (
    "safety", "residual_tol_scale", "fd_tol_scale", "hull_tol", "t_max", "fd_step", "cross_extent",
)


def validate_config(cfg: ScenarioConfig) -> list[str]:
    """Field-by-field validation; returns a list of error strings."""
    errors = []
    if cfg.scenario not in SCENARIO_NAMES:
        errors.append(f"scenario: unknown name {cfg.scenario!r}; expected one of {SCENARIO_NAMES}")
    if cfg.n < 1:
        errors.append("n: must be >= 1")
    if cfg.scenario in _VECTOR_SCENARIOS and cfg.N < 2:
        errors.append("N: must be >= 2 for the vector-valued scenarios")
    if cfg.grid_points < 2:
        errors.append("grid_points: must be >= 2")
    invalid = set()
    for name in _POSITIVE_FIELDS:
        value = getattr(cfg, name)
        # NaN fails every comparison, so test for the valid range
        if not (math.isfinite(value) and value > 0.0):
            invalid.add(name)
            errors.append(f"{name}: must be positive and finite, got {value!r}")
    # M = (1 + safety) * sup must exceed the sup, and M³ must stay finite
    if "safety" not in invalid and not (1.0 + cfg.safety > 1.0 and cfg.safety <= 1.0):
        errors.append(f"safety: must satisfy 1 + safety > 1 and safety <= 1, got {cfg.safety!r}")
    if cfg.cache_cells < 16:
        invalid.add("cache_cells")
        errors.append("cache_cells: must be >= 16")
    if cfg.scenario in ("ex2", "properties") and not invalid & {"t_max", "fd_step", "cache_cells"}:
        # the phase is tabulated on |t| <= t_max; both scenarios sample ex2's
        # residual slab, and ex2's fd stencil reaches one step past it.  An
        # odd cell count makes the table reach t_max (1 + 1/cells); out to
        # there rho = exp(-t²) must stay a normal float.
        _, lo, hi = _CONSTRUCTIONS["ex2"].residual_domain
        reach = max(-lo, hi) + (cfg.fd_step if cfg.scenario == "ex2" else 0.0)
        top = math.sqrt(-math.log(sys.float_info.min)) / (1.0 + 1.0 / cfg.cache_cells)
        if not reach <= cfg.t_max <= top:
            errors.append(
                f"t_max: must lie in [{reach!r}, {top!r}] for {cfg.scenario}, got {cfg.t_max!r}"
            )
    if cfg.seed < 0:
        errors.append("seed: must be >= 0")
    if cfg.format not in ("json", "csv"):
        errors.append(f"format: must be 'json' or 'csv', got {cfg.format!r}")
    return errors


@dataclass
class PropertyCheck:
    """One randomized property: its statistics and the one CSV reports."""

    metric: str
    stats: dict


@dataclass
class CheckReport:
    """One scenario's typed check results; ``reports`` renders them."""

    config: ScenarioConfig
    speed_bound: SpeedBound
    overall_pass: bool
    residual: tuple[ResidualReport, ...] = ()
    conservation: ConservationReport | None = None
    principle: dict[str, PrincipleVerdict] = field(default_factory=dict)
    hull: HullVerdict | None = None
    assessment: dict | None = None
    properties: dict[str, PropertyCheck] = field(default_factory=dict)
    timings: dict = field(default_factory=dict)


def _unit(k: int, length: int) -> np.ndarray:
    e = np.zeros(length)
    e[k] = 1.0
    return e


def _two_sided_failure(v_neg, v_pos, half_margin: float) -> bool:
    """Exactly one slab violates the maximum principle, the other the
    minimum principle, each by at least half the analytic margin."""
    max_flags = [
        v.max_violation_margin >= half_margin for v in (v_neg, v_pos)
    ]
    min_flags = [
        v.min_violation_margin >= half_margin for v in (v_neg, v_pos)
    ]
    if sum(max_flags) != 1 or sum(min_flags) != 1:
        return False
    return max_flags.index(True) != min_flags.index(True)


# Constructions: (profile, speed bound M, config) -> (map, forcing map).

def _curve(w1, M, cfg):
    return CurveMap(w1, ArcComplement(w1, M, cells=cfg.cache_cells), cfg.n, cfg.N), None


def _radial_curve(z1, M, cfg):
    return RadialCurveMap(z1, ArcComplement(z1, M, cells=cfg.cache_cells), cfg.n, cfg.N), None


def _polar_spiral(rho, M, cfg):
    phase = PolarPhase(M, t_max=cfg.t_max, cells=cfg.cache_cells, rho=rho)
    return PolarSpiralMap(rho, phase, cfg.n, cfg.N), None


def _perturbed_scalar(w1, M, cfg):
    return ScalarProfileMap(w1, cfg.n), PerturbationPotentialMap(w1, M, cfg.n)


# Principle checks: (map, domain, config) -> PrincipleVerdict.  The checkers
# are looked up when a check runs, so a wrapped checker sees every call.

def _along(k: int):
    """Principle check of the projection onto the k-th target axis."""
    return lambda u, domain, cfg: directional_check(u, _unit(k, cfg.N), domain)


def _modulus(u, domain, cfg):
    return max_principle_check(lambda x: float(np.linalg.norm(u.value(x))), domain)


def _scalar_value(u, domain, cfg):
    return max_principle_check(lambda x: float(u.value(x)[0]), domain)


@dataclass(frozen=True)
class _Construction:
    """What one counterexample scenario builds, checks and must detect.

    Domains are ("slab", a, b) or ("annulus", r_in, r_out); a domain named
    by several checks is built once.  ``detect`` names the principle checks
    the pass rule reads: one name needs a maximum-principle violation, two
    names (negative, positive slab) a two-sided failure.
    """

    profile: type
    build: Callable
    op: str
    residual_domain: tuple
    conservation_scale: float | None  # tolerance / M², None: not checked
    principle: tuple  # (name, domain, check)
    hull_domain: tuple | None
    analytic_margin: float
    detect: tuple[str, ...]


_CONSTRUCTIONS = {
    "ex1a": _Construction(
        profile=BumpW1, build=_curve, op="tangential",
        residual_domain=("slab", -3.0, 3.0), conservation_scale=1e-10,
        principle=(("xi_e1_minus", ("slab", -2.0, 0.0), _along(0)),
                   ("xi_e1_plus", ("slab", 0.0, 2.0), _along(0)),
                   ("xi_e2_minus", ("slab", -2.0, 0.0), _along(1)),
                   ("xi_e2_plus", ("slab", 0.0, 2.0), _along(1))),
        hull_domain=("slab", -2.0, 2.0), analytic_margin=INV_E,
        detect=("xi_e1_minus", "xi_e1_plus"),
    ),
    "ex1b": _Construction(
        profile=BumpZ1, build=_radial_curve, op="tangential",
        residual_domain=("annulus", 1.0, 3.0), conservation_scale=1e-10,
        principle=(("xi_e1", ("annulus", 1.0, 3.0), _along(0)),),
        hull_domain=("annulus", 1.0, 3.0), analytic_margin=INV_E,
        detect=("xi_e1",),
    ),
    "ex2": _Construction(
        profile=GaussianRho, build=_polar_spiral, op="tangential",
        residual_domain=("slab", -1.5, 1.5), conservation_scale=1e-9,
        principle=(("modulus", ("slab", -1.0, 1.0), _modulus),),
        hull_domain=None, analytic_margin=1.0 - INV_E,
        detect=("modulus",),
    ),
    "ex3": _Construction(
        profile=BumpW1, build=_perturbed_scalar, op="perturbed_scalar",
        residual_domain=("slab", -3.0, 3.0), conservation_scale=None,
        principle=(("v_minus", ("slab", -2.0, 0.0), _scalar_value),
                   ("v_plus", ("slab", 0.0, 2.0), _scalar_value)),
        hull_domain=None, analytic_margin=INV_E,
        detect=("v_minus", "v_plus"),
    ),
}


def _run_construction(cfg: ScenarioConfig) -> CheckReport:
    spec = _CONSTRUCTIONS[cfg.scenario]
    profile = spec.profile()
    sb = choose_M(profile, cfg.safety)
    u, f_map = spec.build(profile, sb.M, cfg)
    m_cubed = sb.M**3
    domains = {}

    def domain(key):
        if key not in domains:
            kind, lo, hi = key
            if kind == "annulus":
                domains[key] = annulus_domain(lo, hi, cfg.n, cfg.grid_points, cfg.witnesses())
            else:
                domains[key] = slab_domain(
                    lo, hi, cfg.n, cfg.grid_points, cfg.cross_extent, cfg.witnesses()
                )
        return domains[key]

    res_domain = domain(spec.residual_domain)
    residual = (
        residual_certify(u, spec.op, res_domain, cfg.residual_tol_scale * m_cubed, f_map=f_map),
        residual_certify(
            u, spec.op, res_domain, cfg.fd_tol_scale * m_cubed,
            jet_source="fd", fd_step=cfg.fd_step, f_map=f_map,
        ),
    )
    conservation = None
    if spec.conservation_scale is not None:
        conservation = conservation_check(
            u, res_domain, sb.M**2, tol=spec.conservation_scale * sb.M**2
        )
    principle = {name: check(u, domain(key), cfg) for name, key, check in spec.principle}
    hull = None
    if spec.hull_domain is not None:
        hull = hull_check(u, domain(spec.hull_domain), cfg.hull_tol)

    half = 0.5 * spec.analytic_margin
    if len(spec.detect) == 2:
        neg, pos = (principle[name] for name in spec.detect)
        detected = {"two_sided_failure": _two_sided_failure(neg, pos, half)}
    else:
        margin = principle[spec.detect[0]].max_violation_margin
        detected = {"principle_violation_detected": margin >= half}
    if hull is not None:
        escaped = not hull.contained and hull.max_outside_distance >= half
        detected["hull_failure_detected"] = escaped
    overall = (
        all(r.passed for r in residual)
        and (conservation is None or conservation.passed)
        and all(detected.values())
    )
    assessment = {"analytic_margin": spec.analytic_margin, "margin_threshold": half, **detected}
    return CheckReport(
        cfg, sb, overall, residual=residual, conservation=conservation,
        principle=principle, hull=hull, assessment=assessment,
    )


def _random_map_jet(rng: np.random.Generator, N: int, n: int) -> MapJet:
    jac = rng.normal(size=(N, n))
    hess = rng.normal(size=(N, n, n))
    hess = 0.5 * (hess + hess.transpose(0, 2, 1))
    return MapJet(rng.normal(size=N), jac, hess)


def _relative_perpendicularity_defect(m: MapJet, t_vec, n_vec) -> float | None:
    """|T·N| / (|T| |N|), or None when either summand is numerically zero.

    When the jacobian has full row rank the projection vanishes and the
    computed normal part is pure roundoff; perpendicularity then holds
    because one summand is zero, and an angle against noise would be
    meaningless.  The floor is the roundoff scale of the normal assembly,
    |Du|² * |lap| * O(eps).
    """
    t_norm = float(np.linalg.norm(t_vec))
    n_norm = float(np.linalg.norm(n_vec))
    lap = np.einsum("bii->b", m.hessian)
    g = float(np.einsum("ai,ai->", m.jacobian, m.jacobian))
    noise_floor = 64.0 * np.finfo(float).eps * g * float(np.linalg.norm(lap))
    if t_norm == 0.0 or n_norm <= noise_floor:
        return None
    return abs(float(t_vec @ n_vec)) / (t_norm * n_norm)


def _run_properties(cfg: ScenarioConfig) -> CheckReport:
    rng = np.random.default_rng(cfg.seed)
    dims = [(N, n) for N in (1, 2, 3, 5) for n in (1, 2, 3)]
    samples = 500

    max_asym = max_idem = max_annih = max_perp = max_scalar_normal = 0.0
    scalar_samples = 0
    perp_samples = 0
    for k in range(samples):
        N, n = dims[k % len(dims)]
        m = _random_map_jet(rng, N, n)
        p = orthogonal_projection(m.jacobian)
        max_asym = max(max_asym, float(np.abs(p - p.T).max()))
        max_idem = max(max_idem, float(np.abs(p @ p - p).max()))
        jnorm = float(np.linalg.norm(m.jacobian))
        max_annih = max(max_annih, float(np.linalg.norm(p @ m.jacobian)) / jnorm)
        t_vec = tangential(m)
        n_vec = normal(m)
        rel = _relative_perpendicularity_defect(m, t_vec, n_vec)
        if rel is not None:
            perp_samples += 1
            max_perp = max(max_perp, rel)
        if N == 1:
            scalar_samples += 1
            max_scalar_normal = max(max_scalar_normal, float(np.abs(n_vec).max()))
    projection = {
        "samples": samples,
        "max_asymmetry": max_asym,
        "max_idempotency_defect": max_idem,
        "max_annihilation_rel": max_annih,
        "tol": 1e-12,
        "pass": max(max_asym, max_idem, max_annih) <= 1e-12,
    }
    perpendicularity = {
        "samples": samples,
        "nonzero_normal_samples": perp_samples,
        "max_relative_dot": max_perp,
        "tol": 1e-9,
        "pass": max_perp <= 1e-9 and perp_samples > 0,
    }
    scalar_normal = {
        "samples": scalar_samples,
        "max_abs": max_scalar_normal,
        "pass": max_scalar_normal == 0.0,
    }

    # tangential = Du · D(half |Du|²), gradient taken by central differences
    # of the scalar field x -> half |Du(x)|²
    h = cfg.fd_step
    max_rel = 0.0
    n_maps, pts_per_map = 20, 5
    for k in range(n_maps):
        N, n = dims[k % len(dims)]
        mp = TrigQuadMap.random(rng, n, N)
        for _ in range(pts_per_map):
            x = rng.uniform(-1.5, 1.5, size=n)
            m = mp.map_jet(x)
            grad = np.zeros(n)
            for i in range(n):
                e = np.zeros(n)
                e[i] = h
                gp = 0.5 * grad_norm_sq(mp.map_jet(x + e))
                gm = 0.5 * grad_norm_sq(mp.map_jet(x - e))
                grad[i] = (gp - gm) / (2.0 * h)
            ident = m.jacobian @ grad
            t_vec = tangential(m)
            scale = max(float(np.linalg.norm(t_vec)), float(np.linalg.norm(ident)), 1e-8)
            max_rel = max(max_rel, float(np.linalg.norm(t_vec - ident)) / scale)
    gradient_identity = {
        "maps": n_maps,
        "points_per_map": pts_per_map,
        "max_relative_error": max_rel,
        "tol": 1e-5,
        "pass": max_rel <= 1e-5,
    }

    # polar identity on the polar-spiral construction, over ex2's residual slab
    rho = GaussianRho()
    sb = choose_M(rho, cfg.safety)
    phase = PolarPhase(sb.M, t_max=cfg.t_max, cells=cfg.cache_cells, rho=rho)
    u3 = PolarSpiralMap(rho, phase, n=1, N=2)
    max_polar_rel = 0.0
    max_direction_dot = 0.0
    polar_samples = 100
    _, lo, hi = _CONSTRUCTIONS["ex2"].residual_domain
    for t in rng.uniform(lo, hi, size=polar_samples):
        m = u3.map_jet([t])
        pd = polar_decompose(m)
        lhs = grad_norm_sq(m)
        rhs = float(pd.grad_rho @ pd.grad_rho) + pd.rho**2 * float(
            np.einsum("ai,ai->", pd.grad_direction, pd.grad_direction)
        )
        max_polar_rel = max(max_polar_rel, abs(lhs - rhs) / abs(lhs))
        max_direction_dot = max(
            max_direction_dot, float(np.abs(pd.direction @ pd.grad_direction).max())
        )
    polar = {
        "samples": polar_samples,
        "max_relative_error": max_polar_rel,
        "tol": 1e-9,
        "max_direction_dot": max_direction_dot,
        "dot_tol": 1e-12,
        "pass": max_polar_rel <= 1e-9 and max_direction_dot <= 1e-12,
    }

    properties = {
        "projection": PropertyCheck("max_asymmetry", projection),
        "perpendicularity": PropertyCheck("max_relative_dot", perpendicularity),
        "scalar_normal_zero": PropertyCheck("max_abs", scalar_normal),
        "tangential_gradient_identity": PropertyCheck("max_relative_error", gradient_identity),
        "polar_identity": PropertyCheck("max_relative_error", polar),
    }
    overall = all(p.stats["pass"] for p in properties.values())
    return CheckReport(cfg, sb, overall, properties=properties)
def run_scenario(cfg: ScenarioConfig) -> CheckReport:
    """Run one scenario; deterministic for a fixed config (incl. seed)."""
    errors = validate_config(cfg)
    if errors:
        raise ValueError("invalid configuration: " + "; ".join(errors))
    t0 = time.perf_counter()
    if cfg.scenario == "properties":
        report = _run_properties(cfg)
    else:
        report = _run_construction(cfg)
    report.timings["total_s"] = time.perf_counter() - t0
    return report


_FIELD_TYPES = get_type_hints(ScenarioConfig)


def config_from_mapping(mapping: dict) -> ScenarioConfig:
    """Build a config from string-keyed values, coercing field types."""
    kwargs = {}
    for key, raw in mapping.items():
        if key not in _FIELD_TYPES:
            raise ValueError(f"unknown configuration key {key!r}")
        kwargs[key] = _coerce(key, raw)
    return ScenarioConfig(**kwargs)


def _coerce(name: str, raw):
    """Parse a string value as the declared type of the field."""
    if not isinstance(raw, str):
        return raw
    kind = _FIELD_TYPES[name]
    if kind is bool:
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"{name}: cannot parse boolean from {raw!r}")
    return kind(raw)
