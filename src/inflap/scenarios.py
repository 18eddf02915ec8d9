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
from dataclasses import dataclass, field, replace
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
from .jets import EvaluationError
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
from .operators import grad_norm_sq, normal, orthogonal_projection, row_norm, tangential
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


def _stencil_reach(cfg: ScenarioConfig) -> float:
    """Largest |coordinate| of the residual domain (ex2's slab for the
    property suite), cross-section offsets included."""
    name = "ex2" if cfg.scenario == "properties" else cfg.scenario
    kind, lo, hi = _CONSTRUCTIONS[name].residual_domain
    return max(-lo, hi, 0.5 * cfg.cross_extent if kind == "slab" and cfg.n > 1 else 0.0)


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
    if cfg.scenario in SCENARIO_NAMES and not invalid & {"fd_step", "cross_extent"}:
        # x ± fd_step must differ from x at the reach; the features have unit width
        reach = _stencil_reach(cfg)
        if not (reach + cfg.fd_step > reach and cfg.fd_step <= 1e-2):
            errors.append(f"fd_step: must satisfy {reach!r} + fd_step > {reach!r} and "
                          f"fd_step <= 0.01, got {cfg.fd_step!r}")
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


def _two_sided_failure(v_neg, v_pos, half_margin: float) -> bool:
    """Exactly one slab violates the maximum principle, the other the
    minimum principle, each by at least half the analytic margin."""
    max_flags = [v.max_violation_margin >= half_margin for v in (v_neg, v_pos)]
    min_flags = [v.min_violation_margin >= half_margin for v in (v_neg, v_pos)]
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
    return lambda u, domain, cfg: directional_check(u, np.eye(cfg.N)[k], domain)


def _modulus(u, domain, cfg):
    return max_principle_check(lambda x: row_norm(u.value(x)), domain)


def _scalar_value(u, domain, cfg):
    return max_principle_check(lambda x: u.value(x)[..., 0], domain)


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


def _worst(*values) -> float:
    """Largest entry of the arrays, 0.0 for none; a NaN propagates."""
    return float(np.max(np.concatenate(values), initial=0.0))


def _frobenius(a) -> np.ndarray:
    """Frobenius norm of each matrix, bit-equal to np.linalg.norm of each."""
    return row_norm(a.reshape(a.shape[:-2] + (-1,)))


def _run_properties(cfg: ScenarioConfig) -> CheckReport:
    rng = np.random.default_rng(cfg.seed)
    dims = [(N, n) for N in (1, 2, 3, 5) for n in (1, 2, 3)]
    samples = 500

    # random jets, drawn one at a time (jacobian, hessian, value) and
    # stacked into one batch per (N, n)
    drawn = {d: [] for d in dims}
    for k in range(samples):
        N, n = dims[k % len(dims)]
        jac = rng.normal(size=(N, n))
        hess = rng.normal(size=(N, n, n))
        drawn[N, n].append((rng.normal(size=N), jac, 0.5 * (hess + hess.transpose(0, 2, 1))))
    asym, idem, annih, perp, scalar_abs = [], [], [], [], []
    for (N, n), rows in drawn.items():
        m = MapJet(*(np.stack(a) for a in zip(*rows)))
        p = orthogonal_projection(m.jacobian)
        asym.append(np.abs(p - np.swapaxes(p, -1, -2)).max(axis=(-2, -1)))
        idem.append(np.abs(p @ p - p).max(axis=(-2, -1)))
        annih.append(_frobenius(p @ m.jacobian) / _frobenius(m.jacobian))
        t_vec, n_vec = tangential(m), normal(m)
        t_norm, n_norm = row_norm(t_vec), row_norm(n_vec)
        # |T·N| / (|T| |N|) only where both summands are numerically nonzero,
        # selected before dividing, since a dropped sample may have |T| = 0.
        # When the jacobian has full row rank the projection vanishes and the
        # computed normal part is pure roundoff; perpendicularity then holds
        # because one summand is zero, and an angle against noise would be
        # meaningless.  The floor is the roundoff scale of the normal
        # assembly, |Du|² * |lap| * O(eps).
        lap = np.einsum("...bii->...b", m.hessian)
        noise_floor = 64.0 * np.finfo(float).eps * grad_norm_sq(m) * row_norm(lap)
        kept = (t_norm != 0.0) & (n_norm > noise_floor)
        dot = np.vecdot(t_vec[kept], n_vec[kept])
        perp.append(np.abs(dot) / (t_norm[kept] * n_norm[kept]))
        if N == 1:
            scalar_abs.append(np.abs(n_vec).max(axis=-1))
    max_asym, max_idem, max_annih = _worst(*asym), _worst(*idem), _worst(*annih)
    max_perp, max_scalar_normal = _worst(*perp), _worst(*scalar_abs)
    n_perp = sum(len(r) for r in perp)
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
        "nonzero_normal_samples": n_perp,
        "max_relative_dot": max_perp,
        "tol": 1e-9,
        "pass": max_perp <= 1e-9 and n_perp > 0,
    }
    scalar_normal = {
        "samples": sum(len(r) for r in scalar_abs),
        "max_abs": max_scalar_normal,
        "pass": max_scalar_normal == 0.0,
    }

    # tangential = Du · D(half |Du|²), gradient taken by central differences
    # of the scalar field x -> half |Du(x)|²; each map's points are one batch
    h = cfg.fd_step
    rels = []
    n_maps, pts_per_map = 20, 5
    for k in range(n_maps):
        N, n = dims[k % len(dims)]
        mp = TrigQuadMap.random(rng, n, N)
        x = rng.uniform(-1.5, 1.5, size=(pts_per_map, n))
        m = mp.map_jet(x)
        grad = np.empty((pts_per_map, n))
        for i, e in enumerate(np.eye(n) * h):
            gp = 0.5 * grad_norm_sq(mp.map_jet(x + e))
            gm = 0.5 * grad_norm_sq(mp.map_jet(x - e))
            grad[:, i] = (gp - gm) / (2.0 * h)
        ident = np.matvec(m.jacobian, grad)
        t_vec = tangential(m)
        scale = np.maximum(np.maximum(row_norm(t_vec), row_norm(ident)), 1e-8)
        rels.append(row_norm(t_vec - ident) / scale)
    max_rel = _worst(*rels)
    gradient_identity = {
        "maps": n_maps,
        "points_per_map": pts_per_map,
        "max_relative_error": max_rel,
        "tol": 1e-5,
        "pass": max_rel <= 1e-5,
    }

    # polar identity on ex2's polar-spiral construction, over its residual slab
    spec = _CONSTRUCTIONS["ex2"]
    rho = spec.profile()
    sb = choose_M(rho, cfg.safety)
    u, _ = spec.build(rho, sb.M, replace(cfg, n=1, N=2))
    polar_samples = 100
    _, lo, hi = spec.residual_domain
    m = u.map_jet(rng.uniform(lo, hi, size=(polar_samples, 1)))
    pd = polar_decompose(m)
    lhs = grad_norm_sq(m)
    rhs = np.vecdot(pd.grad_rho, pd.grad_rho) + pd.rho**2 * np.einsum(
        "...ai,...ai->...", pd.grad_direction, pd.grad_direction
    )
    max_polar_rel = _worst(np.abs(lhs - rhs) / np.abs(lhs))
    max_direction_dot = _worst(np.abs(np.vecmat(pd.direction, pd.grad_direction)).max(axis=-1))
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
    for name, check in properties.items():
        for key, value in check.stats.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise EvaluationError(f"property {name}: {key} is {value!r}, not finite")
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
