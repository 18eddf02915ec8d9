"""Scenario registry and runners.

Each counterexample scenario is a small data entry: the profile its speed
bound is chosen for, the map it builds, its residual function and residual
domain, and each value domain with the checks its sampled values feed.  One
runner builds the construction from scratch and sweeps each field once
with ``checkers.sample``, block by block into running reductions: the
residual norms of the analytic, then the finite-difference jets on the
residual domain (with |Du|²'s deviation for conservation), then the map's
values on each value domain in turn, boundary first, into its checks.  The
runner then applies the pass rule.  The randomized property suite has its
own runner.  Results are the typed records of ``checkers``; ``reports``
renders them.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Callable, get_type_hints

import numpy as np

from . import checkers
from .checkers import (
    ConservationReport,
    Extremum,
    HullReduction,
    HullVerdict,
    PrincipleExtrema,
    PrincipleVerdict,
    ResidualReport,
    annulus_domain,
    conservation_check,
    directional_check,
    hull_check,
    max_principle_check,
    residual_certify,
    sample,
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
    finite_difference_map_jet,
    polar_decompose,
)
from .operators import (
    grad_norm_sq,
    normal,
    orthogonal_projection,
    perturbed_scalar,
    row_norm,
    tangential,
)
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
    "MAX_DOMAIN_POINTS",
    "MAX_HESSIAN_ENTRIES",
    "MAX_CACHE_CELLS",
    "construction",
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

#: most points a construction's domain may hold: grid_points·3^(n-1) on a slab, ·2n on an
#: annulus.  A domain is written and reduced block by block, so the cap bounds work, not memory.
#: It also caps the property suite's grid_points, the rows of its profile tables
MAX_DOMAIN_POINTS = 2_000_000
#: most hessian entries the jets of one residual domain may total over its
#: blocks, grid_points·copies·N·n² with N = 1 for the scalar maps of ex3: it
#: bounds a run's work.  A residual block holds checkers.BLOCK_ENTRIES of
#: them, or checkers.ROW_FLOOR points where a point holds more than
#: BLOCK_ENTRIES / ROW_FLOOR = 18; there, and only there, this cap is what
#: bounds a block's jets (160 MB)
MAX_HESSIAN_ENTRIES = 20_000_000
#: most cells of a cumulative-integral table: its build evaluates 15 nodes a
#: cell in blocks of jets.BLOCK_POINTS cells, and 4 more where its cells are
#: narrow enough for 4-node corrections (profiles.CORRECTION_STEP), and keeps
#: 32 bytes a cell at its peak (indices, panels and running sums), so the cap
#: bounds that and its time
MAX_CACHE_CELLS = 1 << 20


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
    spec = construction(cfg.scenario) if cfg.scenario in SCENARIO_NAMES else None
    if spec is None:
        errors.append(f"scenario: unknown name {cfg.scenario!r}; expected one of {SCENARIO_NAMES}")
    if cfg.n < 1:
        errors.append("n: must be >= 1")
    if cfg.scenario in _VECTOR_SCENARIOS and cfg.N < 2:
        errors.append("N: must be >= 2 for the vector-valued scenarios")
    elif cfg.N < 1:
        errors.append("N: must be >= 1")
    if cfg.grid_points < 2:
        errors.append("grid_points: must be >= 2")
    if cfg.scenario in _CONSTRUCTIONS and cfg.n >= 1:
        # a construction's domains all have its residual domain's kind; 3^20
        # slab copies alone pass the cap, so no larger power is formed
        copies = 2 * cfg.n if spec.residual_domain[0] == "annulus" else 3 ** min(cfg.n - 1, 20)
        points = cfg.grid_points * copies
        if points > MAX_DOMAIN_POINTS:
            errors.append(f"grid_points, n: a domain holds more than {MAX_DOMAIN_POINTS} points")
        # a point's jets grow with N·n², so the point cap alone leaves the work unbounded
        targets = 1 if spec.build is _perturbed_scalar else cfg.N
        if points * targets * cfg.n**2 > MAX_HESSIAN_ENTRIES:
            errors.append(f"grid_points, n, N: the residual domain's jets total more than "
                          f"{MAX_HESSIAN_ENTRIES} hessian entries")
    elif cfg.scenario == "properties" and cfg.grid_points > MAX_DOMAIN_POINTS:
        errors.append(f"grid_points: must be <= {MAX_DOMAIN_POINTS}, got {cfg.grid_points!r}")
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
    # a tolerance is scale · M³ with M = (1 + safety) · sup|p'| < 2, since
    # safety <= 1 and every profile has sup|p'| < 1; beyond that it is inf
    # and its check passes vacuously
    for name in ("residual_tol_scale", "fd_tol_scale"):
        value = getattr(cfg, name)
        if name not in invalid and not math.isfinite(value * 8.0):
            errors.append(f"{name}: must keep the tolerance {name} * M³ finite for "
                          f"M < 2, that is {name} * 8 < inf, got {value!r}")
    if not 16 <= cfg.cache_cells <= MAX_CACHE_CELLS:
        invalid.add("cache_cells")
        errors.append(f"cache_cells: must lie in [16, {MAX_CACHE_CELLS}], got {cfg.cache_cells!r}")
    if spec is not None and not invalid & {"fd_step", "cross_extent"}:
        # x ± fd_step must differ from x at the reach, the largest |coordinate|
        # of the residual domain with its cross-section offsets; the features
        # have unit width
        kind, lo, hi = spec.residual_domain
        half = 0.5 * cfg.cross_extent if kind == "slab" and cfg.n > 1 else 0.0
        reach = max(-lo, hi, half)
        if not (reach + cfg.fd_step > reach and cfg.fd_step <= 1e-2):
            invalid.add("fd_step")
            names, got = "fd_step", repr(cfg.fd_step)
            if half > max(-lo, hi):  # then a smaller cross_extent may be the only fix
                names += ", cross_extent"
                got += f" and cross_extent {cfg.cross_extent!r}, whose half is the reach"
            errors.append(f"{names}: must satisfy {reach!r} + fd_step > {reach!r} and "
                          f"fd_step <= 0.01, got {got}")
    polar = spec is not None and spec.build is _polar_spiral
    if polar and not invalid & {"t_max", "fd_step", "cache_cells"}:
        # the phase is tabulated on |t| <= t_max and sampled on the residual
        # slab, one fd step past it outside the property suite.  An odd cell
        # count makes the table reach t_max (1 + 1/cells); out to there
        # rho = exp(-t²) must stay a normal float.
        _, lo, hi = spec.residual_domain
        reach = max(-lo, hi) + (cfg.fd_step if cfg.scenario in _CONSTRUCTIONS else 0.0)
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


def _two_sided_failure(v_neg, v_pos, half_margin: float) -> bool:
    """Exactly one slab violates the maximum principle, the other the
    minimum principle, each by at least half the analytic margin."""
    max_flags = [v.max_violation_margin >= half_margin for v in (v_neg, v_pos)]
    min_flags = [v.min_violation_margin >= half_margin for v in (v_neg, v_pos)]
    if sum(max_flags) != 1 or sum(min_flags) != 1:
        return False
    return max_flags.index(True) != min_flags.index(True)


# Constructions: (profile, speed bound M, config) -> (map, forcing map).

def _curve(map_class):
    """Builder of a curve map of map_class, CurveMap or RadialCurveMap."""
    return lambda profile, M, cfg: (
        map_class(profile, ArcComplement(profile, M, cells=cfg.cache_cells), cfg.n, cfg.N), None
    )


def _polar_spiral(rho, M, cfg):
    phase = PolarPhase(M, t_max=cfg.t_max, cells=cfg.cache_cells, rho=rho)
    return PolarSpiralMap(rho, phase, cfg.n, cfg.N), None


def _perturbed_scalar(w1, M, cfg):
    return ScalarProfileMap(w1, cfg.n), PerturbationPotentialMap(w1, M, cfg.n)


# Residuals: (map jets, forcing map jets or None) -> the residual norm at each
# point.  Checks: (domain, config) -> (reduction fed the sampled values, the
# function that makes its verdict).  Operators and checkers are looked up
# when a residual or check runs, so a wrapped one sees every call.

def _tangential_residual(u_jets, f_jets):
    return row_norm(tangential(u_jets))


def _perturbed_residual(u_jets, f_jets):
    return np.abs(perturbed_scalar(u_jets, f_jets))


def _along(k: int):
    """Principle check of the projection onto the k-th target axis."""
    def check(domain, cfg):
        xi = np.eye(cfg.N)[k]
        extrema = PrincipleExtrema(lambda values: np.vecdot(values, xi), domain.n_interior)
        return extrema, lambda: directional_check(extrema, xi, domain)
    return check


def _principle(project):
    """Principle check of ``project`` of the sampled values."""
    def check(domain, cfg):
        extrema = PrincipleExtrema(project, domain.n_interior)
        return extrema, lambda: max_principle_check(extrema, domain)
    return check


_modulus = _principle(lambda values: row_norm(values))
_scalar_value = _principle(lambda values: values[..., 0])


def _hull(domain, cfg):
    reduction = HullReduction(domain.n_interior)
    return reduction, lambda: hull_check(reduction, domain, cfg.hull_tol)


@dataclass(frozen=True)
class _Construction:
    """What one counterexample scenario builds, checks and must detect.

    Domains are ("slab", a, b) or ("annulus", r_in, r_out).  ``residual``
    gives the residual norm at each point from the map's jets and the
    forcing map's (None without one).  ``values`` lists each value domain
    once with the (name, check) pairs its sampled values feed, in report
    order; the check named "hull" fills the hull section, every other one a
    principle verdict.  ``detect`` names the principle checks the pass rule
    reads: one name needs a maximum-principle violation, two names
    (negative, positive slab) a two-sided failure.
    """

    profile: type
    build: Callable
    residual: Callable
    residual_domain: tuple
    conservation_scale: float | None  # tolerance / M², None: not checked
    values: tuple  # (domain, ((name, check), ...))
    analytic_margin: float
    detect: tuple[str, ...]


_CONSTRUCTIONS = {
    "ex1a": _Construction(
        profile=BumpW1, build=_curve(CurveMap), residual=_tangential_residual,
        residual_domain=("slab", -3.0, 3.0), conservation_scale=1e-10,
        values=((("slab", -2.0, 0.0), (("xi_e1_minus", _along(0)), ("xi_e2_minus", _along(1)))),
                (("slab", 0.0, 2.0), (("xi_e1_plus", _along(0)), ("xi_e2_plus", _along(1)))),
                (("slab", -2.0, 2.0), (("hull", _hull),))),
        analytic_margin=INV_E, detect=("xi_e1_minus", "xi_e1_plus"),
    ),
    "ex1b": _Construction(
        profile=BumpZ1, build=_curve(RadialCurveMap), residual=_tangential_residual,
        residual_domain=("annulus", 1.0, 3.0), conservation_scale=1e-10,
        values=((("annulus", 1.0, 3.0), (("xi_e1", _along(0)), ("hull", _hull))),),
        analytic_margin=INV_E, detect=("xi_e1",),
    ),
    "ex2": _Construction(
        profile=GaussianRho, build=_polar_spiral, residual=_tangential_residual,
        residual_domain=("slab", -1.5, 1.5), conservation_scale=1e-9,
        values=((("slab", -1.0, 1.0), (("modulus", _modulus),)),),
        analytic_margin=1.0 - INV_E, detect=("modulus",),
    ),
    "ex3": _Construction(
        profile=BumpW1, build=_perturbed_scalar, residual=_perturbed_residual,
        residual_domain=("slab", -3.0, 3.0), conservation_scale=None,
        values=((("slab", -2.0, 0.0), (("v_minus", _scalar_value),)),
                (("slab", 0.0, 2.0), (("v_plus", _scalar_value),))),
        analytic_margin=INV_E, detect=("v_minus", "v_plus"),
    ),
}


def construction(name: str) -> _Construction:
    """The registry entry of scenario ``name``; the property suite runs on ex2's."""
    return _CONSTRUCTIONS["ex2" if name == "properties" else name]


def _run_construction(cfg: ScenarioConfig) -> CheckReport:
    spec = construction(cfg.scenario)
    profile = spec.profile()
    sb = choose_M(profile, cfg.safety)
    u, f_map = spec.build(profile, sb.M, cfg)
    m_cubed = sb.M**3

    def domain(key):
        kind, lo, hi = key
        if kind == "annulus":
            return annulus_domain(lo, hi, cfg.n, cfg.grid_points, cfg.witnesses())
        return slab_domain(lo, hi, cfg.n, cfg.grid_points, cfg.cross_extent, cfg.witnesses())

    res_domain = domain(spec.residual_domain)

    # running sups of the residual norm and, given target_sq, of |Du|²'s deviation
    # from it, from the jets of u and of the forcing map (None without one), each
    # written into a workspace of one block that lives for the sweep; a block
    # holds as many points as both maps' hessian entries allow
    rows = checkers.jet_rows(sum(m.N * m.n * m.n for m in (u, f_map) if m is not None))

    def residuals(get, *target_sq):
        extrema = [Extremum() for _ in range(1 + len(target_sq))]
        size = (min(rows, len(res_domain)),)  # the most points sample feeds
        u_out, f_out = (None if m is None else MapJet.empty(size, m.N, m.n) for m in (u, f_map))

        def field(x):
            u_jets = get(u, x, u_out)
            norms = spec.residual(u_jets, None if f_map is None else get(f_map, x, f_out))
            return norms, *(np.abs(grad_norm_sq(u_jets) - t) for t in target_sq)
        sample(field, res_domain, extrema, rows=rows)
        return extrema

    target = () if spec.conservation_scale is None else (sb.M**2,)
    analytic = residuals(lambda m, x, out: m.map_jet(x, out=out), *target)
    residual = [residual_certify(analytic[0], res_domain, cfg.residual_tol_scale * m_cubed)]
    conservation = None
    if target:
        conservation = conservation_check(
            analytic[1], res_domain, sb.M**2, tol=spec.conservation_scale * sb.M**2
        )
    (fd,) = residuals(lambda m, x, out: finite_difference_map_jet(m, x, h=cfg.fd_step, out=out))
    residual.append(residual_certify(fd, res_domain, cfg.fd_tol_scale * m_cubed, jet_source="fd"))

    # each value domain is swept once, boundary first, and each block of
    # its values is reduced by its checks
    principle = {}
    for key, checks in spec.values:
        d = domain(key)
        reductions, finishes = zip(*(check(d, cfg) for _, check in checks))
        sample(lambda x: (u.value(x),) * len(checks), d, reductions, boundary_first=True)
        for (name, _), finish in zip(checks, finishes):
            principle[name] = finish()
    hull = principle.pop("hull", None)

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
        cfg, sb, overall, residual=tuple(residual), conservation=conservation,
        principle=principle, hull=hull, assessment=assessment,
    )


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
    properties = {}

    def record(name, metric, counts, *limits):
        """One property's section: its counts, each limit's tolerance under
        its key (none when the key is None) and the worst value of each
        statistic the limit bounds, the largest entry of its per-sample
        arrays (0.0 for none); it passes when every count is positive and
        every statistic is within its tolerance."""
        stats, passed = dict(counts), all(c > 0 for c in counts.values())
        for key, tol, statistics in limits:
            if key is not None:
                stats[key] = tol
            for stat, arrays in statistics.items():
                worst = float(np.max(np.concatenate(arrays), initial=0.0))
                if not math.isfinite(worst):
                    raise EvaluationError(f"property {name}: {stat} is {worst!r}, not finite")
                stats[stat] = worst
                passed = passed and worst <= tol
        stats["pass"] = passed
        properties[name] = PropertyCheck(metric, stats)

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
    record("projection", "max_asymmetry", {"samples": samples},
           ("tol", 1e-12, {"max_asymmetry": asym, "max_idempotency_defect": idem,
                           "max_annihilation_rel": annih}))
    record("perpendicularity", "max_relative_dot",
           {"samples": samples, "nonzero_normal_samples": sum(len(r) for r in perp)},
           ("tol", 1e-9, {"max_relative_dot": perp}))
    record("scalar_normal_zero", "max_abs", {"samples": sum(len(r) for r in scalar_abs)},
           (None, 0.0, {"max_abs": scalar_abs}))

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
    record("tangential_gradient_identity", "max_relative_error",
           {"maps": n_maps, "points_per_map": pts_per_map},
           ("tol", 1e-5, {"max_relative_error": rels}))

    # polar identity on the suite's polar-spiral construction, over its residual slab
    spec = construction(cfg.scenario)
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
    dots = np.abs(np.vecmat(pd.direction, pd.grad_direction)).max(axis=-1)
    record("polar_identity", "max_relative_error", {"samples": polar_samples},
           ("tol", 1e-9, {"max_relative_error": [np.abs(lhs - rhs) / np.abs(lhs)]}),
           ("dot_tol", 1e-12, {"max_direction_dot": [dots]}))
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
_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


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
    try:
        return _BOOLEANS[raw.lower()] if kind is bool else kind(raw)
    except (KeyError, ValueError):
        kind_name = "boolean" if kind is bool else kind.__name__
        raise ValueError(f"{name}: cannot parse {kind_name} from {raw!r}") from None
