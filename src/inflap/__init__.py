"""Numerical certification of maximum-principle and convex-hull-property
counterexamples for the vectorial infinity-Laplacian's tangential system and
its scalar perturbation.

The library builds the explicit constructions (constant-speed curve graphs,
radial bumps, the polar spiral, and the perturbed scalar profile), verifies
that the relevant residual vanishes on dense grids with both exact jets and
a finite-difference oracle, and measures by how much each construction
violates the maximum/minimum principle or escapes the convex hull of its
boundary values.
"""

from .jets import (
    EvaluationError,
    Jet2,
    JetDomainError,
    fd_jet,
    jet_cos,
    jet_exp,
    jet_lift,
    jet_sin,
    jet_sqrt,
)
from .quadrature import gauss_kronrod_15
from .profiles import (
    ArcComplement,
    BumpW1,
    BumpZ1,
    GaussianRho,
    PhaseRangeError,
    PolarPhase,
    Profile,
    SpeedBound,
    choose_M,
    estimate_sup_abs_d1,
)
from .maps import (
    CurveMap,
    MapDomainError,
    MapJet,
    PerturbationPotentialMap,
    PolarDecomposition,
    PolarSpiralMap,
    RadialCurveMap,
    ScalarProfileMap,
    TrigQuadMap,
    VectorMap,
    finite_difference_map_jet,
    polar_decompose,
)
from .operators import (
    OperatorValue,
    grad_norm_sq,
    infinity_laplacian,
    normal,
    orthogonal_projection,
    perturbed_scalar,
    tangential,
)
from .checkers import (
    CheckEvaluationError,
    ConservationReport,
    DomainSpec,
    HullVerdict,
    PrincipleVerdict,
    ResidualReport,
    annulus_domain,
    conservation_check,
    directional_check,
    hull_check,
    max_principle_check,
    refine_abscissas,
    residual_certify,
    slab_domain,
)
from .scenarios import (
    INV_E,
    SCENARIO_NAMES,
    CheckReport,
    ScenarioConfig,
    run_scenario,
    validate_config,
)
from .reports import (
    REPORT_SCHEMA_VERSION,
    dumps_canonical,
    emit_profile_tables,
    emit_report,
    parse_report,
)

__version__ = "0.1.0"
