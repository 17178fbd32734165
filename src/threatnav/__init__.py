"""Planar threat-aware navigation toolkit.

Analytic engagement zones for range-limited pursuers and slew-limited
turrets, an independent brute-force engagement oracle, minimum-time path
planning outside the zones, and tangent-circle circumnavigation
baselines.
"""

from .circumnav import CircumnavResult, CircumnavSpec, circumnavigate, percent_difference, standard_specs
from .errors import DomainError, InfeasibleError, PreconditionError
from .geometry import Point2, angular_separation, aspect_angle, bearing, distance, wrap_angle
from .oracle import pursuit_capture_certificate, pursuit_capture_possible, turret_neutralization_possible
from .planner import (
    AgentConfig,
    PlannerOptions,
    PlanResult,
    Scenario,
    VerificationReport,
    clearances_along,
    initialize,
    plan,
    resample_and_verify,
    transcribe,
)
from .pursuit import (
    EzBoundarySample,
    PursuerThreat,
    ez_contains,
    rho,
    rho_derivative,
    rho_fast,
    rho_legacy,
    rho_slow,
    sample_boundary,
    signed_clearance,
    xi_crossover,
)
from .scenario_io import (
    OutputConfig,
    ScenarioDocument,
    ScenarioError,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from .trajectory import Trajectory
from .turret import (
    TurretBoundaryPoint,
    TurretThreat,
    boundary_point,
    boundary_threshold,
    ez_contains_turret,
    gamma_range,
    sample_turret_boundary,
    turret_clearance,
)

__version__ = "0.1.0"

__all__ = [
    "AgentConfig",
    "CircumnavResult",
    "CircumnavSpec",
    "DomainError",
    "EzBoundarySample",
    "InfeasibleError",
    "OutputConfig",
    "PlanResult",
    "PlannerOptions",
    "Point2",
    "PreconditionError",
    "PursuerThreat",
    "Scenario",
    "ScenarioDocument",
    "ScenarioError",
    "Trajectory",
    "TurretBoundaryPoint",
    "TurretThreat",
    "VerificationReport",
    "angular_separation",
    "aspect_angle",
    "bearing",
    "boundary_point",
    "boundary_threshold",
    "circumnavigate",
    "clearances_along",
    "distance",
    "ez_contains",
    "ez_contains_turret",
    "gamma_range",
    "initialize",
    "load_scenario",
    "percent_difference",
    "plan",
    "pursuit_capture_certificate",
    "pursuit_capture_possible",
    "resample_and_verify",
    "rho",
    "rho_derivative",
    "rho_fast",
    "rho_legacy",
    "rho_slow",
    "sample_boundary",
    "sample_turret_boundary",
    "save_scenario",
    "scenario_from_dict",
    "scenario_to_dict",
    "signed_clearance",
    "standard_specs",
    "transcribe",
    "turret_clearance",
    "turret_neutralization_possible",
    "wrap_angle",
    "xi_crossover",
]
