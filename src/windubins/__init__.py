"""Minimum-time Dubins paths in steady wind.

Planning happens in the air-relative frame, where the problem becomes
intercepting a virtual target that drifts against the wind.  The optimum is
one of four closed-form path families; `plan` evaluates all of them and
returns the global minimum together with every feasible candidate.
"""

from .families import (
    Family,
    PathCandidate,
    SegmentParams,
    Variant,
    solve_all,
    solve_cc,
    solve_ccc,
    solve_csc,
    solve_sc,
)
from .geometry import (
    ControlSchedule,
    RelativeState,
    Scenario,
    ToleranceSet,
    WindVector,
    integrate,
    normalize,
    target_relative,
)
from .planner import (
    PlanResult,
    TrajectoryPoint,
    ValidationReport,
    plan,
    sample,
    validate,
)
from .rootfind import (
    EnvelopeCoeffs,
    QuadCosCoeffs,
    RootSet,
    SinusoidCoeffs,
    solve_envelope,
    solve_quadcos,
    solve_sinusoid,
)

__version__ = "0.1.0"

__all__ = [
    "ControlSchedule",
    "EnvelopeCoeffs",
    "Family",
    "PathCandidate",
    "PlanResult",
    "QuadCosCoeffs",
    "RelativeState",
    "RootSet",
    "Scenario",
    "SegmentParams",
    "SinusoidCoeffs",
    "ToleranceSet",
    "TrajectoryPoint",
    "ValidationReport",
    "Variant",
    "WindVector",
    "integrate",
    "normalize",
    "plan",
    "sample",
    "solve_all",
    "solve_cc",
    "solve_ccc",
    "solve_csc",
    "solve_envelope",
    "solve_quadcos",
    "solve_sc",
    "solve_sinusoid",
    "target_relative",
    "validate",
]
