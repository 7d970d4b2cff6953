"""Minimum-time Dubins paths in steady wind.

Planning happens in the air-relative frame, where the problem becomes
intercepting a virtual target that drifts against the wind.  The optimum is
one of four closed-form path families; `plan` evaluates all of them and
returns the global minimum together with every feasible candidate.
"""

from .families import (
    Family,
    PathCandidate,
    Variant,
)
from .geometry import (
    ControlSchedule,
    Scenario,
    ToleranceSet,
    WindVector,
    normalize,
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

__all__ = [
    "ControlSchedule",
    "EnvelopeCoeffs",
    "Family",
    "PathCandidate",
    "PlanResult",
    "QuadCosCoeffs",
    "RootSet",
    "Scenario",
    "SinusoidCoeffs",
    "ToleranceSet",
    "TrajectoryPoint",
    "ValidationReport",
    "Variant",
    "WindVector",
    "normalize",
    "plan",
    "sample",
    "solve_envelope",
    "solve_quadcos",
    "solve_sinusoid",
    "validate",
]
