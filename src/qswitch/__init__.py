"""Simulator for a proper-time-matched quantum switch near a spherical mass."""

from .spacetime import (
    CODATA2018,
    CentralBody,
    PhysicalConstants,
    dilation_difference,
    dilation_factor,
    schwarzschild_radius,
)
from .timing import (
    MatchingSolution,
    ProtocolSchedule,
    small_mass_duration,
    solve_matching,
    solved_schedule,
    static_agent_tau,
    validate_windows,
)
from .hilbert import SparseOperator, StateVector, apply, basis_state, measure_in_basis, project
from .switch_model import (
    AmplitudeModel,
    SwitchOutcome,
    build_input,
    diagonal_measure,
    interaction_a,
    interaction_b,
    run_switch,
)
from .trigger import (
    TriggerParams,
    analytic_columns,
    check_trigger_condition,
    numeric_evolve,
    reflection_bound,
)

__version__ = "0.1.0"
