"""Simulation of deterministic three-qubit entanglement in a chain of
capacitively coupled superconducting charge qubits.

The package covers the full path from device capacitances to a verified
entangled state: electrostatic screening and energy derivation (circuit),
exact 8-dimensional state-vector dynamics (core), timed pulse schedules and
the three-step entangling sequence (pulses), second-order effective
generators with an accuracy scan (effective), and the verification
experiments (protocols).  A YAML-configured CLI exposes each capability.
"""

from .circuit import (
    CapacitanceNetwork,
    ControlSettings,
    CrosstalkReport,
    DerivedEnergies,
    EffectiveCapacitances,
    TimingMargin,
    crosstalk_ratio,
    derive_energies,
    effective_capacitances,
    readout_timing_margin,
    solve_gate_charges,
)
from .config import RunConfig, load_config
from .core import (
    MeasurementRecord,
    Operator,
    StateVector,
    apply,
    basis_label,
    build_hamiltonian,
    commutator_norm,
    evolve,
    expectation,
    fidelity,
    ghz_state,
    pauli,
    project,
    propagator,
    sample,
)
from .effective import (
    PerturbationParams,
    effective_error_scan,
    fitted_loglog_slope,
    h_eff_qubit2,
    h_eff_qubits13,
    matched_outer_params,
    tau13,
    tau2,
)
from .errors import (
    ConfigError,
    ContractViolationError,
    DegenerateControlError,
    GateChargeRangeWarning,
    InfeasiblePulseError,
    SimulationError,
    UnphysicalNetworkError,
)
from .protocols import (
    DephasingReport,
    ProtocolOutcome,
    dephasing_commutation_check,
    enumerate_lhv_assignments,
    lhv_prediction,
    mermin_expectations,
    mermin_operator,
    verify_ghz,
    verify_mixture_control,
    yyy_experiment,
)
from .pulses import (
    FlipSolution,
    PreparationReport,
    PulseSegment,
    Schedule,
    ghz_prepare,
    run_schedule,
    solve_conditional_flip,
    solve_superposition_pulse,
)

__version__ = "0.1.0"
