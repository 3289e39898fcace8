"""Simulation of deterministic three-qubit entanglement in a chain of
capacitively coupled superconducting charge qubits.

The package covers the full path from device capacitances to a verified
entangled state: electrostatic screening and energy derivation (circuit),
exact 8-dimensional state-vector dynamics (core), timed pulse schedules and
the three-step entangling sequence (pulses), second-order effective
generators with an accuracy scan (effective), and the verification
experiments (protocols).  A YAML-configured CLI exposes each capability.

``import ghzsim`` loads the circuit, config and error layers; the other four
layers, and their public names, load when first read.
"""

import importlib

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
from .errors import (
    ConfigError,
    ContractViolationError,
    DegenerateControlError,
    GateChargeRangeWarning,
    InfeasiblePulseError,
    SimulationError,
    UnphysicalNetworkError,
)

# The state-dynamics layers load on first use, so a command that reads only
# the device (derive, timing) never compiles them.  Each name is looked up in
# its module on every access, and so is always that module's binding.
_LAZY_LAYERS = {
    "core": ("MeasurementRecord", "Operator", "StateVector", "apply", "build_hamiltonian",
             "commutator_norm", "evolve", "expectation", "fidelity", "ghz_state", "pauli",
             "project", "propagator", "sample"),
    "effective": ("PerturbationParams", "effective_error_scan", "fitted_loglog_slope",
                  "h_eff_qubit2", "h_eff_qubits13", "matched_outer_params", "tau13", "tau2"),
    "protocols": ("ProtocolOutcome", "enumerate_lhv_assignments", "lhv_prediction",
                  "mermin_expectations", "mermin_operator", "verify_ghz",
                  "verify_mixture_control", "yyy_experiment"),
    "pulses": ("FlipSolution", "PreparationReport", "PulseSegment", "Schedule", "ghz_prepare",
               "solve_conditional_flip", "solve_superposition_pulse"),
}
_LAZY = {name: layer for layer, names in _LAZY_LAYERS.items() for name in names}
# A star import binds every export: each class and function imported above,
# then each lazy name, which loads its layer.
__all__ = [*(name for name, value in globals().items()
             if callable(value) and not name.startswith("_")), *_LAZY]


def __getattr__(name):
    layer = name if name in _LAZY_LAYERS else _LAZY.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{layer}")
    return module if layer == name else getattr(module, name)


def __dir__():
    return sorted({*globals(), *_LAZY_LAYERS, *_LAZY})


__version__ = "0.1.0"
