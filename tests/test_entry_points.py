"""Caller-supplied numbers, words and indices at the library's entry points:
each malformed one raises the documented error class, never a stray
TypeError or a plausible-looking conversion."""

import math
import re

import numpy as np
import pytest

from ghzsim import (
    CapacitanceNetwork,
    ConfigError,
    ContractViolationError,
    ControlSettings,
    DerivedEnergies,
    FlipSolution,
    InfeasiblePulseError,
    Operator,
    PerturbationParams,
    ProtocolOutcome,
    PulseSegment,
    Schedule,
    StateVector,
    UnphysicalNetworkError,
    build_hamiltonian,
    derive_energies,
    effective_error_scan,
    evolve,
    fitted_loglog_slope,
    ghz_prepare,
    ghz_state,
    h_eff_qubits13,
    lhv_prediction,
    load_config,
    mermin_operator,
    pauli,
    project,
    propagator,
    readout_timing_margin,
    sample,
    solve_conditional_flip,
    solve_superposition_pulse,
    verify_ghz,
    verify_mixture_control,
    yyy_experiment,
)

# float() would read a bool or a numeric string as a plausible number.
_NOT_NUMBERS = (True, "1", None, b"1", math.nan)

# One valid call per entry point, with the class it documents for bad input.
_VALID = {
    CapacitanceNetwork: ({"c_junction": (600.0, 600.0, 600.0), "c_gate": (0.6, 0.6, 0.6),
                          "c_coupler": (30.0, 30.0)}, UnphysicalNetworkError),
    ControlSettings: ({"gate_charge": (0.5, 0.5, 0.5), "flux": (0.5, 0.5, 0.5),
                       "epsilon_j": (5.6, 5.6, 5.6)}, UnphysicalNetworkError),
    PulseSegment: ({"duration": 1.0, "e_c": (0.0, 0.1, 0.0), "e_j": (1.0, 0.0, 1.0)},
                   ContractViolationError),
    build_hamiltonian: ({"e_c": (0.0, 0.1, 0.0), "e_j": (1.0, 0.0, 1.0), "k12": 0.1,
                         "k23": 0.1, "k13": 0.0}, ContractViolationError),
    PerturbationParams: ({"epsilon_j": (1.0, 1.0, 1.0), "zeta12": 0.1, "zeta23": 0.1,
                          "zeta32": 0.1}, ContractViolationError),
}


@pytest.mark.parametrize("entry, name", [(entry, name) for entry, (kwargs, _) in _VALID.items()
                                         for name in kwargs])
def test_each_numeric_argument_rejects_non_numbers(entry, name):
    kwargs, error = _VALID[entry]
    entry(**kwargs)
    good = kwargs[name]
    for slot in range(len(good)) if isinstance(good, tuple) else (None,):
        for bad in _NOT_NUMBERS:
            value = bad if slot is None else good[:slot] + (bad,) + good[slot + 1:]
            with pytest.raises(error) as raised:
                entry(**dict(kwargs, **{name: value}))
            assert raised.type is error, (value, raised.type)
            assert name in str(raised.value), (value, str(raised.value))


_GHZ = ghz_state("+")
_ENERGIES = derive_energies(CapacitanceNetwork(**_VALID[CapacitanceNetwork][0]),
                            ControlSettings(**_VALID[ControlSettings][0]))


@pytest.mark.parametrize("call, args", [
    (sample, (_GHZ, 10, 1, ["x", "y", "z"])),
    (sample, (_GHZ, 10, 1, b"xyz")),
    (mermin_operator, (b"yxx",)),
    (mermin_operator, (("y", "x", "x"),)),
    (StateVector.basis, (b"010",)),
    (StateVector.basis, (["0", "1", "0"],)),
    (pauli, ("x", True)),
    (pauli, ("z", np.True_)),
    (project, (StateVector.basis("010"), 2, True)),
    (project, (StateVector.basis("000"), True, 0)),
    (yyy_experiment, (_GHZ, True, 1)),
    (verify_ghz, (None, "ideal", np.True_, 1)),
    (h_eff_qubits13, (PerturbationParams((1.0, 1.0, 1.0)), True)),
    (pauli, (["x"], 2)),
    (project, (StateVector.basis("010"), 2.0, 1)),
    (verify_ghz, (None, np.array(["ideal", "full"]))),
    (effective_error_scan, ((0.1,), np.array(["middle", "outer"]))),
    (ProtocolOutcome, (None, {"00": 1.0}, {}, 1.0, np.array(["ideal", "full"]))),
    (ghz_state, (1.0,)),
    (ghz_state, (1 + 0j,)),
    (solve_superposition_pulse, (5.6, -1.0)),
    (ghz_prepare, (_ENERGIES, np.float64(1.0))),
])
def test_words_must_be_strings_and_indices_not_bools(call, args):
    with pytest.raises(ContractViolationError):
        call(*args)


def _assignment(value):
    return {key: value for key in ("x1", "x2", "x3", "y1", "y2", "y3")}


_H = build_hamiltonian((0.0, 0.1, 0.0), (1.0, 0.0, 1.0), 0.1, 0.1, 0.0)
_NOT_TIMES = ("0.5", True, b"1", None)


@pytest.mark.parametrize("call, args", [
    (solve_superposition_pulse, ("1",)),
    (solve_superposition_pulse, (True,)),
    (solve_conditional_flip, (True, 5.0)),
    (solve_conditional_flip, (0.2, "5")),
    (readout_timing_margin, ("1", 1.0)),
    (readout_timing_margin, (0.2, True)),
    (readout_timing_margin, (math.inf, 1.0)),
    (readout_timing_margin, (math.nan, 1.0)),
    (readout_timing_margin, (0.2, math.nan)),
    (readout_timing_margin, (0.2, math.inf)),
    (readout_timing_margin, (1e308, 1.0)),
    (verify_mixture_control, (None, "ideal", 2.5, 1)),
    (yyy_experiment, (_GHZ, "10", 1)),
    (lhv_prediction, (_assignment(1.7),)),
    (lhv_prediction, (_assignment(True),)),
    (lhv_prediction, (_assignment("1"),)),
    (lhv_prediction, (_assignment(1.0),)),
    (pauli, ("x", 2.0)),
    (project, (StateVector.basis("010"), 2, 1.0)),
    (h_eff_qubits13, (PerturbationParams((1.0, 1.0, 1.0)), 1.0)),
    *[(propagator, (_H, t)) for t in _NOT_TIMES],
    *[(evolve, (_H, t, _GHZ)) for t in _NOT_TIMES],
])
def test_scalars_read_as_reals_and_integers_as_integers(call, args):
    with pytest.raises(ContractViolationError) as raised:
        call(*args)
    assert raised.type is ContractViolationError


@pytest.mark.parametrize("call, args", [(propagator, (_H, 10 ** 400)),
                                        (evolve, (_H, -10 ** 400, _GHZ))])
def test_a_time_beyond_float_range_cannot_be_timed(call, args):
    with pytest.raises(InfeasiblePulseError, match="cannot be timed"):
        call(*args)


def test_numpy_integers_are_integers():
    assert lhv_prediction(_assignment(np.int8(1))) == 1


def _device(**fields):
    """The reference device's energies with ``fields`` replaced."""
    return DerivedEnergies(**dict(vars(_ENERGIES), **fields))


@pytest.mark.parametrize("make, message", [
    (lambda: StateVector(np.zeros(7)), "state must have 8 amplitudes, got (7,)"),
    (lambda: Operator(np.eye(4)), "operator must be 8x8, got (4, 4)"),
    (lambda: Schedule((object(),), 0.0, 0.0, 0.0),
     "schedule segments must be PulseSegment instances"),
    (lambda: FlipSolution(1.0, 1.0, 0, 1, (1e-3, 0.0)), "flip residuals (0.001, 0.0) exceed 1e-09"),
    (lambda: solve_conditional_flip(1.0, 0.0), "e_j_max: must be > 0, got 0.0"),
    (lambda: _device(ej_max=(11.2, 11.2)),
     "ej_max: expected a list of 3 numbers, got (11.2, 11.2)"),
    (lambda: _device(ej_max=("11.2", 11.2, 11.2)), "ej_max[0]: expected a number, got '11.2'"),
    (lambda: _device(ej_max=(11.2, True, 11.2)), "ej_max[1]: expected a number, got True"),
    (lambda: _device(k12=None), "k12: expected a number, got None"),
    *[(lambda bad=bad: Schedule(bad, 0.1, 0.1, 0.0),
       f"segments: expected an iterable of PulseSegment instances, got {bad!r}")
      for bad in (None, 5)],
    *[(lambda bad=bad: fitted_loglog_slope(bad),
       f"table: expected an iterable of (zeta, error) pairs, got {bad!r}") for bad in (None, 5)],
    (lambda: effective_error_scan(5), "zeta_values: expected an iterable of numbers, got 5"),
    *[(lambda bad=bad: lhv_prediction(bad), f"assignments: expected a mapping, got {bad!r}")
      for bad in ("x1x2x3y1y2y3", None)],
    *[(lambda bad=bad: StateVector(bad), f"amplitudes: expected an array of numbers, got {bad!r}")
      for bad in ("abc", [1, "a", 0, 0, 0, 0, 0, 0], [1, None, 0, 0, 0, 0, 0, 0],
                  [True, False, False, False, False, False, False, False])],
    (lambda: Operator("abc"), "matrix: expected an array of numbers, got 'abc'"),
    (lambda: Operator([[None] * 8] * 8), "matrix: expected an array of numbers, got [[None"),
])
def test_malformed_records_name_what_is_wrong(make, message):
    with pytest.raises(ContractViolationError, match=re.escape(message)):
        make()


# The five readers of a positive drive energy or coupling: (name, call on one
# value, the contract error it documents).
_POSITIVE_READERS = (
    ("epsilon_j[0]", lambda v: ControlSettings((0.5,) * 3, (0.5,) * 3, (v, 5.6, 5.6)),
     UnphysicalNetworkError),
    ("epsilon_j[0]", lambda v: PerturbationParams((v, 1.0, 1.0)), ContractViolationError),
    ("e_j2", solve_superposition_pulse, ContractViolationError),
    ("e_j_max", lambda v: solve_conditional_flip(1.0, v), ContractViolationError),
    ("k", lambda v: solve_conditional_flip(v, 5.6), ContractViolationError),
)


@pytest.mark.parametrize("value, accepted", [
    *[(v, False) for v in (0.0, -1.0, math.nan, math.inf, True, "5", None)],
    *[(v, True) for v in (5.6, np.float64(5.6), np.int64(5), 1e-300)],
], ids=repr)
def test_the_readers_of_a_positive_energy_agree(value, accepted):
    verdicts = []
    for name, call, error in _POSITIVE_READERS:
        try:
            call(value)
            verdicts.append("accepted")
        except InfeasiblePulseError:  # the rule let it through: a 1e-300 cap leaves no flip
            verdicts.append("accepted")
        except error as raised:
            assert type(raised) is error
            prefix, reason = str(raised).split(": ", 1)
            assert prefix == name
            verdicts.append(reason)
    assert len(set(verdicts)) == 1, verdicts
    assert (verdicts[0] == "accepted") == accepted, verdicts


# The three readers of a perturbation ratio: (name, call on one value, the
# contract error it documents, the bound the ratio must stay below).
_RATIO_READERS = (
    ("zeta12", lambda v: PerturbationParams((1.0, 1.0, 1.0), zeta12=v), ContractViolationError,
     1.0),
    ("zeta_values[0]", lambda v: effective_error_scan((v,)), ContractViolationError, 0.5),
    ("scan.values[0]", lambda v: load_config(overrides={"scan": {"values": [v]}}), ConfigError,
     0.5),
)


@pytest.mark.parametrize("value", [-0.1, 0.0, 0.3, 0.5, 0.99, 1.0, math.nan, math.inf, True, "0.1",
                                   None, np.float64(0.3), np.int64(0)], ids=repr)
def test_the_readers_of_a_perturbation_ratio_agree(value):
    number = not isinstance(value, (bool, str)) and value is not None
    reasons = set()
    for name, call, error, limit in _RATIO_READERS:
        try:
            call(value)
            refused = None
        except error as raised:
            assert type(raised) is error
            prefix, refused = str(raised).split(": ", 1)
            assert prefix == name
            reasons.add(refused.replace(f"[0, {limit})", "[0, limit)"))
        assert (refused is None) == (number and 0.0 <= value < limit), (name, refused)
    assert len(reasons) <= 1, reasons


# Each entry point that drives a device's pulses, called as (energies, include_k13).
_DRIVEN = {
    "ghz_prepare": lambda energies, k13: ghz_prepare(energies, include_k13=k13),
    **{f"{protocol.__name__}-{mode}":
       lambda energies, k13, protocol=protocol, mode=mode: protocol(energies, mode,
                                                                    include_k13=k13)
       for protocol in (verify_ghz, verify_mixture_control) for mode in ("effective", "full")},
}


@pytest.mark.parametrize("value", [math.inf, math.nan], ids=repr)
@pytest.mark.parametrize("field", ["k12", "k23", "k13", "ej_max[0]", "ej_max[1]", "ej_max[2]"])
@pytest.mark.parametrize("entry", _DRIVEN)
def test_a_non_finite_device_field_is_refused_under_its_own_name(entry, field, value):
    if field.startswith("ej_max"):
        ej_max = list(_ENERGIES.ej_max)
        ej_max[int(field[-2])] = value
        device = _device(ej_max=tuple(ej_max))
    else:
        device = _device(**{field: value})
    # k13 is held only with include_k13, and never by effective mode's pulses
    if field == "k13":
        _DRIVEN[entry](device, False)
    if field == "k13" and entry == "verify_mixture_control-effective":
        _DRIVEN[entry](device, True)
        return
    with pytest.raises(ContractViolationError) as raised:
        _DRIVEN[entry](device, True)
    assert raised.type is ContractViolationError
    assert str(raised.value) == f"{field}: must be finite, got {value!r}"
