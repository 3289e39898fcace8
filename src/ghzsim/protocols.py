"""Entanglement verification protocols on the prepared three-qubit state.

Three experiments are implemented:

* an interference sequence that distinguishes the entangled state from any
  mixture: rotate the middle qubit a quarter turn, measure and postselect it,
  reset it, rotate both outer qubits, and read the outer-pair distribution;
* the four three-spin correlation measurements whose values are fixed with
  certainty by the entangled state, together with the local-hidden-variable
  prediction they contradict;
* direct sampling of all three qubits in the y basis, where the entangled
  state never produces an outcome with an even number of excitations.

Measurement bases follow the package convention: outcome bit 0 corresponds
to Pauli eigenvalue +1, and the basis-change unitaries satisfy
S_a sigma_a S_a^dag = sigma_z exactly (checked in the test suite).

The interference protocols (verify_ghz, verify_mixture_control) run one
experiment, _interference_experiment, on the prepared state or on the
mixture, and take a mode: "ideal" uses closed-form quarter rotations on the
exact entangled state, "effective" the second-order generators, and "full"
the exact chain Hamiltonian timed by the second-order formulas, as a timed
experiment would.  The device's pulses come timed and propagated from
ghzsim.pulses, and a refused device raises a fresh InfeasiblePulseError on
every call; this module only runs the experiments and remembers no device.
It imports ghzsim.pulses (and with it ghzsim.effective) only when a device
is driven, so the y-basis experiment and ideal mode never load them.
"""

import functools
import itertools
import math
from collections.abc import Mapping

import numpy as np

from .circuit import DerivedEnergies
from .core import (
    DIM,
    MeasurementRecord,
    Operator,
    StateVector,
    _BASIS_LABELS,
    _Z_SIGNS,
    _basis_amplitudes,
    _check_norm,
    _cumulative,
    _pair_amplitudes,
    _pauli_word,
    _project,
    _readout_probabilities,
    _require_unitary,
    _sample_cumulative,
    expectation,
    pauli,
)
from .errors import _MODES, ContractViolationError, _choice, _count, _member, _record

_PROB_SUM_TOL = 1e-9
# sigma_x on qubit 2 resets the postselected middle qubit; one Operator, so
# its unitarity is checked once per process.
_RESET_2 = pauli("x", 2)
# The states the interference protocols start from, as amplitude arrays;
# the mixture as weighted components.
_GHZ_PLUS = _pair_amplitudes(0b111, 1.0j)
_MIXTURE = tuple((0.5, _basis_amplitudes(label)) for label in ("000", "111"))


@_record
class ProtocolOutcome:
    """Uniform result record of a protocol run.

    ``probabilities`` are exact Born probabilities (they must sum to 1);
    ``counts`` is a sampled record or None when no shots were requested;
    ``expectations`` holds protocol-specific scalar summaries;
    ``postselect_probability`` is the probability of the conditioning
    measurement outcome (1.0 when the protocol has none).
    """

    counts: MeasurementRecord
    probabilities: dict
    expectations: dict
    postselect_probability: float
    mode: str

    def __post_init__(self):
        _choice(self.mode, "mode", _MODES)
        total = sum(self.probabilities.values())
        if not abs(total - 1.0) <= _PROB_SUM_TOL:  # which a nan probability fails
            raise ContractViolationError(f"probabilities sum to {total}, expected 1")
        if not min(self.probabilities.values(), default=0.0) >= -1e-12:
            raise ContractViolationError("probabilities must be non-negative")
        for name, value in self.expectations.items():
            if not -1.0 - 1e-12 <= value <= 1.0 + 1e-12:
                raise ContractViolationError(
                    f"expectation {name} = {value} falls outside [-1, 1]"
                )


def _ideal_quarter(qubit: int) -> Operator:
    """exp(i * pi * sigma_x / 4) on one qubit: |0> -> (|0> + i|1>)/sqrt(2)."""
    c = math.cos(math.pi / 4.0)
    s = math.sin(math.pi / 4.0)
    return Operator(c * np.eye(DIM, dtype=complex) + 1j * s * pauli("x", qubit).matrix)


# The ideal quarter rotations (u2, u13) do not depend on the device.
_IDEAL_PULSES = (_ideal_quarter(2), _ideal_quarter(1) @ _ideal_quarter(3))


def _interference_distribution(u2: Operator, u13: Operator, components) -> tuple:
    """The outcome distribution of the interference sequence on weighted
    (weight, amplitudes) components: quarter-rotate qubit 2, postselect it
    excited, reset it, rotate the outer pair.  The pulses are checked
    unitary once; each step runs on the component's amplitude array and
    passes the unit-norm test.  The conditional 8-outcome distributions are
    combined, each weighted by its share of the postselected weight, and
    the outer-pair marginal is read off the combination.  Returns
    (full_probs, probs, pair_sums, total_weight); full_probs is read-only."""
    _require_unitary(u2, _RESET_2, u13)
    weighted = []
    for weight, amplitudes in components:
        psi, p_post = _project(_check_norm(u2.matrix @ amplitudes), 2, 1)
        for op in (_RESET_2, u13):
            psi = _check_norm(op.matrix @ psi)
        weighted.append((weight * p_post, psi))
    total_weight = sum(w for w, _ in weighted)
    full_probs = np.zeros(DIM)
    for w, final in weighted:
        full_probs += w / total_weight * np.abs(final) ** 2
    full_probs.flags.writeable = False
    outer = full_probs.reshape(2, 2, 2).sum(axis=1)
    probs = {f"{q1}{q3}": float(outer[q1, q3]) for q1 in (0, 1) for q3 in (0, 1)}
    # weight of the correlated and of the anticorrelated outcomes
    pair_sums = {"p00_plus_p11": probs["00"] + probs["11"],
                 "p01_plus_p10": probs["01"] + probs["10"]}
    return full_probs, probs, pair_sums, total_weight


# Ideal mode's two distributions do not depend on the device: computed
# once, at import, each with its sampling table, and shared; every caller
# copies the dicts.
_IDEAL = {name: (distribution, _cumulative(distribution[0])) for name, distribution in {
    "ghz": _interference_distribution(*_IDEAL_PULSES, ((1.0, _GHZ_PLUS),)),
    "mixture": _interference_distribution(*_IDEAL_PULSES, _MIXTURE),
}.items()}


@functools.cache
def _pulses():
    """ghzsim.pulses, imported once, when a device is first driven."""
    from . import pulses
    return pulses


def _interference_experiment(name: str, energies, mode: str, shots: int, seed: int,
                             include_k13) -> ProtocolOutcome:
    """The interference experiment of verify_ghz (``name`` "ghz") or of
    verify_mixture_control ("mixture"), with fresh dicts.  Ideal mode reads
    its distribution and table from _IDEAL.  The other modes prepare the
    entangled state (for "ghz") before the pulses, so a device refused in
    both reports the preparation's refusal, and build a table only when
    there are shots."""
    if _choice(mode, "mode", _MODES) == "ideal":
        distribution, table = _IDEAL[name]
    elif energies is None:
        raise ContractViolationError(f"mode {mode!r} needs device energies")
    else:
        pulses = _pulses()
        components = _MIXTURE if name == "mixture" else (
            (1.0, pulses.ghz_prepare(energies, "+", include_k13=include_k13)[0].amplitudes),)
        u2, u13 = pulses._interference_pulses(mode, energies, bool(include_k13))
        distribution, table = _interference_distribution(u2, u13, components), None
    full_probs, probs, pair_sums, total_weight = distribution
    counts = None
    if _count(shots, "shots"):
        counts = _sample_cumulative(table or _cumulative(full_probs), shots, seed, "zzz")
    return ProtocolOutcome(counts, dict(probs), dict(pair_sums), total_weight, mode)


def verify_ghz(energies: DerivedEnergies = None, mode: str = "ideal", shots: int = 0,
               seed: int = None, include_k13: bool = False) -> ProtocolOutcome:
    """Interference test of the prepared entangled state.

    In ideal mode the exact target state is used directly; in effective and
    full modes the state is first prepared by the pulse sequence.  The
    entangled state concentrates the outer pair on the anticorrelated
    outcomes 01 and 10 (each 1/2 in the ideal limit); compare
    verify_mixture_control, which pins p00 + p11 at 1/2 for the matching
    incoherent mixture.

    Ideal mode only samples its distribution and its cumulative table, both
    computed at import.  The prepared state and the full-mode pulses come
    from the pulses memo of the last device (see ghz_prepare), immutable
    and shared between calls; effective mode builds its pulses on each
    call.  Every call returns fresh probabilities and expectations dicts.
    """
    return _interference_experiment("ghz", energies, mode, shots, seed, include_k13)


def verify_mixture_control(energies: DerivedEnergies = None, mode: str = "ideal",
                           shots: int = 0, seed: int = None,
                           include_k13: bool = False) -> ProtocolOutcome:
    """Interference test fed with the incoherent 50/50 mixture of |000> and
    |111> instead of the entangled state.

    Each pure component is run through the identical sequence and the
    conditional outcome distributions are combined with weights given by the
    component postselection probabilities.  The mixture spreads the outer
    pair uniformly, so p00 + p11 = 1/2 where the entangled state gives 0.

    Ideal mode only samples its distribution and its cumulative table, both
    computed at import.  Full mode reads its pulses from the pulses memo of
    the last device, as verify_ghz does; effective mode builds them on each
    call.  Every call returns fresh probabilities and expectations dicts.
    """
    return _interference_experiment("mixture", energies, mode, shots, seed, include_k13)


def mermin_operator(pattern: str) -> Operator:
    """Three-qubit Pauli product such as 'yxx' (qubit 1 leftmost)."""
    _pauli_word(pattern, "pattern")
    return pauli(pattern[0], 1) @ pauli(pattern[1], 2) @ pauli(pattern[2], 3)


# The operators of the parity argument, in its fixed order; built once, so
# their hermiticity is checked once per process.
_MERMIN_OPERATORS = {pattern: mermin_operator(pattern)
                     for pattern in ("yxx", "xyx", "xxy", "yyy")}


def mermin_expectations(state: StateVector) -> dict:
    """The four correlation values of the parity argument, in fixed order.

    On the target entangled state the first three are +1 with certainty and
    the fourth is -1, while any local assignment consistent with the first
    three forces the fourth to +1.
    """
    return {pattern: expectation(op, state) for pattern, op in _MERMIN_OPERATORS.items()}


def _certain_products(values) -> tuple:
    """y1*x2*x3, x1*y2*x3 and x1*x2*y3: each +1 with certainty on the
    entangled state."""
    return (
        values["y1"] * values["x2"] * values["x3"],
        values["x1"] * values["y2"] * values["x3"],
        values["x1"] * values["x2"] * values["y3"],
    )


def lhv_prediction(assignments) -> int:
    """Value of the y1*y2*y3 product forced by a local assignment.

    ``assignments`` maps keys like 'x1', 'y2' (axis then qubit) to the
    integer +1 or -1 (an int or numpy integer; a bool is not one);
    x and y values are required for all three qubits, z values are allowed
    and ignored.  The assignment must satisfy the three constraints measured
    with certainty (y1*x2*x3 = x1*y2*x3 = x1*x2*y3 = +1); a violation raises
    ContractViolationError.  Multiplying the constraints shows the product
    y1*y2*y3 is always +1, the opposite of the quantum value.
    """
    if not isinstance(assignments, Mapping):
        raise ContractViolationError(f"assignments: expected a mapping, got {assignments!r}")
    values = {}
    for axis in "xy":
        for qubit in (1, 2, 3):
            key = f"{axis}{qubit}"
            if key not in assignments:
                raise ContractViolationError(f"assignment is missing {key}")
            values[key] = _member(assignments[key], key, (1, -1))
    constraints = _certain_products(values)
    if constraints != (1, 1, 1):
        raise ContractViolationError(
            f"assignment violates the certain constraints: {constraints}"
        )
    return values["y1"] * values["y2"] * values["y3"]


def enumerate_lhv_assignments() -> tuple:
    """All local assignments of +-1 to the nine single-qubit observables that
    satisfy the three certain constraints.

    Enumerates all 2^9 = 512 candidates; the survivors (64 of them) all
    predict y1*y2*y3 = +1.
    """
    keys = [f"{axis}{qubit}" for axis in "xyz" for qubit in (1, 2, 3)]
    candidates = (dict(zip(keys, combo))
                  for combo in itertools.product((+1, -1), repeat=len(keys)))
    return tuple(a for a in candidates if _certain_products(a) == (1, 1, 1))


# The product of the three y outcomes, z1 * z2 * z3 (bit 0 reads +1), for each
# label in basis-index order, and the labels with an even number of 1 bits.
_PARITY_SIGNS = tuple(_Z_SIGNS.prod(axis=0).tolist())
_EVEN_LABELS = frozenset(lab for lab, sign in zip(_BASIS_LABELS, _PARITY_SIGNS) if sign > 0)


def yyy_experiment(state: StateVector, shots: int = 0, seed: int = None) -> ProtocolOutcome:
    """Measure all three qubits in the y basis.

    The target entangled state only ever produces outcomes with an odd
    number of -1 results (odd number of 1 bits); the even-parity fraction
    and the exact three-spin expectation are reported alongside the full
    outcome distribution.
    """
    p = _readout_probabilities(state, "yyy")
    probs = dict(zip(_BASIS_LABELS, p.tolist()))
    yyy_exact = sum(prob * sign for prob, sign in zip(probs.values(), _PARITY_SIGNS))
    counts = None
    if _count(shots, "shots"):
        counts = _sample_cumulative(_cumulative(p), shots, seed, "yyy")
        even = sum(c for lab, c in counts.counts.items() if lab in _EVEN_LABELS)
        even_fraction = even / shots
    else:
        even_fraction = sum(prob for lab, prob in probs.items() if lab in _EVEN_LABELS)
    expectations = {
        "even_parity_fraction": float(even_fraction),
        "yyy_expectation": float(yyy_exact),
    }
    return ProtocolOutcome(counts, probs, expectations, 1.0, "ideal")
