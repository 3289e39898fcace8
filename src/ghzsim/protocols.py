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

Every protocol accepts a mode: "ideal" uses closed-form quarter rotations on
the exact entangled state, "effective" uses the second-order generators, and
"full" uses the exact chain Hamiltonian with pulse durations taken from the
second-order formulas, which is what a timed experiment would do.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .circuit import DerivedEnergies
from .core import (
    DIM,
    MeasurementRecord,
    Operator,
    StateVector,
    _readout_probabilities,
    _sample_probabilities,
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
)
from .effective import (
    PerturbationParams,
    h_eff_qubit2,
    h_eff_qubits13,
    matched_outer_params,
    tau13,
    tau2,
)
from .errors import ContractViolationError
from .pulses import ghz_prepare

_MODES = ("ideal", "effective", "full")
_PROB_SUM_TOL = 1e-9


@dataclass(frozen=True)
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
        if self.mode not in _MODES:
            raise ContractViolationError(f"mode must be one of {_MODES}, got {self.mode!r}")
        total = sum(self.probabilities.values())
        if abs(total - 1.0) > _PROB_SUM_TOL:
            raise ContractViolationError(f"probabilities sum to {total}, expected 1")
        if min(self.probabilities.values(), default=0.0) < -1e-12:
            raise ContractViolationError("probabilities must be non-negative")
        for name, value in self.expectations.items():
            if not -1.0 - 1e-12 <= value <= 1.0 + 1e-12:
                raise ContractViolationError(
                    f"expectation {name} = {value} falls outside [-1, 1]"
                )


@dataclass(frozen=True)
class DephasingReport:
    """Effect of the always-on couplings on an idle register.

    The coupling Hamiltonian commutes with every sigma_z, so z-basis
    populations are stationary while relative phases still wind; the report
    carries the commutator norms, the largest population drift seen, and the
    worst-case overlap with the initial state.
    """

    commutator_norms: tuple
    max_population_drift: float
    min_fidelity: float
    durations: tuple


def _ideal_quarter(qubit: int) -> Operator:
    """exp(i * pi * sigma_x / 4) on one qubit: |0> -> (|0> + i|1>)/sqrt(2)."""
    c = math.cos(math.pi / 4.0)
    s = math.sin(math.pi / 4.0)
    return Operator(c * np.eye(DIM, dtype=complex) + 1j * s * pauli("x", qubit).matrix)


def _check_mode(mode: str, energies) -> None:
    if mode not in _MODES:
        raise ContractViolationError(f"mode must be one of {_MODES}, got {mode!r}")
    if mode != "ideal" and energies is None:
        raise ContractViolationError(f"mode {mode!r} needs device energies")


def _interference_pulses(mode: str, energies: DerivedEnergies, include_k13: bool) -> tuple:
    """The quarter rotations (u2, u13) of qubit 2 and of the outer pair; a
    protocol call builds them once for all its runs."""
    if mode == "ideal":
        return _ideal_quarter(2), _ideal_quarter(1) @ _ideal_quarter(3)
    middle = PerturbationParams.middle_qubit(energies)
    outer = PerturbationParams.outer_pair(energies)
    t2 = tau2(middle)
    t13 = tau13(outer)
    matched = matched_outer_params(outer)
    if mode == "effective":
        return propagator(h_eff_qubit2(middle), t2), propagator(h_eff_qubits13(matched, +1), t13)
    couplings = (energies.k12, energies.k23, energies.k13 if include_k13 else 0.0)
    h2 = build_hamiltonian((0.0, 0.0, 0.0), (0.0, energies.ej_max[1], 0.0), *couplings)
    h13 = build_hamiltonian((0.0, 0.0, 0.0),
                            (2.0 * matched.epsilon_j[0], 0.0, 2.0 * matched.epsilon_j[2]),
                            *couplings)
    return propagator(h2, t2), propagator(h13, t13)


def _interference_run(state: StateVector, u2: Operator, u13: Operator):
    """Quarter-rotate qubit 2, postselect it excited, reset it, rotate the
    outer pair.  Returns (final state, postselect probability)."""
    psi = apply(u2, state)
    psi, p_post = project(psi, 2, 1)
    psi = apply(pauli("x", 2), psi)
    psi = apply(u13, psi)
    return psi, p_post


def _outer_pair_probabilities(state: StateVector) -> dict:
    """Marginal distribution of qubits 1 and 3."""
    p = state.probabilities()
    probs = {}
    for q1 in (0, 1):
        for q3 in (0, 1):
            probs[f"{q1}{q3}"] = float(p[4 * q1 + q3] + p[4 * q1 + 2 + q3])
    return probs


def _pair_sums(probs: dict) -> dict:
    """Weight of the correlated (00, 11) and anticorrelated (01, 10) outcomes."""
    return {"p00_plus_p11": probs["00"] + probs["11"], "p01_plus_p10": probs["01"] + probs["10"]}


def _interference_outcome(mode: str, energies: DerivedEnergies, include_k13: bool,
                          components, shots: int, seed: int) -> ProtocolOutcome:
    """Run each (weight, state) component through the interference sequence
    and combine the conditional outcome distributions, each weighted by its
    share of the postselected weight; shots sample the combined z readout."""
    u2, u13 = _interference_pulses(mode, energies, include_k13)
    weighted = []
    for weight, state in components:
        final, p_post = _interference_run(state, u2, u13)
        weighted.append((weight * p_post, final))
    total_weight = sum(w for w, _ in weighted)
    probs = {key: 0.0 for key in ("00", "01", "10", "11")}
    full_probs = np.zeros(DIM)
    for w, final in weighted:
        share = w / total_weight
        for key, val in _outer_pair_probabilities(final).items():
            probs[key] += share * val
        full_probs += share * final.probabilities()
    counts = None
    if shots:
        counts = _sample_probabilities(full_probs, shots, seed, "zzz")
    return ProtocolOutcome(counts, probs, _pair_sums(probs), total_weight, mode)


def verify_ghz(energies: DerivedEnergies = None, mode: str = "ideal", shots: int = 0,
               seed: int = None, include_k13: bool = False) -> ProtocolOutcome:
    """Interference test of the prepared entangled state.

    In ideal mode the exact target state is used directly; in effective and
    full modes the state is first prepared by the pulse sequence.  The
    entangled state concentrates the outer pair on the anticorrelated
    outcomes 01 and 10 (each 1/2 in the ideal limit); compare
    verify_mixture_control, which pins p00 + p11 at 1/2 for the matching
    incoherent mixture.
    """
    _check_mode(mode, energies)
    if mode == "ideal":
        state0 = ghz_state("+")
    else:
        state0, _, _ = ghz_prepare(energies, "+", include_k13=include_k13)
    return _interference_outcome(mode, energies, include_k13, ((1.0, state0),), shots, seed)


def verify_mixture_control(energies: DerivedEnergies = None, mode: str = "ideal",
                           shots: int = 0, seed: int = None,
                           include_k13: bool = False) -> ProtocolOutcome:
    """Interference test fed with the incoherent 50/50 mixture of |000> and
    |111> instead of the entangled state.

    Each pure component is run through the identical sequence and the
    conditional outcome distributions are combined with weights given by the
    component postselection probabilities.  The mixture spreads the outer
    pair uniformly, so p00 + p11 = 1/2 where the entangled state gives 0.
    """
    _check_mode(mode, energies)
    components = tuple((0.5, StateVector.basis(label)) for label in ("000", "111"))
    return _interference_outcome(mode, energies, include_k13, components, shots, seed)


def mermin_operator(pattern: str) -> Operator:
    """Three-qubit Pauli product such as 'yxx' (qubit 1 leftmost)."""
    if len(pattern) != 3 or any(ch not in "xyz" for ch in pattern):
        raise ContractViolationError(f"pattern must be 3 characters from 'xyz', got {pattern!r}")
    op = pauli(pattern[0], 1) @ pauli(pattern[1], 2) @ pauli(pattern[2], 3)
    return op


def mermin_expectations(state: StateVector) -> dict:
    """The four correlation values of the parity argument, in fixed order.

    On the target entangled state the first three are +1 with certainty and
    the fourth is -1, while any local assignment consistent with the first
    three forces the fourth to +1.
    """
    values = {}
    for pattern in ("yxx", "xyx", "xxy", "yyy"):
        values[pattern] = expectation(mermin_operator(pattern), state)
    return values


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

    ``assignments`` maps keys like 'x1', 'y2' (axis then qubit) to +1 or -1;
    x and y values are required for all three qubits, z values are allowed
    and ignored.  The assignment must satisfy the three constraints measured
    with certainty (y1*x2*x3 = x1*y2*x3 = x1*x2*y3 = +1); a violation raises
    ContractViolationError.  Multiplying the constraints shows the product
    y1*y2*y3 is always +1, the opposite of the quantum value.
    """
    values = {}
    for axis in "xy":
        for qubit in (1, 2, 3):
            key = f"{axis}{qubit}"
            if key not in assignments:
                raise ContractViolationError(f"assignment is missing {key}")
            v = int(assignments[key])
            if v not in (+1, -1):
                raise ContractViolationError(f"assignment {key} must be +1 or -1, got {v}")
            values[key] = v
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


def yyy_experiment(state: StateVector, shots: int = 0, seed: int = None) -> ProtocolOutcome:
    """Measure all three qubits in the y basis.

    The target entangled state only ever produces outcomes with an odd
    number of -1 results (odd number of 1 bits); the even-parity fraction
    and the exact three-spin expectation are reported alongside the full
    outcome distribution.
    """
    p = _readout_probabilities(state, "yyy")
    probs = {basis_label(i): float(p[i]) for i in range(DIM)}
    yyy_exact = sum(
        prob * (-1.0) ** label.count("1") for label, prob in probs.items()
    )
    counts = None
    if shots:
        counts = _sample_probabilities(p, shots, seed, "yyy")
        even = sum(c for lab, c in counts.counts.items() if lab.count("1") % 2 == 0)
        even_fraction = even / shots
    else:
        even_fraction = sum(prob for lab, prob in probs.items() if lab.count("1") % 2 == 0)
    expectations = {
        "even_parity_fraction": float(even_fraction),
        "yyy_expectation": float(yyy_exact),
    }
    return ProtocolOutcome(counts, probs, expectations, 1.0, "ideal")


def dephasing_commutation_check(energies: DerivedEnergies, n_durations: int = 8,
                                max_duration: float = 100.0, seed: int = 0) -> DephasingReport:
    """Idle the register under the bare coupling Hamiltonian.

    H0 = k12 sigma_z1 sigma_z2 + k23 sigma_z2 sigma_z3 commutes with every
    sigma_z, so z populations cannot move; the entangled state still picks up
    relative phases, so its self-overlap generally drops below 1.  Durations
    are drawn uniformly in [0, max_duration] ns from the given seed.
    """
    h0 = build_hamiltonian((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), energies.k12, energies.k23)
    norms = tuple(commutator_norm(h0, pauli("z", q)) for q in (1, 2, 3))
    rng = np.random.default_rng(seed)
    durations = tuple(float(t) for t in rng.random(n_durations) * max_duration)
    start = ghz_state("+")
    p0 = start.probabilities()
    max_drift = 0.0
    min_fid = 1.0
    for t in durations:
        evolved = evolve(h0, t, start)
        max_drift = max(max_drift, float(np.max(np.abs(evolved.probabilities() - p0))))
        min_fid = min(min_fid, fidelity(start, evolved))
    return DephasingReport(norms, max_drift, min_fid, durations)
