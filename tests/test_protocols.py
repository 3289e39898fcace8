"""Interference verification, parity correlations, and idle dephasing."""

import math

import numpy as np
import pytest

from ghzsim import (
    ContractViolationError,
    MeasurementRecord,
    Operator,
    ProtocolOutcome,
    StateVector,
    apply,
    enumerate_lhv_assignments,
    evolve,
    expectation,
    fidelity,
    ghz_state,
    build_hamiltonian,
    lhv_prediction,
    mermin_expectations,
    mermin_operator,
    verify_ghz,
    verify_mixture_control,
    yyy_experiment,
)
from ghzsim import protocols


def test_verify_ideal_distribution():
    out = verify_ghz()
    assert out.mode == "ideal"
    assert out.postselect_probability == pytest.approx(0.5, abs=1e-12)
    assert out.probabilities["01"] == pytest.approx(0.5, abs=1e-10)
    assert out.probabilities["10"] == pytest.approx(0.5, abs=1e-10)
    assert out.probabilities["00"] == pytest.approx(0.0, abs=1e-10)
    assert out.probabilities["11"] == pytest.approx(0.0, abs=1e-10)
    assert out.expectations["p00_plus_p11"] == pytest.approx(0.0, abs=1e-10)
    assert out.counts is None


def test_verify_mixture_control_ideal():
    out = verify_mixture_control()
    # the incoherent mixture spreads the outer pair evenly
    assert out.expectations["p00_plus_p11"] == pytest.approx(0.5, abs=1e-10)
    for key in ("00", "01", "10", "11"):
        assert out.probabilities[key] == pytest.approx(0.25, abs=1e-10)


def test_verify_effective_matches_ideal(energies):
    out = verify_ghz(energies, mode="effective")
    ideal = verify_ghz()
    for key in ("00", "01", "10", "11"):
        assert out.probabilities[key] == pytest.approx(ideal.probabilities[key],
                                                       abs=1e-9)
    assert out.postselect_probability == pytest.approx(0.5, abs=1e-9)


def test_verify_full_reference_numbers(energies):
    out = verify_ghz(energies, mode="full")
    # frozen for the reference device; the residual couplings push weight
    # onto the correlated outcomes but anticorrelation still dominates
    assert out.postselect_probability == pytest.approx(0.5, abs=1e-9)
    assert out.probabilities["01"] == pytest.approx(out.probabilities["10"], abs=1e-9)
    assert out.expectations["p00_plus_p11"] == pytest.approx(0.1341702021950995,
                                                             abs=1e-6)
    assert out.probabilities["01"] == pytest.approx(0.432915, abs=1e-5)
    assert out.probabilities["00"] == pytest.approx(0.010367, abs=1e-5)
    assert out.probabilities["11"] == pytest.approx(0.123803, abs=1e-5)
    # the mixture control keeps its signature in full mode as well
    mix = verify_mixture_control(energies, mode="full")
    assert mix.expectations["p00_plus_p11"] == pytest.approx(0.5, abs=0.05)
    assert mix.expectations["p00_plus_p11"] > 3.0 * out.expectations["p00_plus_p11"]


def _with_unused_column_doubled(op):
    """``op`` with the column of |011> doubled: no longer unitary, yet it
    acts as ``op`` on every state the interference sequence feeds it on the
    reference device, whose amplitudes on |011> are zero to rounding."""
    mat = op.matrix.copy()
    mat[:, 0b011] *= 2.0
    return Operator(mat)


def _use_pulses(monkeypatch, pulses):
    """Make every device's interference pulses ``pulses``."""
    monkeypatch.setattr("ghzsim.pulses._interference_pulses", lambda *args: pulses)


@pytest.mark.parametrize("broken", [0, 1], ids=["u2", "u13"])
@pytest.mark.parametrize("protocol", [verify_ghz, verify_mixture_control])
def test_interference_refuses_a_non_unitary_pulse(monkeypatch, energies, protocol, broken):
    pulses = list(protocols._IDEAL_PULSES)
    pulses[broken] = _with_unused_column_doubled(pulses[broken])
    _use_pulses(monkeypatch, tuple(pulses))
    with pytest.raises(ContractViolationError, match="unitary"):
        protocol(energies, "full")


def test_interference_refuses_an_impossible_postselection(monkeypatch, energies):
    # An identity u2 never excites qubit 2 of the mixture's |000> component.
    identity = Operator(np.eye(8, dtype=complex))
    _use_pulses(monkeypatch, (identity, protocols._IDEAL_PULSES[1]))
    with pytest.raises(ContractViolationError, match="impossible branch"):
        verify_mixture_control(energies, "full")


def test_verify_sampling_contract():
    out = verify_ghz(shots=400, seed=7)
    assert isinstance(out.counts, MeasurementRecord)
    assert len(out.counts.outcomes) == 400
    assert sum(out.counts.counts.values()) == 400
    # ideal final state only populates outer-pair 01/10 with qubit 2 reset
    assert set(out.counts.counts) <= {"001", "100"}
    again = verify_ghz(shots=400, seed=7)
    assert out.counts.outcomes == again.counts.outcomes
    with pytest.raises(ContractViolationError):
        verify_ghz(shots=10)
    with pytest.raises(ContractViolationError, match="shots"):
        verify_ghz(shots=-1, seed=7)
    with pytest.raises(ContractViolationError):
        verify_ghz(None, mode="full")
    with pytest.raises(ContractViolationError):
        verify_ghz(mode="sideways")


def test_mixture_sampling_deterministic():
    a = verify_mixture_control(shots=300, seed=21)
    b = verify_mixture_control(shots=300, seed=21)
    assert a.counts.outcomes == b.counts.outcomes
    assert sum(a.counts.counts.values()) == 300
    with pytest.raises(ContractViolationError):
        verify_mixture_control(shots=5)
    with pytest.raises(ContractViolationError, match="shots"):
        verify_mixture_control(shots=-1, seed=21)


_SHOT_PROTOCOLS = {
    "verify_ghz": lambda shots, seed: verify_ghz(shots=shots, seed=seed),
    "verify_mixture_control": lambda shots, seed: verify_mixture_control(shots=shots, seed=seed),
    "yyy_experiment": lambda shots, seed: yyy_experiment(ghz_state("+"), shots, seed),
}


@pytest.mark.parametrize("shots", [0.0, False, None, ""])
@pytest.mark.parametrize("protocol", sorted(_SHOT_PROTOCOLS))
def test_protocols_take_no_falsy_non_integer_as_zero_shots(protocol, shots):
    run = _SHOT_PROTOCOLS[protocol]
    assert run(0, None).counts is None
    with pytest.raises(ContractViolationError, match="^shots: expected a non-negative integer"):
        run(shots, 7)


def test_protocol_outcome_validation():
    good = {"00": 0.5, "11": 0.5}
    ProtocolOutcome(None, good, {}, 1.0, "ideal")
    with pytest.raises(ContractViolationError):
        ProtocolOutcome(None, good, {}, 1.0, "exactish")
    with pytest.raises(ContractViolationError):
        ProtocolOutcome(None, {"00": 0.7, "11": 0.5}, {}, 1.0, "ideal")
    with pytest.raises(ContractViolationError):
        ProtocolOutcome(None, {"00": 1.2, "11": -0.2}, {}, 1.0, "ideal")
    with pytest.raises(ContractViolationError):
        ProtocolOutcome(None, good, {"corr": 1.5}, 1.0, "ideal")
    with pytest.raises(ContractViolationError):
        ProtocolOutcome(None, {"00": math.nan}, {}, 1.0, "ideal")
    with pytest.raises(ContractViolationError):
        ProtocolOutcome(None, {"00": 1.0, "01": math.nan}, {}, 1.0, "ideal")


def test_mermin_expectations_on_target():
    values = mermin_expectations(ghz_state("+"))
    assert list(values) == ["yxx", "xyx", "xxy", "yyy"]
    assert values["yxx"] == pytest.approx(1.0, abs=1e-12)
    assert values["xyx"] == pytest.approx(1.0, abs=1e-12)
    assert values["xxy"] == pytest.approx(1.0, abs=1e-12)
    assert values["yyy"] == pytest.approx(-1.0, abs=1e-12)


def test_mermin_operator_identity():
    # product of the three certain observables equals minus the fourth
    prod = (mermin_operator("yxx").matrix @ mermin_operator("xyx").matrix
            @ mermin_operator("xxy").matrix)
    assert np.max(np.abs(prod + mermin_operator("yyy").matrix)) < 1e-14
    with pytest.raises(ContractViolationError):
        mermin_operator("yx")
    with pytest.raises(ContractViolationError):
        mermin_operator("yxw")


def test_mermin_bound_on_product_states():
    rng = np.random.default_rng(5150)
    patterns = ("yxx", "xyx", "xxy", "yyy")
    for _ in range(20):
        single = []
        for _ in range(3):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            single.append(v / np.linalg.norm(v))
        state = StateVector(np.kron(np.kron(single[0], single[1]), single[2]))
        vals = mermin_expectations(state)
        combo = vals["yxx"] + vals["xyx"] + vals["xxy"] - vals["yyy"]
        assert abs(combo) <= 2.0 + 1e-9
    vals = mermin_expectations(ghz_state("+"))
    assert vals["yxx"] + vals["xyx"] + vals["xxy"] - vals["yyy"] == pytest.approx(4.0)


def test_lhv_prediction_and_enumeration():
    base = {"x1": 1, "x2": 1, "x3": 1, "y1": 1, "y2": 1, "y3": 1}
    assert lhv_prediction(base) == 1
    consistent = {"x1": -1, "x2": -1, "x3": 1, "y1": -1, "y2": -1, "y3": 1}
    assert lhv_prediction(consistent) == 1
    with pytest.raises(ContractViolationError):
        lhv_prediction(dict(base, y1=-1))
    with pytest.raises(ContractViolationError):
        lhv_prediction({k: v for k, v in base.items() if k != "y3"})
    with pytest.raises(ContractViolationError):
        lhv_prediction(dict(base, x1=3))
    survivors = enumerate_lhv_assignments()
    # 64 = 2^6 local tables satisfy the constraints (z values are free)
    assert len(survivors) == 64
    assert all(lhv_prediction(s) == 1 for s in survivors)


def test_yyy_experiment_exact():
    out = yyy_experiment(ghz_state("+"))
    odd = {"001", "010", "100", "111"}
    for label, prob in out.probabilities.items():
        target = 0.25 if label in odd else 0.0
        assert prob == pytest.approx(target, abs=1e-12)
    assert out.expectations["even_parity_fraction"] == pytest.approx(0.0, abs=1e-12)
    assert out.expectations["yyy_expectation"] == pytest.approx(-1.0, abs=1e-12)


def test_yyy_experiment_sampled():
    out = yyy_experiment(ghz_state("+"), shots=2000, seed=31)
    assert out.expectations["even_parity_fraction"] == 0.0
    assert set(out.counts.counts) <= {"001", "010", "100", "111"}
    assert sum(out.counts.counts.values()) == 2000
    again = yyy_experiment(ghz_state("+"), shots=2000, seed=31)
    assert out.counts.outcomes == again.counts.outcomes
    with pytest.raises(ContractViolationError):
        yyy_experiment(ghz_state("+"), shots=10)
    with pytest.raises(ContractViolationError, match="shots"):
        yyy_experiment(ghz_state("+"), shots=-1, seed=31)


@pytest.mark.parametrize("sign", ["+", "-"])
@pytest.mark.parametrize("seed", [0, 31, 2**40 + 7])
def test_yyy_counts_follow_the_documented_stream(sign, seed):
    # one PCG64 uniform per shot, inverse-CDF over the exact y-basis
    # probabilities in basis-index order
    shots = 1500
    out = yyy_experiment(ghz_state(sign), shots, seed)
    exact = np.array([out.probabilities[format(i, "03b")] for i in range(8)])
    cumulative = np.cumsum(exact / exact.sum())
    draws = np.random.default_rng(seed).random(shots)
    indices = np.minimum(np.searchsorted(cumulative, draws, side="right"), 7)
    expected = tuple(format(int(i), "03b") for i in indices)
    assert out.counts.outcomes == expected
    assert out.counts.counts == {label: expected.count(label) for label in sorted(set(expected))}


def test_yyy_minus_state_has_odd_parity_zero():
    out = yyy_experiment(ghz_state("-"))
    even = {"000", "011", "101", "110"}
    for label in even:
        assert out.probabilities[label] == pytest.approx(0.25, abs=1e-12)
    assert out.expectations["yyy_expectation"] == pytest.approx(1.0, abs=1e-12)


def test_dephasing_moves_unbalanced_superpositions(energies):
    # populations stay fixed but relative phases wind: a superposition of
    # components with different coupling energies loses self-overlap
    h0 = build_hamiltonian((0.0, 0.0, 0.0), (0.0, 0.0, 0.0),
                           energies.k12, energies.k23)
    amps = np.zeros(8, dtype=complex)
    amps[0] = amps[1] = 1.0 / math.sqrt(2.0)  # |000> + |001>
    start = StateVector(amps)
    t = 1.0 / (8.0 * energies.k23)
    moved = evolve(h0, t, start)
    assert np.max(np.abs(moved.probabilities() - start.probabilities())) < 1e-14
    assert fidelity(start, moved) == pytest.approx(0.5, abs=1e-10)
