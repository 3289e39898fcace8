"""The device-design pipeline: preparation, verification and the parity
correlations on drawn devices, pinned byte for byte."""

import cmath
import hashlib
import math

import numpy as np
import pytest

from ghzsim import (
    CapacitanceNetwork,
    ControlSettings,
    InfeasiblePulseError,
    PerturbationParams,
    StateVector,
    apply,
    build_hamiltonian,
    derive_energies,
    evolve,
    fidelity,
    ghz_prepare,
    ghz_state,
    matched_outer_params,
    mermin_expectations,
    mermin_operator,
    pauli,
    project,
    propagator,
    tau13,
    tau2,
    verify_ghz,
    verify_mixture_control,
)
from ghzsim.protocols import (
    _IDEAL_DISTRIBUTIONS,
    _IDEAL_PULSES,
    _MERMIN_OPERATORS,
    _interference_pulses,
)

_MODES = ("ideal", "effective", "full")


def _devices(n, seed):
    """``n`` seeded devices inside the range the benchmark sweeps: junctions
    400-800 aF, couplers 10-60 aF, single-junction energies 4-8 GHz, each
    chain coupling below every junction's maximum Josephson energy."""
    rng = np.random.default_rng(seed)
    found = []
    while len(found) < n:
        network = CapacitanceNetwork(tuple(rng.uniform(400.0, 800.0, 3)), (0.6, 0.6, 0.6),
                                     tuple(rng.uniform(10.0, 60.0, 2)))
        settings = ControlSettings((0.5, 0.5, 0.5), (0.5, 0.5, 0.5),
                                   tuple(rng.uniform(4.0, 8.0, 3)))
        energies = derive_energies(network, settings)
        if max(energies.k12, energies.k23) < min(energies.ej_max):
            found.append(energies)
    return found


def _pipeline(energies):
    """Everything the pipeline returns for one device, as one repr."""
    parts = []
    for sign in ("+", "-"):
        for k13 in (False, True):
            state, schedule, report = ghz_prepare(energies, sign, include_k13=k13)
            parts += [report, schedule, state.amplitudes.tobytes(), mermin_expectations(state)]
    for mode in _MODES:
        for k13 in (False, True):
            parts += [verify_ghz(energies, mode, include_k13=k13),
                      verify_mixture_control(energies, mode, include_k13=k13)]
    return repr(parts)


def _sampled(energies, seed):
    """The interference protocols with 500 shots each, as one repr."""
    return repr([fn(energies, mode, shots=500, seed=seed, include_k13=k13)
                 for mode in _MODES for k13 in (False, True)
                 for fn in (verify_ghz, verify_mixture_control)])


# sha256 over 24 seeded devices, captured before the preparation and the
# interference pulses were memoized.
_PIPELINE_SHA256 = "fd5e6dc420f538520c8a50ed544db82181bab753c0873c9a51967e1f75e08e1e"
# The same devices, each sampled with its index as the seed; captured before
# the outer-pair marginal was read off the combined 8-outcome distribution.
_SAMPLED_SHA256 = "74467956dc3cc9aec3ac84663434283af4b5faccd510b14cc95678f0e0aa4b0b"


@pytest.mark.parametrize("run, pinned", [
    (lambda energies, seed: _pipeline(energies), _PIPELINE_SHA256),
    (_sampled, _SAMPLED_SHA256),
], ids=["exact", "sampled"])
def test_pipeline_repr_is_pinned(run, pinned):
    digest = hashlib.sha256()
    for seed, energies in enumerate(_devices(24, 20261018)):
        digest.update(run(energies, seed).encode())
    assert digest.hexdigest() == pinned


# Consecutive entries differ in one part of a memo key, so a memo that left
# that part out would hand back the previous entry's result.
_SIGN_K13_ORDER = (("+", False), ("-", False), ("-", True), ("+", True))
_MODE_K13_ORDER = (("ideal", False), ("effective", False), ("full", False), ("full", True),
                   ("effective", True), ("ideal", True))


def _fresh(clear_memos, fn, *args, **kwargs):
    """``fn`` called with every memo emptied first."""
    clear_memos()
    return fn(*args, **kwargs)


def test_repeated_preparation_equals_a_fresh_one(clear_memos):
    a, b = _devices(2, 7)
    fresh = {(dev, sign, k13): _fresh(clear_memos, ghz_prepare, dev, sign, include_k13=k13)
             for dev in (a, b) for sign, k13 in _SIGN_K13_ORDER}
    clear_memos()
    for dev in (a, b, a):
        for sign, k13 in _SIGN_K13_ORDER:
            want = fresh[dev, sign, k13]
            for _ in range(2):  # the repeat is served from the memo
                state, schedule, report = ghz_prepare(dev, sign, include_k13=k13)
                assert np.array_equal(state.amplitudes, want[0].amplitudes)
                assert schedule == want[1] and report == want[2]
    # an integer sign and a truthy k13 share the entry of "-" and True
    assert ghz_prepare(a, "-", include_k13=True)[2] == fresh[a, "-", True][2]
    assert ghz_prepare(a, -1, include_k13=1)[2] == fresh[a, "-", True][2]


def test_repeated_verification_equals_a_fresh_one(clear_memos):
    a, b = _devices(2, 8)
    protocols = (verify_ghz, verify_mixture_control)
    fresh = {(fn, dev, mode, k13): _fresh(clear_memos, fn, dev, mode, include_k13=k13)
             for fn in protocols for dev in (a, b) for mode, k13 in _MODE_K13_ORDER}
    clear_memos()
    for dev in (a, b, a):
        for mode, k13 in _MODE_K13_ORDER:
            for fn in protocols + protocols:
                assert fn(dev, mode, include_k13=k13) == fresh[fn, dev, mode, k13]
            # a preparation for another sign and k13 in between changes nothing
            ghz_prepare(dev, "-", include_k13=not k13)
            assert verify_ghz(dev, mode, include_k13=k13) == fresh[verify_ghz, dev, mode, k13]


def test_infeasible_device_raises_on_every_call():
    network = CapacitanceNetwork((600.0, 600.0, 600.0), (0.6, 0.6, 0.6), (0.0, 30.0))
    settings = ControlSettings((0.5, 0.5, 0.5), (0.5, 0.5, 0.5), (5.6, 5.6, 5.6))
    energies = derive_energies(network, settings)
    for _ in range(3):
        with pytest.raises(InfeasiblePulseError, match="k12"):
            ghz_prepare(energies, "+")
        with pytest.raises(InfeasiblePulseError, match="k12"):
            verify_ghz(energies, "full")


def test_shared_results_are_read_only():
    (dev,) = _devices(1, 10)
    state, schedule, report = ghz_prepare(dev, "+")
    assert ghz_prepare(dev, "+")[0] is state
    matrices = [op.matrix for op in _interference_pulses("full", dev, False)]
    matrices += [op.matrix for op in _IDEAL_PULSES]
    matrices += [op.matrix for op in _MERMIN_OPERATORS.values()]
    ideal_probs = [distribution[0] for distribution in _IDEAL_DISTRIBUTIONS.values()]
    for arr in [state.amplitudes, *matrices, *ideal_probs]:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    with pytest.raises(AttributeError):
        report.fidelity = 0.0
    assert isinstance(schedule.segments, tuple) and isinstance(report.flip_solutions, tuple)


@pytest.mark.parametrize("mode", ["ideal", "full"])
@pytest.mark.parametrize("protocol", [verify_ghz, verify_mixture_control])
def test_mutating_a_result_leaves_the_next_call_unchanged(energies, protocol, mode):
    want = repr(protocol(energies, mode, shots=100, seed=3))
    out = protocol(energies, mode, shots=100, seed=3)
    out.probabilities["00"] = 2.0
    out.expectations.clear()
    out.counts.counts["000"] = -1
    assert repr(protocol(energies, mode, shots=100, seed=3)) == want


def test_mermin_operator_returns_a_fresh_operator():
    for pattern, op in _MERMIN_OPERATORS.items():
        fresh = mermin_operator(pattern)
        assert fresh is not op
        assert np.array_equal(fresh.matrix, op.matrix)


def _stepwise_preparation(schedule, sign):
    """The state and the report's overlaps and phase, rebuilt one segment
    at a time through the public evolve, with each overlap taken between
    wrapped states."""
    states = [StateVector.basis("000")]
    for seg in schedule.segments:
        h = build_hamiltonian(seg.e_c, seg.e_j, schedule.k12, schedule.k23, schedule.k13)
        states.append(evolve(h, seg.duration, states[-1]))
    s = 1 if sign == "+" else -1
    inv = 1.0 / math.sqrt(2.0)
    pair_010 = np.zeros(8, dtype=complex)
    pair_010[0b000], pair_010[0b010] = inv, -s * 1j * inv
    pair_110 = np.zeros(8, dtype=complex)
    pair_110[0b000], pair_110[0b110] = inv, s * inv
    final = states[-1]
    phase = cmath.phase(final.amplitudes[7]) - cmath.phase(final.amplitudes[0])
    return final, (fidelity(final, ghz_state(sign)),
                   (fidelity(states[1], StateVector(pair_010)),
                    fidelity(states[2], StateVector(pair_110))),
                   math.remainder(phase, 2.0 * math.pi))


def _stepwise_interference(pulses, components):
    """The outer-pair probabilities and postselected weight of the
    interference sequence, one public apply or project per step."""
    u2, u13 = pulses
    weighted = []
    for weight, state in components:
        psi, p_post = project(apply(u2, state), 2, 1)
        weighted.append((weight * p_post, apply(u13, apply(pauli("x", 2), psi))))
    total = sum(w for w, _ in weighted)
    full = np.zeros(8)
    for w, final in weighted:
        full += w / total * final.probabilities()
    outer = full.reshape(2, 2, 2).sum(axis=1)
    return {f"{q1}{q3}": float(outer[q1, q3]) for q1 in (0, 1) for q3 in (0, 1)}, total


@pytest.mark.parametrize("include_k13", [False, True])
def test_array_path_equals_the_stepwise_public_path(include_k13):
    mixture = [(0.5, StateVector.basis(label)) for label in ("000", "111")]
    for energies in _devices(20, 20261019):
        for sign in ("+", "-"):
            state, schedule, report = ghz_prepare(energies, sign, include_k13=include_k13)
            want, (fid, intermediates, phase) = _stepwise_preparation(schedule, sign)
            assert state.amplitudes.tobytes() == want.amplitudes.tobytes()
            assert (report.fidelity, report.intermediate_fidelities, report.achieved_phase) \
                == (fid, intermediates, phase)
        for mode in _MODES:
            if mode == "ideal":
                pulses, prepared = _IDEAL_PULSES, ghz_state("+")
            else:
                pulses = _interference_pulses(mode, energies, include_k13)
                prepared = ghz_prepare(energies, "+", include_k13=include_k13)[0]
            for got, components in (
                    (verify_ghz(energies, mode, include_k13=include_k13), [(1.0, prepared)]),
                    (verify_mixture_control(energies, mode, include_k13=include_k13), mixture)):
                assert (got.probabilities, got.postselect_probability) \
                    == _stepwise_interference(pulses, components)


@pytest.mark.parametrize("include_k13", [False, True])
def test_full_mode_pulses_equal_the_public_propagators(include_k13, clear_memos):
    # the last two slices of the device's stacked diagonalization give the
    # bytes of build_hamiltonian + propagator, one pulse at a time
    for energies in _devices(20, 20261020):
        clear_memos()
        ghz_prepare(energies, "-", include_k13=include_k13)
        middle = PerturbationParams.middle_qubit(energies)
        outer = PerturbationParams.outer_pair(energies)
        eps = matched_outer_params(outer).epsilon_j
        k13 = energies.k13 if include_k13 else 0.0
        drives = ((0.0, energies.ej_max[1], 0.0), (2.0 * eps[0], 0.0, 2.0 * eps[2]))
        for got, e_j, t in zip(_interference_pulses("full", energies, include_k13), drives,
                               (tau2(middle), tau13(outer))):
            h = build_hamiltonian((0.0, 0.0, 0.0), e_j, energies.k12, energies.k23, k13)
            assert got.matrix.tobytes() == propagator(h, t).matrix.tobytes()


def test_ideal_mode_recomputes_nothing_per_call(monkeypatch, clear_memos):
    calls = [(verify_ghz, {}), (verify_mixture_control, {}),
             (verify_ghz, {"shots": 500, "seed": 4}),
             (verify_mixture_control, {"shots": 500, "seed": 4})]
    want = [fn(**kwargs) for fn, kwargs in calls]
    clear_memos()

    def refuse(*args):
        raise AssertionError("ideal mode recomputed its distribution")

    monkeypatch.setattr("ghzsim.protocols._interference_distribution", refuse)
    assert [fn(**kwargs) for fn, kwargs in calls] == want


@pytest.mark.parametrize("sign", ["+", "-"])
@pytest.mark.parametrize("include_k13", [False, True])
def test_one_op_wraps_only_the_states_public_calls_return(monkeypatch, clear_memos, sign,
                                                          include_k13):
    # prepare, full verify, mixture and Mermin, as one device-design op: the
    # only states are those ghz_prepare returns, for the op's sign and, when
    # that is "-", for the "+" state verify_ghz prepares.
    (energies,) = _devices(1, 11)
    built = []
    original = StateVector.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    clear_memos()
    monkeypatch.setattr(StateVector, "__post_init__", counting)
    state, _, _ = ghz_prepare(energies, sign, include_k13=include_k13)
    verify_ghz(energies, "full", include_k13=include_k13)
    verify_mixture_control(energies, "full", include_k13=include_k13)
    mermin_expectations(state)
    assert len(built) <= len({sign, "+"})


def _broad_devices(n, seed):
    """``n`` seeded devices far beyond the benchmark's range, at idle
    settings: junctions 50-2000 aF, couplers 0.1-300 aF and single-junction
    energies 0.2-40 GHz, the last two log-uniform."""
    rng = np.random.default_rng(seed)
    return [derive_energies(
        CapacitanceNetwork(tuple(rng.uniform(50.0, 2000.0, 3)), (0.6, 0.6, 0.6),
                           tuple(np.exp(rng.uniform(math.log(0.1), math.log(300.0), 2)))),
        ControlSettings((0.5, 0.5, 0.5), (0.5, 0.5, 0.5),
                        tuple(np.exp(rng.uniform(math.log(0.2), math.log(40.0), 3)))))
        for _ in range(n)]


def test_broad_devices_reach_the_target_or_raise_infeasible():
    # With k13 off the schedule is exact: a preparation reaches the target
    # to rounding or is refused, and the protocols end in no other error.
    feasible = 0
    for energies in _broad_devices(300, 20261021):
        for sign in ("+", "-"):
            try:
                report = ghz_prepare(energies, sign)[2]
            except InfeasiblePulseError:
                continue
            assert report.fidelity >= 1.0 - 1e-9, (energies, report)
            feasible += 1
        for protocol in (verify_ghz, verify_mixture_control):
            for mode in ("effective", "full"):
                try:
                    protocol(energies, mode)
                except InfeasiblePulseError:
                    pass
    assert feasible >= 0.9 * 600


def _k13_preparations(n=200, seed=20261020):
    """(energies, state, report) of ``n`` in-range devices prepared with the
    next-nearest-neighbour coupling on, the signs alternating."""
    prepared = []
    for i, energies in enumerate(_devices(n, seed)):
        state, _, report = ghz_prepare(energies, "+-"[i % 2], include_k13=True)
        prepared.append((energies, state, report))
    return prepared


def test_mermin_values_stay_within_the_trace_distance_of_the_prepared_state():
    # |<P> - P_ideal| <= 2 * sqrt(1 - F) for a Pauli product (norm 1): the
    # trace distance of two pure states is sqrt(1 - F).
    for _, state, report in _k13_preparations():
        s = 1.0 if report.sign == "+" else -1.0
        ideal = {"yxx": s, "xyx": s, "xxy": s, "yyy": -s}
        bound = 2.0 * math.sqrt(max(0.0, 1.0 - report.fidelity))
        for word, value in mermin_expectations(state).items():
            assert abs(value - ideal[word]) <= bound, (word, value, report)


def test_crosstalk_deficit_stays_within_the_accumulated_phase_bound():
    # The prepared and the k13-free states differ by at most the Duhamel
    # integral of K13 sigma_z1 sigma_z3 (norm K13) over the run, and the
    # k13-free run reaches the target: 1 - F <= (2 pi K13 T)^2.
    for energies, _, report in _k13_preparations():
        phase = 2.0 * math.pi * energies.k13 * report.total_duration
        assert 1.0 - report.fidelity <= phase ** 2, (energies, report)
