"""Pulse timing closed forms and the three-step entangling sequence."""

import math

import numpy as np
import pytest

from ghzsim import (
    CapacitanceNetwork,
    ContractViolationError,
    ControlSettings,
    InfeasiblePulseError,
    PulseSegment,
    Schedule,
    StateVector,
    build_hamiltonian,
    derive_energies,
    evolve,
    fidelity,
    ghz_prepare,
    ghz_state,
    solve_conditional_flip,
    solve_superposition_pulse,
    verify_ghz,
    verify_mixture_control,
)
from ghzsim import pulses


def test_superposition_pulse_durations():
    assert solve_superposition_pulse(11.2, "+") == pytest.approx(0.25 / 11.2, rel=1e-15)
    assert solve_superposition_pulse(11.2, "-") == pytest.approx(0.75 / 11.2, rel=1e-15)
    # both branches sit where |sin| = 1/sqrt(2)
    for sign in ("+", "-"):
        t = solve_superposition_pulse(4.3, sign)
        assert abs(abs(math.sin(math.pi * 4.3 * t)) - 1.0 / math.sqrt(2.0)) < 1e-12
    with pytest.raises(ContractViolationError):
        solve_superposition_pulse(0.0, "+")
    with pytest.raises(ContractViolationError):
        solve_superposition_pulse(5.0, "x")


@pytest.mark.parametrize("sign", [True, False])
def test_bool_signs_are_rejected(sign, energies):
    with pytest.raises(ContractViolationError, match="sign must be"):
        solve_superposition_pulse(1.0, sign)
    with pytest.raises(ContractViolationError, match="sign must be"):
        ghz_prepare(energies, sign)


def test_conditional_flip_reference_solution(energies):
    sol = solve_conditional_flip(energies.k12, energies.ej_max[0])
    assert (sol.m, sol.n) == (0, 1)
    # closed form at m=0, n=1: e_j = 4k / sqrt(15)
    assert sol.e_j == pytest.approx(4.0 * energies.k12 / math.sqrt(15.0), rel=1e-14)
    assert sol.e_j == pytest.approx(2.8939330034430597, abs=1e-12)
    assert sol.t == pytest.approx(0.5 / sol.e_j, rel=1e-14)
    assert max(sol.residuals) < 1e-12


def test_conditional_flip_honors_drive_limit():
    k = 2.8020385818437457
    sol = solve_conditional_flip(k, 2.0)
    assert sol.e_j <= 2.0 * (1.0 + 1e-12)
    assert (sol.m, sol.n) == (0, 2)
    assert sol.e_j == pytest.approx(4.0 * k / math.sqrt(63.0), rel=1e-14)
    # a generous limit always returns the fundamental solution
    assert solve_conditional_flip(0.11, 100.0).n == 1


def test_conditional_flip_infeasible():
    with pytest.raises(InfeasiblePulseError):
        solve_conditional_flip(2.8, 0.01)
    with pytest.raises(ContractViolationError):
        solve_conditional_flip(0.0, 5.0)


def _double_search_flip(k, e_j_max, max_m=16, max_n=64):
    """The earlier search over extra half-rotations m and idle turns n,
    kept as the reference: (e_j, t, m, n, residuals) of the first (m, n)
    under the drive limit, or None."""
    for m in range(max_m + 1):
        a = 0.5 * math.pi + 2.0 * math.pi * m
        for n in range(m + 1, max_n + 1):
            ratio_sq = (2.0 * math.pi * n / a) ** 2 - 1.0
            e_j = 4.0 * k / math.sqrt(ratio_sq)
            if e_j > e_j_max * (1.0 + 1e-12):
                continue
            t = a / (math.pi * e_j)
            gamma = math.sqrt((2.0 * k) ** 2 + (0.5 * e_j) ** 2)
            residuals = (
                abs(math.sin(math.pi * e_j * t) - 1.0),
                abs(math.cos(2.0 * math.pi * gamma * t) - 1.0),
            )
            return e_j, t, m, n, residuals
    return None


def test_conditional_flip_matches_the_double_search():
    # k over 1e-6..1e3 GHz and limits over 1e-5..1e3 GHz, log-uniform; one
    # draw in ten puts the limit at e_j(m=0, n) * (1 +- 1e-12), on the edge
    # of the drive test.
    rng = np.random.default_rng(20051025)
    feasible = 0
    for i in range(3000):
        k = float(10.0 ** rng.uniform(-6.0, 3.0))
        e_j_max = float(10.0 ** rng.uniform(-5.0, 3.0))
        if i % 10 == 0:
            n = int(rng.integers(1, 65))
            edge = 4.0 * k / math.sqrt((4.0 * n) ** 2 - 1.0)
            e_j_max = edge * (1.0 + float(rng.choice((-1e-12, 1e-12))))
        expected = _double_search_flip(k, e_j_max)
        if expected is None:
            with pytest.raises(InfeasiblePulseError):
                solve_conditional_flip(k, e_j_max)
            continue
        sol = solve_conditional_flip(k, e_j_max)
        assert (sol.e_j, sol.t, sol.m, sol.n, sol.residuals) == expected
        feasible += 1
    assert 1000 < feasible < 3000
    with pytest.raises(TypeError):
        solve_conditional_flip(1.0, 10.0, max_m=16)


@pytest.mark.parametrize("k, e_j_max", [(1e-320, 1e-320), (1e-161, 10.0)])
def test_conditional_flip_outside_float_range_is_infeasible(k, e_j_max):
    # t overflows to inf, or (2k)^2 is subnormal and the closure residual
    # loses its digits: neither flip can be timed.
    with pytest.raises(InfeasiblePulseError, match="cannot be timed in floating point"):
        solve_conditional_flip(k, e_j_max)


def test_superposition_pulse_outside_float_range_is_infeasible():
    with pytest.raises(InfeasiblePulseError, match="cannot be timed in floating point"):
        solve_superposition_pulse(2e-320, "+")


def test_conditional_flip_branch_action():
    # identity on the |0_2> branch, i-flip on the |1_2> branch
    rng = np.random.default_rng(11)
    for _ in range(3):
        k = float(rng.uniform(0.1, 3.0))
        sol = solve_conditional_flip(k, 12.0)
        h = build_hamiltonian((2.0 * k, 0.0, 0.0), (sol.e_j, 0.0, 0.0), k, 0.0)
        idle = evolve(h, sol.t, StateVector.basis("000"))
        assert fidelity(idle, StateVector.basis("000")) > 1.0 - 1e-12
        flipped = evolve(h, sol.t, StateVector.basis("010"))
        assert fidelity(flipped, StateVector.basis("110")) > 1.0 - 1e-12
        amp = flipped.amplitudes[6]
        assert amp.imag == pytest.approx(abs(amp), rel=1e-9)  # phase is +i


def test_segment_energy_settings_exclusivity():
    with pytest.raises(ContractViolationError):
        PulseSegment(-0.5, e_c=(0.0, 0.0, 0.0), e_j=(0.0, 0.0, 0.0))
    with pytest.raises(ContractViolationError):
        PulseSegment(1.0, e_c=(0.0, 0.0), e_j=(0.0, 0.0, 0.0))


def test_schedule_needs_segments():
    with pytest.raises(ContractViolationError):
        Schedule((), k12=1.0, k23=1.0, k13=0.0)


def _replay(schedule, segments=None):
    """|000> evolved through the schedule's segments one at a time."""
    state = StateVector.basis("000")
    for seg in schedule.segments if segments is None else segments:
        h = build_hamiltonian(seg.e_c, seg.e_j, schedule.k12, schedule.k23, schedule.k13)
        state = evolve(h, seg.duration, state)
    return state


def test_superposition_step_state(energies):
    state, schedule, report = ghz_prepare(energies, "+")
    after = _replay(schedule, schedule.segments[:1])
    # equal weight on |000> and |010>, nothing anywhere else
    probs = after.probabilities()
    assert probs[0] == pytest.approx(0.5, abs=1e-12)
    assert probs[2] == pytest.approx(0.5, abs=1e-12)
    assert probs[[1, 3, 4, 5, 6, 7]].max() < 1e-24


def test_working_point_resonances(energies):
    _, schedule, _ = ghz_prepare(energies, "+")
    sup, flip1, flip2 = schedule.segments
    h1 = build_hamiltonian(sup.e_c, sup.e_j, energies.k12, energies.k23).matrix
    # superposition step: the two occupied branches are degenerate
    assert h1[0, 0] == pytest.approx(h1[2, 2], abs=1e-12)
    h2 = build_hamiltonian(flip1.e_c, flip1.e_j, energies.k12, energies.k23).matrix
    # first flip: the driven |010> <-> |110> pair is resonant...
    assert h2[2, 2] == pytest.approx(h2[6, 6], abs=1e-12)
    # ...and on resonance with zero diagonal, so the idle |000>/|100> pair
    # sits symmetrically about it (this is the spectator-phase bias)
    assert h2[2, 2] == pytest.approx(0.0, abs=1e-12)
    assert h2[0, 0] == pytest.approx(-h2[4, 4], abs=1e-12)


def test_ghz_preparation_reference(energies):
    state, schedule, report = ghz_prepare(energies, "+")
    assert report.fidelity > 1.0 - 1e-9
    assert fidelity(state, ghz_state("+")) == report.fidelity
    assert report.intermediate_fidelities[0] > 1.0 - 1e-9
    assert report.intermediate_fidelities[1] > 1.0 - 1e-9
    assert report.achieved_phase == pytest.approx(math.pi / 2.0, abs=1e-9)
    assert len(schedule.segments) == 3
    assert report.total_duration == pytest.approx(
        sum(s.duration for s in schedule.segments), rel=1e-14)
    assert report.k13_included is False


def test_ghz_preparation_minus_sign(energies):
    state, _, report = ghz_prepare(energies, "-")
    assert report.fidelity > 1.0 - 1e-9
    assert fidelity(state, ghz_state("-")) > 1.0 - 1e-9
    assert report.achieved_phase == pytest.approx(-math.pi / 2.0, abs=1e-9)


def test_ghz_preparation_k13_deficit(energies):
    _, _, clean = ghz_prepare(energies, "+")
    _, _, degraded = ghz_prepare(energies, "+", include_k13=True)
    deficit = 1.0 - degraded.fidelity
    assert degraded.k13_included is True
    # frozen window around the measured 0.0278 for the reference device
    assert 0.02 < deficit < 0.04
    assert deficit > 1000.0 * (1.0 - clean.fidelity)


@pytest.mark.parametrize("sign", ["+", "-"])
@pytest.mark.parametrize("include_k13", [False, True])
def test_returned_schedule_replays_to_returned_state(energies, sign, include_k13):
    state, schedule, _ = ghz_prepare(energies, sign, include_k13=include_k13)
    assert _replay(schedule).amplitudes.tobytes() == state.amplitudes.tobytes()


def test_ghz_preparation_deterministic(energies):
    a, sched_a, rep_a = ghz_prepare(energies, "+")
    b, sched_b, rep_b = ghz_prepare(energies, "+")
    assert np.array_equal(a.amplitudes, b.amplitudes)
    assert rep_a.fidelity == rep_b.fidelity
    assert sched_a.segments == sched_b.segments


def test_asymmetric_device_preparation():
    from ghzsim import CapacitanceNetwork, ControlSettings

    net = CapacitanceNetwork((550.0, 620.0, 680.0), (0.5, 0.7, 0.6), (24.0, 36.0))
    s = ControlSettings((0.5,) * 3, (0.5,) * 3, (5.0, 6.1, 5.5))
    en = derive_energies(net, s)
    assert en.k12 != pytest.approx(en.k23)
    _, _, report = ghz_prepare(en, "+")
    assert report.fidelity > 1.0 - 1e-9


def _prepare_fresh(clear_memos, energies, sign):
    """ghz_prepare with every memo emptied."""
    clear_memos()
    return ghz_prepare(energies, sign)


def test_both_signs_share_one_stacked_diagonalization(energies, monkeypatch, clear_memos):
    fresh = {sign: _prepare_fresh(clear_memos, energies, sign) for sign in ("+", "-")}
    clear_memos()
    verified = (verify_ghz(energies, "full"), verify_mixture_control(energies, "full"))
    clear_memos()
    shapes, flips = [], []
    eigh, solve = np.linalg.eigh, pulses.solve_conditional_flip

    def counted(a):
        shapes.append(np.shape(a))
        return eigh(a)

    def counted_flip(*args):
        flips.append(args)
        return solve(*args)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    monkeypatch.setattr(pulses, "solve_conditional_flip", counted_flip)
    # the signs differ only in the superposition pulse's duration, and the
    # full-mode interference pulses are the stack's last two slices
    runs = {sign: ghz_prepare(energies, sign) for sign in ("-", "+")}
    again = (verify_ghz(energies, "full"), verify_mixture_control(energies, "full"))
    *_, w, v = pulses._device_sequence(energies, False)
    assert shapes == [(5, 8, 8)]
    assert len(flips) == 2
    assert [repr(out) for out in again] == [repr(out) for out in verified]
    assert not w.flags.writeable and not v.flags.writeable
    for sign, (state, schedule, report) in runs.items():
        assert state.amplitudes.tobytes() == fresh[sign][0].amplitudes.tobytes()
        assert (schedule, report) == fresh[sign][1:]
        # the segment-by-segment evolve path gives the same bytes
        assert _replay(schedule).amplitudes.tobytes() == state.amplitudes.tobytes()


def test_schedule_couplings_are_read_as_numbers():
    # A Schedule stores its couplings as given; build_hamiltonian reads them.
    seg = PulseSegment(1.0, (0.0, 0.1, 0.0), (1.0, 0.0, 1.0))
    for bad in ([0.1], "0.1", True, None, math.inf):
        with pytest.raises(ContractViolationError, match=r"^\(k12, k23, k13\)\[0\]: "):
            _replay(Schedule((seg,), bad, 0.1, 0.0))


def test_hamiltonian_reports_a_diagonal_overflow():
    with pytest.raises(ContractViolationError, match="^Hamiltonian diagonal overflows float range"):
        build_hamiltonian((1.7e308,) * 3, (0.0, 0.0, 0.0), 0.0, 0.0, 0.0)


def _reference_device_with(josephson=(5.6, 5.6, 5.6), couplers=(30.0, 30.0)):
    network = CapacitanceNetwork((600.0, 600.0, 600.0), (0.6, 0.6, 0.6), couplers)
    return derive_energies(network, ControlSettings((0.5,) * 3, (0.5,) * 3, josephson))


def test_a_device_whose_pulses_cannot_be_timed_still_prepares(clear_memos):
    # a weak middle junction leaves zeta12 above 1: no second-order timing
    # for the interference pulses, which the preparation does not use
    energies = _reference_device_with(josephson=(5.6, 1.0, 5.6))
    refusal = ("^the second-order pulse timing needs zeta12 < 1, "
               "but the device gives zeta12 = 1.4010192909218728$")
    clear_memos()
    state, schedule, report = ghz_prepare(energies, "+")
    assert report.fidelity == pytest.approx(1.0, abs=1e-12)
    assert _replay(schedule).amplitudes.tobytes() == state.amplitudes.tobytes()
    for _ in range(2):
        for protocol in (verify_ghz, verify_mixture_control):
            with pytest.raises(InfeasiblePulseError, match=refusal):
                protocol(energies, "full")
    # the device's stack holds the three segments alone
    *_, w, v = pulses._device_sequence(energies, False)
    assert w.shape == (3, 8) and v.shape == (3, 8, 8)


def test_a_device_that_cannot_be_prepared_still_runs_the_mixture_control(clear_memos):
    # without coupler 1-2 the first flip cannot be timed, but the mixture
    # control needs only the interference pulses
    energies = _reference_device_with(couplers=(0.0, 30.0))
    clear_memos()
    control = verify_mixture_control(energies, "full")
    *_, w, v = pulses._device_sequence(energies, False)
    assert w.shape == (2, 8) and v.shape == (2, 8, 8)
    for _ in range(2):
        with pytest.raises(InfeasiblePulseError, match="^conditional flip of qubit 1 needs"):
            ghz_prepare(energies, "+")
    assert control.expectations["p00_plus_p11"] == pytest.approx(0.5, abs=0.05)
