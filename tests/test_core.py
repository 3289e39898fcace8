"""State-vector algebra: conventions, evolution, measurement."""

import math
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzsim import (
    ContractViolationError,
    InfeasiblePulseError,
    Operator,
    StateVector,
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
    verify_ghz,
)
from ghzsim import protocols
from ghzsim.core import (
    _BASIS_LABELS,
    _DIAGONAL_SIGNS,
    _FLIP_SLOTS,
    _PAULI_2X2,
    _PAULI_8X8,
    _ROTATION_2X2,
    _SHOT_CHUNK,
    _Z_SIGNS,
    _assemble,
    _embed,
    _diagonalize,
    _draw_stream,
    _evolve_spectral,
    _pair_amplitudes,
    _phases,
    _propagators,
    _readout_probabilities,
    _tally,
)
from ghzsim.effective import _NO_BIAS, _QUBIT2_UP, _SCAN_DRIVES, _scan_model


def taylor_propagator(h: np.ndarray, t: float) -> np.ndarray:
    """Independent exp(-2j*pi*h*t) via scaling-and-squaring Taylor series."""
    a = -2j * math.pi * t * np.asarray(h, dtype=complex)
    scale = max(0, int(math.ceil(math.log2(max(1.0, np.linalg.norm(a, np.inf))))))
    a = a / (2**scale)
    term = np.eye(a.shape[0], dtype=complex)
    total = term.copy()
    k = 1
    while np.max(np.abs(term)) > 1e-18:
        term = term @ a / k
        total = total + term
        k += 1
        assert k < 200
    for _ in range(scale):
        total = total @ total
    return total


def test_pauli_conventions():
    sz = pauli("z", 1).matrix
    assert np.array_equal(np.diag(sz), [1, 1, 1, 1, -1, -1, -1, -1])
    sz3 = pauli("z", 3).matrix
    assert np.array_equal(np.diag(sz3), [1, -1, 1, -1, 1, -1, 1, -1])
    # sigma_y = i * sigma_x * sigma_z reproduces the standard matrix
    sy = pauli("y", 2).matrix
    block = sy[np.ix_([0, 2], [0, 2])]
    assert np.allclose(block, [[0.0, -1.0j], [1.0j, 0.0]], atol=1e-15)


def test_pauli_products_cycle():
    for a, b, c in (("x", "y", "z"), ("y", "z", "x"), ("z", "x", "y")):
        lhs = pauli(a, 1).matrix @ pauli(b, 1).matrix
        assert np.allclose(lhs, 1j * pauli(c, 1).matrix, atol=1e-15)
    # different qubits commute
    assert commutator_norm(pauli("x", 1), pauli("y", 2)) == 0.0


def kron_embed(single: np.ndarray, qubit: int) -> np.ndarray:
    factors = [np.eye(2, dtype=complex)] * 3
    factors[qubit - 1] = single
    return np.kron(np.kron(factors[0], factors[1]), factors[2])


def kron_hamiltonian(e_c, e_j, k12, k23, k13):
    """The chain Hamiltonian summed from explicit Kronecker products, in the
    order build_hamiltonian adds its terms."""
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sz = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    h = np.zeros((8, 8), dtype=complex)
    for j in range(3):
        h += 0.5 * e_c[j] * kron_embed(sz, j + 1)
        h -= 0.5 * e_j[j] * kron_embed(sx, j + 1)
    zz = lambda a, b: kron_embed(sz, a) @ kron_embed(sz, b)
    h += k12 * zz(1, 2) + k23 * zz(2, 3) + k13 * zz(1, 3)
    return h


def test_hamiltonian_bit_identical_to_kron_sum():
    # bytes, not values: array_equal would not tell a signed zero apart
    rng = np.random.default_rng(20261018)
    cases = []
    for trial in range(6):
        e_c = tuple(rng.normal(size=3))
        e_j = tuple(rng.uniform(0.0, 10.0, size=3))
        k12, k23, k13 = rng.uniform(0.0, 0.5, size=3)
        if trial % 2:
            k13 = 0.0
        cases.append((e_c, e_j, k12, k23, k13))
    cases += [
        ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), 0.0, 0.0, 0.0),
        ((-0.0, -0.0, -0.0), (-0.0, -0.0, -0.0), -0.0, -0.0, -0.0),
        ((0.0, -0.0, 0.0), (-0.0, 2.5, 0.0), -0.0, 0.25, -0.0),
        ((-1.5, 0.5, -0.25), (-3.0, -0.0, 4.0), -0.2, -0.3, -0.1),
        ((0.3, -0.3, 0.0), (0.0, -1.0, -0.0), 0.15, -0.15, 0.0),
    ]
    for _ in range(200):
        values = rng.choice([0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 1e-300], 9).tolist()
        cases.append((values[:3], values[3:6], *values[6:]))
    for case in cases:
        h = build_hamiltonian(*case).matrix
        assert h.tobytes() == kron_hamiltonian(*case).tobytes(), case


def test_stacked_assembly_equals_build_hamiltonian_bit_for_bit():
    # one _assemble call over many rows, each with its own couplings, gives
    # every row the bytes of its own checked build_hamiltonian and of the
    # Kronecker sum
    rng = np.random.default_rng(20261020)
    pool = [0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 1e-300, 3.25]
    rows = [((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
            ((-0.0, -0.0, -0.0), (-0.0, -0.0, -0.0), (-0.0, -0.0, -0.0))]
    for i in range(240):
        if i % 2:
            values = rng.choice(pool, 9).tolist()
        else:
            values = (rng.normal(size=9) * 10.0 ** rng.uniform(-3.0, 3.0, 9)).tolist()
        if i % 3 == 0:
            values[8] = 0.0  # k13 off
        rows.append((tuple(values[:3]), tuple(values[3:6]), tuple(values[6:])))
    stack = _assemble(rows)
    assert stack.shape == (len(rows), 8, 8) and stack.dtype == complex
    for got, (e_c, e_j, couplings) in zip(stack, rows):
        assert got.tobytes() == build_hamiltonian(e_c, e_j, *couplings).matrix.tobytes()
        assert got.tobytes() == kron_hamiltonian(e_c, e_j, *couplings).tobytes()
    # a zero drive or coupling gives +0.0, never -0.0
    assert not np.signbit(stack[1].view(float)).any()
    assert _assemble([]).shape == (0, 8, 8)


def test_stacked_assembly_names_the_row_that_overflows():
    good = ((0.1, 0.2, 0.3), (1.0, 1.0, 1.0), (0.5, 0.5, 0.0))
    bad = ((1.7e308, 1.7e308, 1.7e308), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    message = ("^Hamiltonian diagonal overflows float range for e_c = "
               r"\(1\.7e\+308, 1\.7e\+308, 1\.7e\+308\) and "
               r"\(k12, k23, k13\) = \(0\.0, 0\.0, 0\.0\)$")
    with pytest.raises(ContractViolationError, match=message):
        _assemble([good, bad, good])
    with pytest.raises(ContractViolationError, match=message):
        build_hamiltonian(bad[0], bad[1], *bad[2])


def test_pauli_table_matches_embedding_and_is_read_only():
    for axis, single in _PAULI_2X2.items():
        for qubit in (1, 2, 3):
            assert np.array_equal(pauli(axis, qubit).matrix, _embed(single, qubit))
    for mat in _PAULI_8X8.values():
        assert not mat.flags.writeable
        with pytest.raises(ValueError):
            mat[0, 0] = 0.0
    with pytest.raises(ContractViolationError):
        pauli("w", 1)
    with pytest.raises(ContractViolationError):
        pauli("x", 0)


def test_layout_tables_follow_the_documented_index_convention():
    """Index 4*q1 + 2*q2 + q3: qubit q is bit 3 - q, and bit 0 is sigma_z = +1.
    The tables read off _PAULI_8X8 match the bit arithmetic they replace."""
    for q in (1, 2, 3):
        assert _Z_SIGNS[q - 1].tolist() == [1 - 2 * ((i >> (3 - q)) & 1) for i in range(8)]
    bits = [[1.0 - 2.0 * (i >> shift & 1) for shift in (2, 1, 0)] for i in range(8)]
    assert _DIAGONAL_SIGNS == tuple((i * 9, z1, z2, z3, z1 * z2, z2 * z3, z1 * z3)
                                    for i, (z1, z2, z3) in enumerate(bits))
    assert all(type(v) is float for row in _DIAGONAL_SIGNS for v in row[1:])
    assert len(_FLIP_SLOTS) == 24
    assert set(_FLIP_SLOTS) == {(8 * i + (i ^ (4 >> q)), q) for i in range(8) for q in range(3)}
    assert all(type(slot) is int for slot, _ in _FLIP_SLOTS)
    assert protocols._PARITY_SIGNS == tuple((-1.0) ** label.count("1") for label in _BASIS_LABELS)
    assert np.array_equal(_QUBIT2_UP[:, 0], [(i >> 1 & 1) == 0 for i in range(8)])
    for s in (1, -1):
        old = np.zeros(8, dtype=complex)
        old[0] = 1.0 / math.sqrt(2.0)
        old[7] = s * 1.0j / math.sqrt(2.0)
        assert _pair_amplitudes(0b111, s * 1j).tobytes() == old.tobytes()
        assert ghz_state(s).amplitudes.tobytes() == old.tobytes()
    assert protocols._GHZ_PLUS.tobytes() == _pair_amplitudes(0b111, 1j).tobytes()
    for arr in (_Z_SIGNS, protocols._GHZ_PLUS, _pair_amplitudes(0b010, -1j),
                _pair_amplitudes(0b110, 1)):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_basis_indexing():
    state = StateVector.basis("110")
    assert state.amplitudes[6] == 1.0
    assert sum(abs(state.amplitudes)) == 1.0
    with pytest.raises(ContractViolationError):
        StateVector.basis("10")
    with pytest.raises(ContractViolationError):
        StateVector.basis("102")


def test_state_normalization_enforced():
    with pytest.raises(ContractViolationError):
        StateVector(np.ones(8))
    amps = np.zeros(8, dtype=complex)
    amps[0] = 1.0 + 5e-7
    with pytest.raises(ContractViolationError):
        StateVector(amps)
    amps[0] = math.nan
    with pytest.raises(ContractViolationError, match="norm"):
        StateVector(amps)


def test_state_is_immutable():
    state = ghz_state("+")
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0


def test_ghz_state_amplitudes():
    plus = ghz_state("+")
    assert plus.amplitudes[0] == pytest.approx(1.0 / math.sqrt(2.0))
    assert plus.amplitudes[7] == pytest.approx(1.0j / math.sqrt(2.0))
    minus = ghz_state("-")
    assert minus.amplitudes[7] == pytest.approx(-1.0j / math.sqrt(2.0))
    assert fidelity(plus, minus) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("sign", [True, False, np.True_, np.False_])
def test_ghz_state_rejects_bool_signs(sign):
    with pytest.raises(ContractViolationError, match="sign must be"):
        ghz_state(sign)


def test_ghz_state_accepts_integer_signs():
    assert np.array_equal(ghz_state(1).amplitudes, ghz_state("+").amplitudes)
    assert np.array_equal(ghz_state(-1).amplitudes, ghz_state("-").amplitudes)


def test_hamiltonian_diagonal_structure():
    e_c = (0.4, -0.7, 1.1)
    k12, k23, k13 = 0.3, 0.2, 0.05
    h = build_hamiltonian(e_c, (0.0, 0.0, 0.0), k12, k23, k13).matrix
    for idx in range(8):
        bits = [1 - 2 * ((idx >> shift) & 1) for shift in (2, 1, 0)]
        expected = 0.5 * sum(ec * z for ec, z in zip(e_c, bits))
        expected += k12 * bits[0] * bits[1] + k23 * bits[1] * bits[2]
        expected += k13 * bits[0] * bits[2]
        assert h[idx, idx] == pytest.approx(expected, rel=1e-14)
    assert np.max(np.abs(h - np.diag(np.diag(h)))) == 0.0


def test_hamiltonian_josephson_offdiagonal():
    h = build_hamiltonian((0.0, 0.0, 0.0), (2.0, 0.0, 0.0), 0.0, 0.0).matrix
    assert h[0, 4] == pytest.approx(-1.0)
    assert h[0, 1] == 0.0
    flags = build_hamiltonian((0.1, 0.2, 0.3), (1.0, 1.0, 1.0), 0.5, 0.5, 0.1)
    assert flags.hermitian


def test_evolution_closed_form_rotation():
    # a bare -E/2 sigma_x drive rotates |0> -> cos(pi E t)|0> + i sin(pi E t)|1>
    e = 3.7
    h = build_hamiltonian((0.0, 0.0, 0.0), (0.0, e, 0.0), 0.0, 0.0)
    for t in (0.01, 0.1, 0.25 / e, 1.3):
        out = evolve(h, t, StateVector.basis("000"))
        angle = math.pi * e * t
        assert out.amplitudes[0] == pytest.approx(math.cos(angle), abs=1e-12)
        assert out.amplitudes[2] == pytest.approx(1j * math.sin(angle), abs=1e-12)


def test_propagator_matches_taylor_oracle():
    rng = np.random.default_rng(7)
    for _ in range(10):
        raw = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        herm = (raw + raw.conj().T) / 2.0
        t = rng.uniform(0.05, 0.5)
        u = propagator(Operator(herm), t)
        assert u.unitary
        assert np.max(np.abs(u.matrix - taylor_propagator(herm, t))) < 1e-11


def test_propagator_composition():
    h = build_hamiltonian((0.3, 0.1, -0.2), (1.0, 0.7, 0.4), 0.25, 0.15)
    u1 = propagator(h, 0.3)
    u2 = propagator(h, 0.7)
    u_total = propagator(h, 1.0)
    assert np.max(np.abs((u2 @ u1).matrix - u_total.matrix)) < 1e-12


def test_evolve_requires_hermitian():
    bad = Operator(np.triu(np.ones((8, 8))))
    assert not bad.hermitian
    with pytest.raises(ContractViolationError):
        evolve(bad, 0.1, ghz_state("+"))


@pytest.mark.parametrize("w_end, t", [(-5e307, 1e-309), (5e307, 1e-309), (5e307, 0.0),
                                       (0.5, math.inf)])
def test_phases_outside_float_range_are_infeasible(w_end, t):
    # 2*pi*w*t leaves float range (inf * 0 included) before exp could give nan;
    # a RuntimeWarning on the way would fail the suite
    h = Operator(np.diag([w_end, 0.25, 0.0, 0.0, 0.0, 0.0, 0.0, -0.25]))
    for run in (lambda: propagator(h, t), lambda: evolve(h, t, ghz_state("+"))):
        with pytest.raises(InfeasiblePulseError, match="cannot be timed in floating point"):
            run()
    # an eigenvalue just below the overflow of 2*pi*w still propagates
    assert propagator(Operator(np.diag([2.8e307, *[0.0] * 7])), 1e-308).unitary


def _hermitian_stack(seed: int):
    """Random Hermitian matrices over six decades of scale, with the error
    scan's exact and effective generators among them, and their times."""
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(40, 8, 8)) + 1j * rng.normal(size=(40, 8, 8))
    raw *= 10.0 ** rng.uniform(-3.0, 3.0, (40, 1, 1))
    matrices = list((raw + raw.conj().swapaxes(1, 2)) / 2.0)
    times = rng.uniform(0.0, 10.0, 40).tolist()
    for z in (0.0, 0.05, 0.2, 0.45):
        for which in ("middle", "outer"):
            h_eff, t = _scan_model(z, which)
            (h_full,) = _assemble([(_NO_BIAS, _SCAN_DRIVES[which], (2.0 * z, 2.0 * z, 0.0))])
            matrices += [h_full, h_eff]
            times += [t, t]
    order = rng.permutation(len(matrices))
    return np.array(matrices)[order], [times[i] for i in order]


@pytest.mark.parametrize("seed", [1, 2])
def test_stacked_propagation_matches_each_matrix_bit_for_bit(seed):
    # one eigh over the stack gives every slice the bytes of its own call
    stack, times = _hermitian_stack(seed)
    us = _propagators(stack, times)
    w, v = _diagonalize(stack, "unused")
    phases = _phases(w, times)
    rng = np.random.default_rng(seed)
    for h, t, u, v_k, p_k in zip(stack, times, us, v, phases):
        assert u.tobytes() == propagator(Operator(h), t).matrix.tobytes()
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi = StateVector(amps / np.linalg.norm(amps))
        stacked = v_k @ (p_k * (v_k.conj().T @ psi.amplitudes))
        assert stacked.tobytes() == evolve(Operator(h), t, psi).amplitudes.tobytes()


def test_stacked_propagation_rejects_a_non_hermitian_slice():
    stack, times = _hermitian_stack(3)
    stack[17, 0, 1] += 2e-12
    with pytest.raises(ContractViolationError, match="^propagator requires a Hermitian generator$"):
        _propagators(stack, times)
    # half the tolerance passes, as in Operator.hermitian
    stack[17, 0, 1] -= 1.5e-12
    _propagators(stack, times)


def test_stacked_propagation_names_the_first_out_of_range_slice():
    stack, times = _hermitian_stack(4)
    stack[5] = np.diag([0.25, *[0.0] * 6, -5e307])
    stack[9] = np.diag([6e307, *[0.0] * 7])
    times[5] = times[9] = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InfeasiblePulseError) as info:
            _propagators(stack, times)
    assert str(info.value) == ("a 1.0 ns pulse with eigenvalues up to 5e+307 GHz "
                               "cannot be timed in floating point")


def test_norm_preserved_through_long_evolution():
    h = build_hamiltonian((0.5, -0.4, 0.9), (2.0, 3.0, 1.0), 0.8, 0.6, 0.1)
    state = ghz_state("+")
    for _ in range(50):
        state = evolve(h, 0.37, state)
    assert float(np.sum(np.abs(state.amplitudes) ** 2)) == pytest.approx(1.0, abs=1e-12)


def test_every_propagation_step_passes_the_norm_test():
    # The first slice's eigenvectors are scaled by 1.01 and the second's by
    # 1/1.01, so only the state between the steps leaves unit norm: the
    # per-step test catches it, a test of the last state alone would not.
    h = build_hamiltonian((0.5, -0.4, 0.9), (2.0, 3.0, 1.0), 0.8, 0.6, 0.1)
    w, v = _diagonalize(np.array([h.matrix, h.matrix]), "not Hermitian")
    amps = ghz_state("+").amplitudes
    assert len(_evolve_spectral(w, v, (0.37, 0.37), amps)) == 2
    scaled = v * np.array([1.01, 1.0 / 1.01])[:, None, None]
    with pytest.raises(ContractViolationError, match="norm"):
        _evolve_spectral(w, scaled, (0.37, 0.37), amps)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), t=st.floats(1e2, 1e5))
def test_random_device_hamiltonians_propagate_unitarily(seed, t):
    # energies in the range the pulse schedules use: biases up to a few GHz,
    # drives up to twice the largest single-junction energy, couplings < 2 GHz
    rng = np.random.default_rng(seed)
    h = build_hamiltonian(rng.uniform(-4.0, 4.0, 3), rng.uniform(0.0, 16.0, 3),
                          *rng.uniform(0.0, 2.0, 3))
    assert propagator(h, t).unitary
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    state = StateVector(amps / np.linalg.norm(amps))
    for _ in range(20):
        state = evolve(h, t, state)  # each StateVector re-checks the norm to 1e-12
    assert abs(float(np.sum(np.abs(state.amplitudes) ** 2)) - 1.0) <= 1e-12


def test_operator_flags():
    assert pauli("x", 1).hermitian
    assert pauli("x", 1).unitary
    h = Operator(np.diag(np.arange(8.0)))
    assert h.hermitian
    assert not h.unitary


def test_project_branches():
    post, prob = project(ghz_state("+"), 1, 0)
    assert prob == pytest.approx(0.5, abs=1e-15)
    assert abs(post.amplitudes[0]) == pytest.approx(1.0, abs=1e-12)
    post, prob = project(ghz_state("+"), 2, 1)
    assert abs(post.amplitudes[7]) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ContractViolationError):
        project(StateVector.basis("000"), 1, 1)


# Each check accepts a deviation of half its tolerance and rejects twice it.
@pytest.mark.parametrize("direction", [1.0, -1.0])
def test_state_norm_tolerance_boundary(direction):
    def state(dev):
        amps = np.zeros(8, dtype=complex)
        amps[0] = math.sqrt(1.0 + direction * dev)
        return StateVector(amps)

    state(0.5e-12)
    with pytest.raises(ContractViolationError, match="norm"):
        state(2e-12)


def test_hermitian_tolerance_boundary():
    def operator(dev):
        mat = np.zeros((8, 8), dtype=complex)
        mat[0, 1] = dev  # |mat - mat^dag| peaks at dev
        return Operator(mat)

    assert operator(0.5e-12).hermitian
    assert not operator(2e-12).hermitian


def test_unitary_tolerance_boundary():
    def operator(dev):
        mat = np.eye(8, dtype=complex)
        mat[0, 0] = math.sqrt(1.0 + dev)  # mat^dag mat - I peaks at dev
        return Operator(mat)

    assert operator(0.5e-10).unitary
    assert not operator(2e-10).unitary


def test_project_probability_floor_boundary():
    def state(prob):
        amps = np.zeros(8, dtype=complex)
        amps[0], amps[4] = math.sqrt(1.0 - prob), math.sqrt(prob)
        return StateVector(amps)

    post, prob = project(state(2e-12), 1, 1)
    assert prob == pytest.approx(2e-12, rel=1e-9)
    assert abs(post.amplitudes[4]) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ContractViolationError, match="impossible branch"):
        project(state(0.5e-12), 1, 1)


def test_expectation_requires_hermitian():
    with pytest.raises(ContractViolationError):
        expectation(Operator(np.triu(np.ones((8, 8)))), ghz_state("+"))
    assert expectation(pauli("z", 1), StateVector.basis("011")) == pytest.approx(1.0)
    assert expectation(pauli("z", 1), StateVector.basis("100")) == pytest.approx(-1.0)


def test_commutator_norm_values():
    # [sigma_x, sigma_y] = 2i sigma_z has max entry 2
    assert commutator_norm(pauli("x", 1), pauli("y", 1)) == pytest.approx(2.0)
    assert commutator_norm(pauli("z", 1), pauli("z", 2)) == 0.0


def test_sample_reproducible_and_stream_documented():
    state = ghz_state("+")
    rec1 = sample(state, 200, 99)
    rec2 = sample(state, 200, 99)
    assert rec1.outcomes == rec2.outcomes
    assert rec1.counts == rec2.counts
    # replicate the documented stream by hand: one uniform per shot,
    # inverse-CDF over cumulative probabilities in index order
    rng = np.random.default_rng(99)
    draws = rng.random(200)
    cumulative = np.cumsum(state.probabilities())
    indices = np.searchsorted(cumulative, draws, side="right")
    expected = tuple(format(int(i), "03b") for i in indices)
    assert rec1.outcomes == expected
    assert set(rec1.counts) <= {"000", "111"}


def test_sample_z_basis_statistics():
    rec = sample(ghz_state("+"), 10000, 3)
    p, n = 0.5, 10000
    sigma = math.sqrt(n * p * (1 - p))
    assert abs(rec.counts["000"] - n * p) < 5 * sigma


def test_sample_rotated_basis():
    rec = sample(ghz_state("+"), 500, 17, basis="yyy")
    assert all(out.count("1") % 2 == 1 for out in rec.outcomes)
    with pytest.raises(ContractViolationError):
        sample(ghz_state("+"), 10, 1, basis="ab")
    with pytest.raises(ContractViolationError):
        sample(ghz_state("+"), -1, 1)


def test_sample_requires_a_seed():
    for basis in ("zzz", "yyy"):
        with pytest.raises(ContractViolationError, match="seed"):
            sample(ghz_state("+"), 10, None, basis=basis)


@pytest.mark.parametrize("shots, seed", [
    (2.5, 1), (True, 1), ("10", 1), (10, 1.5), (10, True), (10, -3),
])
def test_sample_rejects_non_integer_shots_and_bad_seeds(shots, seed):
    with pytest.raises(ContractViolationError):
        sample(ghz_state("+"), shots, seed)


def test_sample_accepts_numpy_integers():
    assert sample(ghz_state("+"), np.int64(50), np.uint32(4)) == sample(ghz_state("+"), 50, 4)


@pytest.mark.parametrize("shots", [
    0, _SHOT_CHUNK - 1, _SHOT_CHUNK, _SHOT_CHUNK + 1, 2 * _SHOT_CHUNK + 3,
])
def test_sample_chunks_reproduce_one_call_stream(shots):
    # a state with a different weight on each of the eight outcomes
    amps = np.sqrt(np.arange(1.0, 9.0)) * np.exp(1j * np.arange(8.0))
    state = StateVector(amps / np.linalg.norm(amps))
    seed = 2024
    rec = sample(state, shots, seed, basis="xyz")
    probs = _readout_probabilities(state, "xyz")
    draws = np.random.default_rng(seed).random(shots)
    indices = np.minimum(np.searchsorted(np.cumsum(probs / probs.sum()), draws, side="right"), 7)
    expected = np.bincount(indices, minlength=8)
    assert rec.counts == {format(i, "03b"): int(n) for i, n in enumerate(expected) if n}
    assert list(rec.counts) == sorted(rec.counts)
    assert rec.outcomes == tuple(format(int(i), "03b") for i in indices)
    if shots > _SHOT_CHUNK:
        assert len(rec.counts) == 8


def _lookup_counts(draws, cumulative):
    # the inverse-CDF lookup the tally must reproduce, clamp included
    indices = np.minimum(np.searchsorted(cumulative, draws, side="right"), 7)
    return np.bincount(indices, minlength=8)


def test_tally_sends_a_draw_on_an_edge_up():
    cumulative = (0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0)
    draws = np.array(cumulative[:7] + (0.0,))
    assert _tally(draws, cumulative).tolist() == [1, 1, 1, 1, 1, 1, 1, 1]
    assert _tally(np.nextafter(draws, 0.0), cumulative).tolist() == [2, 1, 1, 1, 1, 1, 1, 0]


def test_tally_puts_draws_past_the_last_edge_on_index_7():
    # rounding can leave the last cumulative entry just below 1.0
    last = np.nextafter(1.0, 0.0)
    cumulative = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, np.nextafter(last, 0.0))
    draws = np.array([0.05, 0.75, last, 1.0])
    assert _tally(draws, cumulative).tolist() == [1, 0, 0, 0, 0, 0, 0, 3]
    assert _tally(draws, cumulative).tolist() == _lookup_counts(draws, cumulative).tolist()


def test_tally_skips_zero_probability_outcomes():
    # zero weights on 001, 010, 101 and 111 give duplicate edges
    cumulative = (0.25, 0.25, 0.25, 0.5, 0.75, 0.75, 1.0, 1.0)
    draws = np.array([0.0, 0.25, 0.3, 0.5, 0.6, 0.75, 0.9, 0.25])
    assert _tally(draws, cumulative).tolist() == [1, 0, 0, 3, 2, 0, 2, 0]
    assert _tally(draws, cumulative).tolist() == _lookup_counts(draws, cumulative).tolist()


def test_tally_with_an_edge_at_one():
    # a cumulative table that reaches 1.0 before its last entry
    cumulative = (0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    draws = np.array([0.5, np.nextafter(1.0, 0.0), 0.0, 1.0])
    assert _tally(draws, cumulative).tolist() == [1, 2, 0, 0, 0, 0, 0, 1]
    assert _tally(draws, cumulative).tolist() == _lookup_counts(draws, cumulative).tolist()
    assert _tally(np.array([]), cumulative).tolist() == [0] * 8


def test_tally_of_a_stream_chunk_with_leading_zero_edges():
    # the + state's yyy table starts at the edge 0.0, which is not compared
    cumulative = tuple(np.cumsum(_readout_probabilities(ghz_state("+"), "yyy")).tolist())
    assert cumulative[0] == 0.0
    draws = next(_draw_stream(_SHOT_CHUNK, 17))
    assert _tally(draws, cumulative).tolist() == _lookup_counts(draws, cumulative).tolist()
    # two zero edges, a draw of exactly 0.0 and a signed zero
    cumulative = (0.0, -0.0, 0.25, 0.25, 0.5, 0.75, 0.75, 1.0)
    draws = np.append(draws, [0.0, 0.0])
    assert _tally(draws, cumulative).tolist() == _lookup_counts(draws, cumulative).tolist()
    assert _tally(draws, cumulative)[:2].tolist() == [0, 0]


@settings(max_examples=25, derandomize=True, deadline=None)
@given(weights=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=8, max_size=8)
       .filter(lambda w: sum(w) > 0.0),
       shots=st.integers(_SHOT_CHUNK - 3, 2 * _SHOT_CHUNK + 3),
       seed=st.integers(0, 2**63 - 1))
def test_sample_counts_match_the_inverse_cdf_lookup(weights, shots, seed):
    amps = np.sqrt(np.array(weights))
    state = StateVector(amps / np.linalg.norm(amps))
    rec = sample(state, shots, seed)
    probs = _readout_probabilities(state, "zzz")
    draws = np.random.default_rng(seed).random(shots)
    expected = _lookup_counts(draws, np.cumsum(probs / probs.sum()))
    assert rec.counts == {format(i, "03b"): int(n) for i, n in enumerate(expected) if n}
    assert Counter(rec.outcomes) == rec.counts


def test_sample_memory_is_flat_in_the_shot_count():
    tracemalloc.start()
    try:
        rec = sample(ghz_state("+"), 10**6, 12)
        counts = rec.counts
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(counts.values()) == 10**6
    assert peak < 8e6
    # the record holds no array field, so records still compare with ==,
    # also after one of them has replayed its outcomes
    a = verify_ghz(shots=100, seed=1)
    b = verify_ghz(shots=100, seed=1)
    assert a == b
    assert len(a.counts.outcomes) == 100
    assert a == b


def test_readout_rotations_diagonalize_their_pauli():
    # S_a sigma_a S_a^dag = sigma_z: a z readout after S_a measures sigma_a
    for axis, s in _ROTATION_2X2.items():
        assert np.max(np.abs(s.conj().T @ s - np.eye(2))) < 1e-14
        conj = s @ _PAULI_2X2[axis] @ s.conj().T
        assert np.max(np.abs(conj - _PAULI_2X2["z"])) < 1e-14


def test_readout_probabilities_place_each_axis_on_its_qubit():
    # the sigma_a eigenstate on one qubit (|0> elsewhere) reads bit 0 for
    # eigenvalue +1 and bit 1 for -1, at that qubit's position
    zero = np.array([1.0, 0.0], dtype=complex)
    for axis in "xyz":
        values, vectors = np.linalg.eigh(_PAULI_2X2[axis])
        for qubit in (1, 2, 3):
            basis = "".join(axis if q == qubit else "z" for q in (1, 2, 3))
            for value, vec in zip(values, vectors.T):
                factors = [vec if q == qubit else zero for q in (1, 2, 3)]
                state = StateVector(np.kron(np.kron(factors[0], factors[1]), factors[2]))
                probs = _readout_probabilities(state, basis)
                index = 0 if value > 0 else 1 << (3 - qubit)
                assert probs[index] == pytest.approx(1.0, abs=1e-14)
