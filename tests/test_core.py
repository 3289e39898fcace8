"""State-vector algebra: conventions, evolution, measurement."""

import math

import numpy as np
import pytest

from ghzsim import (
    ContractViolationError,
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
)
from ghzsim.core import (
    _PAULI_2X2,
    _PAULI_8X8,
    _ROTATION_2X2,
    _ZZ_8X8,
    _embed,
    _readout_probabilities,
)


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
    rng = np.random.default_rng(20261018)
    for trial in range(6):
        e_c = tuple(rng.normal(size=3))
        e_j = tuple(rng.uniform(0.0, 10.0, size=3))
        k12, k23, k13 = rng.uniform(0.0, 0.5, size=3)
        if trial % 2:
            k13 = 0.0
        h = build_hamiltonian(e_c, e_j, k12, k23, k13).matrix
        assert np.array_equal(h, kron_hamiltonian(e_c, e_j, k12, k23, k13))


def test_pauli_table_matches_embedding_and_is_read_only():
    for axis, single in _PAULI_2X2.items():
        for qubit in (1, 2, 3):
            assert np.array_equal(pauli(axis, qubit).matrix, _embed(single, qubit))
    for mat in (*_PAULI_8X8.values(), *_ZZ_8X8.values()):
        assert not mat.flags.writeable
        with pytest.raises(ValueError):
            mat[0, 0] = 0.0
    with pytest.raises(ContractViolationError):
        pauli("w", 1)
    with pytest.raises(ContractViolationError):
        pauli("x", 0)


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


def test_norm_preserved_through_long_evolution():
    h = build_hamiltonian((0.5, -0.4, 0.9), (2.0, 3.0, 1.0), 0.8, 0.6, 0.1)
    state = ghz_state("+")
    for _ in range(50):
        state = evolve(h, 0.37, state)
    assert float(np.sum(np.abs(state.amplitudes) ** 2)) == pytest.approx(1.0, abs=1e-12)


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
