"""Dense state-vector algebra for the three-qubit register.

Conventions fixed here and relied on everywhere else:

* Basis index of |q1 q2 q3> is 4*q1 + 2*q2 + q3, so qubit 1 is the most
  significant bit and |000> is index 0.
* |0> is the +1 eigenstate of sigma_z (sigma_z = diag(1, -1)); sigma_x is the
  standard flip and sigma_y = i * sigma_x * sigma_z, which reproduces the
  usual [[0, -i], [i, 0]].
* evolve(h, t, state) applies exp(-i * 2*pi * H * t): energies in GHz, times
  in ns, no extra unit constants.
"""

import math
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    ContractViolationError,
    InfeasiblePulseError,
    _choice,
    _complex_array,
    _count,
    _integer,
    _member,
    _real,
    _reals,
    _record,
)

N_QUBITS = 3
DIM = 8

_NORM_TOL = 1e-12
_HERMITIAN_TOL = 1e-12
_UNITARY_TOL = 1e-10
_PROJECT_TOL = 1e-12
# Shots are drawn this many at a time, so sampling memory stays flat in the
# shot count.  On 10**6 shots (2-CPU machine), chunks of 2**15 to 2**17
# timed alike at 5-7 ms; 2**12 took about 9-13 ms in per-chunk overhead and
# 2**18 about 8-10 ms.  2**16 keeps each chunk's draws at 0.5 MB.
_SHOT_CHUNK = 65536

_I2 = np.eye(2, dtype=complex)
_EYE = np.eye(DIM)
_EYE.flags.writeable = False
_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_SIGMA_Y = 1j * _SIGMA_X @ _SIGMA_Z
_PAULI_2X2 = {"x": _SIGMA_X, "y": _SIGMA_Y, "z": _SIGMA_Z}

# Basis-change matrices S_a with S_a sigma_a S_a^dag = sigma_z: a z readout
# performed after applying S_a realizes a sigma_a measurement, with outcome
# bit 0 corresponding to eigenvalue +1.
_S_X = (_SIGMA_Z + _SIGMA_X) / math.sqrt(2.0)
_S_Y = ((1.0 + 1.0j) * _I2 + (1.0 - 1.0j) * (_SIGMA_X + _SIGMA_Y + _SIGMA_Z)) / (
    2.0 * math.sqrt(2.0)
)
_ROTATION_2X2 = {"x": _S_X, "y": _S_Y, "z": _I2}


@_record(eq=False)
class StateVector:
    """Normalized 8-component complex amplitude vector.

    The amplitude array is copied, frozen read-only, and checked for unit
    norm at construction.  Every public function of this package that
    returns a state returns one of these; the steps inside a preparation or
    an interference sequence run on plain arrays, each passing the same norm
    test, and only the returned state is wrapped.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        arr = _complex_array(self.amplitudes, "amplitudes").reshape(-1)
        if arr.shape != (DIM,):
            raise ContractViolationError(f"state must have {DIM} amplitudes, got {arr.shape}")
        _check_norm(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "amplitudes", arr)

    @classmethod
    def basis(cls, label: str) -> "StateVector":
        """Computational basis state from a 3-bit string such as '010'."""
        return cls(_basis_amplitudes(label))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def _check_norm(amplitudes: np.ndarray) -> np.ndarray:
    """The unit-norm test of every state, wrapped or not: |norm^2 - 1| <= 1e-12,
    which a nan amplitude fails."""
    norm_sq = np.vdot(amplitudes, amplitudes).real
    if not abs(norm_sq - 1.0) <= _NORM_TOL:
        raise ContractViolationError(f"state norm^2 deviates from 1 by {norm_sq - 1.0:.3e}")
    return amplitudes


# The 3-bit labels in basis-index order: '000', '001', ..., '111'.
_BASIS_LABELS = tuple(format(i, "03b") for i in range(DIM))


def _basis_amplitudes(label: str) -> np.ndarray:
    """Read-only amplitudes of a computational basis state such as '010'."""
    amps = np.zeros(DIM, dtype=complex)
    amps[_BASIS_LABELS.index(_choice(label, "label", _BASIS_LABELS))] = 1.0
    amps.flags.writeable = False
    return amps


def ghz_state(sign: str = "+") -> StateVector:
    """(|000> + sign * i |111>) / sqrt(2)."""
    return StateVector(_pair_amplitudes(0b111, _parse_sign(sign) * 1.0j))


def _pair_amplitudes(index: int, coefficient: complex) -> np.ndarray:
    """Read-only amplitudes of (|000> + coefficient * |index>) / sqrt(2)."""
    amps = np.zeros(DIM, dtype=complex)
    amps[0] = 1.0 / math.sqrt(2.0)
    amps[index] = coefficient / math.sqrt(2.0)
    amps.flags.writeable = False
    return amps


def _parse_sign(sign) -> int:
    """+1 or -1 from the str '+'/'-' or an ``_integer`` 1/-1, and nothing else."""
    if isinstance(sign, str) and sign in ("+", "-"):
        return 1 if sign == "+" else -1
    if _integer(sign) and sign in (1, -1):
        return int(sign)
    raise ContractViolationError(f"sign must be '+' or '-', got {sign!r}")


@_record(eq=False)
class Operator:
    """Read-only 8x8 complex matrix.

    The hermiticity and unitarity flags (tolerances 1e-12 and 1e-10 in the
    max-entry norm) are computed on first use and cached; the matrix cannot
    change, so the cached values stay valid.
    """

    matrix: np.ndarray

    def __post_init__(self):
        mat = _complex_array(self.matrix, "matrix")
        if mat.shape != (DIM, DIM):
            raise ContractViolationError(f"operator must be {DIM}x{DIM}, got {mat.shape}")
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    @cached_property
    def hermitian(self) -> bool:
        return _hermitian_residual(self.matrix) < _HERMITIAN_TOL

    @cached_property
    def unitary(self) -> bool:
        mat = self.matrix
        return float(np.abs(mat.conj().T @ mat - _EYE).max()) < _UNITARY_TOL

    def __matmul__(self, other: "Operator") -> "Operator":
        return Operator(self.matrix @ other.matrix)


def _kron3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """a (x) b (x) c: a acts on qubit 1, the leftmost."""
    return np.kron(np.kron(a, b), c)


def _embed(single: np.ndarray, qubit: int) -> np.ndarray:
    """Place a 2x2 matrix on one qubit (1-based, qubit 1 leftmost)."""
    qubit = _member(qubit, "qubit", (1, 2, 3))
    factors = [_I2, _I2, _I2]
    factors[qubit - 1] = single
    return _kron3(*factors)


# The embedded Paulis depend only on (axis, qubit): build them once, read-only.
_PAULI_8X8 = {(axis, q): _embed(m, q) for axis, m in _PAULI_2X2.items() for q in (1, 2, 3)}
for _m in _PAULI_8X8.values():
    _m.flags.writeable = False

# The sigma_z eigenvalue of qubit q + 1 in each basis state (row q), read
# off the embedded Paulis: the one table of which bit is which qubit.
_Z_SIGNS = np.array([_PAULI_8X8["z", q].diagonal().real for q in (1, 2, 3)])
_Z_SIGNS.flags.writeable = False

# Where build_hamiltonian writes in a flat 8x8 matrix: each diagonal slot
# with the sigma_z eigenvalues z1, z2, z3, z1*z2, z2*z3 and z1*z3 of its
# basis state, and each slot that sigma_x on qubit q + 1 fills, with q.
_DIAGONAL_SIGNS = tuple((i * (DIM + 1), z1, z2, z3, z1 * z2, z2 * z3, z1 * z3)
                        for i, (z1, z2, z3) in enumerate(_Z_SIGNS.T.tolist()))
_FLIP_SLOTS = tuple((slot, q) for q in range(N_QUBITS)
                    for slot in np.flatnonzero(_PAULI_8X8["x", q + 1]).tolist())
# The same slots as index arrays, for _assemble to fill a whole stack at once:
# the diagonal slots, then the flip slots over the qubit each one reads.
_DIAGONAL_INDEX = np.array([slot for slot, *_ in _DIAGONAL_SIGNS])
_FLIP_INDEX = np.array(_FLIP_SLOTS).T


def pauli(axis: str, qubit: int) -> Operator:
    """Single-qubit Pauli operator embedded in the 8-dimensional register."""
    _choice(axis, "axis", tuple(_PAULI_2X2))
    qubit = _member(qubit, "qubit", (1, 2, 3))
    return Operator(_PAULI_8X8[axis, qubit])


def build_hamiltonian(e_c, e_j, k12: float, k23: float, k13: float = 0.0) -> Operator:
    """Three-qubit chain Hamiltonian in GHz.

    H = sum_j [E_C_j * sigma_z_j - E_J_j * sigma_x_j] / 2
        + K12 sigma_z1 sigma_z2 + K23 sigma_z2 sigma_z3 + K13 sigma_z1 sigma_z3

    The 1-3 term models the always-on next-nearest-neighbour coupling and is
    zero unless explicitly requested.  Finite energies whose diagonal sum
    leaves float range raise ContractViolationError.  The checked row is
    assembled by _assemble, as every chain Hamiltonian of the package is.
    """
    row = (_reals(e_c, "e_c", 3), _reals(e_j, "e_j", 3),
           _reals((k12, k23, k13), "(k12, k23, k13)", 3))
    return Operator(_assemble((row,))[0])


def _assemble(rows) -> np.ndarray:
    """The (n, 8, 8) complex stack of build_hamiltonian's matrices, one per
    row (e_c, e_j, (k12, k23, k13)) of finite floats already checked: the
    package's one assembly.  Each entry is computed in Python floats in the
    term order of the summed Pauli matrices, so the bytes are those of that
    sum, where a zero drive gives +0.0; the entries are then written into a
    zero stack.  The first row whose diagonal leaves float range raises
    ContractViolationError naming its e_c and couplings."""
    values = []
    for e_c, e_j, couplings in rows:
        c1, c2, c3 = (0.5 * c for c in e_c)
        k12, k23, k13 = couplings
        diagonal = [(((0.0 + c1 * z1) + c2 * z2) + c3 * z3) + ((k12 * z12 + k23 * z23) + k13 * z13)
                    for _, z1, z2, z3, z12, z23, z13 in _DIAGONAL_SIGNS]
        if not all(map(math.isfinite, diagonal)):
            raise ContractViolationError(f"Hamiltonian diagonal overflows float range for e_c = "
                                         f"{e_c} and (k12, k23, k13) = {couplings}")
        values += diagonal
        values += [0.0 - 0.5 * e for e in e_j]
    values = np.reshape(values, (-1, DIM + N_QUBITS))
    h = np.zeros((len(values), DIM * DIM), dtype=complex)
    h[:, _DIAGONAL_INDEX] = values[:, :DIM]
    h[:, _FLIP_INDEX[0]] = values[:, DIM + _FLIP_INDEX[1]]
    return h.reshape(-1, DIM, DIM)


def _hermitian_residual(stack: np.ndarray) -> float:
    """max |M - M^dag| over the entries of a matrix or of a stack of them."""
    return float(np.abs(stack - stack.swapaxes(-1, -2).conj()).max())


def _diagonalize(stack: np.ndarray, not_hermitian: str) -> tuple:
    """Eigenvalues w and eigenvectors v of each matrix in an (n, 8, 8)
    stack: the package's one diagonalization, with one Hermitian check over
    the whole stack and then one eigh call."""
    if not _hermitian_residual(stack) < _HERMITIAN_TOL:
        raise ContractViolationError(not_hermitian)
    return np.linalg.eigh(stack)


def _phases(w: np.ndarray, times) -> np.ndarray:
    """exp(-i * 2*pi * w * t) for each row of eigenvalues w and the matching
    entry t of ``times``, a non-bool real.  eigh sorts w, so each row's
    largest phase, in the exponent's product order, is read off the ends in
    Python floats, where overflow gives inf without a warning: if it leaves
    float range the pulse cannot be timed, and the first such row is named."""
    times = [_real(t, "t") for t in times]
    for t, (w_min, w_end) in zip(times, w[:, ::DIM - 1].tolist()):
        w_max = max(-w_min, w_end)
        if not math.isfinite(2.0 * math.pi * w_max * t):
            raise InfeasiblePulseError(f"a {t!r} ns pulse with eigenvalues up to {w_max!r} GHz "
                                       "cannot be timed in floating point")
    return np.exp(-2.0j * math.pi * w * np.array(times)[:, None])


def _propagators(stack: np.ndarray, times) -> np.ndarray:
    """exp(-i * 2*pi * H * t) for each H in an (n, 8, 8) stack and its t."""
    return _spectral_propagators(*_diagonalize(stack, "propagator requires a Hermitian generator"),
                                 times)


def _spectral_propagators(w: np.ndarray, v: np.ndarray, times) -> np.ndarray:
    """exp(-i * 2*pi * H_k * t_k) for each slice k of a diagonalized stack:
    the phases and products of _propagators, without its eigh."""
    return (v * _phases(w, times)[:, None, :]) @ v.conj().swapaxes(-1, -2)


def propagator(h: Operator, t: float) -> Operator:
    """exp(-i * 2*pi * H * t) computed by exact eigendecomposition."""
    return Operator(_propagators(h.matrix[None], (t,))[0])


def _evolve_spectral(w: np.ndarray, v: np.ndarray, times, amplitudes: np.ndarray) -> list:
    """The amplitude arrays after applying exp(-i * 2*pi * H_k * t_k) for
    each slice k of a diagonalized stack in turn, starting from
    ``amplitudes``: the one propagation path of evolve and the preparation,
    so a prepared schedule replayed segment by segment through evolve gives
    the prepared state bit for bit.  Each step passes the unit-norm test of
    StateVector; the callers wrap only the states they return."""
    trajectory = []
    for v_k, p_k in zip(v, _phases(w, times)):
        amplitudes = _check_norm(v_k @ (p_k * (v_k.conj().T @ amplitudes)))
        trajectory.append(amplitudes)
    return trajectory


def evolve(h: Operator, t: float, state: StateVector) -> StateVector:
    """Apply exp(-i * 2*pi * H * t) to the state."""
    w, v = _diagonalize(h.matrix[None], "evolve requires a Hermitian Hamiltonian")
    return StateVector(_evolve_spectral(w, v, (t,), state.amplitudes)[0])


def _require_unitary(*ops: Operator) -> None:
    """The unitarity check of apply, over every operator a sequence applies."""
    if not all(op.unitary for op in ops):
        raise ContractViolationError("apply requires a unitary operator")


def apply(op: Operator, state: StateVector) -> StateVector:
    """Apply a unitary operator to a state."""
    _require_unitary(op)
    return StateVector(op.matrix @ state.amplitudes)


def _project(amplitudes: np.ndarray, qubit: int, outcome: int) -> tuple:
    """project on amplitudes: (renormalized array, outcome probability),
    for a qubit and outcome already checked.  The renormalized array passes
    the unit-norm test."""
    amps = np.where(_Z_SIGNS[qubit - 1] == 1 - 2 * outcome, amplitudes, 0.0)
    prob = float((np.abs(amps) ** 2).sum())
    if prob < _PROJECT_TOL:
        raise ContractViolationError(
            f"outcome {outcome} on qubit {qubit} has probability {prob:.3e}; "
            "cannot condition on an impossible branch"
        )
    return _check_norm(amps / math.sqrt(prob)), prob


def project(state: StateVector, qubit: int, outcome: int):
    """Projective z measurement of one qubit.

    Returns (post-measurement state, outcome probability).  Conditioning on
    an outcome whose probability is below 1e-12 is an error: the caller asked
    for a branch that does not exist.
    """
    outcome = _member(outcome, "outcome", (0, 1))
    qubit = _member(qubit, "qubit", (1, 2, 3))
    amps, prob = _project(state.amplitudes, qubit, outcome)
    return StateVector(amps), prob


@_record
class MeasurementRecord:
    """Histogram of a sampled measurement, with its shots replayable in order.

    ``counts`` maps each observed 3-bit string to its multiplicity, keys
    sorted; it is tallied against the cumulative edges, which gives the
    histogram of the inverse-CDF lookup that ``outcomes`` replays.
    ``seed``, ``basis``, ``shots`` and ``cumulative`` (the normalized
    cumulative probabilities in basis-index order) reproduce the record.
    ``outcomes`` lists the shots in order; it is not stored but replayed
    from the same stream on first access, then cached.
    """

    counts: dict
    seed: int
    basis: str
    shots: int
    cumulative: tuple

    @cached_property
    def outcomes(self) -> tuple:
        return tuple(_BASIS_LABELS[i]
                     for chunk in _index_stream(self.cumulative, self.shots, self.seed)
                     for i in chunk.tolist())


def sample(state: StateVector, shots: int, seed: int, basis: str = "zzz") -> MeasurementRecord:
    """Draw measurement outcomes in a per-qubit Pauli basis.

    Randomness contract: a fresh numpy default_rng (PCG64) is created from
    ``seed``, one uniform is drawn per shot, and each uniform is converted
    to an outcome by inverse-CDF lookup over the cumulative Born
    probabilities in basis-index order.  The uniforms are drawn in chunks,
    which reproduces the stream of a single ``random(shots)`` call bit for
    bit, and only the histogram is kept: the draws below each cumulative
    edge are counted chunk by chunk and the counts are differenced once per
    call, which gives the same histogram as the inverse-CDF lookup.
    ``outcomes`` replays that lookup from the same stream when first read.
    Identical (state, shots, seed, basis) therefore reproduce identical
    records.  ``basis`` must be a ``str`` such as 'yxx' (qubit 1 leftmost),
    and ``shots`` and ``seed`` must be non-negative integers (not bools);
    anything else, a seed of None included, raises ContractViolationError.
    """
    _pauli_word(basis, "basis")
    return _sample_cumulative(_cumulative(_readout_probabilities(state, basis)), shots, seed,
                              basis)


def _pauli_word(word: str, name: str) -> None:
    """Refuse all but a ``str`` of 3 axes from 'xyz': sample's basis, a Mermin pattern."""
    if not isinstance(word, str) or len(word) != N_QUBITS or any(ch not in "xyz" for ch in word):
        raise ContractViolationError(f"{name} must be 3 characters from 'xyz', got {word!r}")


@lru_cache(maxsize=None)
def _readout_rotation(basis: str) -> np.ndarray:
    """The basis change S_a on each qubit (basis[0] on qubit 1), read-only;
    built once for each of the 27 bases."""
    rot = _kron3(*(_ROTATION_2X2[axis] for axis in basis))
    rot.flags.writeable = False
    return rot


def _readout_probabilities(state: StateVector, basis: str) -> np.ndarray:
    """Born probabilities, in basis-index order, of a z readout after the
    basis change S_a on each qubit (basis[0] on qubit 1)."""
    return np.abs(_readout_rotation(basis) @ state.amplitudes) ** 2


def _draw_stream(shots: int, seed: int):
    """The uniforms of the sampling stream, _SHOT_CHUNK shots at a time."""
    rng = np.random.default_rng(seed)
    for start in range(0, shots, _SHOT_CHUNK):
        yield rng.random(min(_SHOT_CHUNK, shots - start))


def _index_stream(cumulative: tuple, shots: int, seed: int):
    """Outcome indices of the sampling stream, one array per chunk: the
    inverse-CDF lookup, with draws at or past the last edge on DIM - 1."""
    edges = np.asarray(cumulative)
    for draws in _draw_stream(shots, seed):
        yield np.minimum(np.searchsorted(edges, draws, side="right"), DIM - 1)


def _cumulative(probs: np.ndarray) -> tuple:
    """The normalized cumulative table of probabilities in basis-index
    order, as MeasurementRecord.cumulative stores it: the one place a
    sampling table is built."""
    return tuple(np.cumsum(probs / probs.sum()).tolist())


def _tally(chunks, cumulative: tuple) -> list:
    """Outcome counts over the draw arrays ``chunks``, equal to the bincount
    of their _index_stream indices.  For non-decreasing edges, index <= k <
    DIM - 1 exactly when draw < cumulative[k], so each count is a difference
    of how many draws fall below consecutive edges; index DIM - 1 takes the
    rest, past-the-end draws included.  The draws lie in [0, 1): none falls
    below an edge at or below 0.0 and every one below an edge at or above
    1.0, so only the distinct edges strictly inside (0, 1) are compared,
    once per chunk, and the counts are differenced once, at the end."""
    edges = cumulative[:DIM - 1]
    inner = tuple({edge for edge in edges if 0.0 < edge < 1.0})
    counts = [0] * len(inner)
    total = 0
    for draws in chunks:
        total += draws.size
        counts = [n + int(np.count_nonzero(draws < edge)) for n, edge in zip(counts, inner)]
    below = dict(zip(inner, counts))
    running = [0, *(below.get(edge, total if edge >= 1.0 else 0) for edge in edges), total]
    return [b - a for a, b in zip(running, running[1:])]


def _sample_cumulative(cumulative: tuple, shots: int, seed: int,
                       basis: str) -> MeasurementRecord:
    """The sampling stream of sample(), over a table built by _cumulative:
    one PCG64 uniform per shot, tallied against the cumulative edges."""
    shots, seed = _count(shots, "shots"), _count(seed, "seed")
    totals = _tally(_draw_stream(shots, seed), cumulative)
    counts = {_BASIS_LABELS[i]: n for i, n in enumerate(totals) if n}
    return MeasurementRecord(counts, seed, basis, shots, cumulative)


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2."""
    return _fidelity(a.amplitudes, b.amplitudes)


def _fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """fidelity on amplitude arrays."""
    return float(abs(np.vdot(a, b)) ** 2)


def expectation(op: Operator, state: StateVector) -> float:
    """Real expectation value of a Hermitian operator."""
    if not op.hermitian:
        raise ContractViolationError("expectation requires a Hermitian operator")
    return float(np.vdot(state.amplitudes, op.matrix @ state.amplitudes).real)


def commutator_norm(a: Operator, b: Operator) -> float:
    """Max-entry norm of the commutator [A, B]."""
    comm = a.matrix @ b.matrix - b.matrix @ a.matrix
    return float(np.abs(comm).max())
