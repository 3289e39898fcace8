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
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ContractViolationError

N_QUBITS = 3
DIM = 8

_NORM_TOL = 1e-12
_HERMITIAN_TOL = 1e-12
_UNITARY_TOL = 1e-10
_PROJECT_TOL = 1e-12

_I2 = np.eye(2, dtype=complex)
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


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized 8-component complex amplitude vector.

    The amplitude array is copied, frozen read-only, and checked for unit
    norm at construction; every operation in this package returns states that
    satisfy the same invariant.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        arr = np.array(self.amplitudes, dtype=complex, copy=True).reshape(-1)
        if arr.shape != (DIM,):
            raise ContractViolationError(f"state must have {DIM} amplitudes, got {arr.shape}")
        norm_sq = float(np.sum(np.abs(arr) ** 2))
        if abs(norm_sq - 1.0) > _NORM_TOL:
            raise ContractViolationError(f"state norm^2 deviates from 1 by {norm_sq - 1.0:.3e}")
        arr.flags.writeable = False
        object.__setattr__(self, "amplitudes", arr)

    @classmethod
    def basis(cls, label: str) -> "StateVector":
        """Computational basis state from a 3-bit string such as '010'."""
        idx = _basis_index(label)
        amps = np.zeros(DIM, dtype=complex)
        amps[idx] = 1.0
        return cls(amps)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def _basis_index(label: str) -> int:
    if len(label) != N_QUBITS or any(ch not in "01" for ch in label):
        raise ContractViolationError(f"basis label must be a 3-bit string, got {label!r}")
    return int(label, 2)


def basis_label(index: int) -> str:
    """Inverse of the basis indexing: 5 -> '101'."""
    if not 0 <= index < DIM:
        raise ContractViolationError(f"basis index must lie in [0, {DIM}), got {index}")
    return format(index, "03b")


def ghz_state(sign: str = "+") -> StateVector:
    """(|000> + sign * i |111>) / sqrt(2)."""
    s = _parse_sign(sign)
    amps = np.zeros(DIM, dtype=complex)
    amps[0] = 1.0 / math.sqrt(2.0)
    amps[7] = s * 1.0j / math.sqrt(2.0)
    return StateVector(amps)


def _parse_sign(sign) -> int:
    if sign in ("+", 1, +1):
        return 1
    if sign in ("-", -1):
        return -1
    raise ContractViolationError(f"sign must be '+' or '-', got {sign!r}")


@dataclass(frozen=True, eq=False)
class Operator:
    """Read-only 8x8 complex matrix.

    The hermiticity and unitarity flags (tolerances 1e-12 and 1e-10 in the
    max-entry norm) are computed on first use and cached; the matrix cannot
    change, so the cached values stay valid.
    """

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex, copy=True)
        if mat.shape != (DIM, DIM):
            raise ContractViolationError(f"operator must be {DIM}x{DIM}, got {mat.shape}")
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    @cached_property
    def hermitian(self) -> bool:
        mat = self.matrix
        return float(np.max(np.abs(mat - mat.conj().T))) < _HERMITIAN_TOL

    @cached_property
    def unitary(self) -> bool:
        mat = self.matrix
        return float(np.max(np.abs(mat.conj().T @ mat - np.eye(DIM)))) < _UNITARY_TOL

    def __matmul__(self, other: "Operator") -> "Operator":
        return Operator(self.matrix @ other.matrix)


def _check_qubit(qubit) -> None:
    if qubit not in (1, 2, 3):
        raise ContractViolationError(f"qubit index must be 1, 2 or 3, got {qubit}")


def _embed(single: np.ndarray, qubit: int) -> np.ndarray:
    """Place a 2x2 matrix on one qubit (1-based, qubit 1 leftmost)."""
    _check_qubit(qubit)
    factors = [_I2, _I2, _I2]
    factors[qubit - 1] = single
    return np.kron(np.kron(factors[0], factors[1]), factors[2])


# The embedded Paulis depend only on (axis, qubit): build them once, read-only.
_PAULI_8X8 = {(axis, q): _embed(m, q) for axis, m in _PAULI_2X2.items() for q in (1, 2, 3)}
_ZZ_8X8 = {(a, b): _PAULI_8X8["z", a] @ _PAULI_8X8["z", b] for a, b in ((1, 2), (2, 3), (1, 3))}
for _m in (*_PAULI_8X8.values(), *_ZZ_8X8.values()):
    _m.flags.writeable = False


def pauli(axis: str, qubit: int) -> Operator:
    """Single-qubit Pauli operator embedded in the 8-dimensional register."""
    if axis not in _PAULI_2X2:
        raise ContractViolationError(f"axis must be 'x', 'y' or 'z', got {axis!r}")
    _check_qubit(qubit)
    return Operator(_PAULI_8X8[axis, qubit])


def build_hamiltonian(e_c, e_j, k12: float, k23: float, k13: float = 0.0) -> Operator:
    """Three-qubit chain Hamiltonian in GHz.

    H = sum_j [E_C_j * sigma_z_j - E_J_j * sigma_x_j] / 2
        + K12 sigma_z1 sigma_z2 + K23 sigma_z2 sigma_z3 + K13 sigma_z1 sigma_z3

    The 1-3 term models the always-on next-nearest-neighbour coupling and is
    zero unless explicitly requested.
    """
    e_c = tuple(float(v) for v in e_c)
    e_j = tuple(float(v) for v in e_j)
    if len(e_c) != 3 or len(e_j) != 3:
        raise ContractViolationError("e_c and e_j must each have 3 entries")
    h = np.zeros((DIM, DIM), dtype=complex)
    for j in range(3):
        h += 0.5 * e_c[j] * _PAULI_8X8["z", j + 1]
        h -= 0.5 * e_j[j] * _PAULI_8X8["x", j + 1]
    h += k12 * _ZZ_8X8[1, 2] + k23 * _ZZ_8X8[2, 3] + k13 * _ZZ_8X8[1, 3]
    return Operator(h)


def propagator(h: Operator, t: float) -> Operator:
    """exp(-i * 2*pi * H * t) computed by exact eigendecomposition."""
    if not h.hermitian:
        raise ContractViolationError("propagator requires a Hermitian generator")
    w, v = np.linalg.eigh(h.matrix)
    u = (v * np.exp(-2.0j * math.pi * w * float(t))) @ v.conj().T
    return Operator(u)


def evolve(h: Operator, t: float, state: StateVector) -> StateVector:
    """Apply exp(-i * 2*pi * H * t) to the state."""
    if not h.hermitian:
        raise ContractViolationError("evolve requires a Hermitian Hamiltonian")
    w, v = np.linalg.eigh(h.matrix)
    amps = v @ (np.exp(-2.0j * math.pi * w * float(t)) * (v.conj().T @ state.amplitudes))
    return StateVector(amps)


def apply(op: Operator, state: StateVector) -> StateVector:
    """Apply a unitary operator to a state."""
    if not op.unitary:
        raise ContractViolationError("apply requires a unitary operator")
    return StateVector(op.matrix @ state.amplitudes)


def project(state: StateVector, qubit: int, outcome: int):
    """Projective z measurement of one qubit.

    Returns (post-measurement state, outcome probability).  Conditioning on
    an outcome whose probability is below 1e-12 is an error: the caller asked
    for a branch that does not exist.
    """
    if outcome not in (0, 1):
        raise ContractViolationError(f"outcome must be 0 or 1, got {outcome}")
    _check_qubit(qubit)
    shift = N_QUBITS - qubit
    indices = np.arange(DIM)
    mask = ((indices >> shift) & 1) == outcome
    amps = np.where(mask, state.amplitudes, 0.0)
    prob = float(np.sum(np.abs(amps) ** 2))
    if prob < _PROJECT_TOL:
        raise ContractViolationError(
            f"outcome {outcome} on qubit {qubit} has probability {prob:.3e}; "
            "cannot condition on an impossible branch"
        )
    return StateVector(amps / math.sqrt(prob)), prob


@dataclass(frozen=True)
class MeasurementRecord:
    """Outcome list and histogram of a sampled measurement.

    ``outcomes`` preserves shot order; ``counts`` maps each observed 3-bit
    string to its multiplicity, keys sorted; ``seed`` and ``basis`` make the
    record reproducible.
    """

    outcomes: tuple
    counts: dict
    seed: int
    basis: str


def sample(state: StateVector, shots: int, seed: int, basis: str = "zzz") -> MeasurementRecord:
    """Draw measurement outcomes in a per-qubit Pauli basis.

    Randomness contract: a fresh numpy default_rng (PCG64) is created from
    ``seed``, exactly ``shots`` uniforms are drawn in one vectorized call,
    and each uniform is converted to an outcome by inverse-CDF lookup over
    the cumulative Born probabilities in basis-index order.  Identical
    (state, shots, seed, basis) therefore reproduce identical records.  A
    seed of None raises ContractViolationError.
    """
    if len(basis) != N_QUBITS or any(ch not in "xyz" for ch in basis):
        raise ContractViolationError(f"basis must be 3 characters from 'xyz', got {basis!r}")
    return _sample_probabilities(_readout_probabilities(state, basis), shots, seed, basis)


def _readout_probabilities(state: StateVector, basis: str) -> np.ndarray:
    """Born probabilities, in basis-index order, of a z readout after the
    basis change S_a on each qubit (basis[0] on qubit 1)."""
    rot = np.kron(
        np.kron(_ROTATION_2X2[basis[0]], _ROTATION_2X2[basis[1]]), _ROTATION_2X2[basis[2]]
    )
    return np.abs(rot @ state.amplitudes) ** 2


def _sample_probabilities(probs: np.ndarray, shots: int, seed: int,
                          basis: str) -> MeasurementRecord:
    """The sampling stream of sample(), over probabilities in basis-index
    order (normalized here): one PCG64 uniform per shot, inverse-CDF lookup."""
    if shots < 0:
        raise ContractViolationError(f"shots must be non-negative, got {shots}")
    if seed is None:
        raise ContractViolationError("sampling requires a seed")
    rng = np.random.default_rng(seed)
    draws = rng.random(shots)
    cumulative = np.cumsum(probs / probs.sum())
    indices = np.minimum(np.searchsorted(cumulative, draws, side="right"), DIM - 1)
    outcomes = tuple(basis_label(int(i)) for i in indices)
    counts = {}
    for label in sorted(set(outcomes)):
        counts[label] = outcomes.count(label)
    return MeasurementRecord(outcomes, counts, int(seed), basis)


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2."""
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def expectation(op: Operator, state: StateVector) -> float:
    """Real expectation value of a Hermitian operator."""
    if not op.hermitian:
        raise ContractViolationError("expectation requires a Hermitian operator")
    return float(np.real(np.vdot(state.amplitudes, op.matrix @ state.amplitudes)))


def commutator_norm(a: Operator, b: Operator) -> float:
    """Max-entry norm of the commutator [A, B]."""
    comm = a.matrix @ b.matrix - b.matrix @ a.matrix
    return float(np.max(np.abs(comm)))
