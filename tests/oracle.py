"""Closed-form propagators of the chain's pulses, for tests to check the
package's eigendecomposition against.  Written with numpy alone: nothing
here imports ghzsim, so the oracle cannot share a defect with the code
under test.

The chain Hamiltonian (GHz, qubit 1 the most significant basis bit, |0>
the +1 eigenstate of sigma_z) is

    H = sum_j [e_c_j * sigma_z_j - e_j_j * sigma_x_j] / 2
        + k12 sigma_z1 sigma_z2 + k23 sigma_z2 sigma_z3 + k13 sigma_z1 sigma_z3

and a pulse of t ns applies exp(-i * 2*pi * H * t).  A qubit with e_j = 0
keeps its sigma_z, so each sector of the undriven qubits' sigma_z values is
invariant.  In a sector each driven qubit sees H = -eps sigma_x + kappa
sigma_z, with eps = e_j / 2 and kappa its e_c / 2 plus its couplings to the
undriven qubits, and the undriven terms add a constant energy.  When no
coupling joins two driven qubits (one driven qubit, or the outer pair with
k13 off), the sector's propagator is that constant's phase times the
product of one closed-form 2x2 block per driven qubit.
"""

import math

import numpy as np

_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


def sector_propagator(eps: float, kappa: float, t: float) -> np.ndarray:
    """exp(-i * 2*pi * H * t) for H = -eps sigma_x + kappa sigma_z:
    cos(2*pi*r*t) I - i sin(2*pi*r*t) H / r, with r = hypot(eps, kappa)."""
    r = math.hypot(eps, kappa)
    if r == 0.0:
        return np.eye(2, dtype=complex)
    h = -eps * _SIGMA_X + kappa * _SIGMA_Z
    angle = 2.0 * math.pi * r * t
    return math.cos(angle) * np.eye(2) - 1j * math.sin(angle) * h / r


def _sign(index: int, qubit: int) -> int:
    """The sigma_z eigenvalue of qubit 0, 1 or 2 (0 leftmost) in a basis state."""
    return 1 - 2 * (index >> (2 - qubit) & 1)


def pulse_propagator(e_c, e_j, k12: float, k23: float, t: float, k13: float = 0.0) -> np.ndarray:
    """The 8x8 exp(-i * 2*pi * H * t) of the chain Hamiltonian above, in
    closed form.  Raises ValueError for a pulse whose driven qubits are
    coupled to each other, which has no such product form."""
    couplings = {(0, 1): k12, (1, 2): k23, (0, 2): k13}
    driven = [q for q in range(3) if e_j[q] != 0.0]
    if any(couplings[pair] != 0.0 for pair in couplings if set(pair) <= set(driven)):
        raise ValueError("no closed form: two driven qubits are coupled")
    idle = [q for q in range(3) if q not in driven]
    u = np.zeros((8, 8), dtype=complex)
    for row in range(8):
        for col in range(8):
            if any(_sign(row, q) != _sign(col, q) for q in idle):
                continue  # different sectors of the undriven qubits
            s = {q: _sign(row, q) for q in idle}
            energy = sum(0.5 * e_c[q] * s[q] for q in idle)
            energy += sum(k * s[a] * s[b] for (a, b), k in couplings.items() if a in s and b in s)
            entry = complex(math.cos(2.0 * math.pi * energy * t),
                            -math.sin(2.0 * math.pi * energy * t))
            for q in driven:
                kappa = 0.5 * e_c[q] + sum(k * s[p] for pair, k in couplings.items() if q in pair
                                           for p in pair if p in s)
                block = sector_propagator(0.5 * e_j[q], kappa, t)
                entry *= block[row >> (2 - q) & 1, col >> (2 - q) & 1]
            u[row, col] = entry
    return u
