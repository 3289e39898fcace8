"""Independent reference computations for the benchmark's output checks.

Nothing here imports ghzsim.  Every quantity is rebuilt from the documented
model with plain Kronecker products, scipy's matrix exponential and the
documented sampling stream, so a check built on these functions does not
trust the code it checks.  scipy is imported lazily, after the timed region,
so it never shows in the workload's peak memory.
"""

import math

import numpy as np

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


# e^2 / (1 aF) / h, in GHz: the charging-energy unit of the capacitance model.
E2_PER_AF_GHZ = 1.602176634e-19 ** 2 / 1e-18 / (6.62607015e-34 * 1e9)


def chain_couplings(c_junction, c_gate, c_coupler):
    """(K12, K23, K13) in GHz from the inverse Maxwell capacitance matrix of
    the three-box chain, all capacitances in aF."""
    c12, c23 = c_coupler
    sigma = [j + g for j, g in zip(c_junction, c_gate)]
    maxwell = np.array([[sigma[0] + c12, -c12, 0.0],
                        [-c12, sigma[1] + c12 + c23, -c23],
                        [0.0, -c23, sigma[2] + c23]])
    inverse = np.linalg.inv(maxwell)
    return tuple(E2_PER_AF_GHZ * inverse[a, b] for a, b in ((0, 1), (1, 2), (0, 2)))


def on_qubits(*factors):
    """Kronecker product of three 2x2 factors, qubit 1 leftmost."""
    out = np.ones((1, 1), dtype=complex)
    for f in factors:
        out = np.kron(out, f)
    return out


def single(matrix, qubit):
    factors = [I2, I2, I2]
    factors[qubit - 1] = matrix
    return on_qubits(*factors)


def hamiltonian(e_c, e_j, k12, k23, k13=0.0):
    """sum_j (E_C_j sz_j - E_J_j sx_j) / 2 + K12 sz1 sz2 + K23 sz2 sz3 + K13 sz1 sz3, GHz."""
    h = np.zeros((8, 8), dtype=complex)
    for j in range(3):
        h += 0.5 * e_c[j] * single(SZ, j + 1) - 0.5 * e_j[j] * single(SX, j + 1)
    h += k12 * on_qubits(SZ, SZ, I2) + k23 * on_qubits(I2, SZ, SZ) + k13 * on_qubits(SZ, I2, SZ)
    return h


def unitary(h, t_ns):
    """exp(-i 2 pi H t) by scipy's scaling-and-squaring Pade exponential."""
    from scipy.linalg import expm

    return expm(-2j * math.pi * t_ns * h)


def basis(index):
    psi = np.zeros(8, dtype=complex)
    psi[index] = 1.0
    return psi


def ghz(sign):
    """(|000> + s i |111>) / sqrt(2)."""
    s = 1.0 if sign == "+" else -1.0
    return (basis(0) + 1j * s * basis(7)) / math.sqrt(2.0)


def y_basis_probabilities(psi):
    """Born probabilities of a y readout on all three qubits.

    Outcome bit 0 is the +1 eigenvector (1, i)/sqrt(2) of sigma_y, bit 1 the
    -1 eigenvector (1, -i)/sqrt(2); outcomes are in basis-index order.
    """
    eig = [np.array([1, 1j]) / math.sqrt(2.0), np.array([1, -1j]) / math.sqrt(2.0)]
    probs = np.empty(8)
    for idx in range(8):
        bra = on_qubits(*(eig[(idx >> (2 - q)) & 1].reshape(2, 1) for q in range(3)))
        probs[idx] = abs(np.vdot(bra[:, 0], psi)) ** 2
    return probs


def _quarter(qubit):
    return unitary(-single(SX, qubit) / 8.0, 1.0)  # exp(i pi sx / 4)


def ideal_interference(psi):
    """Quarter-turn qubit 2, postselect it on 1, reset it, quarter-turn 1 and 3.

    Returns (final normalized state, postselection probability).
    """
    psi = _quarter(2) @ psi
    mask = np.array([(i >> 1) & 1 for i in range(8)], dtype=bool)
    psi = np.where(mask, psi, 0.0)
    p_post = float(np.sum(np.abs(psi) ** 2))
    psi = single(SX, 2) @ (psi / math.sqrt(p_post))
    psi = _quarter(1) @ (_quarter(3) @ psi)
    return psi, p_post


def mixture_probabilities():
    """z-readout distribution of the 50/50 |000>, |111> mixture after the
    ideal interference sequence, each branch weighted by its postselection."""
    runs = [ideal_interference(basis(i)) for i in (0, 7)]
    weights = np.array([0.5 * p for _, p in runs])
    probs = sum(w * np.abs(psi) ** 2 for w, (psi, _) in zip(weights / weights.sum(), runs))
    return probs


def stream_counts(probs, shots, seed):
    """Documented sampling stream: default_rng(seed).random(shots), then
    inverse CDF over the cumulative probabilities in index order.  Returns
    {3-bit label: count} for the outcomes that occur."""
    draws = np.random.default_rng(seed).random(shots)
    cumulative = np.cumsum(probs / probs.sum())
    idx = np.minimum(np.searchsorted(cumulative, draws, side="right"), 7)
    counts = np.bincount(idx, minlength=8)
    return {format(i, "03b"): int(c) for i, c in enumerate(counts) if c}


def phase_minimized_distance(a, b, grid_points=8193):
    """min over phi of max |A - e^{i phi} B|: a dense grid, then a bounded
    Brent refinement around the best grid point."""
    from scipy.optimize import minimize_scalar

    phis = np.linspace(-math.pi, math.pi, grid_points)
    diffs = a[None, :, :] - np.exp(1j * phis)[:, None, None] * b[None, :, :]
    values = np.abs(diffs).max(axis=(1, 2))
    k = int(np.argmin(values))
    step = phis[1] - phis[0]

    def dist(phi):
        return float(np.max(np.abs(a - np.exp(1j * phi) * b)))

    res = minimize_scalar(dist, bounds=(phis[k] - step, phis[k] + step), method="bounded",
                          options={"xatol": 1e-14})
    return min(float(values[k]), float(res.fun))


def scan_error(zeta, target):
    """Exact-vs-effective propagator error of the documented scan model.

    Unit junction energies, both couplings 2*zeta.  The middle context drives
    qubit 2 with H_eff = -[(1 + 4 z^2) sx2 + 4 z^2 sz1 sx2 sz3] for
    tau = 1 / (8 (1 + 8 z^2)); the outer context drives qubits 1 and 3 with
    H_eff = -[sx1 + 2 z^2 sz2 sx1 + sx3 + 2 z^2 sz2 sx3] for
    tau = 1 / (8 (1 + 2 z^2)).
    """
    z = float(zeta)
    k = 2.0 * z
    if target == "middle":
        h_full = hamiltonian((0, 0, 0), (0, 2, 0), k, k)
        h_eff = -((1 + 4 * z * z) * single(SX, 2) + 4 * z * z * on_qubits(SZ, SX, SZ))
        tau = 1.0 / (8.0 * (1.0 + 8.0 * z * z))
    else:
        h_full = hamiltonian((0, 0, 0), (2, 0, 2), k, k)
        sz2 = single(SZ, 2)
        h_eff = -(single(SX, 1) + 2 * z * z * sz2 @ single(SX, 1)
                  + single(SX, 3) + 2 * z * z * sz2 @ single(SX, 3))
        tau = 1.0 / (8.0 * (1.0 + 2.0 * z * z))
    return phase_minimized_distance(unitary(h_full, tau), unitary(h_eff, tau))
