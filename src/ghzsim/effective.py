"""Second-order effective Hamiltonians for the interference pulses and the
error scan comparing them against the exact dynamics.

When a Josephson drive is switched on with the couplings still active, the
coupled chain behaves, to second order in zeta = K / (2 * eps_j), like a
renormalized single-qubit rotation.  Two contexts appear in the verification
sequence and each defines its own perturbation ratios:

* the middle qubit driven alone: zeta12 and zeta23 are both referred to the
  middle junction energy, and the rotation rate picks up a state-dependent
  piece proportional to sigma_z1 * sigma_z3;
* the two outer qubits driven together: each zeta is referred to its own
  junction energy, and the rates depend on the middle qubit's sigma_z.

Use the ``middle_qubit`` / ``outer_pair`` builders to populate the ratios for
the intended context.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .circuit import DerivedEnergies
from .core import Operator, build_hamiltonian, pauli, propagator
from .errors import ContractViolationError, InfeasiblePulseError

_SCAN_ZETA_LIMIT = 0.5


def _real(value, requirement: str) -> float:
    """``value`` as a float; bools and non-numbers break the contract, and
    the error states ``requirement``."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ContractViolationError(f"{requirement}, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class PerturbationParams:
    """Perturbation ratios and junction energies for one pulse context.

    Every provided zeta must satisfy zeta < 1 or the expansion is
    meaningless; the scan additionally restricts to zeta < 0.5.  Ratios not
    used by a context default to zero.
    """

    epsilon_j: tuple
    zeta12: float = 0.0
    zeta23: float = 0.0
    zeta32: float = 0.0

    def __post_init__(self):
        eps = tuple(_real(v, "epsilon_j entries must be real numbers") for v in self.epsilon_j)
        if len(eps) != 3 or not all(math.isfinite(e) and e > 0.0 for e in eps):
            raise ContractViolationError(f"epsilon_j must be 3 finite positive energies, "
                                         f"got {eps}")
        object.__setattr__(self, "epsilon_j", eps)
        for name in ("zeta12", "zeta23", "zeta32"):
            z = _real(getattr(self, name), f"{name} must be a real number")
            if not 0.0 <= z < 1.0:
                raise ContractViolationError(f"{name} must satisfy 0 <= zeta < 1, got {z}")
            object.__setattr__(self, name, z)

    @classmethod
    def _for_device(cls, eps: tuple, **zetas) -> "PerturbationParams":
        """Built from a device, a ratio >= 1 leaves no second-order pulse
        timing: an infeasible pulse, not a broken contract."""
        for name, z in zetas.items():
            if z >= 1.0:
                raise InfeasiblePulseError(f"the second-order pulse timing needs {name} < 1, "
                                           f"but the device gives {name} = {z}")
        return cls(eps, **zetas)

    @classmethod
    def middle_qubit(cls, energies: DerivedEnergies) -> "PerturbationParams":
        """Ratios for the middle-qubit drive: both referred to eps_j2."""
        eps = tuple(e / 2.0 for e in energies.ej_max)
        return cls._for_device(eps, zeta12=energies.k12 / (2.0 * eps[1]),
                               zeta23=energies.k23 / (2.0 * eps[1]))

    @classmethod
    def outer_pair(cls, energies: DerivedEnergies) -> "PerturbationParams":
        """Ratios for the simultaneous outer drive: each referred to its own
        junction energy."""
        eps = tuple(e / 2.0 for e in energies.ej_max)
        return cls._for_device(eps, zeta12=energies.k12 / (2.0 * eps[0]),
                               zeta32=energies.k23 / (2.0 * eps[2]))


def h_eff_qubit2(params: PerturbationParams) -> Operator:
    """Effective generator of the lone middle-qubit rotation.

    -eps_j2 * [(1 + 2*zeta12^2 + 2*zeta23^2) * sigma_x2
               + 4*zeta12*zeta23 * sigma_z1 sigma_x2 sigma_z3]
    """
    eps2 = params.epsilon_j[1]
    z12, z23 = params.zeta12, params.zeta23
    sx2 = pauli("x", 2).matrix
    sz1 = pauli("z", 1).matrix
    sz3 = pauli("z", 3).matrix
    h = -eps2 * ((1.0 + 2.0 * z12**2 + 2.0 * z23**2) * sx2
                 + 4.0 * z12 * z23 * (sz1 @ sx2 @ sz3))
    return Operator(h)


def tau2(params: PerturbationParams) -> float:
    """Quarter-rotation time of the middle qubit on the aligned subspace.

    On sigma_z1 sigma_z3 = +1 the effective rate is
    2*eps_j2*(1 + 2*zeta12^2 + 2*zeta23^2 + 4*zeta12*zeta23) and the pulse
    exp(i * pi * sigma_x2 / 4) takes one eighth of its period.
    """
    eps2 = params.epsilon_j[1]
    rate = 1.0 + 2.0 * params.zeta12**2 + 2.0 * params.zeta23**2 \
        + 4.0 * params.zeta12 * params.zeta23
    return 1.0 / (8.0 * eps2 * rate)


def h_eff_qubits13(params: PerturbationParams, qubit2_z: int = +1) -> Operator:
    """Effective generator of the simultaneous outer rotations, resolved on
    a sigma_z2 eigenvalue.

    -sum_j eps_j * (1 + 2 * zeta_j2^2 * z) * sigma_xj   for j in {1, 3}
    """
    if qubit2_z not in (+1, -1):
        raise ContractViolationError(f"qubit2_z must be +1 or -1, got {qubit2_z}")
    eps1, _, eps3 = params.epsilon_j
    h = -(eps1 * (1.0 + 2.0 * params.zeta12**2 * qubit2_z) * pauli("x", 1).matrix
          + eps3 * (1.0 + 2.0 * params.zeta32**2 * qubit2_z) * pauli("x", 3).matrix)
    return Operator(h)


def _h_eff_outer_operator(params: PerturbationParams) -> Operator:
    """Operator form of the outer-pair generator with sigma_z2 kept as an
    operator instead of a number."""
    eps1, _, eps3 = params.epsilon_j
    sx1, sx3 = pauli("x", 1).matrix, pauli("x", 3).matrix
    sz2 = pauli("z", 2).matrix
    h = -(eps1 * (sx1 + 2.0 * params.zeta12**2 * (sz2 @ sx1))
          + eps3 * (sx3 + 2.0 * params.zeta32**2 * (sz2 @ sx3)))
    return Operator(h)


def tau13(params: PerturbationParams) -> float:
    """Common quarter-rotation time of the outer pair on sigma_z2 = +1.

    Qubit 1's rate eps_j1 * (1 + 2*zeta12^2) sets the time;
    matched_outer_params gives qubit 3 the same rate.
    """
    rate1 = params.epsilon_j[0] * (1.0 + 2.0 * params.zeta12**2)
    return 1.0 / (8.0 * rate1)


def matched_outer_params(params: PerturbationParams) -> PerturbationParams:
    """Params with eps_j3 rescaled (zeta32 held fixed) so that qubit 3's rate
    eps_j3 * (1 + 2*zeta32^2) equals qubit 1's and both qubits complete the
    quarter rotation together; params whose rates already agree pass through."""
    eps1, eps2, eps3 = params.epsilon_j
    rate1 = eps1 * (1.0 + 2.0 * params.zeta12**2)
    rate3 = eps3 * (1.0 + 2.0 * params.zeta32**2)
    if abs(rate1 - rate3) <= 1e-12 * max(rate1, rate3):
        return params
    return replace(params, epsilon_j=(eps1, eps2, rate1 / (1.0 + 2.0 * params.zeta32**2)))


_GRID = np.linspace(-math.pi, math.pi, 721)
_PHASES = np.exp(1j * _GRID)[:, None]


def _phase_minimized_distance(a: np.ndarray, b: np.ndarray) -> float:
    """min over phi of the max-entry norm of A - e^{i phi} B.

    Entries that are zero in both matrices add exactly 0 to the max, so only
    the others are compared (the scan's propagators conserve sigma_z on the
    undriven qubits: 48 of 64 entries are zero for the middle drive, 16 for
    the outer pair); two zero matrices are 0.0 apart.  A deterministic
    721-point phase grid is evaluated in one broadcast into a single reused
    721 x n buffer, then the best grid cell is refined serially by 70
    golden-section steps; accurate to well below the norms compared here.
    """
    filled = (a != 0) | (b != 0)
    if not filled.any():
        return 0.0
    a, b = a[filled], b[filled]

    def dist(phi):
        return float(np.abs(a - np.exp(1j * phi) * b).max())

    grid = _PHASES * b
    np.subtract(a, grid, out=grid)
    values = np.abs(grid).max(axis=1)
    k = int(np.argmin(values))
    lo = _GRID[max(k - 1, 0)]
    hi = _GRID[min(k + 1, len(_GRID) - 1)]
    g = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - g * (hi - lo)
    d = lo + g * (hi - lo)
    fc, fd = dist(c), dist(d)
    for _ in range(70):
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - g * (hi - lo)
            fc = dist(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + g * (hi - lo)
            fd = dist(d)
    return min(float(values[k]), dist(0.5 * (lo + hi)))


def effective_error_scan(zeta_values, which: str = "middle"):
    """Exact-vs-effective propagator error at the pulse duration, per zeta.

    For each zeta (same value on both couplings, unit junction energies) the
    full chain Hamiltonian and the corresponding effective generator are
    propagated for the quarter-rotation time, and the max-entry norm of their
    difference, minimized over a global phase, is recorded.  Returns a tuple
    of (zeta, error) pairs.  ``zeta_values`` is an iterable (not a string) of
    real, non-bool numbers.
    """
    if which not in ("middle", "outer"):
        raise ContractViolationError(f"which must be 'middle' or 'outer', got {which!r}")
    try:
        zetas = None if isinstance(zeta_values, (str, bytes)) else tuple(zeta_values)
    except TypeError:
        zetas = None
    if zetas is None:
        raise ContractViolationError(f"zeta_values must be an iterable of numbers, "
                                     f"got {zeta_values!r}")
    for z in zetas:
        if not 0.0 <= _real(z, "scan zeta values must be real numbers") < _SCAN_ZETA_LIMIT:
            raise ContractViolationError(
                f"scan zeta values must satisfy 0 <= zeta < {_SCAN_ZETA_LIMIT}, got {float(z)}"
            )
    zetas = tuple(float(z) for z in zetas)
    table = []
    for z in zetas:
        if which == "middle":
            params = PerturbationParams((1.0, 1.0, 1.0), zeta12=z, zeta23=z)
            h_full = build_hamiltonian((0.0, 0.0, 0.0), (0.0, 2.0, 0.0),
                                       k12=2.0 * z, k23=2.0 * z)
            h_eff = h_eff_qubit2(params)
            t = tau2(params)
        else:
            params = PerturbationParams((1.0, 1.0, 1.0), zeta12=z, zeta32=z)
            h_full = build_hamiltonian((0.0, 0.0, 0.0), (2.0, 0.0, 2.0),
                                       k12=2.0 * z, k23=2.0 * z)
            h_eff = _h_eff_outer_operator(params)
            t = tau13(params)
        u_full = propagator(h_full, t)
        u_eff = propagator(h_eff, t)
        table.append((z, _phase_minimized_distance(u_full.matrix, u_eff.matrix)))
    return tuple(table)


def fitted_loglog_slope(table) -> float:
    """Least-squares slope of log(error) against log(zeta).

    Pairs with zeta = 0 or error = 0 carry no logarithmic information and are
    skipped; the usable pairs must span at least two distinct zeta values,
    since a line through points at one zeta has no defined slope.
    """
    pts = [(z, e) for z, e in table if z > 0.0 and e > 0.0]
    if len({z for z, _ in pts}) < 2:
        raise ContractViolationError("slope fit needs nonzero errors at two or more distinct "
                                     "nonzero zeta values")
    logs_z = np.log([z for z, _ in pts])
    logs_e = np.log([e for _, e in pts])
    return float(np.polyfit(logs_z, logs_e, 1)[0])
