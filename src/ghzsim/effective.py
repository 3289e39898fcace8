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
the intended context.  Each generator's coefficients are one rule in Python
floats and its matrices one numpy combination of the Pauli matrices over a
stack: the public builders take one row, and the error scan builds each
batch's generators once, as one stack, with no params or Operator per zeta.
"""

import math

import numpy as np

from .circuit import DerivedEnergies
from .core import _PAULI_8X8, _Z_SIGNS, Operator, _assemble, _propagators
from .errors import (
    _SCAN_TARGETS,
    ContractViolationError,
    InfeasiblePulseError,
    _choice,
    _items,
    _member,
    _positive,
    _ratio,
    _reals,
    _record,
    _zetas,
)

_SCAN_BATCH = 64  # zetas per stacked eigh and lock-step phase search, so memory stays bounded
# The charging energies of every interference pulse and scanned pulse, the
# scan's junction energies eps_j, and its drives: unit junction energies,
# with k12 = k23 = 2 * zeta.
_NO_BIAS = (0.0, 0.0, 0.0)
_UNIT = (1.0, 1.0, 1.0)
_SCAN_DRIVES = {"middle": (0.0, 2.0, 0.0), "outer": (2.0, 0.0, 2.0)}


@_record
class PerturbationParams:
    """Perturbation ratios and junction energies for one pulse context.

    Every provided zeta must satisfy zeta < 1 or the expansion is
    meaningless; the scan, which builds its generators without params,
    reads its zetas below 0.5.  Ratios not used by a context default to
    zero.
    """

    epsilon_j: tuple
    zeta12: float = 0.0
    zeta23: float = 0.0
    zeta32: float = 0.0

    def __post_init__(self):
        eps = _reals(self.epsilon_j, "epsilon_j", 3)
        for i, e in enumerate(eps):
            _positive(e, f"epsilon_j[{i}]")
        object.__setattr__(self, "epsilon_j", eps)
        for name in ("zeta12", "zeta23", "zeta32"):
            object.__setattr__(self, name, _ratio(getattr(self, name), name, 1.0))

    @classmethod
    def _for_device(cls, energies: DerivedEnergies, outer: bool) -> "PerturbationParams":
        """A device's params: eps_j = ej_max / 2, and the ratios of the outer
        pair's drive, each referred to its own junction energy, or of the
        middle drive, the device's own zeta12/zeta23 (both referred to
        eps_j2).  An ej_max entry that is not a finite positive number is
        refused under its own name.  A positive one whose half underflows to
        0.0, or a ratio >= 1, leaves no second-order pulse timing: an
        infeasible pulse, not a broken contract."""
        eps = tuple(e / 2.0 for e in energies.ej_max)
        for i, half in enumerate(eps):
            if not 0.0 < half < math.inf:
                e = _positive(energies.ej_max[i], f"ej_max[{i}]")
                raise InfeasiblePulseError(f"the second-order pulse timing needs eps_j > 0, but "
                                           f"ej_max[{i}] = {e!r} halves to {half!r}")
        if outer:
            zetas = {"zeta12": energies.k12 / (2.0 * eps[0]),
                     "zeta32": energies.k23 / (2.0 * eps[2])}
        else:
            zetas = {"zeta12": energies.zeta12, "zeta23": energies.zeta23}
        for name, z in zetas.items():
            if z >= 1.0:
                raise InfeasiblePulseError(f"the second-order pulse timing needs {name} < 1, "
                                           f"but the device gives {name} = {z}")
        return cls(eps, **zetas)

    @classmethod
    def middle_qubit(cls, energies: DerivedEnergies) -> "PerturbationParams":
        """Ratios for the middle-qubit drive: both referred to eps_j2, as
        the device's own zeta12/zeta23 are."""
        return cls._for_device(energies, outer=False)

    @classmethod
    def outer_pair(cls, energies: DerivedEnergies) -> "PerturbationParams":
        """Ratios for the simultaneous outer drive: each referred to its own
        junction energy."""
        return cls._for_device(energies, outer=True)


# sigma_z1 sigma_x2 sigma_z3, the state-dependent term of the middle drive
_SZ1_SX2_SZ3 = _PAULI_8X8["z", 1] @ _PAULI_8X8["x", 2] @ _PAULI_8X8["z", 3]
_SZ1_SX2_SZ3.flags.writeable = False


def _middle_terms(eps: tuple, z12: float, z23: float) -> tuple:
    """eps_j2 and the coefficients 1 + 2*zeta12^2 + 2*zeta23^2 of sigma_x2
    and 4*zeta12*zeta23 of sigma_z1 sigma_x2 sigma_z3 in the middle drive."""
    return eps[1], 1.0 + 2.0 * z12**2 + 2.0 * z23**2, 4.0 * z12 * z23


def _middle_stack(terms: list) -> np.ndarray:
    """The (n, 8, 8) stack of h_eff_qubit2's matrices, one per row of
    _middle_terms."""
    eps2, x2, zxz = np.array(terms).T[:, :, None, None]
    return -eps2 * (x2 * _PAULI_8X8["x", 2] + zxz * _SZ1_SX2_SZ3)


def _middle_time(terms: tuple) -> float:
    """tau2 of one row of _middle_terms."""
    eps2, x2, zxz = terms
    return _quarter_time(8.0 * eps2 * (x2 + zxz), "tau2")


def h_eff_qubit2(params: PerturbationParams) -> Operator:
    """Effective generator of the lone middle-qubit rotation.

    -eps_j2 * [(1 + 2*zeta12^2 + 2*zeta23^2) * sigma_x2
               + 4*zeta12*zeta23 * sigma_z1 sigma_x2 sigma_z3]
    """
    return Operator(_middle_stack([_middle_terms(params.epsilon_j, params.zeta12,
                                                 params.zeta23)])[0])


def tau2(params: PerturbationParams) -> float:
    """Quarter-rotation time of the middle qubit on the aligned subspace.

    On sigma_z1 sigma_z3 = +1 the effective rate is
    2*eps_j2*(1 + 2*zeta12^2 + 2*zeta23^2 + 4*zeta12*zeta23) and the pulse
    exp(i * pi * sigma_x2 / 4) takes one eighth of its period.
    """
    return _middle_time(_middle_terms(params.epsilon_j, params.zeta12, params.zeta23))


def _quarter_time(eight_rates: float, name: str) -> float:
    """1 / (8 * rate), which is 0.0 or inf once 8 * rate leaves float range."""
    t = 1.0 / eight_rates
    if not 0.0 < t < math.inf:
        raise InfeasiblePulseError(f"{name} = {t!r} ns cannot be timed in floating point")
    return t


def _outer_rates(eps: tuple, z12: float, z32: float, qubit2_z: int = +1) -> tuple:
    """Rotation rates eps_j * (1 + 2 * zeta_j2^2 * z) of qubits 1 and 3 on the
    sigma_z2 = z sector."""
    return eps[0] * (1.0 + 2.0 * z12**2 * qubit2_z), eps[2] * (1.0 + 2.0 * z32**2 * qubit2_z)


def _outer_stack(rates: list) -> np.ndarray:
    """The (n, 8, 8) stack of h_eff_qubits13's matrices, one per row of
    _outer_rates."""
    rate1, rate3 = np.array(rates).T[:, :, None, None]
    return -(rate1 * _PAULI_8X8["x", 1] + rate3 * _PAULI_8X8["x", 3])


def _outer_time(rates: tuple) -> float:
    """tau13 of one row of _outer_rates, on sigma_z2 = +1."""
    return _quarter_time(8.0 * rates[0], "tau13")


def h_eff_qubits13(params: PerturbationParams, qubit2_z: int = +1) -> Operator:
    """Effective generator of the simultaneous outer rotations, resolved on
    a sigma_z2 eigenvalue.

    -sum_j eps_j * (1 + 2 * zeta_j2^2 * z) * sigma_xj   for j in {1, 3}
    """
    qubit2_z = _member(qubit2_z, "qubit2_z", (1, -1))
    return Operator(_outer_stack([_outer_rates(params.epsilon_j, params.zeta12, params.zeta32,
                                               qubit2_z)])[0])


def tau13(params: PerturbationParams) -> float:
    """Common quarter-rotation time of the outer pair on sigma_z2 = +1.

    Qubit 1's rate eps_j1 * (1 + 2*zeta12^2) sets the time;
    matched_outer_params gives qubit 3 the same rate.
    """
    return _outer_time(_outer_rates(params.epsilon_j, params.zeta12, params.zeta32))


def matched_outer_params(params: PerturbationParams) -> PerturbationParams:
    """Params with eps_j3 rescaled (zeta32 held fixed) so that qubit 3's rate
    eps_j3 * (1 + 2*zeta32^2) equals qubit 1's and both qubits complete the
    quarter rotation together; params whose rates already agree pass through."""
    rate1, rate3 = _outer_rates(params.epsilon_j, params.zeta12, params.zeta32)
    if abs(rate1 - rate3) <= 1e-12 * max(rate1, rate3):
        return params
    eps1, eps2, _ = params.epsilon_j
    return PerturbationParams((eps1, eps2, rate1 / (1.0 + 2.0 * params.zeta32**2)),
                              params.zeta12, params.zeta23, params.zeta32)


def _interference_drives(energies: DerivedEnergies) -> tuple:
    """The interference pulses of a device as the second-order theory times
    them: the middle-drive params, the rate-matched outer params, the
    (e_c, e_j) drives of the middle and outer quarter rotations on the
    exact chain (full mode), and their durations (tau2, tau13)."""
    middle = PerturbationParams.middle_qubit(energies)
    outer = PerturbationParams.outer_pair(energies)
    times = (tau2(middle), tau13(outer))
    matched = matched_outer_params(outer)
    eps1, _, eps3 = matched.epsilon_j
    drives = ((_NO_BIAS, (0.0, energies.ej_max[1], 0.0)),
              (_NO_BIAS, (2.0 * eps1, 0.0, 2.0 * eps3)))
    return middle, matched, drives, times


_GRID = np.linspace(-math.pi, math.pi, 721)
_PHASES = np.exp(1j * _GRID)
# Distances from the 7 phases inside each 8-step grid cell to the cell's left edge.
_CELL_STEPS = np.arange(1, 8) * (_GRID[1] - _GRID[0])
# Rows with sigma_z2 = +1: the scan's outer generators take each row from the
# h_eff_qubits13 sector of that row's sigma_z2, in one np.where per batch.
_QUBIT2_UP = (_Z_SIGNS[1] > 0)[:, None]


def _phase_minimized_distances(a: np.ndarray, b: np.ndarray) -> list:
    """min over phi of the max-entry norm of A - e^{i phi} B for each pair of
    matrices in two (Z, n, n) stacks, as a list of Z floats.

    Entries that are zero in both matrices of every pair add exactly 0 to the
    max, so only the others are compared (the scan's propagators conserve
    sigma_z on the undriven qubits: 48 of 64 entries are zero for the middle
    drive, 16 for the outer pair); a pair of zero matrices is 0.0 apart.

    Each pair first takes the best phase of a deterministic 721-point grid,
    the first one if several tie.  f(phi) = max |A - e^{i phi} B| is
    Lipschitz with constant L = max|B|, since |e^{i phi} - e^{i psi}| <=
    |phi - psi|.  So every 8th grid phase is evaluated, and each phase
    between two of them gets the lower bound f(edge) - L * distance from
    both enclosing edges.  Only phases whose bound is at or below the
    smallest edge value m are evaluated; the rest are +inf.  A phase at the
    grid minimum has f <= m, so its bound is <= m too and it is evaluated,
    and a pruned phase has f > m: argmin finds the same first minimal index
    as over the whole grid, from the same values.  The bound is loosened by
    1e-9 on L and 1e-12 on f, far above the rounding of the values compared.
    The best grid cell is then refined by 70 golden-section steps, run for
    all pairs in lock-step with one batched evaluation per step; accurate to
    well below the norms compared here.
    """
    filled = ((a != 0) | (b != 0)).any(axis=0)
    if not filled.any():
        return [0.0] * len(a)
    # one row per compared entry, one column per pair
    a, b = a.transpose(1, 2, 0)[filled], b.transpose(1, 2, 0)[filled]

    def dist(phis):
        return np.maximum.reduce(np.abs(a - np.exp(1j * np.array(phis)) * b), 0).tolist()

    values = np.full((a.shape[1], len(_GRID)), np.inf)
    # pair by pair, so no temporary grows with the number of pairs
    coarse = values[:, ::8] = np.array([np.abs(x[:, None] - _PHASES[::8] * y[:, None]).max(axis=0)
                                        for x, y in zip(a.T, b.T)])
    lip = np.abs(b).max(axis=0)[:, None, None] * (1.0 + 1e-9)
    edges = coarse[..., None] * (1.0 - 1e-12)
    bound = np.maximum(edges[:, :-1] - lip * _CELL_STEPS, edges[:, 1:] - lip * _CELL_STEPS[::-1])
    pairs, cells, steps = np.nonzero(bound <= coarse.min(axis=1)[:, None, None])
    rows = 8 * cells + steps + 1
    values[pairs, rows] = np.abs(a[:, pairs] - _PHASES[rows] * b[:, pairs]).max(axis=0)
    k = np.argmin(values, axis=1)

    searches = [_golden_section(lo, hi) for lo, hi in
                zip(_GRID[np.maximum(k - 1, 0)].tolist(),
                    _GRID[np.minimum(k + 1, len(_GRID) - 1)].tolist())]
    points = [next(search) for search in searches]
    for _ in range(72):  # the second start point, 70 steps, then the midpoint
        points = [search.send(f) for search, f in zip(searches, dist(points))]
    return [min(v, f) for v, f in zip(values[range(len(k)), k].tolist(), dist(points))]


def _golden_section(lo: float, hi: float):
    """70 golden-section steps minimizing a function on [lo, hi], written as
    a generator so many searches can run in lock-step: it yields each phase
    to evaluate, is sent the value there, and yields the bracket's midpoint
    last."""
    g = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - g * (hi - lo)
    d = lo + g * (hi - lo)
    fc = yield c
    fd = yield d
    for _ in range(70):
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - g * (hi - lo)
            fc = yield c
        else:
            lo, c, fc = c, d, fd
            d = lo + g * (hi - lo)
            fd = yield d
    yield 0.5 * (lo + hi)


def effective_error_scan(zeta_values, which: str = "middle"):
    """Exact-vs-effective propagator error at the pulse duration, per zeta.

    For each zeta (same value on both couplings, unit junction energies) the
    full chain Hamiltonian and the corresponding effective generator are
    propagated for the quarter-rotation time, and the max-entry norm of their
    difference, minimized over a global phase, is recorded.  The zetas are
    taken _SCAN_BATCH at a time: a batch's exact generators are assembled in
    one call and its effective generators built once, as one stack
    (_scan_generators); both are propagated in one stacked call, then
    phase-searched in lock-step.
    Returns a tuple of (zeta, error) pairs.  ``zeta_values`` is an iterable
    (not a string) of real, non-bool numbers.
    """
    _choice(which, "which", _SCAN_TARGETS)
    zetas = _zetas(_items(zeta_values, "zeta_values", "numbers"), "zeta_values")
    table = []
    for start in range(0, len(zetas), _SCAN_BATCH):
        batch = zetas[start:start + _SCAN_BATCH]
        model, times = _scan_generators(batch, which)
        exact = _assemble([(_NO_BIAS, _SCAN_DRIVES[which], (2.0 * z, 2.0 * z, 0.0))
                           for z in batch])
        u = _propagators(np.concatenate((exact, model)), times + times)
        table += zip(batch, _phase_minimized_distances(u[:len(batch)], u[len(batch):]))
    return tuple(table)


def _scan_generators(zetas: tuple, which: str) -> tuple:
    """The effective generators of the scanned pulse at each zeta, as one
    (n, 8, 8) stack, and their durations: h_eff_qubit2 and tau2, or
    h_eff_qubits13 and tau13, on unit junction energies with both ratios
    zeta.  The outer generator takes each row from the sector of that row's
    sigma_z2."""
    if which == "middle":
        terms = [_middle_terms(_UNIT, z, z) for z in zetas]
        return _middle_stack(terms), [_middle_time(row) for row in terms]
    up = [_outer_rates(_UNIT, z, z, +1) for z in zetas]
    sectors = _outer_stack(up + [_outer_rates(_UNIT, z, z, -1) for z in zetas])
    return (np.where(_QUBIT2_UP, sectors[:len(zetas)], sectors[len(zetas):]),
            [_outer_time(row) for row in up])


def fitted_loglog_slope(table) -> float:
    """Least-squares slope of log(error) against log(zeta).

    Each entry is a (zeta, error) pair of finite reals.  Pairs with zeta = 0
    or error = 0 carry no logarithmic information and are skipped; the
    usable pairs must span at least two distinct zeta values, since a line
    through points at one zeta has no defined slope.
    """
    pairs = [_reals(pair, f"table[{i}]", 2)
             for i, pair in enumerate(_items(table, "table", "(zeta, error) pairs"))]
    pts = [(z, e) for z, e in pairs if z > 0.0 and e > 0.0]
    if len({z for z, _ in pts}) < 2:
        raise ContractViolationError("slope fit needs nonzero errors at two or more distinct "
                                     "nonzero zeta values")
    logs_z = np.log([z for z, _ in pts])
    logs_e = np.log([e for _, e in pts])
    return float(np.polyfit(logs_z, logs_e, 1)[0])
