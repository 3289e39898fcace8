"""Electrostatics and control-parameter derivation for a chain of three
capacitively coupled Cooper-pair boxes.

Boxes are numbered 1..3 left to right.  Box j carries a split Josephson
junction (total capacitance ``c_junction[j-1]``), a voltage gate
(``c_gate[j-1]``), and neighbouring boxes are joined by coupling capacitors:
``c_coupler[0]`` between boxes 1-2 and ``c_coupler[1]`` between boxes 2-3.
All capacitances are in attofarads.

Energies everywhere in this package are ordinary frequencies in GHz (energy
divided by the Planck constant) and times are in ns, so an evolution phase is
2*pi*E*t with no leftover unit constants.  The physical constants below are
confined to this module.
"""

import math
import warnings

import numpy as np

from .errors import (
    ContractViolationError,
    DegenerateControlError,
    GateChargeRangeWarning,
    UnphysicalNetworkError,
    _duration,
    _entries,
    _positive,
    _real,
    _reals,
    _record,
)

# CODATA exact values (SI).
ELEMENTARY_CHARGE = 1.602176634e-19  # C
PLANCK_CONSTANT = 6.62607015e-34  # J s

# e^2 divided by one attofarad, expressed in GHz.  Single conversion point
# between SI electrostatics and the GHz/ns unit system used downstream.
_E2_PER_AF_GHZ = ELEMENTARY_CHARGE**2 / 1e-18 / (PLANCK_CONSTANT * 1e9)

_COND_LIMIT = 1e12
_CROSSTALK_THRESHOLD = 0.05


@_record
class CapacitanceNetwork:
    """Capacitance values of the three-box chain, all in aF.

    Junction and gate capacitances must be strictly positive.  Coupler
    capacitances may be zero, which switches the corresponding inter-qubit
    coupling off entirely.
    """

    c_junction: tuple
    c_gate: tuple
    c_coupler: tuple

    def __post_init__(self):
        for name, length in (("c_junction", 3), ("c_gate", 3), ("c_coupler", 2)):
            object.__setattr__(self, name, _reals(getattr(self, name), name, length,
                                                  UnphysicalNetworkError))
        for name in ("c_junction", "c_gate"):
            for i, c in enumerate(getattr(self, name)):
                _positive(c, f"{name}[{i}]", UnphysicalNetworkError)
        for i, c in enumerate(self.c_coupler):
            if c < 0.0:
                raise UnphysicalNetworkError(f"c_coupler[{i}]: must be >= 0, got {c}")


@_record
class EffectiveCapacitances:
    """Screened capacitances of the coupled network.

    ``c_pair_*`` entries are the effective capacitances controlling the
    inter-qubit couplings; they are ``math.inf`` when the corresponding
    coupler is absent, which makes the coupling energy exactly zero.
    """

    c_sigma: tuple
    c_det: float
    c_sigma_eff: tuple
    c_pair_12: float
    c_pair_23: float
    c_pair_13: float


@_record
class ControlSettings:
    """External controls: reduced gate charges, reduced fluxes, and the
    maximum single-junction Josephson energies eps_j in GHz.

    Gate charges are dimensionless offsets in [0, 1]; flux is in units of the
    flux quantum and enters only through cos(pi * flux), evaluated as given.
    """

    gate_charge: tuple
    flux: tuple
    epsilon_j: tuple

    def __post_init__(self):
        for name in ("gate_charge", "flux", "epsilon_j"):
            object.__setattr__(self, name, _reals(getattr(self, name), name, 3,
                                                  UnphysicalNetworkError))
        for i, n in enumerate(self.gate_charge):
            if not 0.0 <= n <= 1.0:
                raise UnphysicalNetworkError(f"gate_charge[{i}]: must lie in [0, 1], got {n}")
        for i, e in enumerate(self.epsilon_j):
            _positive(e, f"epsilon_j[{i}]", UnphysicalNetworkError)
        for name, scale, term in (("flux", math.pi, "pi * flux"), ("epsilon_j", 2.0, "2 * eps_j")):
            for i, v in enumerate(getattr(self, name)):
                if not math.isfinite(scale * v):
                    raise UnphysicalNetworkError(f"{name}[{i}]: must keep {term} finite, got {v}")


@_record
class DerivedEnergies:
    """All energies (GHz) needed to assemble the three-qubit Hamiltonian.

    ``e_c`` are the effective charging energies multiplying sigma_z/2,
    ``e_j`` the current Josephson energies multiplying sigma_x/2, ``ej_max``
    the flux-off maxima 2*eps_j, and ``k12``/``k23``/``k13`` the ZZ coupling
    strengths.  The perturbation ratios ``zeta12``/``zeta23`` are read off
    the couplings, never stored beside them.

    Every field is read as a non-bool real, infinities kept (a driven entry
    point refuses them under the field's name), and stored as a float (the
    triples as tuples of three floats) with -0.0 stored as 0.0, so a device
    is hashable, and two devices that compare equal hold the same bits.
    """

    e_c: tuple
    e_j: tuple
    ej_max: tuple
    k12: float
    k23: float
    k13: float

    def __post_init__(self):
        for name in ("e_c", "e_j", "ej_max"):
            object.__setattr__(self, name, tuple([
                (v if type(v) is float else _real(v, f"{name}[{i}]")) + 0.0
                for i, v in enumerate(_entries(getattr(self, name), name, 3))]))
        for name in ("k12", "k23", "k13"):
            v = getattr(self, name)
            object.__setattr__(self, name, (v if type(v) is float else _real(v, name)) + 0.0)

    @property
    def zeta12(self) -> float:
        """The perturbation ratio K12/(2*eps_j2) = k12 / ej_max[1]."""
        return self.k12 / _positive(self.ej_max[1], "ej_max[1]")

    @property
    def zeta23(self) -> float:
        """The perturbation ratio K23/(2*eps_j2) = k23 / ej_max[1]."""
        return self.k23 / _positive(self.ej_max[1], "ej_max[1]")


@_record
class CrosstalkReport:
    """Size of the next-nearest-neighbour coupling relative to the chain
    couplings, and whether neglecting it is justified (both ratios < 5%)."""

    ratio_12: float
    ratio_23: float
    threshold: float
    neglect_justified: bool
    uncoupled: bool


@_record
class TimingMargin:
    """Readout-timing check: measurement must finish well inside the
    characteristic coupling time t_c = 1/(2*pi*K)."""

    coupling: float
    t_c: float
    margin: float
    acceptable: bool


def effective_capacitances(network: CapacitanceNetwork) -> EffectiveCapacitances:
    """Screen the raw capacitances through the coupled network.

    The box self-capacitances C_sigma add junction, gate, and every attached
    coupler (the middle box sees both).  Inverting the network capacitance
    matrix yields screened self terms and pairwise terms; the 1-3 pair term
    appears even though boxes 1 and 3 share no capacitor, which is the origin
    of the residual next-nearest-neighbour coupling.
    """
    cj, cg, cm = network.c_junction, network.c_gate, network.c_coupler
    c12, c23 = cm
    c_sigma = (
        cj[0] + cg[0] + c12,
        cj[1] + cg[1] + c12 + c23,
        cj[2] + cg[2] + c23,
    )
    s1, s2, s3 = c_sigma
    try:
        c_det = s1 * s2 * s3 - c12**2 * s3 - c23**2 * s1
        if c_det <= 0.0:
            raise UnphysicalNetworkError(
                f"network determinant must be positive, got {c_det} aF^3; "
                "couplers are too large relative to the box capacitances"
            )
        c_sigma_eff = (
            s1 / (1.0 + c12**2 * s3 / c_det),
            c_det / (s1 * s3),
            s3 / (1.0 + c23**2 * s1 / c_det),
        )
        c_pair_12 = c_det / (s3 * c12) if c12 > 0.0 else math.inf
        c_pair_23 = c_det / (s1 * c23) if c23 > 0.0 else math.inf
        c_pair_13 = c_det / (c12 * c23) if c12 > 0.0 and c23 > 0.0 else math.inf
        # Only an absent coupler may leave its pair capacitance infinite.
        screened = (c_det, *c_sigma_eff, *(c for c, coupler in (
            (c_pair_12, c12), (c_pair_23, c23), (c_pair_13, min(cm))) if coupler > 0.0))
        representable = all(0.0 < c < math.inf for c in screened)
    except ArithmeticError:  # overflow of a square, or a product underflowing to zero
        representable = False
    if not representable:
        raise UnphysicalNetworkError(
            f"capacitances {cj}, {cg}, {cm} aF take the network screening out of "
            "floating-point range"
        )
    return EffectiveCapacitances(c_sigma, c_det, c_sigma_eff, c_pair_12, c_pair_23, c_pair_13)


def _charging_matrix(caps: EffectiveCapacitances) -> np.ndarray:
    """3x3 matrix mapping the offsets (2*n_g - 1) to charging energies in GHz."""
    s1, s2, s3 = caps.c_sigma_eff
    c = np.array([[s1, caps.c_pair_12, caps.c_pair_13],
                  [caps.c_pair_12, s2, caps.c_pair_23],
                  [caps.c_pair_13, caps.c_pair_23, s3]])
    return 2.0 * _E2_PER_AF_GHZ / c


def derive_energies(network: CapacitanceNetwork, settings: ControlSettings) -> DerivedEnergies:
    """Turn capacitances and control settings into Hamiltonian energies.

    Charging energies mix all three gate offsets through the screened
    capacitance matrix; coupling energies are e^2 over the pairwise screened
    capacitances; Josephson energies are 2 * eps_j * cos(pi * flux).
    """
    caps = effective_capacitances(network)
    m = _charging_matrix(caps)
    offsets = np.array([2.0 * n - 1.0 for n in settings.gate_charge])
    e_c = tuple(float(v) for v in m @ offsets)
    k12 = _E2_PER_AF_GHZ / caps.c_pair_12
    k23 = _E2_PER_AF_GHZ / caps.c_pair_23
    k13 = _E2_PER_AF_GHZ / caps.c_pair_13
    e_j = tuple(
        2.0 * eps * math.cos(math.pi * phi)
        for eps, phi in zip(settings.epsilon_j, settings.flux)
    )
    ej_max = tuple(2.0 * eps for eps in settings.epsilon_j)
    return DerivedEnergies(e_c, e_j, ej_max, k12, k23, k13)


def crosstalk_ratio(energies: DerivedEnergies) -> CrosstalkReport:
    """Compare the 1-3 coupling against both chain couplings."""
    if energies.k12 <= 0.0 or energies.k23 <= 0.0:
        return CrosstalkReport(math.inf, math.inf, _CROSSTALK_THRESHOLD, False, True)
    r12 = energies.k13 / energies.k12
    r23 = energies.k13 / energies.k23
    justified = r12 < _CROSSTALK_THRESHOLD and r23 < _CROSSTALK_THRESHOLD
    return CrosstalkReport(r12, r23, _CROSSTALK_THRESHOLD, justified, False)


def solve_gate_charges(network: CapacitanceNetwork, target_e_c) -> tuple:
    """Invert the charging relation: find gate charges realizing target E_C.

    Returns the raw solution even when it leaves the physical window [0, 1],
    in which case a GateChargeRangeWarning is emitted.  Raises
    DegenerateControlError if the charging matrix cannot be inverted.
    """
    target = np.array(_reals(target_e_c, "target_e_c", 3))
    m = _charging_matrix(effective_capacitances(network))
    cond = np.linalg.cond(m)
    if not math.isfinite(cond) or cond > _COND_LIMIT:
        raise DegenerateControlError(
            f"charging matrix is numerically singular (condition number {cond:.3e})"
        )
    offsets = np.linalg.solve(m, target)
    charges = tuple(float((x + 1.0) / 2.0) for x in offsets)
    if any(not 0.0 <= n <= 1.0 for n in charges):
        warnings.warn(
            f"solved gate charges {charges} leave the physical window [0, 1]",
            GateChargeRangeWarning,
            stacklevel=2,
        )
    return charges


def readout_timing_margin(k_coupling: float, t_measure: float) -> TimingMargin:
    """Check t_measure against the coupling time t_c = 1/(2*pi*K).

    K in GHz, times in ns.  margin = t_measure / t_c must stay below 1 for
    the two-step readout argument to hold; the estimate is order-of-magnitude.
    """
    k_coupling = _positive(k_coupling, "k_coupling")
    t_measure = _duration(t_measure, "t_measure")
    if not 2.0 * math.pi * k_coupling < math.inf:
        raise ContractViolationError(f"k_coupling: must keep 2 * pi * K finite, got {k_coupling}")
    t_c = 1.0 / (2.0 * math.pi * k_coupling)
    margin = t_measure / t_c
    return TimingMargin(k_coupling, t_c, margin, margin < 1.0)
