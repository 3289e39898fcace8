"""Pulse schedules: timed control segments and the three-step entangling
sequence.

A schedule is a list of piecewise-constant segments.  Within a segment the
charging and Josephson energies are frozen and the state evolves under the
full 8-dimensional Hamiltonian; the coupling energies are fixed wiring
properties and stay on for the whole run.

The entangling sequence follows the standard conditional-rotation recipe for
a chain of three charge qubits:

1. a half/three-quarter rotation of the middle qubit splits |000> into a
   superposition of |000> and |010>;
2. a conditional flip of qubit 1, timed so the branch with the middle qubit
   excited performs a half-rotation (m = 0; more turns need a stronger drive)
   while the other branch closes an integer number of full rotations;
3. the same conditional flip on qubit 3.

Each conditional flip imprints a phase +i on the flipped branch, and the
charging energy of the middle qubit is biased during qubit 1's flip to cancel
the spectator coupling phase between the two branches; both details are
handled internally so only the requested target sign matters to callers.

This module times every pulse of a device as a labelled PulseSegment, the
three above and the interference quarter rotations of ghzsim.protocols,
and remembers the last device: its segments, one diagonalization of all
five, the interference pulses, the last preparation, and the refusal of a
part it cannot time, which _accepted raises anew.  Effective-mode pulses
are rebuilt on each call.
"""

import cmath
import functools
import math

import numpy as np

from .circuit import DerivedEnergies
from .core import (
    Operator,
    StateVector,
    _assemble,
    _basis_amplitudes,
    _diagonalize,
    _evolve_spectral,
    _fidelity,
    _pair_amplitudes,
    _parse_sign,
    _propagators,
    _spectral_propagators,
    build_hamiltonian,  # not called here; bench/test_bench.py reads pulses.build_hamiltonian
)
from .effective import _interference_drives, h_eff_qubit2, h_eff_qubits13
from .errors import (
    ContractViolationError,
    InfeasiblePulseError,
    _duration,
    _finite,
    _items,
    _positive,
    _reals,
    _record,
)

_RESIDUAL_TOL = 1e-9
# The largest phase (rad) a pulse may accumulate (_check_resolution): a
# double resolves 1e6 rad to about 1e-10 rad, below _RESIDUAL_TOL.
_PHASE_LIMIT = 1e6
_KET_000 = _basis_amplitudes("000")


@_record
class PulseSegment:
    """One piecewise-constant slice of a schedule: charging and Josephson
    energies ``e_c``/``e_j`` (GHz, 3 entries each) held for ``duration`` ns.
    """

    duration: float
    e_c: tuple
    e_j: tuple
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "duration", _duration(self.duration, "duration"))
        for name in ("e_c", "e_j"):
            object.__setattr__(self, name, _reals(getattr(self, name), name, 3))


@_record
class Schedule:
    """Ordered pulse segments plus the coupling energies (GHz) held for the
    whole run."""

    segments: tuple
    k12: float
    k23: float
    k13: float

    def __post_init__(self):
        segs = _items(self.segments, "segments", "PulseSegment instances")
        if not segs:
            raise ContractViolationError("schedule needs at least one segment")
        if not all(isinstance(s, PulseSegment) for s in segs):
            raise ContractViolationError("schedule segments must be PulseSegment instances")
        object.__setattr__(self, "segments", segs)

    def total_duration(self) -> float:
        return sum(s.duration for s in self.segments)


@_record
class FlipSolution:
    """Closed-form conditional-flip timing.

    ``e_j`` is the Josephson drive (GHz) and ``t`` the duration (ns); ``n``
    counts full rotations of the idle branch and ``m`` extra 2*pi advances of
    the driven branch, always 0 as each needs a stronger drive.  ``residuals``
    holds |sin(pi*e_j*t) - 1| and |cos(2*pi*gamma*t) - 1|; both must be < 1e-9.
    """

    e_j: float
    t: float
    m: int
    n: int
    residuals: tuple

    def __post_init__(self):
        r = _reals(self.residuals, "residuals", 2)
        if max(r) >= _RESIDUAL_TOL:
            raise ContractViolationError(f"flip residuals {r} exceed {_RESIDUAL_TOL}")
        object.__setattr__(self, "residuals", r)


@_record
class PreparationReport:
    """Diagnostics of one entangling run.

    ``intermediate_fidelities`` are overlaps with the ideal states after the
    superposition step and after the first flip; ``achieved_phase`` is the
    relative phase arg(amp_111) - arg(amp_000) of the final state, wrapped to
    (-pi, pi].
    """

    sign: str
    fidelity: float
    intermediate_fidelities: tuple
    achieved_phase: float
    superposition_time: float
    flip_solutions: tuple
    total_duration: float
    k13_included: bool


def solve_superposition_pulse(e_j2: float, sign: str = "+") -> float:
    """Duration of the middle-qubit rotation opening the superposition.

    The rotation angle is b = pi * e_j2 * t; sign '+' selects b = pi/4
    (t = 0.25 / e_j2) and '-' selects b = 3*pi/4 (t = 0.75 / e_j2), the two
    branches with |sin b| = 1/sqrt(2).
    """
    e_j2 = _positive(e_j2, "e_j2")
    t = 0.25 / e_j2 if _parse_sign(sign) == 1 else 0.75 / e_j2
    if not math.isfinite(t):
        raise InfeasiblePulseError(
            f"superposition pulse for e_j2 = {e_j2} GHz cannot be timed in floating point")
    return t


def solve_conditional_flip(k: float, e_j_max: float, max_n: int = 64) -> FlipSolution:
    """Timing of a conditional outer-qubit flip against coupling ``k``.

    Solves sin(pi * e_j * t) = 1 and cos(2*pi * gamma * t) = 1, gamma =
    sqrt((2k)^2 + (e_j / 2)^2): the driven branch advances by a = pi/2 while
    the idle branch closes n full rotations, so e_j = 4k / sqrt((4n)^2 - 1)
    and t = a / (pi * e_j) for the smallest n with e_j under ``e_j_max``.
    m is always 0: advancing 2*pi*m further caps n / (m + 1/4) below the
    4 * max_n of m = 0, so it always needs a stronger drive.  A k too small
    or too large to time in floating point is infeasible as well.
    """
    k = _positive(k, "k")
    e_j_max = _positive(e_j_max, "e_j_max")
    a = 0.5 * math.pi
    for n in range(1, max_n + 1):
        ratio_sq = (2.0 * math.pi * n / a) ** 2 - 1.0
        e_j = 4.0 * k / math.sqrt(ratio_sq)
        if e_j > e_j_max * (1.0 + 1e-12):
            continue
        t = a / (math.pi * e_j)
        if math.isfinite(t):
            try:
                gamma = math.sqrt((2.0 * k) ** 2 + (0.5 * e_j) ** 2)
                residuals = (
                    abs(math.sin(math.pi * e_j * t) - 1.0),
                    abs(math.cos(2.0 * math.pi * gamma * t) - 1.0),
                )
            except (OverflowError, ValueError):  # (2k)^2 or an angle out of float range
                residuals = (math.inf,)
            if max(residuals) < _RESIDUAL_TOL:
                return FlipSolution(e_j, t, 0, n, residuals)
        raise InfeasiblePulseError(
            f"conditional flip for k = {k} GHz cannot be timed in floating point")
    raise InfeasiblePulseError(
        f"no conditional flip with e_j <= {e_j_max} GHz found for k = {k} GHz "
        f"within n <= {max_n}"
    )


def _flip_segment(energies: DerivedEnergies, qubit: int):
    """Assemble the conditional-flip segment of qubit 1 or 3 plus its
    closed-form timing.

    The flipped qubit's charging energy is biased to 2*K (K = its coupling to
    the middle qubit) so the driven branch rotates resonantly.  Qubit 1 flips
    first, and during its flip the middle qubit's charging energy is biased
    to -2*K23 to cancel the relative phase the untouched coupling K23 would
    imprint between the two branches; after that flip the occupied branches
    agree on K23's energy, so qubit 3's flip needs no bias.
    """
    if qubit == 1:
        name, k_target, middle_bias = "k12", energies.k12, -2.0 * energies.k23
    else:
        name, k_target, middle_bias = "k23", energies.k23, 0.0
    if k_target <= 0.0:
        raise InfeasiblePulseError(f"conditional flip of qubit {qubit} needs coupling {name} "
                                   f"to the middle qubit, but {name} = {k_target} GHz")
    sol = solve_conditional_flip(k_target, energies.ej_max[qubit - 1])
    e_c, e_j = [0.0, middle_bias, 0.0], [0.0, 0.0, 0.0]
    e_c[qubit - 1], e_j[qubit - 1] = 2.0 * k_target, sol.e_j
    return PulseSegment(sol.t, tuple(e_c), tuple(e_j), f"conditional-flip-q{qubit}"), sol


def ghz_prepare(energies: DerivedEnergies, sign: str = "+", include_k13: bool = False):
    """Run the three-step entangling sequence from |000>: the superposition
    pulse on qubit 2, then the conditional flips of qubit 1 and qubit 3.

    Returns (final state, schedule, report).  ``sign`` selects the target
    (|000> + sign * i |111>) / sqrt(2).  ``include_k13`` keeps the residual
    next-nearest-neighbour coupling switched on during the run (the timings
    still neglect it, so the report shows the resulting fidelity deficit).
    Evolving |000> through the returned schedule one segment at a time, with
    build_hamiltonian and evolve, gives the same final state bit for bit.

    The two conditional flips each multiply the flipped branch by +i, so the
    superposition step internally uses the opposite-sign branch; the report
    records the realized relative phase.

    The last result is kept: a repeat call on the same device (equal
    energies, sign and ``include_k13``) returns the same immutable objects.
    The device memo keeps every pulse as a labelled PulseSegment, the three
    above and the full-mode interference pulses of verify_ghz and
    verify_mixture_control, with one stacked diagonalization of all five:
    the other sign only propagates again, and verifying builds nothing
    more.  A part that cannot be timed is kept as its refusal, which
    _accepted raises anew, as a fresh InfeasiblePulseError, on each call.
    """
    return _prepare(energies, _parse_sign(sign), bool(include_k13))


def _check_resolution(seg: PulseSegment, couplings: tuple) -> None:
    """Refuse a segment whose largest phase, bounded by 2*pi*sum(|E|)*t over
    its e_c, e_j and ``couplings`` and its duration t, exceeds _PHASE_LIMIT:
    floating point cannot resolve the phases that are meant to cancel."""
    t = seg.duration
    phase = 2.0 * math.pi * (sum(map(abs, seg.e_c + seg.e_j + couplings)) * t)
    if not phase <= _PHASE_LIMIT:
        raise InfeasiblePulseError(f"the {seg.label} pulse accumulates phases up to {phase!r} "
                                   f"rad in {t!r} ns, which cannot be resolved in floating point")


def _accepted(part: tuple):
    """A device-memo part's value, or a fresh InfeasiblePulseError of its refusal."""
    refusal, value = part
    if refusal is not None:
        raise InfeasiblePulseError(refusal)
    return value


def _device_couplings(energies: DerivedEnergies, include_k13: bool) -> tuple:
    """The couplings (k12, k23, k13 or 0.0) that the pulses hold, read as finite
    after every ``ej_max`` entry: a driven entry point reads these first."""
    _reals(energies.ej_max, "ej_max", 3)
    return (_finite(energies.k12, "k12"), _finite(energies.k23, "k23"),
            _finite(energies.k13, "k13") if include_k13 else 0.0)


@functools.lru_cache(maxsize=1)
def _device_sequence(energies: DerivedEnergies, include_k13: bool) -> tuple:
    """What the sign does not change, one device remembered: (preparation,
    pulses, couplings, w, v), each part a (refusal, value) pair read by
    _accepted.  ``preparation`` holds the superposition segment at its longer
    ('-') duration, its energies read before the flips are timed, both flip
    segments and their FlipSolutions; ``pulses`` the read-only full-mode
    interference pulses (u2, u13).  One assembly and one eigh of the
    accepted segments, preparation first, give the read-only ``w``, ``v`` of
    the (5, 8, 8) stack.  A refused part keeps only its message, so no error
    object or caller's frame outlives its call: a device without interference
    timing still prepares, and one without flips runs the mixture control."""
    ks = _device_couplings(energies, include_k13)
    e_c = _reals((0.0, -2.0 * (ks[0] + ks[1]), 0.0), "e_c", 3)
    e_j = (0.0, energies.ej_max[1], 0.0)
    try:
        (seg_f1, sol1), (seg_f3, sol3) = _flip_segment(energies, 1), _flip_segment(energies, 3)
        t_longest = solve_superposition_pulse(energies.ej_max[1], "-")
        prepared = (PulseSegment(t_longest, e_c, e_j, "superposition"), seg_f1, seg_f3)
        for seg in prepared:
            _check_resolution(seg, ks)
        preparation = None, (prepared, (sol1, sol3))
    except InfeasiblePulseError as exc:
        prepared, preparation = (), (str(exc), None)
    try:
        drives, times = _interference_drives(energies)[2:]
        interference = tuple(PulseSegment(t, *drive, label) for drive, t, label
                             in zip(drives, times, ("interference-q2", "interference-q13")))
        for seg in interference:
            _check_resolution(seg, ks)
    except InfeasiblePulseError as exc:
        interference, pulses = (), (str(exc), None)
    segments = prepared + interference
    w = v = None
    if segments:
        w, v = _diagonalize(_assemble([(s.e_c, s.e_j, ks) for s in segments]),
                            "evolve requires a Hermitian Hamiltonian")
        w.flags.writeable = v.flags.writeable = False
    if interference:
        try:
            pulses = None, tuple(map(Operator, _spectral_propagators(w[-2:], v[-2:], times)))
        except InfeasiblePulseError as exc:
            pulses = str(exc), None
    return preparation, pulses, ks, w, v


def _interference_pulses(mode: str, energies: DerivedEnergies, include_k13: bool) -> tuple:
    """The quarter rotations (u2, u13) of qubit 2 and of the outer pair in
    effective or full mode, timed by the second-order formulas.  Full mode
    reads them from the device memo (_device_sequence), or raises its
    stored refusal anew; effective mode diagonalizes and propagates its two
    generators on each call."""
    if mode == "effective":
        _device_couplings(energies, False)  # the effective pulses hold no k13
        middle, matched, _, times = _interference_drives(energies)
        stack = np.array([h_eff_qubit2(middle).matrix, h_eff_qubits13(matched, +1).matrix])
        return tuple(map(Operator, _propagators(stack, times)))
    return _accepted(_device_sequence(energies, include_k13)[1])


@functools.lru_cache(maxsize=1)
def _prepare(energies: DerivedEnergies, s: int, include_k13: bool):
    """ghz_prepare for a parsed sign s (+1 or -1), one device remembered."""
    _device_couplings(energies, include_k13)
    t_sup = solve_superposition_pulse(energies.ej_max[1], -s)
    preparation, _, couplings, w, v = _device_sequence(energies, include_k13)
    (sup, *flips), solutions = _accepted(preparation)
    if sup.duration != t_sup:  # sign '-' opens with the shorter rotation
        sup = PulseSegment(t_sup, sup.e_c, sup.e_j, sup.label)
    schedule = Schedule((sup, *flips), *couplings)
    trajectory = _evolve_spectral(w[:3], v[:3], [seg.duration for seg in schedule.segments],
                                  _KET_000)
    final = trajectory[-1]

    fid = _fidelity(final, _pair_amplitudes(0b111, s * 1.0j))
    intermediates = (
        _fidelity(trajectory[0], _pair_amplitudes(0b010, 1j * -s)),
        _fidelity(trajectory[1], _pair_amplitudes(0b110, s)),
    )
    phase = math.remainder(cmath.phase(final[7]) - cmath.phase(final[0]), 2.0 * math.pi)
    report = PreparationReport(
        sign="+" if s == 1 else "-",
        fidelity=fid,
        intermediate_fidelities=intermediates,
        achieved_phase=phase,
        superposition_time=t_sup,
        flip_solutions=solutions,
        total_duration=schedule.total_duration(),
        k13_included=include_k13,
    )
    return StateVector(final), schedule, report
