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
"""

import cmath
import functools
import math
from dataclasses import dataclass

from .circuit import DerivedEnergies
from .core import (
    StateVector,
    _assemble,
    _basis_amplitudes,
    _diagonalize,
    _evolve_spectral,
    _fidelity,
    _pair_amplitudes,
    _parse_sign,
    build_hamiltonian,  # not called here; bench/test_bench.py reads pulses.build_hamiltonian
)
from .effective import _interference_drives
from .errors import ContractViolationError, InfeasiblePulseError, _real, _reals

_RESIDUAL_TOL = 1e-9
_KET_000 = _basis_amplitudes("000")


@dataclass(frozen=True)
class PulseSegment:
    """One piecewise-constant slice of a schedule: charging and Josephson
    energies ``e_c``/``e_j`` (GHz, 3 entries each) held for ``duration`` ns.
    """

    duration: float
    e_c: tuple
    e_j: tuple
    label: str = ""

    def __post_init__(self):
        d = _real(self.duration, "segment duration must be a real number")
        if not math.isfinite(d) or d < 0.0:
            raise ContractViolationError(f"segment duration must be finite and >= 0, got {d}")
        object.__setattr__(self, "duration", d)
        for name in ("e_c", "e_j"):
            object.__setattr__(self, name, _reals(getattr(self, name), name, 3))


@dataclass(frozen=True)
class Schedule:
    """Ordered pulse segments plus the coupling energies (GHz) held for the
    whole run."""

    segments: tuple
    k12: float
    k23: float
    k13: float

    def __post_init__(self):
        segs = tuple(self.segments)
        if not segs:
            raise ContractViolationError("schedule needs at least one segment")
        if not all(isinstance(s, PulseSegment) for s in segs):
            raise ContractViolationError("schedule segments must be PulseSegment instances")
        object.__setattr__(self, "segments", segs)

    def total_duration(self) -> float:
        return sum(s.duration for s in self.segments)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
    e_j2 = _real(e_j2, "e_j2 must be a real number")
    if e_j2 <= 0.0:
        raise ContractViolationError(f"superposition pulse requires e_j2 > 0, got {e_j2}")
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
    to time in floating point is infeasible as well.
    """
    k = _real(k, "k must be a real number")
    e_j_max = _real(e_j_max, "e_j_max must be a real number")
    if k <= 0.0:
        raise ContractViolationError(f"conditional flip requires k > 0, got {k}")
    if e_j_max <= 0.0:
        raise ContractViolationError(f"conditional flip requires e_j_max > 0, got {e_j_max}")
    a = 0.5 * math.pi
    for n in range(1, max_n + 1):
        ratio_sq = (2.0 * math.pi * n / a) ** 2 - 1.0
        e_j = 4.0 * k / math.sqrt(ratio_sq)
        if e_j > e_j_max * (1.0 + 1e-12):
            continue
        t = a / (math.pi * e_j)
        if math.isfinite(t):
            gamma = math.sqrt((2.0 * k) ** 2 + (0.5 * e_j) ** 2)
            residuals = (
                abs(math.sin(math.pi * e_j * t) - 1.0),
                abs(math.cos(2.0 * math.pi * gamma * t) - 1.0),
            )
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
    e_c = [0.0, middle_bias, 0.0]
    e_c[qubit - 1] = 2.0 * k_target
    e_j = [0.0, 0.0, 0.0]
    e_j[qubit - 1] = sol.e_j
    seg = PulseSegment(sol.t, e_c=tuple(e_c), e_j=tuple(e_j),
                       label=f"conditional-flip-q{qubit}")
    return seg, sol


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
    energies, sign and ``include_k13``) returns it again instead of rerunning
    the sequence.  The state, schedule and report are immutable, so the
    objects are shared between such calls.  The sign sets only the
    superposition pulse's duration, so the last device's flip timings and
    its one stacked diagonalization are kept as well: the other sign on the
    same device (equal energies and ``include_k13``) reuses them and only
    propagates again.  That diagonalization covers the three segments and
    the two full-mode interference pulses of verify_ghz and
    verify_mixture_control, so verifying the device diagonalizes nothing
    more.
    """
    return _prepare(energies, _parse_sign(sign), bool(include_k13))


@functools.lru_cache(maxsize=1)
def _device_sequence(energies: DerivedEnergies, include_k13: bool) -> tuple:
    """What the sign does not change, one device remembered: (preparation,
    pulse_times, couplings, w, v).  ``preparation`` holds the untimed
    superposition segment, both flip segments and their FlipSolutions, and
    ``pulse_times`` the durations of the two full-mode interference pulses
    (protocols._interference_pulses).  All five generators share the
    couplings: one assembly and one eigh give the read-only ``w``, ``v`` of
    the (5, 8, 8) stack, segments first.  A part that cannot be timed holds
    its InfeasiblePulseError and leaves its rows out, for the caller that
    needs it to raise: a device without interference timing still
    prepares, and one without flips still runs the mixture control."""
    rows = []
    try:
        untimed = PulseSegment(0.0, e_c=(0.0, -2.0 * (energies.k12 + energies.k23), 0.0),
                               e_j=(0.0, energies.ej_max[1], 0.0), label="superposition")
        seg_f1, sol1 = _flip_segment(energies, 1)
        seg_f3, sol3 = _flip_segment(energies, 3)
        preparation = untimed, (seg_f1, seg_f3), (sol1, sol3)
        rows += [(s.e_c, s.e_j) for s in (untimed, seg_f1, seg_f3)]
    except InfeasiblePulseError as exc:
        preparation = exc
    try:
        _, _, drives, pulse_times = _interference_drives(energies)
        rows += drives
    except InfeasiblePulseError as exc:
        pulse_times = exc
    couplings = w = v = None
    if rows:
        couplings = _reals((energies.k12, energies.k23, energies.k13 if include_k13 else 0.0),
                           "(k12, k23, k13)", 3)
        w, v = _diagonalize(_assemble([(e_c, e_j, couplings) for e_c, e_j in rows]),
                            "evolve requires a Hermitian Hamiltonian")
        w.flags.writeable = v.flags.writeable = False
    return preparation, pulse_times, couplings, w, v


@functools.lru_cache(maxsize=1)
def _prepare(energies: DerivedEnergies, s: int, include_k13: bool):
    """ghz_prepare for a parsed sign s (+1 or -1), one device remembered."""
    t_sup = solve_superposition_pulse(energies.ej_max[1], -s)
    preparation, _, couplings, w, v = _device_sequence(energies, include_k13)
    if isinstance(preparation, InfeasiblePulseError):
        raise preparation.with_traceback(None)
    untimed, flips, solutions = preparation
    schedule = Schedule((PulseSegment(t_sup, untimed.e_c, untimed.e_j, untimed.label), *flips),
                        *couplings)
    trajectory = _evolve_spectral(w[:3], v[:3], [seg.duration for seg in schedule.segments],
                                  _KET_000)
    final = trajectory[-1]

    fid = _fidelity(final, _pair_amplitudes(0b111, s * 1.0j))
    intermediates = (
        _fidelity(trajectory[0], _pair_amplitudes(0b010, 1j * -s)),
        _fidelity(trajectory[1], _pair_amplitudes(0b110, s)),
    )
    phase = cmath.phase(final[7]) - cmath.phase(final[0])
    phase = math.remainder(phase, 2.0 * math.pi)
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
