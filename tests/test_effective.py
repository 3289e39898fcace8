"""Reduced single-qubit models and their accuracy against the full dynamics."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzsim import (
    ContractViolationError,
    PerturbationParams,
    StateVector,
    commutator_norm,
    effective_error_scan,
    evolve,
    fidelity,
    fitted_loglog_slope,
    h_eff_qubit2,
    h_eff_qubits13,
    matched_outer_params,
    pauli,
    tau13,
    tau2,
)
from ghzsim.effective import _phase_minimized_distance

UNIT = (1.0, 1.0, 1.0)


def _coefficient(h, op):
    # orthogonal Pauli-string expansion: tr(P H) / tr(P P)
    return float(np.real(np.trace(op.matrix @ h.matrix)) / 8.0)


def test_params_from_reference_device(energies):
    p = PerturbationParams.middle_qubit(energies)
    assert p.zeta12 == pytest.approx(0.25018201623604874, abs=1e-12)
    assert p.zeta23 == pytest.approx(p.zeta12, abs=1e-15)
    assert p.epsilon_j[1] == pytest.approx(5.6)
    q = PerturbationParams.outer_pair(energies)
    assert q.zeta12 == p.zeta12
    assert q.zeta32 == pytest.approx(p.zeta23, abs=1e-15)
    assert q.zeta23 == 0.0


def test_params_validation():
    with pytest.raises(ContractViolationError):
        PerturbationParams(UNIT, zeta12=1.0)
    with pytest.raises(ContractViolationError):
        PerturbationParams(UNIT, zeta23=-0.1)
    with pytest.raises(ContractViolationError):
        PerturbationParams((0.0, 1.0, 1.0))
    with pytest.raises(ContractViolationError):
        PerturbationParams((1.0, 1.0))
    # NaN compares False with everything, so a bare `<= 0` check lets it in
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ContractViolationError):
            PerturbationParams((bad, 1.0, 1.0))
        with pytest.raises(ContractViolationError):
            PerturbationParams((1.0, 1.0, bad))
    # float() would turn a numeric string or a bool into a plausible number
    for bad in ("1", True):
        with pytest.raises(ContractViolationError, match="epsilon_j entries must be real"):
            PerturbationParams((bad, 1.0, 1.0))
        with pytest.raises(ContractViolationError, match="zeta12 must be a real number"):
            PerturbationParams(UNIT, zeta12=bad)


def test_middle_qubit_model_coefficients():
    p = PerturbationParams(UNIT, zeta12=0.25, zeta23=0.25)
    h = h_eff_qubit2(p)
    sx2 = pauli("x", 2)
    string = pauli("z", 1) @ pauli("x", 2) @ pauli("z", 3)
    # -eps*(1 + 2 z12^2 + 2 z23^2) and -eps*4 z12 z23
    assert _coefficient(h, sx2) == pytest.approx(-1.25, abs=1e-14)
    assert _coefficient(h, string) == pytest.approx(-0.25, abs=1e-14)
    # fully off-diagonal model: element <000|H|010> collects both terms
    assert h.matrix[0, 2] == pytest.approx(-1.5, abs=1e-14)
    assert abs(np.trace(h.matrix)) < 1e-14


def test_middle_qubit_model_commutes_with_spectators():
    p = PerturbationParams(UNIT, zeta12=0.3, zeta23=0.15)
    h = h_eff_qubit2(p)
    assert commutator_norm(h, pauli("z", 1)) == 0.0
    assert commutator_norm(h, pauli("z", 3)) == 0.0


def test_quarter_rotation_time():
    p = PerturbationParams(UNIT, zeta12=0.25, zeta23=0.25)
    assert tau2(p) == pytest.approx(1.0 / 12.0, rel=1e-14)
    # uncoupled limit: plain quarter period of a bare rotation
    assert tau2(PerturbationParams(UNIT)) == pytest.approx(0.125, rel=1e-14)


def test_quarter_rotation_prepares_superposition(energies):
    p = PerturbationParams.middle_qubit(energies)
    h = h_eff_qubit2(p)
    out = evolve(h, tau2(p), StateVector.basis("000"))
    amps = np.zeros(8, dtype=complex)
    amps[0] = 1.0 / math.sqrt(2.0)
    amps[2] = 1j / math.sqrt(2.0)
    assert fidelity(out, StateVector(amps)) > 1.0 - 1e-10


def test_outer_pair_model_structure():
    p = PerturbationParams(UNIT, zeta12=0.2, zeta32=0.1)
    h_up = h_eff_qubits13(p, qubit2_z=+1)
    h_dn = h_eff_qubits13(p, qubit2_z=-1)
    # rates renormalize with the middle qubit's sigma_z eigenvalue
    assert _coefficient(h_up, pauli("x", 1)) == pytest.approx(-1.08, abs=1e-14)
    assert _coefficient(h_up, pauli("x", 3)) == pytest.approx(-1.02, abs=1e-14)
    assert _coefficient(h_dn, pauli("x", 1)) == pytest.approx(-0.92, abs=1e-14)
    assert _coefficient(h_dn, pauli("x", 3)) == pytest.approx(-0.98, abs=1e-14)
    with pytest.raises(ContractViolationError):
        h_eff_qubits13(p, qubit2_z=0)


def test_outer_pair_rate_matching():
    p = PerturbationParams(UNIT, zeta12=0.2, zeta32=0.1)
    # qubit 1's rate 1.08 sets the common quarter-rotation time
    assert tau13(p) == pytest.approx(1.0 / 8.64, rel=1e-13)
    # qubit 3 (rate 1.02) must be retuned so both rotations complete together
    m = matched_outer_params(p)
    assert m.epsilon_j[2] == pytest.approx(1.08 / 1.02, rel=1e-14)
    assert m.epsilon_j[:2] == p.epsilon_j[:2]
    assert (m.zeta12, m.zeta32) == (p.zeta12, p.zeta32)
    assert tau13(m) == tau13(p)


def test_matched_outer_params(energies):
    # symmetric reference device: rates already equal, params unchanged
    q = PerturbationParams.outer_pair(energies)
    assert matched_outer_params(q) is q
    # asymmetric ratios: once junction 3 is rescaled the rates agree, so
    # matching again changes nothing
    m = matched_outer_params(PerturbationParams(UNIT, zeta12=0.2, zeta32=0.1))
    assert m.epsilon_j[2] != 1.0
    assert matched_outer_params(m) is m


def test_error_scan_zero_coupling_is_exact():
    for which in ("middle", "outer"):
        table = effective_error_scan((0.0,), which=which)
        # repr, not ==: an np.float64 zero compares equal but prints differently
        assert repr(table) == "((0.0, 0.0),)"


def test_error_scan_monotone_and_deterministic():
    zetas = (0.0, 0.05, 0.1, 0.2)
    first = effective_error_scan(zetas, which="middle")
    second = effective_error_scan(zetas, which="middle")
    assert first == second
    errs = [e for _, e in first]
    assert all(b > a for a, b in zip(errs, errs[1:]))
    outer = [e for _, e in effective_error_scan(zetas, which="outer")]
    assert all(b > a for a, b in zip(outer, outer[1:]))


def test_error_scan_validation():
    with pytest.raises(ContractViolationError):
        effective_error_scan((0.6,), which="middle")
    with pytest.raises(ContractViolationError):
        effective_error_scan((0.1,), which="sideways")
    for bad in ("0.1", b"\x00", 0.1, None, (False, 0.1), (0.1, True), (0.1, "0.2"),
                (0.1j,), (None,), (math.nan,), (np.bool_(False),), np.array(0.1)):
        with pytest.raises(ContractViolationError):
            effective_error_scan(bad)


def test_error_scan_accepts_real_number_types():
    reference = effective_error_scan((0.0, 0.1))
    assert effective_error_scan([0, 0.1]) == reference
    assert effective_error_scan(np.array([0.0, 0.1])) == reference
    assert effective_error_scan(z for z in (np.int64(0), np.float64(0.1))) == reference


# The CLI prints scan errors with repr, so a faster minimizer must reproduce
# these tables to the last bit.
_SCAN_PINS = {
    "middle": "((0.02, 0.056388162206330056), (0.05, 0.1386541494005219), "
              "(0.1, 0.26205004933976583), (0.2, 0.431567604742439), "
              "(0.45, 0.5174410993591327))",
    "outer": "((0.02, 0.04002078740220756), (0.05, 0.10031792934309251), "
             "(0.1, 0.20235364630708338), (0.2, 0.4135049066613628), "
             "(0.45, 0.8770446661268183))",
}


# sha256 of the repr over 64 seeded zetas in [0, 0.45), per target.
_SCAN_SHA256 = {
    "middle": "651149f44ce4503913f1a6392e2b29ba0366b05317c2a8f3e681a7744c1b8d91",
    "outer": "8448fd91b3fed7fc923ff09b05a10fb8717eb9a58b76ce7cc6e4a8cd9e70a9a0",
}


@pytest.mark.parametrize("which", sorted(_SCAN_PINS))
def test_error_scan_repr_is_pinned(which):
    table = effective_error_scan((0.02, 0.05, 0.1, 0.2, 0.45), which)
    assert repr(table) == _SCAN_PINS[which]
    zetas = np.random.default_rng(20261018).uniform(0.0, 0.45, 64).tolist()
    digest = hashlib.sha256(repr(effective_error_scan(zetas, which)).encode()).hexdigest()
    assert digest == _SCAN_SHA256[which]


@settings(max_examples=30, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       theta=st.floats(-2.0 * math.pi, 2.0 * math.pi),
       delta=st.floats(0.0, 1e-2))
def test_phase_minimized_distance_bounds(seed, theta, delta):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    n = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rot = np.exp(1j * theta)
    b = rot * (a + delta * n)
    result = _phase_minimized_distance(a, b)
    assert type(result) is float
    assert _phase_minimized_distance(a, rot * a) <= 1e-12
    assert result <= float(np.abs(a - b).max()) + 1e-12
    # a 28x denser grid than the minimizer's own, with no refinement
    phases = np.exp(1j * np.linspace(-math.pi, math.pi, 20001))[:, None, None]
    dense = float(np.abs(a - phases * b).max(axis=(1, 2)).min())
    assert result <= dense + 1e-12


_ORACLE_GRID = np.linspace(-math.pi, math.pi, 721)
_ORACLE_PHASES = np.exp(1j * _ORACLE_GRID)[:, None, None]


def _dense_phase_minimized_distance(a, b):
    """The search over all 64 entries, as it ran before zero entries were
    dropped; the masked search must reproduce it bit for bit."""

    def dist(phi):
        return float(np.abs(a - np.exp(1j * phi) * b).max())

    values = np.abs(a - _ORACLE_PHASES * b).max(axis=(1, 2))
    k = int(np.argmin(values))
    lo = _ORACLE_GRID[max(k - 1, 0)]
    hi = _ORACLE_GRID[min(k + 1, len(_ORACLE_GRID) - 1)]
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


@settings(max_examples=40, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       labels=st.lists(st.integers(0, 3), min_size=8, max_size=8),
       theta=st.floats(-2.0 * math.pi, 2.0 * math.pi),
       delta=st.floats(0.0, 1e-1),
       one_sided=st.integers(0, 6))
def test_masked_phase_search_matches_dense_oracle(seed, labels, theta, delta, one_sided):
    # block-diagonal pair, as a propagator conserving sigma_z on some qubits
    rng = np.random.default_rng(seed)
    block = np.equal.outer(labels, labels)
    a = (rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))) * block
    n = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    b = np.exp(1j * theta) * (a + delta * n) * block
    # entries zero in one matrix only
    for _ in range(one_sided):
        i, j = rng.integers(0, 8, size=2)
        (a if rng.integers(2) else b)[i, j] = 0.0
    result = _phase_minimized_distance(a, b)
    assert type(result) is float
    assert result == _dense_phase_minimized_distance(a, b)


def test_masked_phase_search_zero_pair():
    zero = np.zeros((8, 8), dtype=complex)
    for a, b in ((zero, zero), (-zero, zero), (zero, -1.0 * zero)):
        result = _phase_minimized_distance(a, b)
        assert type(result) is float
        assert repr(result) == repr(_dense_phase_minimized_distance(a, b)) == "0.0"


def test_fitted_slope_basics():
    zetas = [0.05, 0.1, 0.2]
    cubic = [(z, z ** 3) for z in zetas]
    assert fitted_loglog_slope(cubic) == pytest.approx(3.0, abs=1e-9)
    with pytest.raises(ContractViolationError):
        fitted_loglog_slope([(0.1, 0.01)])
    # zero-error points are excluded from the fit rather than crashing it
    assert fitted_loglog_slope([(0.0, 0.0)] + cubic) == pytest.approx(3.0, abs=1e-9)
    # a line through points at one zeta has no slope, whatever their errors
    for table in ([(0.1, 0.26), (0.1, 0.26)], [(0.1, 0.26), (0.1, 0.3)],
                  [(0.0, 0.0), (0.1, 0.26), (0.1, 0.26)], [(0.05, 0.0), (0.1, 0.2), (0.1, 0.2)]):
        with pytest.raises(ContractViolationError, match="two or more distinct"):
            fitted_loglog_slope(table)
    assert fitted_loglog_slope([(0.05, 0.1), (0.1, 0.2), (0.1, 0.2)]) == pytest.approx(1.0)
