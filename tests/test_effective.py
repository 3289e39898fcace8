"""Reduced single-qubit models and their accuracy against the full dynamics."""

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


@pytest.mark.parametrize("which", sorted(_SCAN_PINS))
def test_error_scan_repr_is_pinned(which):
    table = effective_error_scan((0.02, 0.05, 0.1, 0.2, 0.45), which)
    assert repr(table) == _SCAN_PINS[which]


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


def test_fitted_slope_basics():
    zetas = [0.05, 0.1, 0.2]
    cubic = [(z, z ** 3) for z in zetas]
    assert fitted_loglog_slope(cubic) == pytest.approx(3.0, abs=1e-9)
    with pytest.raises(ContractViolationError):
        fitted_loglog_slope([(0.1, 0.01)])
    # zero-error points are excluded from the fit rather than crashing it
    assert fitted_loglog_slope([(0.0, 0.0)] + cubic) == pytest.approx(3.0, abs=1e-9)
