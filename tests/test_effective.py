"""Reduced single-qubit models and their accuracy against the full dynamics."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzsim import (
    CapacitanceNetwork,
    ContractViolationError,
    ControlSettings,
    InfeasiblePulseError,
    PerturbationParams,
    StateVector,
    commutator_norm,
    derive_energies,
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
from ghzsim.effective import (
    _QUBIT2_UP,
    _middle_stack,
    _middle_terms,
    _outer_rates,
    _outer_stack,
    _phase_minimized_distances,
    _scan_generators,
)

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
        with pytest.raises(ContractViolationError, match=r"^epsilon_j\[0\]: expected a number"):
            PerturbationParams((bad, 1.0, 1.0))
        with pytest.raises(ContractViolationError, match=r"^zeta12: expected a number"):
            PerturbationParams(UNIT, zeta12=bad)


def test_middle_qubit_ratios_are_the_device_zetas():
    # k / (2 * (ej_max / 2)) and the device's k / ej_max agree bit for bit:
    # halving and doubling are exact
    rng = np.random.default_rng(20261018)
    checked = 0
    while checked < 50:
        network = CapacitanceNetwork(tuple(rng.uniform(400.0, 800.0, 3)), (0.6, 0.6, 0.6),
                                     tuple(rng.uniform(10.0, 60.0, 2)))
        settings = ControlSettings((0.5, 0.5, 0.5), (0.5, 0.5, 0.5),
                                   tuple(rng.uniform(4.0, 8.0, 3)))
        energies = derive_energies(network, settings)
        if max(energies.zeta12, energies.zeta23) >= 1.0:
            continue
        p = PerturbationParams.middle_qubit(energies)
        eps2 = energies.ej_max[1] / 2.0
        assert p.zeta12 == energies.zeta12 == energies.k12 / (2.0 * eps2)
        assert p.zeta23 == energies.zeta23 == energies.k23 / (2.0 * eps2)
        checked += 1


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


@pytest.mark.parametrize("tau", [tau2, tau13])
def test_quarter_rotation_time_outside_float_range_is_infeasible(tau):
    # 8 * eps_j overflows, and 1 / inf would time the pulse at 0.0 ns
    p = PerturbationParams((2.8e307, 2.8e307, 2.8e307))
    with pytest.raises(InfeasiblePulseError, match="cannot be timed in floating point"):
        tau(p)
    assert tau(PerturbationParams((1e307, 1e307, 1e307))) == 1.0 / 8e307


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


def test_error_scan_edge_cases():
    assert effective_error_scan(()) == ()
    assert effective_error_scan([], "outer") == ()
    # the batched phase search treats a repeated zeta like any other
    for which in ("middle", "outer"):
        zetas = (0.1, 0.1, 0.0)
        singles = sum((effective_error_scan((z,), which) for z in zetas), ())
        assert repr(effective_error_scan(zetas, which)) == repr(singles)
    # scans longer than one lock-step batch are split without a trace
    zetas = np.random.default_rng(3).uniform(0.0, 0.45, 70).tolist()
    assert effective_error_scan(zetas) == (effective_error_scan(zetas[:40])
                                           + effective_error_scan(zetas[40:]))


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


@pytest.mark.parametrize("n", [1, 5, 64])
@pytest.mark.parametrize("which", ["middle", "outer"])
def test_scan_generators_equal_the_one_row_builders(which, n):
    # the scan's batch stack holds, byte for byte, the public builders' matrices
    zetas = np.random.default_rng(n).uniform(0.0, 0.45, n).tolist()
    stack, times = _scan_generators(tuple(zetas), which)
    assert stack.shape == (n, 8, 8) and len(times) == n
    for z, h, t in zip(zetas, stack, times):
        if which == "middle":
            p = PerturbationParams(UNIT, zeta12=z, zeta23=z)
            row, t_row = h_eff_qubit2(p).matrix, tau2(p)
        else:
            p = PerturbationParams(UNIT, zeta12=z, zeta32=z)
            row = np.where(_QUBIT2_UP, h_eff_qubits13(p, +1).matrix, h_eff_qubits13(p, -1).matrix)
            t_row = tau13(p)
        assert h.tobytes() == row.tobytes()
        assert type(t) is float and t == t_row


@pytest.mark.parametrize("n", [1, 5, 64])
def test_generator_stacks_equal_their_rows(n):
    # junction energies over six decades: a stack row is the one-row builder's
    # matrix, and both are the docstring formula summed on one 8x8 matrix
    rng = np.random.default_rng([n, 7])
    params = [PerturbationParams(tuple(10.0 ** rng.uniform(-3.0, 3.0, 3)),
                                 *rng.uniform(0.0, 0.99, 3).tolist()) for _ in range(n)]
    x1, x2, x3 = (pauli("x", q).matrix for q in (1, 2, 3))
    string = (pauli("z", 1) @ pauli("x", 2) @ pauli("z", 3)).matrix
    middle = _middle_stack([_middle_terms(p.epsilon_j, p.zeta12, p.zeta23) for p in params])
    for p, h in zip(params, middle):
        (_, eps2, _), z12, z23 = p.epsilon_j, p.zeta12, p.zeta23
        summed = -eps2 * ((1.0 + 2.0 * z12**2 + 2.0 * z23**2) * x2 + 4.0 * z12 * z23 * string)
        assert h.tobytes() == h_eff_qubit2(p).matrix.tobytes() == summed.tobytes()
    for s in (+1, -1):
        outer = _outer_stack([_outer_rates(p.epsilon_j, p.zeta12, p.zeta32, s) for p in params])
        for p, h in zip(params, outer):
            (eps1, _, eps3), z12, z32 = p.epsilon_j, p.zeta12, p.zeta32
            summed = -(eps1 * (1.0 + 2.0 * z12**2 * s) * x1 + eps3 * (1.0 + 2.0 * z32**2 * s) * x3)
            assert h.tobytes() == h_eff_qubits13(p, s).matrix.tobytes() == summed.tobytes()


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


def _scan_tables(which):
    """The scan ``_SCAN_PINS`` holds and the one ``_SCAN_SHA256`` digests."""
    zetas = np.random.default_rng(20261018).uniform(0.0, 0.45, 64).tolist()
    return (effective_error_scan((0.02, 0.05, 0.1, 0.2, 0.45), which),
            effective_error_scan(zetas, which))


@pytest.mark.parametrize("which", sorted(_SCAN_PINS))
def test_error_scan_repr_is_pinned(which):
    table, many = _scan_tables(which)
    assert repr(table) == _SCAN_PINS[which]
    digest = hashlib.sha256(repr(many).encode()).hexdigest()
    assert digest == _SCAN_SHA256[which]


def test_error_scan_diagonalizes_each_batch_in_one_call(monkeypatch):
    # the exact and effective generators of up to 64 zetas share one eigh
    shapes = []
    eigh = np.linalg.eigh

    def counted(a):
        shapes.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    effective_error_scan((0.02, 0.05, 0.1, 0.2, 0.45), "outer")
    assert shapes == [(10, 8, 8)]
    shapes.clear()
    effective_error_scan(np.linspace(0.0, 0.45, 70), "middle")
    assert shapes == [(128, 8, 8), (12, 8, 8)]


def _phase_minimized_distance(a, b):
    """The phase search run on a stack of one pair."""
    return _phase_minimized_distances(a[None], b[None])[0]


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


def _block_pair(rng, labels, theta, delta, one_sided):
    """A block-diagonal pair, as propagators conserving sigma_z on some
    qubits, with ``one_sided`` entries set to zero in one matrix only."""
    block = np.equal.outer(labels, labels)
    a = (rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))) * block
    n = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    b = np.exp(1j * theta) * (a + delta * n) * block
    for _ in range(one_sided):
        i, j = rng.integers(0, 8, size=2)
        (a if rng.integers(2) else b)[i, j] = 0.0
    return a, b


@settings(max_examples=40, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       labels=st.lists(st.integers(0, 3), min_size=8, max_size=8),
       theta=st.floats(-2.0 * math.pi, 2.0 * math.pi),
       delta=st.floats(0.0, 1e-1),
       one_sided=st.integers(0, 6))
def test_masked_phase_search_matches_dense_oracle(seed, labels, theta, delta, one_sided):
    a, b = _block_pair(np.random.default_rng(seed), labels, theta, delta, one_sided)
    result = _phase_minimized_distance(a, b)
    assert type(result) is float
    assert result == _dense_phase_minimized_distance(a, b)


def test_masked_phase_search_zero_pair():
    zero = np.zeros((8, 8), dtype=complex)
    for a, b in ((zero, zero), (-zero, zero), (zero, -1.0 * zero)):
        result = _phase_minimized_distance(a, b)
        assert type(result) is float
        assert repr(result) == repr(_dense_phase_minimized_distance(a, b)) == "0.0"


@settings(max_examples=40, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       pairs=st.lists(st.tuples(st.lists(st.integers(0, 3), min_size=8, max_size=8),
                                st.floats(-2.0 * math.pi, 2.0 * math.pi),
                                st.floats(0.0, 1e-1),
                                st.integers(0, 6)),
                      min_size=1, max_size=6))
def test_stacked_phase_search_matches_each_pair(seed, pairs):
    # the stack compares the union of the pairs' filled entries
    rng = np.random.default_rng(seed)
    a, b = map(np.array, zip(*(_block_pair(rng, *p) for p in pairs)))
    results = _phase_minimized_distances(a, b)
    assert len(results) == len(pairs)
    for x, y, result in zip(a, b, results):
        expected = _dense_phase_minimized_distance(x, y)
        assert type(result) is float
        assert result == expected
        assert repr(result) == repr(expected)


def test_pruned_phase_grid_edge_cases():
    rng = np.random.default_rng(7)
    a, b = _block_pair(rng, [0, 0, 1, 1, 2, 2, 3, 3], 0.3, 0.05, 2)
    zero = np.zeros((8, 8), dtype=complex)
    # max(|3 - e^{i phi}|, 2.5) is exactly 2.5 on every grid phase with
    # cos(phi) >= 0.625, so the grid minimum is tied across about 200 phases
    tied_a, tied_b = zero.copy(), zero.copy()
    tied_a[0, 0], tied_a[1, 1], tied_b[0, 0] = 3.0, 2.5, 1.0
    values = np.abs(tied_a - _ORACLE_PHASES * tied_b).max(axis=(1, 2))
    assert np.count_nonzero(values == values.min()) > 100
    assert int(np.argmin(values)) % 8 != 0  # the first minimum lies between coarse phases
    cases = [(a, zero),  # b = 0: a flat curve, so no phase is pruned and k = 0
             (zero, b), (a * 1e-150, b * 1e-150), (a * 1e150, b * 1e150), (tied_a, tied_b)]
    stacked = _phase_minimized_distances(*map(np.array, zip(*cases)))
    assert stacked[0] == float(np.abs(a).max())
    for (x, y), result in zip(cases, stacked):
        expected = _dense_phase_minimized_distance(x, y)
        for got in (result, _phase_minimized_distance(x, y)):
            assert type(got) is float
            assert repr(got) == repr(expected)


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
    # each entry is read as a pair of finite reals, and a bad one is named
    for bad in ((True, 0.5), (0.2, math.inf), (0.2, math.nan), ("0.2", 0.1), (0.2, 0.1, 0.0)):
        with pytest.raises(ContractViolationError, match=r"table\[1\]"):
            fitted_loglog_slope([(0.1, 0.01), bad, (0.4, 0.3)])
