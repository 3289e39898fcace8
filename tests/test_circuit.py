"""Electrostatics: screening formulas, energy derivation, inverse problems.

The reference-device expectations were computed with exact rational
arithmetic (fractions.Fraction) and the checks below recompute that oracle
from scratch rather than trusting the module under test.
"""

import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from ghzsim import (
    CapacitanceNetwork,
    ContractViolationError,
    ControlSettings,
    DegenerateControlError,
    DerivedEnergies,
    GateChargeRangeWarning,
    UnphysicalNetworkError,
    crosstalk_ratio,
    derive_energies,
    effective_capacitances,
    readout_timing_margin,
    solve_gate_charges,
)
from ghzsim.circuit import _COND_LIMIT

E_COULOMB = 1.602176634e-19
H_JS = 6.62607015e-34


def rational_reference():
    """Exact screened capacitances of the reference device in aF."""
    cj, cg, cm = Fraction(600), Fraction(3, 5), Fraction(30)
    s1 = cj + cg + cm
    s2 = cj + cg + 2 * cm
    s3 = s1
    det = s1 * s2 * s3 - cm * cm * s3 - cm * cm * s1
    return {
        "c_sigma": (s1, s2, s3),
        "det": det,
        "sig1": s1 / (1 + cm * cm * s3 / det),
        "sig2": det / (s1 * s3),
        "sig3": s3 / (1 + cm * cm * s1 / det),
        "pair12": det / (s3 * cm),
        "pair23": det / (s1 * cm),
        "pair13": det / (cm * cm),
    }


def coupling_ghz(c_pair_af) -> float:
    """e^2 / C expressed in GHz for a capacitance in aF."""
    return E_COULOMB**2 / (float(c_pair_af) * 1e-18) / (H_JS * 1e9)


def test_effective_capacitances_match_rational_oracle(network):
    ref = rational_reference()
    caps = effective_capacitances(network)
    assert caps.c_sigma == (630.6, 660.6, 630.6)
    assert caps.c_det == pytest.approx(float(ref["det"]), rel=1e-14)
    assert caps.c_sigma_eff[0] == pytest.approx(float(ref["sig1"]), rel=1e-14)
    assert caps.c_sigma_eff[1] == pytest.approx(float(ref["sig2"]), rel=1e-14)
    assert caps.c_sigma_eff[2] == pytest.approx(float(ref["sig3"]), rel=1e-14)
    assert caps.c_pair_12 == pytest.approx(float(ref["pair12"]), rel=1e-14)
    assert caps.c_pair_23 == pytest.approx(float(ref["pair23"]), rel=1e-14)
    assert caps.c_pair_13 == pytest.approx(float(ref["pair13"]), rel=1e-14)


def test_reference_couplings_frozen_values(energies):
    ref = rational_reference()
    # frozen literals, originally computed from the rational oracle
    assert energies.k12 == pytest.approx(2.8020385818437457, abs=1e-12)
    assert energies.k23 == pytest.approx(2.8020385818437457, abs=1e-12)
    assert energies.k13 == pytest.approx(0.133303452989712, abs=1e-12)
    assert energies.k12 == pytest.approx(coupling_ghz(ref["pair12"]), rel=1e-14)
    assert energies.k13 == pytest.approx(coupling_ghz(ref["pair13"]), rel=1e-14)
    assert energies.zeta12 == pytest.approx(2.8020385818437457 / 11.2, rel=1e-14)
    assert energies.ej_max == (11.2, 11.2, 11.2)


def test_charging_energies_match_rational_matrix(network):
    # away from degeneracy the charging energies mix all three gate offsets
    ref = rational_reference()
    settings = ControlSettings((0.8, 0.3, 0.55), (0.0, 0.0, 0.0), (5.6, 5.6, 5.6))
    offsets = [Fraction(3, 5), Fraction(-2, 5), Fraction(1, 10)]
    expected = []
    diag = [ref["sig1"], ref["sig2"], ref["sig3"]]
    pair = {(0, 1): ref["pair12"], (1, 2): ref["pair23"], (0, 2): ref["pair13"]}
    for j in range(3):
        total = 2 * coupling_ghz(diag[j]) * float(offsets[j])
        for (a, b), c in pair.items():
            if j == a:
                total += 2 * coupling_ghz(c) * float(offsets[b])
            elif j == b:
                total += 2 * coupling_ghz(c) * float(offsets[a])
        expected.append(total)
    derived = derive_energies(network, settings)
    assert derived.e_c == pytest.approx(expected, rel=1e-12)


def test_idle_point_gives_zero_energies(energies):
    assert energies.e_c == (0.0, 0.0, 0.0)
    # flux of half a quantum switches every junction off up to the roundoff
    # of cos(pi/2)
    assert max(abs(v) for v in energies.e_j) < 1e-12


def test_flux_controls_josephson_energy(network):
    settings = ControlSettings((0.5, 0.5, 0.5), (0.0, 0.25, 0.5), (5.6, 5.6, 5.6))
    derived = derive_energies(network, settings)
    assert derived.e_j[0] == pytest.approx(11.2)
    assert derived.e_j[1] == pytest.approx(11.2 * math.cos(math.pi / 4), rel=1e-14)
    assert abs(derived.e_j[2]) < 1e-12


def test_uncoupled_network_has_zero_couplings():
    bare = CapacitanceNetwork((600.0,) * 3, (0.6,) * 3, (0.0, 0.0))
    caps = effective_capacitances(bare)
    assert math.isinf(caps.c_pair_12)
    assert math.isinf(caps.c_pair_23)
    assert math.isinf(caps.c_pair_13)
    derived = derive_energies(bare, ControlSettings((0.5,) * 3, (0.5,) * 3, (5.6,) * 3))
    assert derived.k12 == 0.0
    assert derived.k23 == 0.0
    assert derived.k13 == 0.0
    report = crosstalk_ratio(derived)
    assert report.uncoupled
    assert not report.neglect_justified


def test_single_coupler_removes_both_its_couplings():
    half = CapacitanceNetwork((600.0,) * 3, (0.6,) * 3, (30.0, 0.0))
    derived = derive_energies(half, ControlSettings((0.5,) * 3, (0.5,) * 3, (5.6,) * 3))
    assert derived.k12 > 0.0
    assert derived.k23 == 0.0
    assert derived.k13 == 0.0


def test_mirror_symmetry():
    net = CapacitanceNetwork((500.0, 650.0, 700.0), (0.5, 0.7, 0.9), (25.0, 40.0))
    mirrored = CapacitanceNetwork((700.0, 650.0, 500.0), (0.9, 0.7, 0.5), (40.0, 25.0))
    s = ControlSettings((0.7, 0.4, 0.6), (0.0, 0.0, 0.0), (5.0, 6.0, 7.0))
    s_m = ControlSettings((0.6, 0.4, 0.7), (0.0, 0.0, 0.0), (7.0, 6.0, 5.0))
    a = derive_energies(net, s)
    b = derive_energies(mirrored, s_m)
    assert a.k12 == pytest.approx(b.k23, rel=1e-14)
    assert a.k13 == pytest.approx(b.k13, rel=1e-14)
    assert a.e_c == pytest.approx(tuple(reversed(b.e_c)), rel=1e-12)


def test_derived_energies_store_floats_and_compare_by_value(energies):
    raw = DerivedEnergies([0, -0.0, np.float64(0.5)], np.zeros(3), [11, 11.2, 12],
                          np.float64(0.3), 1, -0.0)
    assert raw.e_c == (0.0, 0.0, 0.5) and raw.e_j == (0.0, 0.0, 0.0)
    assert raw.ej_max == (11.0, 11.2, 12.0)
    assert [type(v) for v in (raw.k12, raw.k23, raw.k13, *raw.e_c)] == [float] * 6
    # -0.0 is stored as 0.0, so equal devices also print alike
    assert math.copysign(1.0, raw.k13) == 1.0 and math.copysign(1.0, raw.e_c[1]) == 1.0
    again = DerivedEnergies((0.0, 0.0, 0.5), (0.0, 0.0, 0.0), (11.0, 11.2, 12.0),
                            0.3, 1.0, 0.0)
    assert raw == again and hash(raw) == hash(again) and repr(raw) == repr(again)
    assert DerivedEnergies(*vars(energies).values()) == energies


def test_derived_energies_read_their_ratios_off_the_couplings(energies):
    # six stored values: the perturbation ratios are no seventh and eighth
    assert DerivedEnergies._fields == ("e_c", "e_j", "ej_max", "k12", "k23", "k13")
    with pytest.raises(TypeError):
        DerivedEnergies(**dict(vars(energies), zeta12=0.7))
    rng = np.random.default_rng(40)
    for _ in range(20):
        net = CapacitanceNetwork(tuple(rng.uniform(400.0, 800.0, 3)), (0.6, 0.6, 0.6),
                                 tuple(rng.uniform(10.0, 60.0, 2)))
        s = ControlSettings((0.5, 0.5, 0.5), (0.5, 0.5, 0.5), tuple(rng.uniform(4.0, 8.0, 3)))
        e = derive_energies(net, s)
        assert e.zeta12 == e.k12 / e.ej_max[1] == e.k12 / (2.0 * s.epsilon_j[1])
        assert e.zeta23 == e.k23 / e.ej_max[1] == e.k23 / (2.0 * s.epsilon_j[1])
    replaced = DerivedEnergies(**dict(vars(energies), k12=1.5, k23=0.0))
    assert (replaced.zeta12, replaced.zeta23) == (1.5 / energies.ej_max[1], 0.0)
    # a middle junction energy the pulses would refuse is refused under its name
    for bad, reason in ((0.0, "must be > 0, got 0.0"), (-1.0, "must be > 0, got -1.0"),
                        (math.inf, "must be finite, got inf")):
        device = DerivedEnergies(**dict(vars(energies), ej_max=(11.2, bad, 11.2)))
        for ratio in ("zeta12", "zeta23"):
            with pytest.raises(ContractViolationError, match=re.escape(f"ej_max[1]: {reason}")):
                getattr(device, ratio)


def test_crosstalk_reference_ratio(energies):
    report = crosstalk_ratio(energies)
    assert report.ratio_12 == pytest.approx(0.04757373929590867, abs=1e-12)
    assert report.ratio_23 == pytest.approx(0.04757373929590867, abs=1e-12)
    assert report.neglect_justified
    assert not report.uncoupled


def test_gate_charge_round_trip(network):
    rng = np.random.default_rng(42)
    for _ in range(10):
        junction = tuple(rng.uniform(100.0, 1000.0, 3))
        gate = tuple(rng.uniform(0.1, 5.0, 3))
        coupler = tuple(rng.uniform(1.0, 80.0, 2))
        net = CapacitanceNetwork(junction, gate, coupler)
        charges = tuple(rng.uniform(0.2, 0.8, 3))
        s = ControlSettings(charges, (0.0, 0.0, 0.0), (5.0, 5.0, 5.0))
        derived = derive_energies(net, s)
        solved = solve_gate_charges(net, derived.e_c)
        assert solved == pytest.approx(charges, abs=1e-9)
        back = derive_energies(net, ControlSettings(solved, (0.0, 0.0, 0.0), (5.0, 5.0, 5.0)))
        assert back.e_c == pytest.approx(derived.e_c, abs=1e-9)


def test_gate_charges_out_of_range_warn(network):
    target = (500.0, 0.0, 0.0)  # beyond what one gate window can reach
    with pytest.warns(GateChargeRangeWarning):
        charges = solve_gate_charges(network, target)
    assert any(not 0.0 <= c <= 1.0 for c in charges)


def test_readout_timing_margin(energies):
    margin = readout_timing_margin(energies.k12, 1.0)
    assert margin.t_c == pytest.approx(1.0 / (2.0 * math.pi * energies.k12), rel=1e-14)
    assert margin.t_c == pytest.approx(0.05679969723585004, abs=1e-15)
    assert not margin.acceptable
    slow = readout_timing_margin(energies.k13, 1.0)
    assert slow.acceptable
    assert slow.margin == pytest.approx(1.0 / slow.t_c, rel=1e-14)
    with pytest.raises(Exception):
        readout_timing_margin(0.0, 1.0)
    with pytest.raises(Exception):
        readout_timing_margin(1.0, -2.0)


# Each invalid network and the whole message it raises, which names the field
# and its first bad entry.
_BAD_NETWORKS = {
    ((0.0, 600.0, 600.0), (0.6,) * 3, (30.0, 30.0)): r"^c_junction\[0\]: must be > 0, got 0\.0$",
    ((-5.0, 600.0, 600.0), (0.6,) * 3, (30.0, 30.0)): r"^c_junction\[0\]: must be > 0, got -5\.0$",
    ((600.0,) * 3, (0.0, 0.6, 0.6), (30.0, 30.0)): r"^c_gate\[0\]: must be > 0, got 0\.0$",
    ((600.0,) * 3, (0.6,) * 3, (-1.0, 30.0)): r"^c_coupler\[0\]: must be >= 0, got -1\.0$",
    ((600.0, 600.0), (0.6,) * 3, (30.0, 30.0)):
        r"^c_junction: expected a list of 3 numbers, got \(600\.0, 600\.0\)$",
    ((600.0,) * 3, (0.6,) * 3, (30.0, 30.0, 30.0)):
        r"^c_coupler: expected a list of 2 numbers, got \(30\.0, 30\.0, 30\.0\)$",
    ((600.0,) * 3, (0.6,) * 3, (math.nan, 30.0)): r"^c_coupler\[0\]: must be finite, got nan$",
}


@pytest.mark.parametrize("junction,gate,coupler", list(_BAD_NETWORKS))
def test_network_validation(junction, gate, coupler):
    with pytest.raises(UnphysicalNetworkError, match=_BAD_NETWORKS[junction, gate, coupler]):
        CapacitanceNetwork(junction, gate, coupler)


def test_settings_validation():
    with pytest.raises(UnphysicalNetworkError, match=r"^gate_charge\[0\]: must lie in \[0, 1\], "
                                                     r"got 1\.2$"):
        ControlSettings((1.2, 0.5, 0.5), (0.5,) * 3, (5.6,) * 3)
    with pytest.raises(UnphysicalNetworkError, match=r"^epsilon_j\[0\]: must be > 0, got 0\.0$"):
        ControlSettings((0.5,) * 3, (0.5,) * 3, (0.0, 5.6, 5.6))
    with pytest.raises(UnphysicalNetworkError,
                       match=r"^gate_charge: expected a list of 3 numbers, got \(0\.5, 0\.5\)$"):
        ControlSettings((0.5, 0.5), (0.5,) * 3, (5.6,) * 3)
    with pytest.raises(UnphysicalNetworkError,
                       match=r"^flux\[2\]: must keep pi \* flux finite, got 1\.7e\+308$"):
        ControlSettings((0.5,) * 3, (0.5, 0.5, 1.7e308), (5.6,) * 3)
    with pytest.raises(UnphysicalNetworkError,
                       match=r"^epsilon_j\[2\]: must keep 2 \* eps_j finite, got 1\.7e\+308$"):
        ControlSettings((0.5,) * 3, (0.5,) * 3, (5.6, 5.6, 1.7e308))
    assert ControlSettings((0.5,) * 3, (0.5,) * 3, (8.9e307,) * 3).epsilon_j == (8.9e307,) * 3


# 1 aF junctions and 1e-3 aF gates: couplers of 1e12 aF take the charging
# matrix's condition number to 3.0e12, past the 1e12 limit; 1e11 aF to 3.0e11.
def test_gate_charges_of_a_singular_charging_matrix_are_refused():
    net = CapacitanceNetwork((1.0,) * 3, (1e-3,) * 3, (1e12, 1e12))
    with pytest.raises(DegenerateControlError, match="condition number") as raised:
        solve_gate_charges(net, (0.0, 0.0, 0.0))
    # the printed digits depend on the BLAS kernel; that they exceed the limit does not
    cond = re.search(r"condition number (\S+)\)$", str(raised.value))[1]
    assert float(cond) > _COND_LIMIT


def test_gate_charges_just_inside_the_condition_limit_are_solved():
    net = CapacitanceNetwork((1.0,) * 3, (1e-3,) * 3, (1e11, 1e11))
    assert solve_gate_charges(net, (0.0, 0.0, 0.0)) == (0.5, 0.5, 0.5)


def test_warning_free_in_range_solution(network):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        charges = solve_gate_charges(network, (0.0, 0.0, 0.0))
    assert charges == pytest.approx((0.5, 0.5, 0.5), abs=1e-12)
