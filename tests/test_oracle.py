"""The package's eigendecomposition propagators against the closed-form
sector propagators of tests/oracle.py, which imports no ghzsim."""

import math

import numpy as np
import pytest

import oracle
from ghzsim import (CapacitanceNetwork, ControlSettings, build_hamiltonian, derive_energies,
                    ghz_prepare, propagator)
from ghzsim.core import _assemble, _propagators, _spectral_propagators
from ghzsim.effective import _NO_BIAS, _SCAN_DRIVES, _interference_drives, _scan_generators
from ghzsim.pulses import _device_sequence, _interference_pulses


def _random_pulse(rng, driven):
    """Energies in the range the pulse schedules use (biases up to 4 GHz,
    drives up to 16 GHz, couplings below 2 GHz, k13 below 0.2 GHz or off
    when it would join two driven qubits) and a duration up to 5 ns."""
    e_c = rng.uniform(-4.0, 4.0, 3).tolist()
    e_j = [float(rng.uniform(0.0, 16.0)) if q in driven else 0.0 for q in range(3)]
    k12, k23 = rng.uniform(0.0, 2.0, 2).tolist()
    k13 = 0.0 if {0, 2} <= set(driven) else float(rng.uniform(0.0, 0.2))
    return e_c, e_j, k12, k23, k13, float(rng.uniform(0.0, 5.0))


def test_oracle_reproduces_propagator_on_single_driven_qubit_pulses():
    rng = np.random.default_rng(20261022)
    for _ in range(100):
        e_c, e_j, k12, k23, k13, t = _random_pulse(rng, [int(rng.integers(0, 3))])
        u = propagator(build_hamiltonian(e_c, e_j, k12, k23, k13), t).matrix
        assert np.abs(u - oracle.pulse_propagator(e_c, e_j, k12, k23, t, k13)).max() < 1e-12


def test_oracle_reproduces_propagator_on_outer_pair_pulses():
    rng = np.random.default_rng(20261023)
    for _ in range(100):
        e_c, e_j, k12, k23, k13, t = _random_pulse(rng, [0, 2])
        u = propagator(build_hamiltonian(e_c, e_j, k12, k23, k13), t).matrix
        assert np.abs(u - oracle.pulse_propagator(e_c, e_j, k12, k23, t, k13)).max() < 1e-12


@pytest.mark.parametrize("which", ["middle", "outer"])
def test_oracle_matches_the_scans_exact_propagators(which):
    zetas = tuple(np.random.default_rng(6).uniform(0.0, 0.45, 16).tolist())
    _, times = _scan_generators(zetas, which)
    rows = [(_NO_BIAS, _SCAN_DRIVES[which], (2.0 * z, 2.0 * z, 0.0)) for z in zetas]
    for z, t, u in zip(zetas, times, _propagators(_assemble(rows), times)):
        expected = oracle.pulse_propagator(_NO_BIAS, _SCAN_DRIVES[which], 2.0 * z, 2.0 * z, t)
        assert np.abs(u - expected).max() < 1e-12


def test_oracle_sector_blocks():
    # H = -sigma_x for a quarter period gives i sigma_x, H = sigma_z / 2 for a period -I
    assert np.allclose(oracle.sector_propagator(1.0, 0.0, 0.25), [[0.0, 1j], [1j, 0.0]],
                       rtol=0.0, atol=1e-15)
    assert np.allclose(oracle.sector_propagator(0.0, 0.5, 1.0), np.diag([-1.0, -1.0]),
                       rtol=0.0, atol=1e-15)
    u = oracle.sector_propagator(0.3, -0.7, 1.9)
    assert np.abs(u.conj().T @ u - np.eye(2)).max() < 1e-15
    assert math.isclose(abs(np.linalg.det(u)), 1.0, abs_tol=1e-15)
    with pytest.raises(ValueError, match="coupled"):
        oracle.pulse_propagator((0.0,) * 3, (1.0, 0.0, 1.0), 0.1, 0.1, 1.0, k13=0.05)


def _device_draws(seed, n):
    """``n`` seeded devices of the benchmark's range (junctions 400-800 aF,
    couplers 10-60 aF, eps_J 4-8 GHz), redrawn until every driven pair has
    K / ej_max < 1, the second-order theory's zeta < 1."""
    rng, devices = np.random.default_rng(seed), []
    while len(devices) < n:
        network = CapacitanceNetwork(tuple(rng.uniform(400.0, 800.0, 3)), (0.6, 0.6, 0.6),
                                     tuple(rng.uniform(10.0, 60.0, 2)))
        settings = ControlSettings((0.5, 0.5, 0.5), (0.5, 0.5, 0.5),
                                   tuple(rng.uniform(4.0, 8.0, 3)))
        energies = derive_energies(network, settings)
        e1, e2, e3 = energies.ej_max
        if max(energies.k12 / e1, energies.k12 / e2, energies.k23 / e2, energies.k23 / e3) < 1.0:
            devices.append(energies)
    return devices


@pytest.mark.parametrize("include_k13", [False, True])
def test_oracle_reproduces_every_pulse_of_random_devices(include_k13):
    # the device memo's one eigendecomposition, as both preparations and
    # full-mode verification propagate it; the outer pulse with k13 on
    # couples its two driven qubits and has no closed form
    for energies in _device_draws(20261022, 50):
        k13 = energies.k13 if include_k13 else 0.0
        for sign in ("+", "-"):
            schedule = ghz_prepare(energies, sign, include_k13=include_k13)[1]
            *_, w, v = _device_sequence(energies, include_k13)
            times = [seg.duration for seg in schedule.segments]
            for seg, u in zip(schedule.segments, _spectral_propagators(w[:3], v[:3], times)):
                expected = oracle.pulse_propagator(seg.e_c, seg.e_j, energies.k12, energies.k23,
                                                   seg.duration, k13)
                assert np.abs(u - expected).max() < 1e-12, (energies, sign, seg.label)
        drives, times = _interference_drives(energies)[2:]
        pulses = _interference_pulses("full", energies, include_k13)
        for (e_c, e_j), t, u in list(zip(drives, times, pulses))[:1 if include_k13 else 2]:
            expected = oracle.pulse_propagator(e_c, e_j, energies.k12, energies.k23, t, k13)
            assert np.abs(u.matrix - expected).max() < 1e-12, (energies, e_j)
