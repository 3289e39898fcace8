"""Tests of the benchmark harness itself.

    python3 -m pytest bench

They check that inputs and the result digest are a function of the seed,
that the trace arithmetic and bindings hold, and that the harness refuses a
checkout without ghzsim sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)  # cli_commands argv names configs relative to the root


def verify(name, seed):
    """Verification pass plus output checks, as a run does them."""
    workload = workloads.WORKLOADS[name]
    if name == "cli_commands":
        workload.write_configs(seed, ROOT)
    items = workload.make_round(seed)
    loop = run.Loop(workload, items, None)
    tracer = tracing.Tracer()
    _, kept, digest = run.verification_pass(workload, items, tracer, loop)
    for item, data in zip(items, kept):
        for problem in workload.check(item, data):
            loop.fail(problem)
    return items, digest, loop, tracer


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_fixes_inputs_and_digest(name):
    items, digest, loop, _ = verify(name, 7)
    again, digest_again, loop_again, _ = verify(name, 7)
    other, digest_other, loop_other, _ = verify(name, 8)
    assert again == items and digest_again == digest
    assert other != items and digest_other != digest
    assert loop.problems == []
    assert loop.failed / loop.attempted == loop_other.failed / loop_other.attempted == 0.0


def test_device_sweep_trace_counts_and_arithmetic():
    items, _, _, tracer = verify("device_sweep", 3)
    assert tracer.selfcheck_failures == 0
    assert tracer.ops == len(items)
    # 318 np.kron calls per op at this commit, for any device: the pulse
    # structure is fixed.  Fewer would mean a binding the wrappers missed.
    assert tracer.counts["core.np_kron"] == 318 * len(items)
    assert tracer.calls["pulses.ghz_prepare"] == 2 * len(items)
    assert sum(tracer.self_ns.values()) == tracer.op_ns


def test_selfcheck_catches_overlapping_children():
    tracer = tracing.Tracer()
    tracer.spans = [[-1, "bench.op", 0, 100], [0, "core.a", 10, 60], [0, "core.b", 50, 90]]
    tracer._close_op()
    assert tracer.selfcheck_failures > 0
    tracer = tracing.Tracer()
    tracer.spans = [[-1, "bench.op", 0, 100], [0, "core.a", 10, 60], [1, "core.b", 20, 30]]
    tracer._close_op()
    assert tracer.selfcheck_failures == 0
    assert tracer.self_ns == {"bench.op": 50, "core.a": 40, "core.b": 10}


def test_uninstall_restores_every_binding():
    import ghzsim.core
    import ghzsim.pulses

    kron, eigh = np.kron, np.linalg.eigh
    tracer = tracing.Tracer()
    tracer.install()
    assert ghzsim.pulses.build_hamiltonian is not ghzsim.core.build_hamiltonian.__wrapped__
    assert ghzsim.pulses.build_hamiltonian is ghzsim.core.build_hamiltonian
    tracer.uninstall()
    assert ghzsim.pulses.build_hamiltonian is ghzsim.core.build_hamiltonian
    assert not hasattr(ghzsim.core.build_hamiltonian, "__wrapped__")
    assert np.kron is kron and np.linalg.eigh is eigh


def _run(cwd, *extra):
    return subprocess.run([sys.executable, "bench/run.py", "--workload", "zeta_scan",
                           "--seed", "5", "--seconds", "1", *extra],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_every_declared_metric(trace):
    proc = _run(ROOT, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end" if trace == "0" else "per_layer"]}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_run_refuses_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run(tmp_path, "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
