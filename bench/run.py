"""ghzsim benchmark harness.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports ghzsim from its
``src/``.  One process, one client, closed loop: the next op starts when the
previous one has finished.  A run

1. makes one round of inputs from ``--seed`` (see ``workloads.py``);
2. with ``--trace 0``, times ``SETUP_REPS`` fresh interpreters that import
   ghzsim and finish the round's first op (``setup_s``, the median);
3. runs the round once, untimed and traced, as the verification pass: it
   records every output's fingerprint, the result digest and the per-op
   counts, and keeps what the output checks need;
4. cycles through the round for ``--seconds`` seconds, finishing the last
   window.  With ``--trace 0`` tracing is off and the end-to-end metrics are
   measured over windows of ``window_ops`` ops.  With ``--trace 1`` the time
   alternates between untraced and traced chunks of in-process ops, which
   gives the per-layer metrics and the tracing overhead.  Every op's
   fingerprint must equal the verification pass's;
5. runs the output checks and writes ``bench/results/<workload>-seed<n>-
   trace<t>.json`` (metrics, samples, digest, provenance, first spans);
6. prints one JSON line: ``correct``, ``attempted``, ``failed``, ``metrics``.

Machine speed.  On a small shared machine a co-tenant can slow every
instruction of this process up to 2x, for seconds to minutes at a time, and
CPU time inflates with wall time, so neither can tell.  A fixed calibration
kernel that uses no ghzsim code is timed before and after every window and
every set-up run.  Every reported time is scaled by ``speed``: REF_CAL over
the mean of the two readings around it.  The metrics are therefore stated
at reference speed, where the kernel takes REF_CAL seconds (its fastest
reading on an uncontended core of the machine the bounds were set on), not
at measured speed: under typical load they read up to about 2x faster than
the raw figures.  The raw figures, the readings and the run's speed factor
stay in the result file.  The kernel also runs once before ghzsim is
imported; a run whose window readings differ from that baseline by more
than the tightest bound on a scaled metric is flagged there, because the
scaling would hide a slowdown the program causes outside its ops (say, a
background thread).  Every benchmark process is pinned to one CPU, so the
kernel and a CLI child share it.

It exits 2 without a result when the checkout has no ghzsim sources.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = BENCH_DIR / "results"
SETUP_REPS = 5
IMPORT_REPS = 3
TRACE_CHUNKS = 8  # alternating untraced / traced chunks in a --trace 1 run
KEPT_SPAN_OPS = 2
REF_CAL = 3.0e-3  # calibration kernel seconds at the reference machine speed
# End-to-end metrics scaled to reference speed; the tightest bound among them
# is the drift that flags a run.
SCALED = ("throughput_ops_s", "latency_p50_ms", "latency_p90_ms", "cpu_ms_per_op", "setup_s")

# The program's matrices are 8x8, too small for BLAS threads.  An idle
# OpenBLAS worker spins for ~0.1 s of CPU after import; on a small shared
# machine it competes with the process it serves and made CLI latencies
# bimodal.  Every benchmark process therefore runs BLAS single-threaded.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def p90(values):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def calibrate():
    """Seconds a fixed kernel shaped like the program's work takes: 8x8
    eigh propagation and Kronecker products, then string formatting and
    counting in plain Python (~3 ms on an uncontended core)."""
    import numpy as np

    m = np.arange(64.0).reshape(8, 8) / 64.0
    h = m + m.T + 1j * (m - m.T)
    i2, sx = np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])
    t0 = time.perf_counter()
    for _ in range(25):
        w, v = np.linalg.eigh(h)
        (v * np.exp(-1j * w)) @ v.conj().T
        np.kron(np.kron(i2, sx), i2)
    labels = tuple(format(i & 7, "03b") for i in range(3000))
    {label: labels.count(label) for label in sorted(set(labels))}
    return time.perf_counter() - t0


def baseline_calibration():
    """Median of three kernel readings after a warm-up one."""
    calibrate()
    return statistics.median(calibrate() for _ in range(3))


def speed_record(baseline, windows, setup, bound):
    """The run's speed factor, and whether its window readings drifted from
    the baseline by more than ``bound``."""
    window_cal = statistics.median(0.5 * (w["cal_before"] + w["cal_after"]) for w in windows)
    drift = window_cal / baseline - 1.0
    return {
        "ref_cal_ms": REF_CAL * 1e3,
        "baseline_cal_ms": baseline * 1e3,
        "setup_cal_ms": statistics.median(
            0.5 * (r["cal_before"] + r["cal_after"]) for r in setup) * 1e3 if setup else None,
        "window_cal_ms": window_cal * 1e3,
        "factor": REF_CAL / window_cal,
        "drift": drift,
        "drift_bound": bound,
        "flagged": abs(drift) > bound,
    }


def speed(record):
    """REF_CAL over the mean calibration reading around a window or set-up
    run: below 1 when the machine ran slower than the reference."""
    return REF_CAL / (0.5 * (record["cal_before"] + record["cal_after"]))


class Loop:
    """Closed-loop runner over a round; tracks failures across passes."""

    def __init__(self, workload, items, fingerprints):
        self.workload = workload
        self.items = items
        self.fingerprints = fingerprints
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, message):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def run(self, op, seconds, start, window=0, cpu=None):
        """Run ops from round position ``start`` until ``seconds`` have passed
        and the last window is whole (at least one op).  With ``window``,
        each window of that many ops records its first op, its clock and
        ``cpu()`` at both ends, and a calibration reading before and after.
        Returns (latencies, wall seconds, next position, windows)."""
        latencies, windows = [], []
        n = len(self.items)
        pos = start
        t_start = time.perf_counter()
        deadline = t_start + seconds
        while True:
            if window and len(latencies) % window == 0:
                cal = calibrate()
                if windows:
                    windows[-1]["cal_after"] = cal
                windows.append({"first": len(latencies), "cal_before": cal, "cpu0": cpu(),
                                "t0": time.perf_counter()})
            idx = pos % n
            t0 = time.perf_counter()
            try:
                out = op(self.items[idx])
            except Exception as exc:  # a failed op is counted, the run goes on
                out, error = None, exc
            t1 = time.perf_counter()
            latencies.append(t1 - t0)
            self.attempted += 1
            pos += 1
            if out is None:
                self.fail(f"op {idx} raised {error!r}")
            else:
                if self.workload.fingerprint(out) != self.fingerprints[idx]:
                    self.fail(f"op {idx} output differs from the verification pass")
            whole = not window or len(latencies) % window == 0
            if whole and window:
                windows[-1].update(t1=time.perf_counter(), cpu1=cpu())
            if whole and t1 >= deadline:
                wall = time.perf_counter() - t_start
                if window:
                    windows[-1]["cal_after"] = calibrate()
                return latencies, wall, pos, windows


def verification_pass(workload, items, tracer, loop):
    """Run the round once, traced.  Returns (fingerprints, kept, digest)."""
    digest = hashlib.sha256()
    fingerprints, kept = [], []
    tracer.keep_ops = KEPT_SPAN_OPS
    tracer.install()
    try:
        for idx, item in enumerate(items):
            loop.attempted += 1
            try:
                out = tracer.run_op(workload.reference_op, item)
            except Exception as exc:
                loop.fail(f"verification op {idx} raised {exc!r}")
                fingerprints.append(None)
                kept.append(None)
                continue
            digest.update(repr(out).encode("utf-8"))
            fingerprints.append(workload.fingerprint(out))
            kept.append(workload.keep(item, out))
    finally:
        tracer.uninstall()
    digest.update(repr(tracer.counts["pulses.simulated_ns"]).encode("utf-8"))
    return fingerprints, kept, digest.hexdigest()


def setup_times(workload, seed, loop, env):
    """Fresh interpreters that import ghzsim and finish the round's first
    op, each between two calibration readings."""
    if workload.name == "cli_commands":
        argv = [sys.executable, "-m", "ghzsim", *workload.make_round(seed)[0]["argv"]]
    else:
        argv = [sys.executable, str(BENCH_DIR / "cold_start.py"), workload.name, str(seed)]
    runs = []
    cal = calibrate()
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, env=env, timeout=120)
        wall = time.perf_counter() - t0
        loop.attempted += 1
        if proc.returncode != 0:
            loop.fail(f"set-up run exited {proc.returncode}: {proc.stderr[-400:]!r}")
            continue
        if workload.name != "cli_commands":
            wall -= float(proc.stdout.decode().split()[-1])  # input generation
        runs.append({"seconds": wall, "cal_before": cal, "cal_after": calibrate()})
        cal = runs[-1]["cal_after"]
    return runs


def import_times(env):
    """Median ``-X importtime`` figures (ms) over IMPORT_REPS fresh imports,
    each scaled to the reference speed."""
    wanted = {"ghzsim": "import.ghzsim_ms", "numpy": "import.numpy_ms",
              "yaml": "import.yaml_ms"}
    samples = {key: [] for key in (*wanted.values(), "import.ghzsim_self_ms")}
    cal = calibrate()
    for _ in range(IMPORT_REPS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ghzsim"],
                              capture_output=True, env=env, timeout=120, check=True)
        rep = {"cal_before": cal, "cal_after": calibrate()}
        cal = rep["cal_after"]
        seen = set()
        for line in proc.stderr.decode().splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not line.startswith("import time:"):
                continue
            name = parts[2].strip()
            if name in wanted and name not in seen:
                seen.add(name)
                samples[wanted[name]].append(int(parts[1]) / 1000.0 * speed(rep))
                if name == "ghzsim":
                    samples["import.ghzsim_self_ms"].append(
                        int(parts[0].split(":")[1]) / 1000.0 * speed(rep))
    return {key: statistics.median(vals) for key, vals in samples.items()}


def count_metrics(tracer, n_ops):
    """Per-op counts of the verification pass: exact, seed-determined."""
    counts = tracer.counts
    solutions = counts["pulses.flip_solutions"]
    metrics = {
        "core.Operator.constructions_per_op": tracer.calls["core.Operator"] / n_ops,
        "core.np_kron.calls_per_op": counts["core.np_kron"] / n_ops,
        "core.np_eigh.calls_per_op": counts["core.np_eigh"] / n_ops,
        "pulses.flip_candidates_per_solution": (
            counts["pulses.flip_candidates"] / solutions if solutions else 0.0),
        "pulses.simulated_ns_per_op": counts["pulses.simulated_ns"] / n_ops,
    }
    for name in ("circuit.derive_energies", "core.build_hamiltonian", "core.propagator",
                 "core.evolve", "core.sample", "pulses.ghz_prepare",
                 "pulses.solve_conditional_flip", "effective.effective_error_scan"):
        metrics[f"{name}.calls_per_op"] = tracer.calls[name] / n_ops
    return metrics


GENERATORS = ("effective.h_eff_qubit2", "effective.h_eff_qubits13",
              "effective._h_eff_outer_operator", "effective.tau2", "effective.tau13",
              "effective.matched_outer_params")


def time_metrics(tracer, layers, imports, per_op_import, factor):
    """Per-op self times of the traced chunks, times the speed ``factor``,
    and layer shares."""
    ops = max(tracer.ops, 1)
    ms = {name: ns / 1e6 / ops * factor for name, ns in tracer.self_ns.items()}
    metrics = {}
    for name in ("circuit.derive_energies", "core.build_hamiltonian", "core.propagator",
                 "core.evolve", "core.Operator", "core.sample", "pulses.ghz_prepare",
                 "pulses.run_schedule", "pulses.solve_conditional_flip",
                 "effective.effective_error_scan", "protocols.verify_ghz",
                 "protocols.verify_mixture_control", "protocols.yyy_experiment",
                 "protocols.mermin_expectations", "protocols.enumerate_lhv_assignments",
                 "config.load_config", "cli.main"):
        metrics[f"{name}.self_ms_per_op"] = ms.get(name, 0.0)
    shots = tracer.counts["core.sample.shots"]
    metrics["core.sample.ns_per_shot"] = (
        tracer.self_ns["core.sample"] * factor / shots if shots else 0.0)
    metrics["effective.generators.self_ms_per_op"] = sum(ms.get(g, 0.0) for g in GENERATORS)
    # On cli_commands every op is a fresh interpreter that imports ghzsim, so
    # import joins the layers; in-process workloads import once, in set-up.
    import_ms = imports["import.ghzsim_ms"] if per_op_import else 0.0
    total = tracer.op_ns / 1e6 / ops * factor + import_ms
    for layer in layers:
        layer_ms = sum(v for k, v in ms.items() if k.startswith(layer + "."))
        metrics[f"{layer}.self_share"] = layer_ms / total
    metrics["import.self_share"] = import_ms / total
    metrics["bench.unattributed_share"] = ms.get("bench.op", 0.0) / total
    return metrics


def provenance(workload, args):
    import numpy
    import scipy
    import yaml

    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    git_sha, git_dirty = None, None
    if (ROOT / ".git").exists():
        def git(*cmd):
            return subprocess.run(["git", "-C", str(ROOT), *cmd], capture_output=True,
                                  text=True, timeout=30).stdout.strip()
        git_sha = git("rev-parse", "HEAD") or None
        git_dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "blas": blas.get("name"),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREADS},
        "git_sha": git_sha,
        "git_dirty": git_dirty,
        "src_sha256": src.hexdigest(),
    }


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "ghzsim" / "__init__.py").is_file():
        print(f"no ghzsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_THREADS)
    if hasattr(os, "sched_setaffinity"):  # children inherit the pinning
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.chdir(ROOT)
    baseline = baseline_calibration()  # before any ghzsim code is loaded
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import ghzsim

    if Path(ghzsim.__file__).resolve().parent != ROOT / "src" / "ghzsim":
        print(f"ghzsim imported from {ghzsim.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    drift_bound = min(m["bound"] for m in spec["end_to_end"] if m["name"] in SCALED)
    env = workloads.child_env()
    RESULTS.mkdir(exist_ok=True)
    if workload.name == "cli_commands":
        workload.write_configs(args.seed, ROOT)
    items = workload.make_round(args.seed)
    loop = Loop(workload, items, None)
    record = {}

    setup = setup_times(workload, args.seed, loop, env) if args.trace == 0 else []
    tracer = tracing.Tracer()
    fingerprints, kept, digest = verification_pass(workload, items, tracer, loop)
    loop.fingerprints = fingerprints
    counts = count_metrics(tracer, len(items))
    selfcheck_failures = tracer.selfcheck_failures
    kept_spans = tracer.kept_spans

    usage = resource.RUSAGE_CHILDREN if workload.name == "cli_commands" and not args.trace \
        else resource.RUSAGE_SELF

    def cpu():
        ru = resource.getrusage(usage)
        return ru.ru_utime + ru.ru_stime

    metrics = {}
    if args.trace == 0:
        size = workload.window_ops
        latencies, wall, _, windows = loop.run(workload.op, args.seconds, 0, size, cpu)
        timed = [v * speed(w) for w in windows
                 for v in latencies[w["first"]:w["first"] + size]]
        tail = p90(timed)
        metrics = {
            "throughput_ops_s": statistics.median(
                size / ((w["t1"] - w["t0"]) * speed(w)) for w in windows),
            "latency_p50_ms": statistics.median(timed) * 1e3,
            "latency_p90_ms": tail * 1e3,
            "cpu_ms_per_op": statistics.median(
                (w["cpu1"] - w["cpu0"]) / size * speed(w) for w in windows) * 1e3,
            "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
            "setup_s": statistics.median(r["seconds"] * speed(r) for r in setup)
            if setup else float("nan"),
        }
        readings = sorted(w["cal_before"] for w in windows)
        record["samples"] = {
            "latency": len(timed), "beyond_p90": sum(v > tail for v in timed),
            "windows": len(windows), "window_ops": size, "setup_runs": len(setup),
            "timed_seconds": wall, "raw_ops_s": len(latencies) / wall,
            "raw_latency_p50_ms": statistics.median(latencies) * 1e3,
            "calibration_ms": {"min": readings[0] * 1e3,
                               "median": statistics.median(readings) * 1e3,
                               "max": readings[-1] * 1e3},
        }
        record["latencies_ms"] = [round(v * 1e3, 3) for v in latencies]
        record["speed"] = speed_record(baseline, windows, setup, drift_bound)
        record["windows"] = windows
        record["setup"] = setup
    else:
        imports = import_times(env)
        size = workload.window_ops
        windows = {"untraced": [], "traced": []}
        positions = {"untraced": 0, "traced": 0}
        traced_tracer = tracing.Tracer()
        for chunk in range(TRACE_CHUNKS):
            side = "traced" if chunk % 2 else "untraced"
            op = workload.reference_op
            if side == "traced":
                traced_tracer.install()
                op = traced_tracer.bind(op)
            try:
                _, _, positions[side], done = loop.run(op, args.seconds / TRACE_CHUNKS,
                                                       positions[side], size, cpu)
            finally:
                traced_tracer.uninstall()
            windows[side] += done
        rates = {side: size * len(ws) / sum((w["t1"] - w["t0"]) * speed(w) for w in ws)
                 for side, ws in windows.items()}
        traced_speed = statistics.median(speed(w) for w in windows["traced"])
        selfcheck_failures += traced_tracer.selfcheck_failures
        metrics.update(counts)
        metrics.update(time_metrics(traced_tracer, tracing.LAYERS, imports,
                                    workload.name == "cli_commands", traced_speed))
        metrics.update(imports)
        metrics["trace.overhead_frac"] = 1.0 - rates["traced"] / rates["untraced"]
        record["samples"] = {side: size * len(ws) for side, ws in windows.items()}
        record["samples"]["traced_speed"] = traced_speed
        record["speed"] = speed_record(baseline, windows["untraced"] + windows["traced"], [],
                                       drift_bound)
        record["windows"] = windows

    for idx, (item, data) in enumerate(zip(items, kept)):
        if data is not None:
            for problem in workload.check(item, data):
                loop.fail(f"check of op {idx}: {problem}")
    if selfcheck_failures:
        loop.fail(f"trace arithmetic self-check failed {selfcheck_failures} times")
    if args.trace == 0:
        metrics["ok_fraction"] = 1.0 - loop.failed / loop.attempted

    if set(metrics) != set(declared):
        raise RuntimeError(f"measured metrics {sorted(set(metrics) ^ set(declared))} "
                           "do not match BENCHMARK.json")
    correct = loop.failed == 0
    record.update({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "failed_fraction": loop.failed / loop.attempted,
        "problems": loop.problems,
        "digest": digest,
        "round_size": len(items),
        "counts_per_op": counts,
        "metrics": metrics,
        "provenance": provenance(workload, args),
        "first_op_spans": kept_spans,
    })
    out = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
