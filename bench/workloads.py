"""The four benchmark workloads.

Each workload turns a seed into one round of inputs, a pure function of the
seed, and the harness cycles through the round in a closed loop with one
client.  The program sees only the generated inputs.  Every workload offers:

* ``make_round(seed)``: the round of inputs;
* ``op(item)``: one end-to-end op, as a user would run it;
* ``reference_op(item)``: the same op in process (the verification pass and
  the traced pass use it; it equals ``op`` except for ``cli_commands``);
* ``window_ops``: the ops in one timed, calibrated window (see ``run.Loop``);
* ``fingerprint(out)``: a small value two equal outputs share;
* ``keep(item, out)`` and ``check(item, kept)``: what the output check needs,
  and the check itself, run after the timed region.

The checks use ``reference.py`` and never the code under test.
"""

import contextlib
import hashlib
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import reference as ref
from ghzsim import circuit, cli, core, effective, protocols, pulses

GATE_AF = (0.6, 0.6, 0.6)
IDLE = (0.5, 0.5, 0.5)  # charge degeneracy and half-quantum flux


def device_draw(rng):
    """One device of the feasible region: junctions 400-800 aF, couplers
    10-60 aF, single-junction energies 4-8 GHz, redrawn until every driven
    pair has zeta = K / (2 eps_J) < 1, the program's own contract for the
    perturbation ratios (effective.PerturbationParams).  About 0.1% of the
    box lies beyond it, where verify_ghz(mode="full") refuses the device."""
    while True:
        dev = {
            "c_junction": tuple(float(v) for v in rng.uniform(400.0, 800.0, 3)),
            "c_coupler": tuple(float(v) for v in rng.uniform(10.0, 60.0, 2)),
            "epsilon_j": tuple(float(v) for v in rng.uniform(4.0, 8.0, 3)),
        }
        k12, k23, _ = ref.chain_couplings(dev["c_junction"], GATE_AF, dev["c_coupler"])
        e1, e2, e3 = dev["epsilon_j"]
        if max(k12 / e1, k12 / e2, k23 / e2, k23 / e3) < 2.0:
            return dev


def child_env():
    """Environment for child interpreters: ghzsim from this checkout's src/."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def _balanced(rng, values, n):
    """``values`` repeated to length ``n`` in seeded order, so every round
    holds each value equally often."""
    out = [values[i % len(values)] for i in range(n)]
    rng.shuffle(out)
    return out


class DeviceSweep:
    name = "device_sweep"
    why = ("Device-design loop: seeded devices through prepare, full verify, mixture control "
           "and Mermin; Hamiltonian assembly, eigh propagation and Operator construction "
           "dominate, no shots.")
    round_size = 64
    window_ops = 8

    def make_round(self, seed):
        rng = np.random.default_rng([seed, 1])
        k13 = _balanced(rng, [True, False, False, False], self.round_size)
        signs = _balanced(rng, ["+", "-"], self.round_size)
        return [dict(device_draw(rng), sign=s, include_k13=k) for s, k in zip(signs, k13)]

    def op(self, item):
        network = circuit.CapacitanceNetwork(item["c_junction"], GATE_AF, item["c_coupler"])
        settings = circuit.ControlSettings(IDLE, IDLE, item["epsilon_j"])
        energies = circuit.derive_energies(network, settings)
        k13 = item["include_k13"]
        state, schedule, report = pulses.ghz_prepare(energies, item["sign"], include_k13=k13)
        verified = protocols.verify_ghz(energies, "full", include_k13=k13)
        mixture = protocols.verify_mixture_control(energies, "full", include_k13=k13)
        mermin = protocols.mermin_expectations(state)
        return energies, state, schedule, report, verified, mixture, mermin

    reference_op = op

    def fingerprint(self, out):
        _, state, _, report, verified, mixture, mermin = out
        return (state.amplitudes.tobytes(), report.fidelity,
                tuple(verified.probabilities.items()), tuple(mixture.probabilities.items()),
                tuple(mermin.items()))

    def keep(self, item, out):
        energies, state, schedule, _, _, _, mermin = out
        return energies, state.amplitudes.copy(), schedule, dict(mermin)

    def check(self, item, kept):
        """Compare the derived couplings with the benchmark's own inverse
        capacitance matrix, re-propagate the returned schedule with an
        independent Hamiltonian and expm; with k13 off, also demand the exact
        target state."""
        energies, amps, schedule, mermin = kept
        problems = []
        expected = ref.chain_couplings(item["c_junction"], GATE_AF, item["c_coupler"])
        for name, want in zip(("k12", "k23", "k13"), expected):
            got = getattr(energies, name)
            if not abs(got - want) <= 1e-9 * abs(want):
                problems.append(f"{name} = {got!r}, inverse capacitance matrix gives {want!r}")
        k12 = energies.k12 if schedule.k12 is None else schedule.k12
        k23 = energies.k23 if schedule.k23 is None else schedule.k23
        k13 = energies.k13 if schedule.k13 is None else schedule.k13
        psi = ref.basis(0)
        for seg in schedule.segments:
            if seg.e_c is None:
                return problems + [f"segment {seg.label!r} has no explicit energies"]
            psi = ref.unitary(ref.hamiltonian(seg.e_c, seg.e_j, k12, k23, k13),
                              seg.duration) @ psi
        drift = float(np.max(np.abs(psi - amps)))
        if drift > 1e-9:
            problems.append(f"re-propagated state differs by {drift:.3e}")
        if not item["include_k13"]:
            fid = abs(np.vdot(ref.ghz(item["sign"]), amps)) ** 2
            if fid < 1.0 - 1e-9:
                problems.append(f"fidelity {fid!r} below 1 - 1e-9")
            s = 1.0 if item["sign"] == "+" else -1.0
            expected = {"yxx": s, "xyx": s, "xxy": s, "yyy": -s}
            for word, value in expected.items():
                if abs(mermin.get(word, math.nan) - value) > 1e-9:
                    problems.append(f"<{word}> = {mermin.get(word)!r}, expected {value}")
        return problems


class ShotSampling:
    name = "shot_sampling"
    why = ("Ideal-state sampling at log-uniform 1e3-3e5 shots: core.sample and the mixture "
           "stream dominate and no Hamiltonian is built, so fixed per-call costs show on "
           "small batches.")
    round_size = 24
    window_ops = 24  # op costs span 300x: only a whole round has a fixed mix
    kinds = ("yyy", "verify", "mixture")

    def make_round(self, seed):
        """The round's shot counts are log-uniformly spaced from 1e3 to 3e5,
        both ends included, so peak memory does not swing with the seed.
        They come in a seeded golden-ratio order, so any stretch of
        consecutive ops spans the whole range, and the median count opens
        the round, so the cold first op of set-up does not swing either."""
        rng = np.random.default_rng([seed, 2])
        n = self.round_size
        grid = [int(round(1e3 * 300.0 ** (k / (n - 1)))) for k in range(n)]
        keys = (rng.random() + np.arange(n) * (math.sqrt(5.0) - 1.0) / 2.0) % 1.0
        order = list(np.argsort(np.argsort(keys)))
        first = order.index(n // 2)
        order[0], order[first] = order[first], order[0]
        seeds = rng.integers(0, 2**63, n)
        return [{"kind": self.kinds[i % 3], "shots": grid[order[i]], "seed": int(seeds[i])}
                for i in range(n)]

    def op(self, item):
        kind, shots, seed = item["kind"], item["shots"], item["seed"]
        if kind == "yyy":
            return protocols.yyy_experiment(core.ghz_state("+"), shots, seed)
        if kind == "verify":
            return protocols.verify_ghz(mode="ideal", shots=shots, seed=seed)
        return protocols.verify_mixture_control(mode="ideal", shots=shots, seed=seed)

    reference_op = op

    def fingerprint(self, out):
        return tuple(out.counts.counts.items()), tuple(out.expectations.items())

    def keep(self, item, out):
        return dict(out.counts.counts), len(out.counts.outcomes)

    def _probabilities(self, kind):
        if kind == "yyy":
            return ref.y_basis_probabilities(ref.ghz("+"))
        if kind == "verify":
            return np.abs(ref.ideal_interference(ref.ghz("+"))[0]) ** 2
        return ref.mixture_probabilities()

    def check(self, item, kept):
        counts, n_outcomes = kept
        shots = item["shots"]
        problems = []
        if sum(counts.values()) != shots or n_outcomes != shots:
            problems.append(f"{n_outcomes} outcomes, counts sum {sum(counts.values())}, "
                            f"shots {shots}")
        if item["kind"] == "yyy":
            even = sum(c for label, c in counts.items() if label.count("1") % 2 == 0)
            if even:
                problems.append(f"yyy even-parity count {even}")
        expected = ref.stream_counts(self._probabilities(item["kind"]), shots, item["seed"])
        if counts != expected:
            problems.append(f"counts {counts} differ from the documented stream {expected}")
        return problems


class ZetaScan:
    name = "zeta_scan"
    why = ("Effective-model error scans over 4-6 zeta values: the phase-minimizing grid and "
           "golden-section loop dominate, so core speed-ups should barely move it.")
    round_size = 12
    window_ops = 12

    def make_round(self, seed):
        """Targets alternate middle/outer; each target sees grid sizes 4, 5
        and 6 equally often, with a size-5 grid first."""
        rng = np.random.default_rng([seed, 3])
        sizes = {}
        for target in ("middle", "outer"):
            sizes[target] = _balanced(rng, [4, 5, 6], self.round_size // 2)
        middle = sizes["middle"]
        first = middle.index(5)
        middle[0], middle[first] = middle[first], middle[0]
        items = []
        for i in range(self.round_size):
            target = "middle" if i % 2 == 0 else "outer"
            grid = sorted(float(z) for z in rng.uniform(0.01, 0.45, sizes[target][i // 2]))
            items.append({"target": target, "zetas": tuple(grid)})
        return items

    def op(self, item):
        table = effective.effective_error_scan(item["zetas"], item["target"])
        return table, effective.fitted_loglog_slope(table)

    reference_op = op

    def fingerprint(self, out):
        return out

    def keep(self, item, out):
        return out

    def check(self, item, kept):
        table, slope = kept
        problems = []
        if tuple(z for z, _ in table) != item["zetas"]:
            problems.append(f"scan returned zetas {[z for z, _ in table]}")
        for z, err in table:
            expected = ref.scan_error(z, item["target"])
            if not abs(err - expected) <= 1e-8:
                problems.append(f"zeta {z!r}: error {err!r}, dense-grid reference {expected!r}")
        if not math.isfinite(slope):
            problems.append(f"slope {slope!r} is not finite")
        return problems


class CliCommands:
    name = "cli_commands"
    why = ("Fresh python -m ghzsim subprocesses over all seven commands and three formats: "
           "import, config loading and rendering dominate, so work moved into import shows.")
    round_size = 21  # 7 commands x 3 formats; each command meets each config once
    window_ops = 1
    reference_config = "configs/reference_device.yaml"
    formats = ("table", "csv", "structured")

    def __init__(self):
        self.env = child_env()

    def config_paths(self, seed):
        base = f"bench/results/cli-configs/seed-{seed}"
        return [self.reference_config, f"{base}/device-1.yaml", f"{base}/device-2.yaml"]

    def config_texts(self, seed):
        """YAML text of the two seeded devices, keyed by relative path."""
        rng = np.random.default_rng([seed, 5])
        texts = {}
        for path in self.config_paths(seed)[1:]:
            dev = device_draw(rng)
            zetas = sorted(float(z) for z in rng.uniform(0.01, 0.45, 3))
            texts[path] = "\n".join([
                "device:",
                f"  junction_capacitance_af: {list(dev['c_junction'])!r}",
                f"  coupler_capacitance_af: {list(dev['c_coupler'])!r}",
                f"  josephson_energy_ghz: {list(dev['epsilon_j'])!r}",
                "protocol:",
                f"  sign: {'plus' if rng.random() < 0.5 else 'minus'}",
                f"  include_k13: {'true' if rng.random() < 0.25 else 'false'}",
                "scan:",
                f"  target: {'middle' if rng.random() < 0.5 else 'outer'}",
                f"  values: {zetas!r}",
                "",
            ])
        return texts

    def write_configs(self, seed, root):
        for path, text in self.config_texts(seed).items():
            target = Path(root) / path
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(text, encoding="utf-8")

    def make_round(self, seed):
        rng = np.random.default_rng([seed, 4])
        configs = self.config_paths(seed)
        commands = [["derive"], ["prepare"], ["verify", "--mode", "full"], ["mermin"],
                    ["yyy", "--shots", "10000", "--seed", None], ["scan"], ["timing"]]
        items = []
        for i in range(self.round_size):
            argv = [str(int(rng.integers(0, 2**31))) if a is None else a
                    for a in commands[i % 7]]
            argv += ["--config", configs[(i // 7) % 3], "--format", self.formats[i % 3]]
            items.append({"argv": tuple(argv)})
        return items

    def op(self, item):
        proc = subprocess.run([sys.executable, "-m", "ghzsim", *item["argv"]],
                              capture_output=True, env=self.env, timeout=120)
        return proc.returncode, proc.stdout

    def reference_op(self, item):
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(list(item["argv"]))
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
        return code, buf.getvalue().encode("utf-8")

    def fingerprint(self, out):
        return out[0], hashlib.sha256(out[1]).hexdigest()

    def keep(self, item, out):
        return out

    def check(self, item, kept):
        code, stdout = kept
        if code != 0 or not stdout:
            return [f"in-process {' '.join(item['argv'])} exited {code}, "
                    f"{len(stdout)} bytes of output"]
        return []


WORKLOADS = {w.name: w for w in (DeviceSweep(), ShotSampling(), ZetaScan(), CliCommands())}
