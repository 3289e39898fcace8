"""How the golden pins and the tier-1 tests fare on other BLAS, SIMD and
libm kernels.

Reruns ``tests/test_cli_golden.py --report`` and the tier-1 tests in child
processes once per variant below.  Each variant forces one kernel choice
through the children's environment only; this process's own environment is
left as it is.  For each variant it prints, as a Markdown table, how many
pins changed, the largest absolute change among the printed floats that
moved (0 when none did; the sha256 pins report no size) and how many tier-1
tests fail there but not under ``none``; then it lists those tests.  Run
from the repository root (about 20 s per variant on two CPUs):

    python tests/kernel_variants.py

pytest does not collect this file: its name does not start with ``test_``.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

VARIANTS = {
    "none": {},
    "OPENBLAS_CORETYPE=Haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "OPENBLAS_CORETYPE=Sandybridge": {"OPENBLAS_CORETYPE": "Sandybridge"},
    'NPY_DISABLE_CPU_FEATURES="X86_V4 X86_V3"': {"NPY_DISABLE_CPU_FEATURES": "X86_V4 X86_V3"},
    "GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2,-FMA": {"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2,-FMA"},
}

_SUMMARY = re.compile(r"^(\d+ of \d+) pins changed$", re.MULTILINE)
# The absolute distance of each changed number, as _distance prints it.
_ABS = re.compile(r"  abs (\S+)  rel ")


# Runs tier-1 in the child and prints the node ids of its failing tests as a
# JSON list on the last line; pytest's own terminal output is switched off.
_TIER1 = """
import json, sys, pytest
failed = []
class Failures:
    def pytest_runtest_logreport(self, report):
        if report.failed and report.nodeid not in failed:
            failed.append(report.nodeid)
code = pytest.main(["--continue-on-collection-errors", "-p", "no:cacheprovider",
                    "-p", "no:terminal"], plugins=[Failures()])
print(json.dumps(failed))
sys.exit(code)
"""


def _child(forced: dict, *args) -> subprocess.CompletedProcess:
    env = dict(os.environ, **forced)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, check=False)


def tier1_failures(forced: dict) -> list:
    """The node ids of the tier-1 tests that fail in one child."""
    child = _child(forced, "-c", _TIER1)
    if child.returncode not in (0, 1):  # 1: some tests failed; anything else: no run
        raise RuntimeError(f"tier-1 run failed with exit {child.returncode}: "
                           f"{child.stderr.strip()[-200:]}")
    return json.loads(child.stdout.splitlines()[-1])


def report(forced: dict) -> tuple:
    """(pins changed, largest absolute change) of one child's report."""
    child = _child(forced, str(ROOT / "tests" / "test_cli_golden.py"), "--report")
    summary = _SUMMARY.search(child.stdout)
    if child.returncode or summary is None:
        return f"report failed with exit {child.returncode}: {child.stderr.strip()[-200:]}", "-"
    gaps = [float(gap) for gap in _ABS.findall(child.stdout) if gap != "-"]
    return summary.group(1), f"{max(gaps, default=0.0):.3g}"


def main() -> None:
    baseline = set(tier1_failures(VARIANTS["none"]))
    extra = {}
    print("| forced in the child process | pins changed | largest absolute change "
          "| tier-1 tests failing only here |")
    print("|---|---|---|---|")
    for name, forced in VARIANTS.items():
        changed, largest = report(forced)
        failures = baseline if name == "none" else set(tier1_failures(forced))
        extra[name] = sorted(failures - baseline)
        print(f"| `{name}` | {changed} | {largest} | {len(extra[name])} |", flush=True)
    print(f"\nFailing under `none`, so not counted above: {len(baseline)}")
    for test in sorted(baseline):
        print(f"- {test}")
    for name, tests in extra.items():
        if tests:
            print(f"\nFailing only under `{name}`:")
            for test in tests:
                print(f"- {test}")


if __name__ == "__main__":
    main()
