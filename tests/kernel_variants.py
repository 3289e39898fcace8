"""How the golden pins fare on other BLAS, SIMD and libm kernels.

Reruns ``tests/test_cli_golden.py --report`` in a child process once per
variant below.  Each variant forces one kernel choice through the child's
environment only; this process's own environment is left as it is.  For each
variant it prints, as a Markdown table, how many pins changed and the largest
absolute change among the printed floats that moved (0 when none did; the
sha256 pins report no size).  Run from the repository root:

    python tests/kernel_variants.py

pytest does not collect this file: its name does not start with ``test_``.
"""

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


def report(forced: dict) -> tuple:
    """(pins changed, largest absolute change) of one child's report."""
    env = dict(os.environ, **forced)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    child = subprocess.run([sys.executable, str(ROOT / "tests" / "test_cli_golden.py"), "--report"],
                           cwd=ROOT, env=env, capture_output=True, text=True, check=False)
    summary = _SUMMARY.search(child.stdout)
    if child.returncode or summary is None:
        return f"report failed with exit {child.returncode}: {child.stderr.strip()[-200:]}", "-"
    gaps = [float(gap) for gap in _ABS.findall(child.stdout) if gap != "-"]
    return summary.group(1), f"{max(gaps, default=0.0):.3g}"


def main() -> None:
    print("| forced in the child process | pins changed | largest absolute change |")
    print("|---|---|---|")
    for name, forced in VARIANTS.items():
        changed, largest = report(forced)
        print(f"| `{name}` | {changed} | {largest} |", flush=True)


if __name__ == "__main__":
    main()
