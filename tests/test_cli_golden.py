"""Byte-for-byte pins of the command-line output.

Each file under ``tests/golden/cli/`` holds the stdout of one invocation:
the seven commands in all three formats on the built-in device, ``derive``
and ``timing`` in all three formats on a device without its 1-2 coupler
(the only output that prints infinite floats and drops a timing row),
``verify`` in full and effective mode in all three formats on an asymmetric
device (the only one whose outer-rate match changes a Josephson energy), plus
the invocations that acceptance criterion 11 runs twice.  The test runs each one
in process through ``main(argv)`` from the repository root, so the
``source:`` line of ``configs/reference_device.yaml`` is stable, and asserts
byte equality.

The files were captured on OpenBLAS core ``SkylakeX`` with numpy's SIMD
dispatch ``X86_V3, X86_V4, AVX512_ICL, AVX512_SPR`` (numpy 2.4.6, bundled
scipy-openblas 0.3.31).  Other kernels move the last bits of some printed
floats, so a pin may fail there while each invocation still repeats itself.

These files change only when the output is meant to change; any such change
is listed in CHANGES.md.  To rewrite them after an intended change, run
``PYTHONPATH=src python tests/test_cli_golden.py`` from the repository root.
"""

import contextlib
import io
import os
from pathlib import Path

import pytest

from ghzsim.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "cli"

CASES = {
    f"{command}.{fmt}": [command, "--format", fmt]
    for command in ("derive", "prepare", "verify", "mermin", "yyy", "scan", "timing")
    for fmt in ("table", "csv", "structured")
}
CASES.update({
    f"uncoupled_12.{command}.{fmt}": [
        command, "--config", "tests/configs/uncoupled_12.yaml", "--format", fmt]
    for command in ("derive", "timing")
    for fmt in ("table", "csv", "structured")
})
CASES.update({
    f"asymmetric_device.verify_{mode}.{fmt}": [
        "verify", "--config", "tests/configs/asymmetric_device.yaml", "--mode", mode,
        "--format", fmt]
    for mode in ("full", "effective")
    for fmt in ("table", "csv", "structured")
})
CASES.update({
    "criterion11.derive": ["derive"],
    "criterion11.prepare": ["prepare"],
    "criterion11.verify_shots": ["verify", "--shots", "256", "--seed", "11"],
    "criterion11.mermin": ["mermin"],
    "criterion11.yyy_shots": ["yyy", "--shots", "256", "--seed", "11"],
    "criterion11.scan_csv": ["scan", "--format", "csv"],
    "criterion11.timing": ["timing"],
    "criterion11.verify_reference_full": [
        "verify", "--config", "configs/reference_device.yaml", "--mode", "full",
        "--format", "structured"],
})


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert main(CASES[name]) == 0
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


if __name__ == "__main__":
    os.chdir(ROOT)
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, argv in CASES.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(argv) == 0, name
        (GOLDEN / f"{name}.txt").write_text(buf.getvalue(), encoding="utf-8")
