"""Byte-for-byte pins of the command-line output.

Each file under ``tests/golden/cli/`` holds the stdout of one invocation:
the seven commands in all three formats on the built-in device, ``derive``
and ``timing`` in all three formats on a device without its 1-2 coupler
(the only output that prints infinite floats and drops a timing row),
``verify`` in full and effective mode in all three formats on an asymmetric
device (the only one whose outer-rate match changes a Josephson energy),
``derive`` in all three formats on a device away from its idle point, the
coupler ``scan`` in all three formats, ``verify`` in effective mode and in
full mode with K13 on, and ``prepare`` of the minus sign with K13 on, all on
the built-in device, plus the invocations that acceptance criterion 11 runs
twice.  The test runs each one
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
To review such a change first, run it with ``--report``: it reruns every
invocation in process, writes nothing, and prints each number that moved with
its absolute, relative and ulp distance, and every other changed line whole.
It does the same for the error-scan pins in ``test_effective.py`` and says
which sha256 pins of ``test_effective.py`` and ``test_pipeline.py`` changed.
"""

import contextlib
import difflib
import hashlib
import io
import math
import os
import re
import struct
import sys
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
    f"off_idle_device.derive.{fmt}": [
        "derive", "--config", "tests/configs/off_idle_device.yaml", "--format", fmt]
    for fmt in ("table", "csv", "structured")
})
CASES.update({
    f"coupler_scan.{fmt}": ["scan", "--config", "tests/configs/coupler_scan.yaml", "--format", fmt]
    for fmt in ("table", "csv", "structured")
})
CASES.update({
    "verify_effective": ["verify", "--mode", "effective"],
    "verify_full_k13": ["verify", "--mode", "full", "--include-k13"],
    "prepare_minus_k13": ["prepare", "--sign", "minus", "--include-k13"],
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


def test_number_diff_measures_each_changed_number():
    old = "k12: 0.1\nrows.0.m: 3\nverdict: ok\n"
    new = "k12: 0.10000000000000002\nrows.0.m: 3\nverdict: fails\nadded: 1\n"
    assert number_diff(old, new) == [
        "line 1: 0.1 -> 0.10000000000000002  abs 1.39e-17  rel 1.39e-16  ulp 1",
        "line 3: - verdict: ok",
        "line 3: + verdict: fails",
        "line 4: + added: 1",
    ]
    assert number_diff("x,-0.0,inf", "x,0.0,inf") == ["line 1: -0.0 -> 0.0  abs 0  rel -  ulp 0"]
    assert number_diff("k12 = 1e-05", "k13 = 1e-05") == ["line 1: - k12 = 1e-05",
                                                         "line 1: + k13 = 1e-05"]


# A number token: not part of a name such as k12 or a key path such as rows.0.
_NUMBER = re.compile(r"(?<![\w.])(-?(?:\d+(?:\.\d*)?(?:[eE][-+]?\d+)?|inf|nan))(?![\w.])")


def _ulps(a: float, b: float) -> int:
    """How many doubles apart two finite floats are."""
    def ordinal(x):
        bits = struct.unpack("<q", struct.pack("<d", x))[0]
        return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)
    return abs(ordinal(a) - ordinal(b))


def _distance(old: str, new: str) -> str:
    a, b = float(old), float(new)
    if not (math.isfinite(a) and math.isfinite(b)):
        return "abs -  rel -  ulp -"
    gap = abs(b - a)
    rel = f"{gap / abs(a):.3g}" if a else "-"
    return f"abs {gap:.3g}  rel {rel}  ulp {_ulps(a, b)}"


def _line_changes(where: str, old, new) -> list:
    if old is not None and new is not None:
        old_parts, new_parts = _NUMBER.split(old), _NUMBER.split(new)
        if len(old_parts) == len(new_parts) and old_parts[::2] == new_parts[::2]:
            return [f"{where}: {a} -> {b}  {_distance(a, b)}"
                    for a, b in zip(old_parts[1::2], new_parts[1::2]) if a != b]
    return ([] if old is None else [f"{where}: - {old}"]) + \
        ([] if new is None else [f"{where}: + {new}"])


def number_diff(old: str, new: str) -> list:
    """One report line per changed number, where the rest of its line is
    unchanged, and per other changed line, between two texts."""
    old_lines, new_lines = old.splitlines(), new.splitlines()
    changes = []
    matcher = difflib.SequenceMatcher(None, old_lines, new_lines, autojunk=False)
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        for k in range(max(i2 - i1, j2 - j1) if tag != "equal" else 0):
            a = old_lines[i1 + k] if i1 + k < i2 else None
            b = new_lines[j1 + k] if j1 + k < j2 else None
            changes += _line_changes(f"line {(i1 if a is not None else j1) + k + 1}", a, b)
    return changes


def _report() -> None:
    """Print what the current code changes in every pin; write nothing."""
    import test_effective
    import test_pipeline

    pins = {}
    for name, argv in CASES.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(argv) == 0, name
        old = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
        pins[f"tests/golden/cli/{name}.txt"] = number_diff(old, buf.getvalue())
    for which, pinned in sorted(test_effective._SCAN_PINS.items()):
        table, many = test_effective._scan_tables(which)
        pins[f"_SCAN_PINS[{which!r}]"] = number_diff(pinned, repr(table))
        digest = hashlib.sha256(repr(many).encode()).hexdigest()
        pins[f"_SCAN_SHA256[{which!r}]"] = [] if digest == test_effective._SCAN_SHA256[which] \
            else ["changed"]
    for name, (run, pinned) in test_pipeline._PINNED_RUNS.items():
        digest = test_pipeline._pipeline_digest(run).hexdigest()
        pins[f"test_pipeline_repr_is_pinned[{name}]"] = [] if digest == pinned else ["changed"]
    for pin, changes in pins.items():
        if changes:
            print(pin)
            print("".join(f"  {line}\n" for line in changes), end="")
    print(f"{sum(map(bool, pins.values()))} of {len(pins)} pins changed")


if __name__ == "__main__":
    os.chdir(ROOT)
    if sys.argv[1:] == ["--report"]:
        _report()
    elif sys.argv[1:]:
        sys.exit("usage: PYTHONPATH=src python tests/test_cli_golden.py [--report]")
    else:
        GOLDEN.mkdir(parents=True, exist_ok=True)
        for name, argv in CASES.items():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert main(argv) == 0, name
            (GOLDEN / f"{name}.txt").write_text(buf.getvalue(), encoding="utf-8")
