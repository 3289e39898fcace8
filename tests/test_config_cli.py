"""Configuration loading, validation, and the command-line surface."""

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import ghzsim
from ghzsim import (CapacitanceNetwork, ConfigError, ContractViolationError, ControlSettings,
                    ProtocolOutcome, cli, config, effective_error_scan, ghz_state, load_config,
                    readout_timing_margin, yyy_experiment)
from ghzsim.cli import build_parser, main
from ghzsim.config import DEFAULT_CONFIG

ROOT = Path(__file__).resolve().parents[1]
REFERENCE_YAML = ROOT / "configs" / "reference_device.yaml"


def test_builtin_defaults():
    cfg = load_config()
    assert cfg.source == "builtin reference device"
    assert cfg.network.c_junction == (600.0, 600.0, 600.0)
    assert cfg.network.c_coupler == (30.0, 30.0)
    assert cfg.settings.epsilon_j == (5.6, 5.6, 5.6)
    assert cfg.readout_time == 1.0
    assert cfg.protocol.mode == "ideal"
    assert cfg.protocol.shots == 0
    assert cfg.protocol.seed is None
    assert cfg.protocol.sign == "+"
    assert cfg.protocol.include_k13 is False
    assert cfg.scan.parameter == "zeta"
    assert cfg.scan.values == (0.05, 0.1, 0.2)
    assert cfg.output.format == "table"


def test_reference_file_matches_builtin():
    from_file = load_config(str(REFERENCE_YAML))
    builtin = load_config()
    assert from_file.source == str(REFERENCE_YAML)
    for field in ("network", "settings", "readout_time", "protocol", "scan", "output"):
        assert getattr(from_file, field) == getattr(builtin, field)


def test_partial_override(tmp_path):
    path = tmp_path / "override.yaml"
    path.write_text("device:\n  coupler_capacitance_af: [10.0, 20.0]\n"
                    "protocol:\n  mode: full\n")
    cfg = load_config(str(path))
    assert cfg.network.c_coupler == (10.0, 20.0)
    assert cfg.network.c_junction == (600.0, 600.0, 600.0)
    assert cfg.protocol.mode == "full"
    assert cfg.protocol.sign == "+"


# Each invalid document, a fragment of its error (with the document, the
# test's id) and the whole stderr line it must print: the wording of a config
# error is part of the CLI's output.  Entries are read in order, each checked
# for its type and then for finiteness.
_INVALID_DOCUMENTS = {
    "device:\n  banana: 3\n": ("device.banana", "unknown configuration key: device.banana"),
    "device:\n  junction_capacitance_af: [600.0, 600.0]\n":
        ("list of 3",
         "device.junction_capacitance_af: expected a list of 3 numbers, got [600.0, 600.0]"),
    "device:\n  gate_charge: [0.5, 1.5, 0.5]\n":
        ("gate_charge[1]", "device.gate_charge[1]: must lie in [0, 1], got 1.5"),
    "device:\n  josephson_energy_ghz: [5.6, 0.0, 5.6]\n":
        ("josephson_energy_ghz[1]", "device.josephson_energy_ghz[1]: must be > 0, got 0.0"),
    "protocol:\n  mode: exactish\n":
        ("protocol.mode",
         "protocol.mode: expected one of ('ideal', 'effective', 'full'), got 'exactish'"),
    "protocol:\n  shots: 100\n":
        ("protocol.seed", "protocol.seed: required whenever protocol.shots > 0"),
    "protocol:\n  shots: -3\n  seed: 1\n":
        ("protocol.shots", "protocol.shots: expected a non-negative integer, got -3"),
    "protocol:\n  shots: 1e6\n  seed: 1\n":
        ("expected a non-negative integer",
         "protocol.shots: expected a non-negative integer, got 1000000.0"),
    "protocol:\n  shots: 100000000000\n  seed: 1\n":
        ("protocol.shots: at most 10000000",
         "protocol.shots: at most 10000000 shots, got 100000000000"),
    "protocol:\n  seed: -1\n":
        ("protocol.seed: must be non-negative", "protocol.seed: must be non-negative, got -1"),
    "protocol:\n  include_k13: 1\n":
        ("protocol.include_k13", "protocol.include_k13: expected a boolean, got 1"),
    "scan:\n  values: [0.6]\n":
        ("scan.values[0]", "scan.values[0]: zeta must lie in [0, 0.5), got 0.6"),
    "scan:\n  parameter: coupler\n  values: [0.0]\n":
        ("scan.values[0]", "scan.values[0]: coupler capacitance must be > 0, got 0.0"),
    "scan:\n  values: []\n": ("scan.values", "scan.values: expected a non-empty list, got []"),
    "output:\n  format: xml\n":
        ("output.format",
         "output.format: expected one of ('table', 'csv', 'structured'), got 'xml'"),
    "device:\n  readout_time_ns: abc\n":
        ("expected a number", "device.readout_time_ns: expected a number, got 'abc'"),
    "device:\n  readout_time_ns: .inf\n":
        ("must be finite", "device.readout_time_ns: must be finite, got inf"),
    "device:\n  readout_time_ns: -1.0\n":
        ("must be >= 0.0", "device.readout_time_ns: must be >= 0.0, got -1.0"),
    "device: 3\n": ("device: expected a mapping", "device: expected a mapping"),
    "protocol:\n  seed: 1.5\n":
        ("protocol.seed: expected an integer or null",
         "protocol.seed: expected an integer or null, got 1.5"),
    "output: {path: 3}\n": ("output.path", "output.path: expected a string or null, got 3"),
    "device:\n  junction_capacitance_af: [-1.0, 600.0, 600.0]\n":
        ("junction_capacitance_af[0]", "device.junction_capacitance_af[0]: must be > 0, got -1.0"),
    "device:\n  coupler_capacitance_af: [-1.0, 30.0]\n":
        ("coupler_capacitance_af[0]", "device.coupler_capacitance_af[0]: must be >= 0, got -1.0"),
    "device:\n  flux: [1.0e308, 0.5, 0.5]\n":
        ("pi * flux finite", "device.flux[0]: must keep pi * flux finite, got 1e+308"),
    "device:\n  josephson_energy_ghz: 5.6\n":
        ("josephson_energy_ghz",
         "device.josephson_energy_ghz: expected a list of 3 numbers, got 5.6"),
    "device:\n  junction_capacitance_af: [600.0, true, 600.0]\n":
        ("junction_capacitance_af[1]",
         "device.junction_capacitance_af[1]: expected a number, got True"),
    "device:\n  gate_capacitance_af: [0.6, 0.6, '0.6']\n":
        ("gate_capacitance_af[2]", "device.gate_capacitance_af[2]: expected a number, got '0.6'"),
    "device:\n  coupler_capacitance_af: [30.0, null]\n":
        ("coupler_capacitance_af[1]",
         "device.coupler_capacitance_af[1]: expected a number, got None"),
    "device:\n  flux: [0.5, [0.5], 0.5]\n":
        ("flux[1]", "device.flux[1]: expected a number, got [0.5]"),
    "device:\n  gate_charge: [0.5, .nan, 0.5]\n":
        ("gate_charge[1]", "device.gate_charge[1]: must be finite, got nan"),
    "device:\n  flux: [.nan, x, 0.5]\n": ("flux[0]", "device.flux[0]: must be finite, got nan"),
    "device:\n  josephson_energy_ghz: [5.6, 5.6, -.inf]\n":
        ("josephson_energy_ghz[2]", "device.josephson_energy_ghz[2]: must be finite, got -inf"),
    "scan:\n  values: 0.1\n": ("scan.values", "scan.values: expected a non-empty list, got 0.1"),
    "scan:\n  values: [0.1, true]\n":
        ("scan.values[1]", "scan.values[1]: expected a number, got True"),
    "scan:\n  values: [0.1, .inf]\n":
        ("scan.values[1]", "scan.values[1]: must be finite, got inf"),
    "device:\n  readout_time_ns: true\n":
        ("readout_time_ns", "device.readout_time_ns: expected a number, got True"),
    "device:\n  readout_time_ns: null\n":
        ("readout_time_ns", "device.readout_time_ns: expected a number, got None"),
}


@pytest.mark.parametrize("text, fragment",
                         [(text, fragment) for text, (fragment, _) in _INVALID_DOCUMENTS.items()])
def test_config_validation_errors(tmp_path, capsys, text, fragment):
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    line = _INVALID_DOCUMENTS[text][1]
    assert fragment in line
    assert main(["derive", "--config", str(path)]) == 2
    assert capsys.readouterr() == ("", f"config error: {line}\n")


def test_device_keys_name_every_dataclass_field():
    # one table maps each field of the two device records to its YAML key
    fields = [name for cls in (CapacitanceNetwork, ControlSettings) for name in cls._fields]
    assert list(config._DEVICE_KEYS) == fields
    assert sorted(config._DEVICE_KEYS.values()) == sorted(set(DEFAULT_CONFIG["device"])
                                                         - {"readout_time_ns"})


# A value each device field refuses for its range, and the reason it prints.
_OUT_OF_RANGE = {
    "junction_capacitance_af": (-1.0, "must be > 0, got -1.0"),
    "gate_capacitance_af": (0.0, "must be > 0, got 0.0"),
    "coupler_capacitance_af": (-1.0, "must be >= 0, got -1.0"),
    "gate_charge": (1.5, "must lie in [0, 1], got 1.5"),
    "flux": (-1e308, "must keep pi * flux finite, got -1e+308"),
    "josephson_energy_ghz": (0.0, "must be > 0, got 0.0"),
}


def _bad_device_entries():
    """(key, value, stderr line after ``device.<key>``): each device list
    too short, and with its second entry a string, a nan and out of range."""
    for key, (value, reason) in _OUT_OF_RANGE.items():
        default = DEFAULT_CONFIG["device"][key]
        yield key, default[:-1], f": expected a list of {len(default)} numbers, got {default[:-1]}"
        for bad, line in (("x", "expected a number, got 'x'"), (math.nan, "must be finite, got nan"),
                          (value, reason)):
            yield key, [default[0], bad, *default[2:]], f"[1]: {line}"


@pytest.mark.parametrize("key, value, rest", list(_bad_device_entries()))
def test_cli_device_errors_name_the_yaml_key_and_entry(tmp_path, capsys, key, value, rest):
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump({"device": {key: value}}))
    assert main(["derive", "--config", str(path)]) == 2
    assert capsys.readouterr() == ("", f"config error: device.{key}{rest}\n")


_BEYOND_FLOAT = "1" + "0" * 400  # a YAML integer that no float can hold


@pytest.mark.parametrize("text, line", [
    (f"device:\n  readout_time_ns: {_BEYOND_FLOAT}\n",
     f"device.readout_time_ns: must be finite, got {_BEYOND_FLOAT}"),
    (f"device:\n  flux: [{_BEYOND_FLOAT}, 0.5, 0.5]\n",
     f"device.flux[0]: must be finite, got {_BEYOND_FLOAT}"),
    (f"scan:\n  values: [0.1, -{_BEYOND_FLOAT}]\n",
     f"scan.values[1]: must be finite, got -{_BEYOND_FLOAT}"),
], ids=["readout_time_ns", "flux", "scan.values"])
def test_config_integer_beyond_float_range_is_not_finite(tmp_path, capsys, text, line):
    path = tmp_path / "huge.yaml"
    path.write_text(text)
    assert main(["derive", "--config", str(path)]) == 2
    assert capsys.readouterr() == ("", f"config error: {line}\n")


@pytest.mark.parametrize("text, values", [
    ("scan:\n  values: [1e-1]\n", (0.1,)),
    ("scan:\n  values: [5e-2, 1.0e-1, .5e-1]\n", (0.05, 0.1, 0.05)),
    ("scan:\n  parameter: coupler\n  values: [2E+1, 3e1, 1_0e0]\n", (20.0, 30.0, 10.0)),
])
def test_config_reads_exponent_notation(tmp_path, text, values):
    path = tmp_path / "exponent.yaml"
    path.write_text(text)
    assert load_config(str(path)).scan.values == values


# Each rule config and library share: the override that sets a value in the
# config, and a library call that reads the same value.  Shot counts above
# config's cap, and config's own seed rules, are left out.
_SHARED_RULES = {
    "shots": (lambda v: {"protocol": {"shots": v, "seed": 1}},
              lambda v: yyy_experiment(ghz_state("+"), v, 1)),
    "mode": (lambda v: {"protocol": {"mode": v}},
             lambda v: ProtocolOutcome(None, {"000": 1.0}, {}, 1.0, v)),
    "target": (lambda v: {"scan": {"target": v}}, lambda v: effective_error_scan((0.1,), v)),
    "zeta": (lambda v: {"scan": {"values": [v]}}, lambda v: effective_error_scan((v,))),
    "readout_time": (lambda v: {"device": {"readout_time_ns": v}},
                     lambda v: readout_timing_margin(0.2, v)),
}
_SHARED_VALUES = (-1, 0, 3, 2.5, True, None, "3", np.int64(3), math.nan, math.inf, 0.49, 0.5,
                  "ideal", "full", "middle", np.str_("outer"))


def _refusal(call, value, error):
    """The reason ``call(value)`` gives for raising ``error``, the text after
    the value's name, or None when it accepts the value."""
    try:
        call(value)
    except error as exc:
        return str(exc).split(": ", 1)[1]
    return None


@pytest.mark.parametrize("value", _SHARED_VALUES, ids=repr)
@pytest.mark.parametrize("rule", sorted(_SHARED_RULES))
def test_config_and_library_refuse_the_same_values_alike(rule, value):
    configure, call = _SHARED_RULES[rule]
    by_config = _refusal(lambda v: load_config(overrides=configure(v)), value, ConfigError)
    by_library = _refusal(call, value, ContractViolationError)
    assert (by_config is None) == (by_library is None)
    assert by_config == by_library


def test_config_file_problems(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.yaml"))
    broken = tmp_path / "broken.yaml"
    broken.write_text("a: [unclosed\n")
    with pytest.raises(ConfigError):
        load_config(str(broken))
    toplist = tmp_path / "list.yaml"
    toplist.write_text("- 1\n- 2\n")
    with pytest.raises(ConfigError):
        load_config(str(toplist))
    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    cfg = load_config(str(empty))
    assert cfg.network.c_junction == (600.0, 600.0, 600.0)


def test_overrides_layer_over_the_file(tmp_path):
    path = tmp_path / "shots.yaml"
    path.write_text("protocol:\n  shots: 100\n  mode: full\n")
    cfg = load_config(str(path), {"protocol": {"seed": 5, "sign": "minus"},
                                  "output": {"format": "csv"}})
    assert (cfg.protocol.mode, cfg.protocol.shots, cfg.protocol.seed) == ("full", 100, 5)
    assert cfg.protocol.sign == "-"
    assert cfg.output.format == "csv"
    with pytest.raises(ConfigError, match="protocol.banana"):
        load_config(overrides={"protocol": {"banana": 1}})


def test_cli_derive_runs_and_repeats(capsys):
    assert main(["derive"]) == 0
    first = capsys.readouterr().out
    assert main(["derive"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "k12: 2.8020385818437457" in first
    assert "neglect_justified: true" in first
    assert "source: builtin reference device" in first


def test_cli_timing(capsys):
    assert main(["timing"]) == 0
    out = capsys.readouterr().out
    assert "coupling" in out and "k13" in out
    assert "t_measure_ns: 1.0" in out


def test_cli_prepare(capsys):
    assert main(["prepare"]) == 0
    out = capsys.readouterr().out
    assert "sign: +" in out
    assert "fidelity: 0.99999999999" in out
    assert main(["prepare", "--sign", "minus"]) == 0
    minus = capsys.readouterr().out
    assert "sign: -" in minus
    assert "achieved_phase_rad: -1.57" in minus


def test_cli_verify_with_shots(capsys):
    args = ["verify", "--shots", "200", "--seed", "5"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert first == capsys.readouterr().out
    assert "counts" in first
    line = next(l for l in first.splitlines()
                if l.startswith("postselect_probability:"))
    assert float(line.split(":")[1]) == pytest.approx(0.5, abs=1e-12)


def test_cli_mermin_prints_contradiction(capsys):
    assert main(["mermin"]) == 0
    out = capsys.readouterr().out
    assert "contradiction: true" in out
    assert "consistent_assignments: 64" in out
    assert "no local hidden-variable model" in out


def test_cli_yyy(capsys):
    assert main(["yyy", "--shots", "500", "--seed", "9"]) == 0
    out = capsys.readouterr().out
    assert "even_parity_count: 0" in out
    line = next(l for l in out.splitlines() if l.startswith("yyy_expectation:"))
    assert float(line.split(":")[1]) == pytest.approx(-1.0, abs=1e-12)


def test_cli_shot_cap_boundary(capsys):
    assert main(["yyy", "--shots", "10000000", "--seed", "1"]) == 0
    assert "shots: 10000000" in capsys.readouterr().out
    assert main(["yyy", "--shots", "10000001", "--seed", "1"]) == 2
    assert "at most 10000000" in capsys.readouterr().err


def test_cli_scan_csv(capsys):
    assert main(["scan", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "zeta,error"
    assert len([l for l in lines if l and not l.startswith("#")]) == 4
    assert any(l.startswith("# fitted_log_log_slope = ") for l in lines)


def test_cli_scan_over_one_distinct_zeta_has_no_slope(tmp_path, capsys):
    path = tmp_path / "repeat.yaml"
    path.write_text("scan:\n  values: [0.1, 0.1]\n")
    assert main(["scan", "--config", str(path)]) == 0
    captured = capsys.readouterr()
    # the error's last digits depend on the BLAS kernel: read them from the
    # library in this process
    rows = "".join(f"  {z!r}   {error!r}\n" for z, error in effective_error_scan((0.1, 0.1)))
    assert captured.out == (
        "command: scan\n"
        f"source: {path}\n"
        "parameter: zeta\n"
        "target: middle\n"
        "rows:\n"
        "  zeta  error\n"
        f"{rows}"
        "fitted_log_log_slope: -\n"
    )
    assert captured.err == ""


def test_cli_coupler_scan(tmp_path, capsys):
    path = tmp_path / "scan.yaml"
    path.write_text("scan:\n  parameter: coupler\n  values: [10.0, 30.0, 60.0]\n")
    assert main(["scan", "--config", str(path), "--format", "csv"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "coupler_af,k13_ghz,ratio_13_over_12,fidelity_deficit"
    deficits = [float(l.split(",")[-1]) for l in lines[1:4]]
    assert deficits[0] < deficits[1] < deficits[2]


def test_cli_structured_round_trip(capsys):
    assert main(["derive", "--format", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "derive"
    assert doc["energies_ghz"]["k12"] == pytest.approx(2.8020385818437457)
    assert doc["crosstalk"]["neglect_justified"] is True


def test_cli_csv_key_value_fallback(capsys):
    assert main(["prepare", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "key,value"
    assert "command,prepare" in out


def test_cli_output_file(tmp_path, capsys):
    target = tmp_path / "out.txt"
    assert main(["derive", "--output", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["derive"]) == 0
    assert target.read_text() == capsys.readouterr().out


def test_cli_unwritable_output_is_a_config_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.txt"
    assert main(["derive", "--output", str(target)]) == 2
    captured = capsys.readouterr()
    assert f"config error: output.path: cannot write {target}" in captured.err
    assert captured.out == ""


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("device:\n  banana: 1\n")
    assert main(["derive", "--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err

    assert main(["verify", "--shots", "10"]) == 2
    assert "seed" in capsys.readouterr().err

    assert main(["verify", "--shots", "-5", "--seed", "1"]) == 2
    capsys.readouterr()

    weak = tmp_path / "weak.yaml"
    weak.write_text("device:\n  josephson_energy_ghz: [0.01, 0.01, 0.01]\n")
    assert main(["prepare", "--config", str(weak)]) == 3
    assert "infeasible pulse" in capsys.readouterr().err


def test_cli_contract_violation_exits_4(monkeypatch, capsys):
    def broken(network, settings):
        raise ContractViolationError("boom")

    monkeypatch.setattr(cli, "derive_energies", broken)
    assert main(["derive"]) == 4
    captured = capsys.readouterr()
    assert captured.err == "error: boom\n"
    assert captured.out == ""


def test_cli_entry_exits_with_the_main_code(monkeypatch, capsys):
    # gc.freeze is replaced by a recorder, so this process is never frozen
    events = []

    def recorded_main():
        code = main()
        events.append(("main returned", code))
        return code

    monkeypatch.setattr(cli, "main", recorded_main)
    monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
    for argv, code in ((["timing"], 0), (["yyy", "--shots", "10", "--seed", "-1"], 2)):
        events.clear()
        monkeypatch.setattr(sys, "argv", ["ghzsim", *argv])
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code == code
        assert events == [("main returned", code), "freeze"]
        captured = capsys.readouterr()
        assert bool(captured.out) == (code == 0)
        assert bool(captured.err) == (code == 2)


def _child(argv, env=(), **kwargs):
    """Run ``argv`` from the repository root with ghzsim importable, ``env``
    laid over this process's environment (a value of None unsets the name)."""
    merged = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    merged.update(env)
    return subprocess.run(argv, cwd=ROOT, timeout=120, check=False,
                          env={k: v for k, v in merged.items() if v is not None}, **kwargs)


def test_console_run_prints_the_golden_bytes():
    # the in-process goldens call main() and never pass through entry()
    proc = _child([sys.executable, "-m", "ghzsim", "derive", "--format", "csv"],
                  capture_output=True)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (ROOT / "tests" / "golden" / "cli" / "derive.csv.txt").read_bytes()


@pytest.mark.parametrize("unbuffered", ["1", None])
def test_console_run_into_a_closed_pipe_exits_1_in_one_line(unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _child([sys.executable, "-m", "ghzsim", "derive"],
                      env={"PYTHONUNBUFFERED": unbuffered}, stdout=write_end,
                      stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b"error: cannot write to stdout: Broken pipe\n"


def test_console_run_without_stdout_exits_1_in_one_line(tmp_path):
    command = [sys.executable, "-m", "ghzsim", "derive"]
    proc = _child(["/bin/sh", "-c", 'exec "$@" >&-', "sh", *command], capture_output=True)
    assert proc.returncode == 1
    assert proc.stderr == b"error: cannot write to stdout: Bad file descriptor\n"
    # a run that writes its output to a file does not need stdout
    out = tmp_path / "derive.txt"
    proc = _child(["/bin/sh", "-c", 'exec "$@" >&-', "sh", *command, "--output", str(out)],
                  capture_output=True)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert out.read_text(encoding="utf-8").startswith("command: derive\n")


def test_importing_the_library_leaves_the_collector_alone():
    # only entry() freezes; sampling imports numpy.random when it first draws
    code = ("import gc, sys, ghzsim; print(gc.get_freeze_count(), gc.isenabled()); "
            "import ghzsim.cli; print('numpy.random' in sys.modules)")
    proc = _child([sys.executable, "-c", code], capture_output=True)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == b"0 True\nFalse\n"


def _imports(*args):
    """Every module a ``python *args`` child imports."""
    proc = _child([sys.executable, "-X", "importtime", *args], capture_output=True)
    assert proc.returncode == 0, proc.stderr
    return {line.split("|")[2].strip() for line in proc.stderr.decode().splitlines()
            if line.startswith("import time:")}


@pytest.mark.parametrize("argv, unused", [
    (["derive"], ("core", "effective", "pulses", "protocols")),
    (["timing"], ("core", "effective", "pulses", "protocols")),
    (["scan"], ("pulses", "protocols")),
    # no device is driven, so protocols leaves pulses and effective unloaded
    (["yyy", "--shots", "1000", "--seed", "3"], ("effective", "pulses")),
    (["verify", "--mode", "ideal"], ("effective", "pulses")),
    (["prepare"], ("protocols",)),
])
def test_each_command_imports_only_the_layers_it_runs(argv, unused):
    imported = _imports("-m", "ghzsim", *argv)
    assert {"ghzsim.circuit", "ghzsim.config", "ghzsim.cli"} <= imported
    assert {f"ghzsim.{layer}" for layer in unused} & imported == set()
    # a table needs neither renderer's module, and the records no dataclasses
    assert {"json", "csv", "dataclasses"} & imported == set()
    if argv == ["scan"]:
        assert {"ghzsim.core", "ghzsim.effective"} <= imported


def test_importing_the_library_still_imports_numpy_and_yaml():
    # the benchmark reads both lines out of `-X importtime -c "import ghzsim"`
    assert {"ghzsim", "numpy", "yaml"} <= _imports("-c", "import ghzsim")


def _exports():
    """name -> defining module for every name ``ghzsim`` exports: each public
    class and function the layers define, and the config's two entry points."""
    exports = {"RunConfig": config, "load_config": config}
    for layer in ("circuit", "core", "effective", "errors", "protocols", "pulses"):
        module = importlib.import_module(f"ghzsim.{layer}")
        exports.update({name: module for name, value in vars(module).items()
                        if not name.startswith("_")
                        and getattr(value, "__module__", None) == module.__name__})
    return exports


def test_the_namespace_resolves_every_export_to_its_defining_module():
    exports = _exports()
    assert len(exports) == 57
    for name, module in exports.items():
        assert getattr(ghzsim, name) is getattr(module, name), name
    layers = ("core", "effective", "protocols", "pulses")
    assert {*exports, *layers} <= set(dir(ghzsim))
    with pytest.raises(AttributeError, match="has no attribute 'teleport'"):
        ghzsim.teleport  # noqa: B018
    # a layer is an attribute of the package before anything imports it
    code = ("import ghzsim, sys; "
            f"print([getattr(ghzsim, m) is sys.modules['ghzsim.' + m] for m in {layers!r}])")
    proc = _child([sys.executable, "-c", code], capture_output=True)
    assert (proc.returncode, proc.stdout) == (0, b"[True, True, True, True]\n"), proc.stderr


def test_a_star_import_binds_every_export_and_nothing_else():
    code = "from ghzsim import *; print(sorted(name for name in dir() if name[0] != '_'))"
    proc = _child([sys.executable, "-c", code], capture_output=True)
    assert proc.returncode == 0, proc.stderr
    bound = proc.stdout.decode()
    assert "importlib" not in bound
    assert bound == f"{sorted(_exports())}\n"


@pytest.mark.parametrize("stderr", ["closed", "broken pipe"])
@pytest.mark.parametrize("unbuffered", ["1", None])
def test_config_error_without_a_stderr_still_exits_2(stderr, unbuffered):
    # the error line is dropped: never moved to stdout, never turned into exit 1
    command = [sys.executable, "-m", "ghzsim", "yyy", "--shots", "3", "--seed", "-1"]
    env = {"PYTHONUNBUFFERED": unbuffered}
    if stderr == "closed":
        proc = _child(["/bin/sh", "-c", 'exec "$@" 2>&-', "sh", *command], env=env,
                      stdout=subprocess.PIPE)
    else:
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = _child(command, env=env, stdout=subprocess.PIPE, stderr=write_end)
        finally:
            os.close(write_end)
    assert (proc.returncode, proc.stdout) == (2, b"")


def test_cli_rejects_negative_seed_flag(capsys):
    assert main(["yyy", "--shots", "10", "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "config error: protocol.seed: must be non-negative, got -1\n"


def test_cli_rejects_negative_seed_in_config(tmp_path, capsys):
    path = tmp_path / "seed.yaml"
    path.write_text("protocol:\n  shots: 10\n  seed: -1\n")
    assert main(["yyy", "--config", str(path)]) == 2
    assert capsys.readouterr().err == "config error: protocol.seed: must be non-negative, got -1\n"


def test_cli_flags_complete_the_file_before_validation(tmp_path, capsys):
    path = tmp_path / "shots.yaml"
    path.write_text("protocol:\n  shots: 100\n")
    assert main(["verify", "--config", str(path), "--seed", "5"]) == 0
    merged = capsys.readouterr().out
    assert main(["verify", "--shots", "100", "--seed", "5"]) == 0
    flags_only = capsys.readouterr().out
    assert merged == flags_only.replace("source: builtin reference device",
                                        f"source: {path}")
    assert main(["verify", "--config", str(path), "--shots", "0"]) == 0
    assert "shots: 0" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["derive", "timing", "scan"])
def test_cli_rejects_negative_seed_without_sampling(tmp_path, capsys, command):
    path = tmp_path / "seed.yaml"
    path.write_text("protocol:\n  seed: -1\n")
    assert main([command, "--config", str(path)]) == 2
    assert capsys.readouterr().err == "config error: protocol.seed: must be non-negative, got -1\n"


@pytest.mark.parametrize("command, qubit, coupling", [
    (["prepare"], 1, "k12"),
    (["verify", "--mode", "effective"], 1, "k12"),
    (["verify", "--mode", "full"], 3, "k23"),
    (["mermin"], 3, "k23"),
])
def test_cli_zero_coupler_is_infeasible(tmp_path, capsys, command, qubit, coupling):
    couplers = "[0.0, 30.0]" if qubit == 1 else "[30.0, 0.0]"
    path = tmp_path / "zero.yaml"
    path.write_text(f"device:\n  coupler_capacitance_af: {couplers}\n")
    assert main(command + ["--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert f"conditional flip of qubit {qubit}" in err
    assert f"{coupling} = 0.0 GHz" in err


@pytest.mark.parametrize("command, code", [
    (["verify", "--mode", "effective"], 3),
    (["verify", "--mode", "full"], 3),
    (["prepare"], 0),
])
def test_cli_strong_coupler_is_infeasible(tmp_path, capsys, command, code):
    path = tmp_path / "strong.yaml"
    path.write_text("device:\n  coupler_capacitance_af: [300.0, 300.0]\n")
    assert main(command + ["--config", str(path)]) == code
    if code:
        assert "zeta12" in capsys.readouterr().err


# The capacitances each document's screening error prints, in aF.
_SCREENED_CAPS = {
    "device: {coupler_capacitance_af: [1e-300, 1e-300]}":
        "(600.0, 600.0, 600.0), (0.6, 0.6, 0.6), (1e-300, 1e-300)",
    "device: {coupler_capacitance_af: [1e-160, 1e-160]}":
        "(600.0, 600.0, 600.0), (0.6, 0.6, 0.6), (1e-160, 1e-160)",
    "device: {coupler_capacitance_af: [1e200, 1e200], junction_capacitance_af: [1e200, 1e200, "
    "1e200]}": "(1e+200, 1e+200, 1e+200), (0.6, 0.6, 0.6), (1e+200, 1e+200)",
    "scan: {parameter: coupler, values: [1e300]}":
        "(600.0, 600.0, 600.0), (0.6, 0.6, 0.6), (1e+300, 1e+300)",
    "scan: {parameter: coupler, values: [1e-300]}":
        "(600.0, 600.0, 600.0), (0.6, 0.6, 0.6), (1e-300, 1e-300)",
}


@pytest.mark.parametrize("command, text", [
    *[(command, "device: {coupler_capacitance_af: [1e-300, 1e-300]}")
      for command in (["derive"], ["prepare"], ["verify", "--mode", "full"], ["mermin"],
                      ["timing"])],
    (["derive"], "device: {coupler_capacitance_af: [1e-160, 1e-160]}"),
    (["derive"], "device: {coupler_capacitance_af: [1e200, 1e200], "
                 "junction_capacitance_af: [1e200, 1e200, 1e200]}"),
    (["scan"], "scan: {parameter: coupler, values: [1e300]}"),
    (["scan"], "scan: {parameter: coupler, values: [1e-300]}"),
])
def test_cli_screening_out_of_float_range_is_a_config_error(tmp_path, capsys, command, text):
    path = tmp_path / "extreme.yaml"
    path.write_text(text + "\n")
    assert main(command + ["--config", str(path)]) == 2
    assert capsys.readouterr() == ("", f"config error: capacitances {_SCREENED_CAPS[text]} aF "
                                       "take the network screening out of floating-point range\n")


@pytest.mark.parametrize("command", [["derive"], ["timing"], ["prepare"], ["mermin"],
                                     ["verify", "--mode", "full"]])
def test_cli_josephson_maximum_out_of_float_range_is_a_config_error(tmp_path, capsys, command):
    # in schema, but ej_max = 2 * eps_j overflows to inf
    path = tmp_path / "huge.yaml"
    path.write_text("device: {josephson_energy_ghz: [1.7e308, 1.7e308, 1.7e308]}\n")
    assert main(command + ["--config", str(path)]) == 2
    assert capsys.readouterr() == ("", "config error: device.josephson_energy_ghz[0]: must keep "
                                       "2 * eps_j finite, got 1.7e+308\n")


def _josephson(eps: str) -> str:
    return f"device: {{josephson_energy_ghz: [{eps}, {eps}, {eps}]}}"


@pytest.mark.parametrize("command, text", [
    *[(command, text)
      for text in ("device: {josephson_energy_ghz: [5.6, 1.0e-320, 5.6]}",
                   "device: {coupler_capacitance_af: [1.0e-160, 30.0]}",
                   _josephson("2.9e307"), _josephson("8.9e307"))
      for command in (["prepare"], ["verify", "--mode", "full"],
                      ["verify", "--mode", "effective"], ["mermin"])],
    *[(["verify", "--mode", mode], _josephson(eps))
      for eps in ("1.5e307", "2.8e307") for mode in ("full", "effective")],
])
def test_cli_pulse_outside_float_range_is_infeasible(tmp_path, capsys, command, text):
    # A subnormal drive makes the superposition time overflow; a subnormal
    # (2*K12)^2 leaves the flip's closure residual at 3e-5.  With 2 * eps_j
    # finite, 2*pi times a pulse's largest eigenvalue still overflows (the
    # outer pair's from eps_j = 1.43e307, every pulse's from 2.87e307), and
    # from 2.3e307 so does 8 * eps_j, which would time a quarter rotation at
    # 0.0 ns.  Empty stdout: no nan is printed.
    path = tmp_path / "subnormal.yaml"
    path.write_text(text + "\n")
    assert main(command + ["--config", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("infeasible pulse: ")
    assert "cannot be timed in floating point" in captured.err
    assert captured.out == ""


def test_cli_device_without_interference_timing_prepares_but_is_not_verified(tmp_path, capsys):
    # a weak middle junction gives zeta12 = 1.401: the preparation does not
    # need the second-order timing, the full-mode interference pulses do
    path = tmp_path / "weak_middle.yaml"
    path.write_text("device: {josephson_energy_ghz: [5.6, 1.0, 5.6]}\n")
    assert main(["prepare", "--config", str(path)]) == 0
    assert "fidelity: 0.99999999999999" in capsys.readouterr().out
    assert main(["verify", "--mode", "full", "--config", str(path)]) == 3
    assert capsys.readouterr() == ("", "infeasible pulse: the second-order pulse timing needs "
                                       "zeta12 < 1, but the device gives "
                                       "zeta12 = 1.4010192909218728\n")


@pytest.mark.parametrize("command", [["prepare"], ["mermin"], ["verify", "--mode", "full"],
                                     ["verify", "--mode", "effective"]])
def test_cli_flip_whose_phases_cannot_be_resolved_is_infeasible(tmp_path, capsys, command):
    # A 1e-300 aF coupler times qubit 1's flip at 4.7e300 ns, through which
    # the middle qubit's bias of -2*K23 turns phases that floating point
    # cannot resolve: it used to print fidelity 0.24999999999999983.
    path = tmp_path / "weak_coupler.yaml"
    path.write_text("device: {coupler_capacitance_af: [1e-300, 30]}\n")
    assert main(command + ["--config", str(path)]) == 3
    assert capsys.readouterr() == ("", "infeasible pulse: the conditional-flip-q1 pulse "
                                       "accumulates phases up to 2.607410330055633e+302 rad in "
                                       "4.7222192054961867e+300 ns, which cannot be resolved in "
                                       "floating point\n")


_OFF_IDLE = {
    "gate_charge": ("device: {gate_charge: [0.5, 0.3, 0.5]}",
                    "device.gate_charge[1]: pulses need the idle gate charge 0.5, got 0.3"),
    "flux": ("device: {flux: [0.5, 0.5, 0.4]}",
             "device.flux[2]: pulses need a half-integer idle flux, got 0.4"),
}


@pytest.mark.parametrize("field", sorted(_OFF_IDLE))
@pytest.mark.parametrize("command", [["prepare"], ["mermin"], ["verify", "--mode", "full"],
                                     ["verify", "--mode", "effective"], ["scan"]])
def test_cli_pulse_commands_refuse_a_device_away_from_its_idle_point(tmp_path, capsys, command,
                                                                     field):
    text, message = _OFF_IDLE[field]
    if command == ["scan"]:
        text += "\nscan: {parameter: coupler}"
    path = tmp_path / "off_idle.yaml"
    path.write_text(text + "\n")
    assert main(command + ["--config", str(path)]) == 2
    assert capsys.readouterr() == ("", f"config error: {message}\n")


@pytest.mark.parametrize("command", [["derive"], ["timing"], ["yyy"], ["verify"], ["scan"]])
def test_cli_commands_without_pulses_run_away_from_the_idle_point(capsys, command):
    # the ideal verification and the zeta scan never read the device
    assert main(command + ["--config", str(ROOT / "tests/configs/off_idle_device.yaml")]) == 0
    assert capsys.readouterr().err == ""


def test_cli_any_half_integer_flux_is_the_idle_point(tmp_path, capsys):
    path = tmp_path / "half_integer.yaml"
    path.write_text("device: {flux: [1.5, -0.5, 2.5]}\n")
    assert main(["prepare", "--config", str(path)]) == 0
    shifted = capsys.readouterr().out
    assert main(["prepare"]) == 0
    assert shifted.replace(str(path), "builtin reference device") == capsys.readouterr().out


# In-schema magnitudes at the edges of float range, plus values each field rejects.
_EXTREMES = (0.0, -1.0, 5e-324, 1e-300, 1e-160, 1e200, 1e300, 5e307, 1.7e308, float("nan"),
             float("-inf"), True, "x")
_NUMBERS = st.one_of(st.sampled_from(_EXTREMES), st.floats(0.0, 1e3), st.integers(-3, 3))


def _entries(element=_NUMBERS, size=3):
    return st.lists(element, min_size=size - 1, max_size=size + 1)


def _documents(out_path: str):
    device = st.fixed_dictionaries({}, optional={
        "junction_capacitance_af": _entries(),
        "gate_capacitance_af": _entries(),
        "coupler_capacitance_af": _entries(size=2),
        # the idle point, drawn often, so more documents reach the pulse commands
        "gate_charge": st.one_of(st.just([0.5] * 3),
                                 _entries(st.one_of(st.floats(0.0, 1.0), _NUMBERS))),
        "flux": st.one_of(st.lists(st.sampled_from((0.5, -0.5, 1.5)), min_size=3, max_size=3),
                          _entries()),
        "josephson_energy_ghz": _entries(),
        "readout_time_ns": _NUMBERS,
    })
    protocol = st.fixed_dictionaries({}, optional={
        "mode": st.sampled_from(("ideal", "effective", "full", "exact")),
        "shots": st.sampled_from((0, 1, 500, -1, 10**7 + 1, 2.5, True)),
        "seed": st.one_of(st.none(), st.integers(-1, 2**40), st.just("x")),
        "sign": st.sampled_from(("plus", "minus", "+")),
        "include_k13": st.sampled_from((False, True, 1)),
    })
    scan = st.fixed_dictionaries({}, optional={
        "parameter": st.sampled_from(("zeta", "coupler", "kappa")),
        "target": st.sampled_from(("middle", "outer", "both")),
        "values": st.lists(st.one_of(st.floats(0.0, 0.49), _NUMBERS), max_size=3),
    })
    output = st.fixed_dictionaries({}, optional={
        "format": st.sampled_from(("table", "csv", "structured", "xml")),
        "path": st.sampled_from((None, out_path, 7)),
    })
    sections = st.fixed_dictionaries({}, optional={
        "device": device, "protocol": protocol, "scan": scan, "output": output,
        "detector": st.just({}),
    })
    return st.one_of(sections, st.sampled_from(([1, 2], "device", 3)))


def _run_document(directory, command, doc):
    """Run one command on ``doc`` and check that it ends in a documented
    exit code with the matching stderr prefix; returns (code, stdout)."""
    path = directory / "doc.yaml"
    path.write_text(yaml.safe_dump(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--config", str(path)])
    prefix = {0: "", 2: "config error: ", 3: "infeasible pulse: ", 4: "error: "}[code]
    assert err.getvalue().startswith(prefix)
    # every device error names its key, as device.<key>, but a section that is no mapping
    assert (not err.getvalue().startswith("config error: device: ")
            or err.getvalue() == "config error: device: expected a mapping\n")
    assert bool(err.getvalue()) == (code != 0)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


_COMMANDS = ["derive", "prepare", "verify", "mermin", "yyy", "scan", "timing"]


@pytest.mark.parametrize("command", _COMMANDS)
@settings(max_examples=12, derandomize=True, deadline=None)
@given(data=st.data())
def test_cli_random_documents_end_in_a_documented_exit_code(fuzz_dir, command, data):
    out_file = fuzz_dir / "out.txt"
    out_file.unlink(missing_ok=True)
    code, out = _run_document(fuzz_dir, command, data.draw(_documents(str(out_file))))
    if code == 0:  # the document went to stdout or to output.path
        written = out_file.read_text() if out_file.exists() else ""
        assert "nan" not in out + written


# The fields of a document that hold numbers, as (section, name).
_NUMERIC_FIELDS = tuple((section, name) for section, fields in DEFAULT_CONFIG.items()
                        for name, value in fields.items()
                        if name == "seed" or type(value) in (int, float, list))


def _one_field_off(field, value):
    """A valid document, run in full mode with shots, whose one numeric field
    holds ``value``: in every entry, if the field is a list."""
    section, name = field
    default = DEFAULT_CONFIG[section][name]
    doc = {"protocol": {"mode": "full", "shots": 500, "seed": 7}}
    doc.setdefault(section, {})[name] = [value] * len(default) if isinstance(default, list) \
        else value
    return doc


# Hypothesis draws each distinct example once, so as many examples as there
# are (field, value) pairs run every pair: the overflow window included.
@pytest.mark.parametrize("command", _COMMANDS)
@settings(max_examples=len(_NUMERIC_FIELDS) * len(_EXTREMES), derandomize=True, deadline=None)
@given(field=st.sampled_from(_NUMERIC_FIELDS), value=st.sampled_from(_EXTREMES))
def test_cli_one_extreme_field_ends_in_a_documented_exit_code(fuzz_dir, command, field, value):
    code, out = _run_document(fuzz_dir, command, _one_field_off(field, value))
    if code == 0:
        assert "nan" not in out


def _log_uniform(low, high):
    return st.floats(math.log10(low), math.log10(high)).map(lambda e: 10.0 ** e)


def _valid_devices():
    """Device sections that pass validation, at the default idle point."""
    def triple(element, size=3):
        return st.lists(element, min_size=size, max_size=size)
    return st.fixed_dictionaries({
        "junction_capacitance_af": triple(_log_uniform(1e-3, 1e6)),
        "gate_capacitance_af": triple(_log_uniform(1e-3, 1e6)),
        "coupler_capacitance_af": triple(st.one_of(st.just(0.0), _log_uniform(1e-300, 1e6)), 2),
        "josephson_energy_ghz": triple(_log_uniform(1e-6, 1e6)),
    })


# The commands that time and run pulses, each with the sections that select it.
_PULSE_RUNS = {
    "prepare": ("prepare", {}),
    "verify-full": ("verify", {"protocol": {"mode": "full"}}),
    "verify-effective": ("verify", {"protocol": {"mode": "effective"}}),
    "mermin": ("mermin", {}),
    "scan-coupler": ("scan", {"scan": {"parameter": "coupler"}}),
}


@pytest.mark.parametrize("run", sorted(_PULSE_RUNS))
@settings(max_examples=20, derandomize=True, deadline=None)
@given(device=_valid_devices())
def test_cli_pulse_commands_on_valid_devices_end_in_a_documented_exit_code(fuzz_dir, run,
                                                                           device):
    # a valid device either runs or is refused as a config error or an
    # infeasible pulse; a contract violation would be the program's fault
    command, sections = _PULSE_RUNS[run]
    code, out = _run_document(fuzz_dir, command, dict(sections, device=device))
    assert code in (0, 2, 3)
    if code == 0:
        assert "nan" not in out


def test_cli_rejects_unknown_command():
    with pytest.raises(SystemExit):
        main(["teleport"])
    with pytest.raises(SystemExit):
        main([])


def test_every_cli_flag_names_a_config_field():
    # main routes each flag by its name alone, so a flag without a
    # protocol/output field of that name would be dropped without a word
    fields = set(DEFAULT_CONFIG["protocol"]) | set(DEFAULT_CONFIG["output"])
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert len(subparsers.choices) == 7
    for command, parser in subparsers.choices.items():
        dests = {action.dest for action in parser._actions} - {"help", "config", "command"}
        assert dests <= fields, (command, dests - fields)


def test_cli_choices_are_the_config_lists():
    # argparse offers exactly the values config validation accepts
    accepted = {"mode": config._MODES, "sign": tuple(config._SIGNS), "format": config._FORMATS}
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    seen = set()
    for parser in subparsers.choices.values():
        for action in parser._actions:
            if action.choices is not None:
                assert tuple(action.choices) == accepted[action.dest]
                seen.add(action.dest)
    assert seen == set(accepted)
