"""Configuration loading, validation, and the command-line surface."""

import argparse
import json
from pathlib import Path

import pytest

from ghzsim import ConfigError, load_config
from ghzsim.cli import build_parser, main
from ghzsim.config import DEFAULT_CONFIG

REFERENCE_YAML = Path(__file__).resolve().parents[1] / "configs" / "reference_device.yaml"


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


@pytest.mark.parametrize("text, fragment", [
    ("device:\n  banana: 3\n", "device.banana"),
    ("device:\n  junction_capacitance_af: [600.0, 600.0]\n", "list of 3"),
    ("device:\n  gate_charge: [0.5, 1.5, 0.5]\n", "gate_charge[1]"),
    ("device:\n  josephson_energy_ghz: [5.6, 0.0, 5.6]\n", "josephson_energy_ghz[1]"),
    ("protocol:\n  mode: exactish\n", "protocol.mode"),
    ("protocol:\n  shots: 100\n", "protocol.seed"),
    ("protocol:\n  shots: -3\n  seed: 1\n", "protocol.shots"),
    ("protocol:\n  shots: 1e6\n  seed: 1\n", "expected a non-negative integer"),
    ("protocol:\n  shots: 100000000000\n  seed: 1\n", "protocol.shots: at most 10000000"),
    ("protocol:\n  seed: -1\n", "seed must be non-negative"),
    ("protocol:\n  include_k13: 1\n", "protocol.include_k13"),
    ("scan:\n  values: [0.6]\n", "scan.values[0]"),
    ("scan:\n  parameter: coupler\n  values: [0.0]\n", "scan.values[0]"),
    ("scan:\n  values: []\n", "scan.values"),
    ("output:\n  format: xml\n", "output.format"),
])
def test_config_validation_errors(tmp_path, text, fragment):
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert fragment in str(err.value)


@pytest.mark.parametrize("text, values", [
    ("scan:\n  values: [1e-1]\n", (0.1,)),
    ("scan:\n  values: [5e-2, 1.0e-1, .5e-1]\n", (0.05, 0.1, 0.05)),
    ("scan:\n  parameter: coupler\n  values: [2E+1, 3e1, 1_0e0]\n", (20.0, 30.0, 10.0)),
])
def test_config_reads_exponent_notation(tmp_path, text, values):
    path = tmp_path / "exponent.yaml"
    path.write_text(text)
    assert load_config(str(path)).scan.values == values


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
    assert captured.out == (
        "command: scan\n"
        f"source: {path}\n"
        "parameter: zeta\n"
        "target: middle\n"
        "rows:\n"
        "  zeta  error\n"
        "  0.1   0.26205004933976583\n"
        "  0.1   0.26205004933976583\n"
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


def test_cli_rejects_negative_seed_flag(capsys):
    assert main(["yyy", "--shots", "10", "--seed", "-1"]) == 2
    assert "seed must be non-negative" in capsys.readouterr().err


def test_cli_rejects_negative_seed_in_config(tmp_path, capsys):
    path = tmp_path / "seed.yaml"
    path.write_text("protocol:\n  shots: 10\n  seed: -1\n")
    assert main(["yyy", "--config", str(path)]) == 2
    assert "seed must be non-negative" in capsys.readouterr().err


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
    assert "seed must be non-negative" in capsys.readouterr().err


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
    from ghzsim import config
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
