"""Command-line interface.

Seven subcommands cover the package capabilities:

* ``derive``   capacitance screening, energies, crosstalk and timing margins
* ``prepare``  run the three-step entangling sequence and report fidelities
* ``verify``   interference test of the prepared state
* ``mermin``   the four certainty correlations against the local bound
* ``yyy``      y-basis sampling of the entangled state
* ``scan``     effective-vs-exact error scan or coupler-strength scan
* ``timing``   readout timing margins alone

Every command accepts ``--config`` (YAML, see ghzsim.config; omitted means
the built-in reference device), ``--format table|csv|structured`` and
``--output PATH``.  Each flag overrides its config field: the flags given
are laid over the file and ghzsim.config validates the merged document once.
Command output is a pure function of that configuration: identical
invocations produce byte-identical bytes, with all randomness drawn from the
configured seed.

Exit codes: 0 success, 2 configuration problem, 3 no feasible pulse within
the search bounds, 4 violated internal contract.
"""

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path

from .circuit import (
    CapacitanceNetwork,
    DerivedEnergies,
    crosstalk_ratio,
    derive_energies,
    effective_capacitances,
    readout_timing_margin,
)
from .config import RunConfig, load_config
from .core import ghz_state
from .effective import effective_error_scan, fitted_loglog_slope
from .errors import ConfigError, ContractViolationError, InfeasiblePulseError, SimulationError
from .protocols import (
    enumerate_lhv_assignments,
    lhv_prediction,
    mermin_expectations,
    mermin_operator,
    verify_ghz,
    yyy_experiment,
)
from .pulses import ghz_prepare

_PROTOCOL_FLAGS = ("mode", "shots", "seed", "sign", "include_k13")
_OUTPUT_FLAGS = ("format", "path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghzsim",
        description="Simulation of entangled-state preparation in a chain of "
                    "three capacitively coupled charge qubits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", metavar="PATH", default=None,
                       help="YAML run configuration (default: built-in device)")
        p.add_argument("--format", choices=("table", "csv", "structured"), default=None,
                       help="output format (default from config)")
        p.add_argument("--output", dest="path", metavar="PATH", default=None,
                       help="write output to a file instead of stdout")

    p = sub.add_parser("derive", help="derived capacitances, energies and margins")
    common(p)

    p = sub.add_parser("prepare", help="run the entangling pulse sequence")
    common(p)
    p.add_argument("--sign", choices=("plus", "minus"), default=None,
                   help="target relative phase (default from config)")
    p.add_argument("--include-k13", action="store_true", default=None,
                   help="keep the next-nearest-neighbour coupling on")

    p = sub.add_parser("verify", help="interference test of the prepared state")
    common(p)
    p.add_argument("--mode", choices=("ideal", "effective", "full"), default=None)
    p.add_argument("--shots", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--include-k13", action="store_true", default=None)

    p = sub.add_parser("mermin", help="certainty correlations vs the local bound")
    common(p)
    p.add_argument("--include-k13", action="store_true", default=None)

    p = sub.add_parser("yyy", help="sample all qubits in the y basis")
    common(p)
    p.add_argument("--shots", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("scan", help="error scan over zeta or coupler strength")
    common(p)

    p = sub.add_parser("timing", help="readout timing margins")
    common(p)

    return parser


def _overrides(args) -> dict:
    """The flags the user set, in the config file's schema."""
    given = {key: value for key, value in vars(args).items() if value is not None}
    return {
        "protocol": {key: given[key] for key in _PROTOCOL_FLAGS if key in given},
        "output": {key: given[key] for key in _OUTPUT_FLAGS if key in given},
    }


def _with_counts(doc: dict, record) -> dict:
    if record is not None:
        doc["counts"] = [{"outcome": k, "count": v} for k, v in record.counts.items()]
    return doc


def _timing_rows(energies: DerivedEnergies, t_measure: float) -> list:
    rows = []
    for name, k in (("k12", energies.k12), ("k23", energies.k23), ("k13", energies.k13)):
        if k <= 0.0:
            continue
        margin = readout_timing_margin(k, t_measure)
        rows.append({
            "coupling": name,
            "k_ghz": k,
            "t_c_ns": margin.t_c,
            "margin": margin.margin,
            "acceptable": margin.acceptable,
        })
    return rows


def _cmd_derive(cfg: RunConfig) -> dict:
    caps = effective_capacitances(cfg.network)
    energies = derive_energies(cfg.network, cfg.settings)
    cross = crosstalk_ratio(energies)
    return {
        "command": "derive",
        "source": cfg.source,
        "capacitance_af": {
            "c_sigma": list(caps.c_sigma),
            "c_det": caps.c_det,
            "c_sigma_eff": list(caps.c_sigma_eff),
            "c_pair_12": caps.c_pair_12,
            "c_pair_23": caps.c_pair_23,
            "c_pair_13": caps.c_pair_13,
        },
        "energies_ghz": {
            "e_c": list(energies.e_c),
            "e_j": list(energies.e_j),
            "ej_max": list(energies.ej_max),
            "k12": energies.k12,
            "k23": energies.k23,
            "k13": energies.k13,
            "zeta12": energies.zeta12,
            "zeta23": energies.zeta23,
        },
        "crosstalk": {
            "ratio_13_over_12": cross.ratio_12,
            "ratio_13_over_23": cross.ratio_23,
            "threshold": cross.threshold,
            "neglect_justified": cross.neglect_justified,
            "uncoupled": cross.uncoupled,
        },
        "readout_timing": {
            "t_measure_ns": cfg.readout_time,
            "rows": _timing_rows(energies, cfg.readout_time),
        },
    }


def _cmd_prepare(cfg: RunConfig) -> dict:
    energies = derive_energies(cfg.network, cfg.settings)
    _, schedule, report = ghz_prepare(energies, cfg.protocol.sign,
                                      include_k13=cfg.protocol.include_k13)
    flip_rows = []
    for seg, sol in zip(schedule.segments[1:], report.flip_solutions):
        flip_rows.append({
            "segment": seg.label,
            "e_j_ghz": sol.e_j,
            "t_ns": sol.t,
            "m": sol.m,
            "n": sol.n,
            "residual_rotation": sol.residuals[0],
            "residual_closure": sol.residuals[1],
        })
    return {
        "command": "prepare",
        "source": cfg.source,
        "sign": report.sign,
        "fidelity": report.fidelity,
        "fidelity_deficit": 1.0 - report.fidelity,
        "intermediate_fidelities": list(report.intermediate_fidelities),
        "achieved_phase_rad": report.achieved_phase,
        "superposition_time_ns": report.superposition_time,
        "total_duration_ns": report.total_duration,
        "k13_included": report.k13_included,
        "k13_ghz": energies.k13 if report.k13_included else 0.0,
        "flips": flip_rows,
    }


def _cmd_verify(cfg: RunConfig) -> dict:
    p = cfg.protocol
    energies = None if p.mode == "ideal" else derive_energies(cfg.network, cfg.settings)
    outcome = verify_ghz(energies, p.mode, p.shots, p.seed, include_k13=p.include_k13)
    return _with_counts({
        "command": "verify",
        "source": cfg.source,
        "mode": outcome.mode,
        "postselect_probability": outcome.postselect_probability,
        "probabilities": {k: outcome.probabilities[k] for k in sorted(outcome.probabilities)},
        "expectations": dict(outcome.expectations),
        "shots": p.shots,
        "seed": p.seed if p.shots else None,
    }, outcome.counts)


def _cmd_mermin(cfg: RunConfig) -> dict:
    energies = derive_energies(cfg.network, cfg.settings)
    state, _, report = ghz_prepare(energies, "+", include_k13=cfg.protocol.include_k13)
    values = mermin_expectations(state)
    product = (mermin_operator("yxx") @ mermin_operator("xyx") @ mermin_operator("xxy")).matrix
    identity_residual = float(abs(product + mermin_operator("yyy").matrix).max())
    survivors = enumerate_lhv_assignments()
    lhv_value = lhv_prediction(survivors[0])
    quantum_yyy = values["yyy"]
    rows = [{"observable": obs, "quantum": val} for obs, val in values.items()]
    contradiction = quantum_yyy < 0.0 < lhv_value
    return {
        "command": "mermin",
        "source": cfg.source,
        "preparation_fidelity": report.fidelity,
        "expectations": rows,
        "operator_identity_residual": identity_residual,
        "lhv": {
            "consistent_assignments": len(survivors),
            "yyy_prediction": lhv_value,
        },
        "quantum_yyy": quantum_yyy,
        "contradiction": contradiction,
        "verdict": (
            "quantum yyy = -1 vs local realistic yyy = +1: "
            "no local hidden-variable model reproduces these correlations"
            if contradiction else "no contradiction detected"
        ),
    }


def _cmd_yyy(cfg: RunConfig) -> dict:
    p = cfg.protocol
    outcome = yyy_experiment(ghz_state("+"), p.shots, p.seed)
    even_count = None
    if p.shots:
        even_count = sum(c for lab, c in outcome.counts.counts.items() if lab.count("1") % 2 == 0)
    return _with_counts({
        "command": "yyy",
        "source": cfg.source,
        "shots": p.shots,
        "seed": p.seed if p.shots else None,
        "probabilities": {k: outcome.probabilities[k] for k in sorted(outcome.probabilities)},
        "even_parity_count": even_count,
        "even_parity_fraction": outcome.expectations["even_parity_fraction"],
        "yyy_expectation": outcome.expectations["yyy_expectation"],
    }, outcome.counts)


def _cmd_scan(cfg: RunConfig) -> dict:
    scan = cfg.scan
    if scan.parameter == "zeta":
        table = effective_error_scan(scan.values, scan.target)
        rows = [{"zeta": z, "error": e} for z, e in table]
        try:
            slope = fitted_loglog_slope(table)
        except ContractViolationError:
            slope = None
        return {
            "command": "scan",
            "source": cfg.source,
            "parameter": "zeta",
            "target": scan.target,
            "rows": rows,
            "fitted_log_log_slope": slope,
        }
    rows = []
    for value in scan.values:
        network = CapacitanceNetwork(cfg.network.c_junction, cfg.network.c_gate,
                                     (value, value))
        energies = derive_energies(network, cfg.settings)
        _, _, report = ghz_prepare(energies, "+", include_k13=True)
        rows.append({
            "coupler_af": value,
            "k13_ghz": energies.k13,
            "ratio_13_over_12": energies.k13 / energies.k12,
            "fidelity_deficit": 1.0 - report.fidelity,
        })
    return {
        "command": "scan",
        "source": cfg.source,
        "parameter": "coupler",
        "rows": rows,
    }


def _cmd_timing(cfg: RunConfig) -> dict:
    energies = derive_energies(cfg.network, cfg.settings)
    return {
        "command": "timing",
        "source": cfg.source,
        "t_measure_ns": cfg.readout_time,
        "rows": _timing_rows(energies, cfg.readout_time),
    }


_COMMANDS = {
    "derive": _cmd_derive,
    "prepare": _cmd_prepare,
    "verify": _cmd_verify,
    "mermin": _cmd_mermin,
    "yyy": _cmd_yyy,
    "scan": _cmd_scan,
    "timing": _cmd_timing,
}


def _format_scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "-"
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return repr(value)
    return str(value)


def _is_record_list(value) -> bool:
    return (isinstance(value, list) and value
            and all(isinstance(item, dict) for item in value))


def _record_table(rows, indent):
    cols = list(rows[0].keys())
    cells = [[_format_scalar(r.get(c)) for c in cols] for r in rows]
    widths = [len(c) for c in cols]
    for row in cells:
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
    pad = "  " * indent
    lines = [(pad + "  ".join(c.ljust(w) for c, w in zip(cols, widths))).rstrip()]
    for row in cells:
        lines.append((pad + "  ".join(cell.ljust(w) for cell, w in zip(row, widths))).rstrip())
    return lines


def _emit_mapping(mapping, indent, lines):
    pad = "  " * indent
    for key, value in mapping.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            _emit_mapping(value, indent + 1, lines)
        elif _is_record_list(value):
            lines.append(f"{pad}{key}:")
            lines.extend(_record_table(value, indent + 1))
        elif isinstance(value, (list, tuple)):
            lines.append(f"{pad}{key}: {' '.join(_format_scalar(v) for v in value)}")
        else:
            lines.append(f"{pad}{key}: {_format_scalar(value)}")


def _render_table(doc: dict) -> str:
    lines = []
    _emit_mapping(doc, 0, lines)
    return "\n".join(lines) + "\n"


def _flatten(prefix, value, out):
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, out)
    elif _is_record_list(value):
        for i, row in enumerate(value):
            _flatten(f"{prefix}.{i}", row, out)
    elif isinstance(value, (list, tuple)):
        out.append((prefix, " ".join(_format_scalar(v) for v in value)))
    else:
        out.append((prefix, _format_scalar(value)))


def _render_csv(doc: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    rows = doc.get("rows")
    if _is_record_list(rows):
        cols = list(rows[0].keys())
        writer.writerow(cols)
        for row in rows:
            writer.writerow([_format_scalar(row.get(c)) for c in cols])
        for key, value in doc.items():
            if key == "rows" or isinstance(value, (dict, list, tuple)):
                continue
            buf.write(f"# {key} = {_format_scalar(value)}\n")
    else:
        writer.writerow(["key", "value"])
        pairs = []
        _flatten("", doc, pairs)
        for key, value in pairs:
            writer.writerow([key, value])
    return buf.getvalue()


def _jsonable(value):
    if isinstance(value, float) and not math.isfinite(value):
        return _format_scalar(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _render_structured(doc: dict) -> str:
    return json.dumps(_jsonable(doc), indent=2) + "\n"


_RENDERERS = {
    "table": _render_table,
    "csv": _render_csv,
    "structured": _render_structured,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, _overrides(args))
        text = _RENDERERS[cfg.output.format](_COMMANDS[args.command](cfg))
        if cfg.output.path:
            Path(cfg.output.path).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InfeasiblePulseError as exc:
        print(f"infeasible pulse: {exc}", file=sys.stderr)
        return 3
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def entry():
    raise SystemExit(main())
