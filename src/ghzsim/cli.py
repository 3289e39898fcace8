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
``--output PATH``.  Each flag is declared once and sets the config field of
the same name (``--output`` sets ``output.path``); the config schema says
which section that field lives in.  The flags given are laid over the file
and ghzsim.config validates the merged document once.
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
from dataclasses import asdict
from pathlib import Path

from .circuit import (
    CapacitanceNetwork,
    DerivedEnergies,
    crosstalk_ratio,
    derive_energies,
    effective_capacitances,
    readout_timing_margin,
)
from .config import _FORMATS, _MODES, _SIGNS, DEFAULT_CONFIG, RunConfig, load_config
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

# Each flag sets the config field of its own name; _overrides finds the section.
_FLAGS = {
    "mode": {"choices": _MODES},
    "shots": {"type": int},
    "seed": {"type": int},
    "sign": {"choices": tuple(_SIGNS), "help": "target relative phase (default from config)"},
    "include_k13": {"action": "store_true",
                    "help": "keep the next-nearest-neighbour coupling on"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghzsim",
        description="Simulation of entangled-state preparation in a chain of "
                    "three capacitively coupled charge qubits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", metavar="PATH", default=None,
                       help="YAML run configuration (default: built-in device)")
        p.add_argument("--format", choices=_FORMATS, default=None,
                       help="output format (default from config)")
        p.add_argument("--output", dest="path", metavar="PATH", default=None,
                       help="write output to a file instead of stdout")
        for name in flags:
            p.add_argument("--" + name.replace("_", "-"), default=None, **_FLAGS[name])
    return parser


def _overrides(args) -> dict:
    """The flags the user set, each in the config section with a field of its name."""
    given = {key: value for key, value in vars(args).items() if value is not None}
    return {section: {key: value for key, value in given.items() if key in fields}
            for section, fields in DEFAULT_CONFIG.items()}


def _with_counts(doc: dict, record) -> dict:
    if record is not None:
        doc["counts"] = [{"outcome": k, "count": v} for k, v in record.counts.items()]
    return doc


def _timing(energies: DerivedEnergies, t_measure: float) -> dict:
    rows = []
    for name in ("k12", "k23", "k13"):
        k = getattr(energies, name)
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
    return {"t_measure_ns": t_measure, "rows": rows}


def _cmd_derive(cfg: RunConfig) -> dict:
    energies = derive_energies(cfg.network, cfg.settings)
    cross = crosstalk_ratio(energies)
    return {
        "command": "derive",
        "source": cfg.source,
        "capacitance_af": asdict(effective_capacitances(cfg.network)),
        "energies_ghz": asdict(energies),
        "crosstalk": {
            "ratio_13_over_12": cross.ratio_12,
            "ratio_13_over_23": cross.ratio_23,
            "threshold": cross.threshold,
            "neglect_justified": cross.neglect_justified,
            "uncoupled": cross.uncoupled,
        },
        "readout_timing": _timing(energies, cfg.readout_time),
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
        **_timing(energies, cfg.readout_time),
    }


# command -> (handler, help text, flags from _FLAGS in --help order)
_SUBCOMMANDS = {
    "derive": (_cmd_derive, "derived capacitances, energies and margins", ()),
    "prepare": (_cmd_prepare, "run the entangling pulse sequence", ("sign", "include_k13")),
    "verify": (_cmd_verify, "interference test of the prepared state",
               ("mode", "shots", "seed", "include_k13")),
    "mermin": (_cmd_mermin, "certainty correlations vs the local bound", ("include_k13",)),
    "yyy": (_cmd_yyy, "sample all qubits in the y basis", ("shots", "seed")),
    "scan": (_cmd_scan, "error scan over zeta or coupler strength", ()),
    "timing": (_cmd_timing, "readout timing margins", ()),
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


def _cells(rows) -> tuple:
    """Column names (the first row's keys) and formatted cells of a record list."""
    columns = list(rows[0])
    return columns, [[_format_scalar(row.get(c)) for c in columns] for row in rows]


def _walk(mapping, path=()):
    """Yield (key path, value) for each entry in document order.  The value
    is None for a nested mapping (its entries follow), the rows of a record
    list, or otherwise the formatted scalar or space-joined list."""
    for key, value in mapping.items():
        here = (*path, key)
        if isinstance(value, dict):
            yield here, None
            yield from _walk(value, here)
        elif _is_record_list(value):
            yield here, value
        elif isinstance(value, (list, tuple)):
            yield here, " ".join(_format_scalar(v) for v in value)
        else:
            yield here, _format_scalar(value)


def _render_table(doc: dict) -> str:
    lines = []
    for path, value in _walk(doc):
        pad = "  " * (len(path) - 1)
        if isinstance(value, str):
            lines.append(f"{pad}{path[-1]}: {value}")
            continue
        lines.append(f"{pad}{path[-1]}:")
        if value is not None:
            columns, cells = _cells(value)
            widths = [max(map(len, column)) for column in zip(columns, *cells)]
            lines.extend((pad + "  " + "  ".join(c.ljust(w) for c, w in zip(row, widths))).rstrip()
                         for row in (columns, *cells))
    return "\n".join(lines) + "\n"


def _render_csv(doc: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if _is_record_list(doc.get("rows")):
        columns, cells = _cells(doc["rows"])
        writer.writerows([columns, *cells])
        for path, value in _walk(doc):
            if len(path) == 1 and isinstance(value, str):
                buf.write(f"# {path[0]} = {value}\n")
        return buf.getvalue()
    writer.writerow(["key", "value"])
    for path, value in _walk(doc):
        key = ".".join(path)
        if isinstance(value, str):
            writer.writerow([key, value])
        elif value is not None:
            columns, cells = _cells(value)
            writer.writerows([f"{key}.{i}.{c}", cell]
                             for i, row in enumerate(cells) for c, cell in zip(columns, row))
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
        text = _RENDERERS[cfg.output.format](_SUBCOMMANDS[args.command][0](cfg))
        if cfg.output.path:
            try:
                Path(cfg.output.path).write_text(text, encoding="utf-8")
            except OSError as exc:
                raise ConfigError(f"output.path: cannot write {cfg.output.path}: {exc}") from exc
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
