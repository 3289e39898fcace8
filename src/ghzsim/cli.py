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

Exit codes: 0 success, 1 stdout closed or its reader gone (one line on
stderr, no traceback), 2 configuration problem, 3 no pulse that fits the
search bounds and floating point, 4 violated internal contract.  A stderr
that is closed, or whose reader has gone, loses the error line but not the
code.

Most of a command's wall time is spent before and after it runs: the
README's "Where a command's time goes" holds the measured figures.  That is
why ``import ghzsim`` loads only the errors, circuit and config layers and
each handler imports the layers it runs, and why ``entry`` freezes the
collector: the interpreter's final collections would otherwise traverse
the objects numpy, yaml and ghzsim leave alive, all of which die with the
process.  ``entry`` does not end with ``os._exit``: that would skip
``atexit`` handlers and the flushing of every other stream to save the
little that shutdown still takes.
"""

import argparse
import contextlib
import errno
import gc
import io
import math
import os
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
from .config import _FORMATS, _SIGNS, DEFAULT_CONFIG, RunConfig, _require_idle_point, load_config
from .errors import (
    _MODES,
    ConfigError,
    ContractViolationError,
    InfeasiblePulseError,
    SimulationError,
)

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


def _idle_energies(cfg: RunConfig) -> DerivedEnergies:
    """The device's energies for a command that runs pulses on it, which
    refuses a device away from its idle point."""
    _require_idle_point(cfg.settings)
    return derive_energies(cfg.network, cfg.settings)


def _cmd_derive(cfg: RunConfig) -> dict:
    energies = derive_energies(cfg.network, cfg.settings)
    caps = effective_capacitances(cfg.network)
    cross = crosstalk_ratio(energies)
    return {
        "capacitance_af": {f: getattr(caps, f) for f in caps._fields},
        "energies_ghz": {f: getattr(energies, f) for f in energies._fields},
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
    from .pulses import ghz_prepare

    energies = _idle_energies(cfg)
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
        "sign": report.sign,
        "fidelity": report.fidelity,
        "fidelity_deficit": 1.0 - report.fidelity,
        "intermediate_fidelities": list(report.intermediate_fidelities),
        "achieved_phase_rad": report.achieved_phase,
        "superposition_time_ns": report.superposition_time,
        "total_duration_ns": report.total_duration,
        "k13_included": report.k13_included,
        "k13_ghz": schedule.k13,
        "flips": flip_rows,
    }


def _cmd_verify(cfg: RunConfig) -> dict:
    from .protocols import verify_ghz

    p = cfg.protocol
    energies = None if p.mode == "ideal" else _idle_energies(cfg)
    outcome = verify_ghz(energies, p.mode, p.shots, p.seed, include_k13=p.include_k13)
    return _with_counts({
        "mode": outcome.mode,
        "postselect_probability": outcome.postselect_probability,
        "probabilities": {k: outcome.probabilities[k] for k in sorted(outcome.probabilities)},
        "expectations": dict(outcome.expectations),
        "shots": p.shots,
        "seed": p.seed if p.shots else None,
    }, outcome.counts)


def _cmd_mermin(cfg: RunConfig) -> dict:
    from .protocols import (
        _MERMIN_OPERATORS,
        enumerate_lhv_assignments,
        lhv_prediction,
        mermin_expectations,
    )
    from .pulses import ghz_prepare

    state, _, report = ghz_prepare(_idle_energies(cfg), "+", include_k13=cfg.protocol.include_k13)
    values = mermin_expectations(state)
    ops = _MERMIN_OPERATORS
    product = (ops["yxx"] @ ops["xyx"] @ ops["xxy"]).matrix
    identity_residual = float(abs(product + ops["yyy"].matrix).max())
    survivors = enumerate_lhv_assignments()
    lhv_value = lhv_prediction(survivors[0])
    quantum_yyy = values["yyy"]
    rows = [{"observable": obs, "quantum": val} for obs, val in values.items()]
    contradiction = quantum_yyy < 0.0 < lhv_value
    return {
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
    from .core import ghz_state
    from .protocols import _EVEN_LABELS, yyy_experiment

    p = cfg.protocol
    outcome = yyy_experiment(ghz_state("+"), p.shots, p.seed)
    even_count = None
    if p.shots:
        even_count = sum(c for lab, c in outcome.counts.counts.items() if lab in _EVEN_LABELS)
    return _with_counts({
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
        from .effective import effective_error_scan, fitted_loglog_slope

        table = effective_error_scan(scan.values, scan.target)
        rows = [{"zeta": z, "error": e} for z, e in table]
        try:
            slope = fitted_loglog_slope(table)
        except ContractViolationError:
            slope = None
        return {
            "parameter": "zeta",
            "target": scan.target,
            "rows": rows,
            "fitted_log_log_slope": slope,
        }
    from .pulses import ghz_prepare

    _require_idle_point(cfg.settings)
    rows = []
    for value in scan.values:
        network = CapacitanceNetwork(cfg.network.c_junction, cfg.network.c_gate,
                                     (value, value))
        energies = derive_energies(network, cfg.settings)
        _, _, report = ghz_prepare(energies, "+", include_k13=True)
        rows.append({
            "coupler_af": value,
            "k13_ghz": energies.k13,
            "ratio_13_over_12": crosstalk_ratio(energies).ratio_12,
            "fidelity_deficit": 1.0 - report.fidelity,
        })
    return {
        "parameter": "coupler",
        "rows": rows,
    }


def _cmd_timing(cfg: RunConfig) -> dict:
    return _timing(derive_energies(cfg.network, cfg.settings), cfg.readout_time)


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
    import csv

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
    import json

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
        handler = _SUBCOMMANDS[args.command][0]
        doc = {"command": args.command, "source": cfg.source, **handler(cfg)}
        text = _RENDERERS[cfg.output.format](doc)
        if cfg.output.path:
            try:
                Path(cfg.output.path).write_text(text, encoding="utf-8")
            except OSError as exc:
                raise ConfigError(f"output.path: cannot write {cfg.output.path}: {exc}") from exc
        else:
            sys.stdout.write(text)
        return 0
    except ConfigError as exc:
        _diagnose(f"config error: {exc}")
        return 2
    except InfeasiblePulseError as exc:
        _diagnose(f"infeasible pulse: {exc}")
        return 3
    except SimulationError as exc:
        _diagnose(f"error: {exc}")
        return 4


def _diagnose(line: str) -> None:
    """Write one line to stderr.  A stderr that is closed, or whose reader has
    gone, drops it (``print`` would fall back to stdout): the exit code still
    says what failed."""
    if sys.stderr is None:
        return
    try:
        print(line, file=sys.stderr, flush=True)
    except OSError:
        _to_null_device(sys.stderr)


def _to_null_device(stream) -> None:
    """Point ``stream``'s descriptor at the null device after a failed write:
    the interpreter flushes stdout and stderr again at shutdown, and that
    flush must not fail a second time."""
    with contextlib.suppress(OSError):
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


class _ClosedStdout(io.TextIOBase):
    """Stands in for a stdout whose descriptor was closed at startup: any
    write fails as a write to the closed descriptor would."""

    def write(self, text):
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))


def entry():
    """The ``ghzsim`` console script: run ``main``, flush its output and exit
    with its code.  A stdout that is closed, or whose reader has gone, exits 1
    with one line on stderr."""
    if sys.stdout is None:
        sys.stdout = _ClosedStdout()
    try:
        code = main()
        sys.stdout.flush()
    except OSError as exc:  # main reports its file errors as config errors; this is stdout's
        _to_null_device(sys.stdout)
        _diagnose(f"error: cannot write to stdout: {exc.strerror}")
        code = 1
    # The output is written and the process is about to end.  Freezing moves
    # every live object into the permanent generation, so the collections the
    # interpreter runs at shutdown have almost nothing to traverse; flushing,
    # atexit handlers and module teardown still run.
    gc.freeze()
    raise SystemExit(code)
