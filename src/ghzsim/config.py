"""Run configuration: YAML schema, defaults, and validation.

A run is described by a single YAML document with four sections.  Every
field has a default taken from the built-in reference device (a symmetric
chain with 600 aF junctions, 0.6 aF gates and 30 aF couplers, biased at the
charge-degeneracy point with flux half a quantum so all qubits idle), so a
missing file section, or no file at all, still yields a complete
configuration.

Settings are resolved in layers: the file is laid over the defaults and the
caller's overrides (the command-line flags) over the file, and only the merged
document is validated.

Determinism contract: all randomness in a run flows from ``protocol.seed``,
which must be non-negative and is required whenever shots > 0.
"""

import copy
import math
import re
from dataclasses import dataclass

import yaml

from .circuit import CapacitanceNetwork, ControlSettings
from .errors import ConfigError
from .protocols import _MODES

DEFAULT_CONFIG = {
    "device": {
        "junction_capacitance_af": [600.0, 600.0, 600.0],
        "gate_capacitance_af": [0.6, 0.6, 0.6],
        "coupler_capacitance_af": [30.0, 30.0],
        "gate_charge": [0.5, 0.5, 0.5],
        "flux": [0.5, 0.5, 0.5],
        "josephson_energy_ghz": [5.6, 5.6, 5.6],
        "readout_time_ns": 1.0,
    },
    "protocol": {
        "mode": "ideal",
        "shots": 0,
        "seed": None,
        "sign": "plus",
        "include_k13": False,
    },
    "scan": {
        "parameter": "zeta",
        "target": "middle",
        "values": [0.05, 0.1, 0.2],
    },
    "output": {
        "format": "table",
        "path": None,
    },
}


class _Loader(yaml.SafeLoader):
    """Safe loader that also reads exponent forms such as 1e-1, 1e6 and
    -2E+3 as floats (the YAML 1.1 float pattern wants a dot and a signed
    exponent); the standard resolvers still run first."""


_Loader.add_implicit_resolver("tag:yaml.org,2002:float", re.compile(
    r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"), list("-+.0123456789"))

_SIGNS = {"plus": "+", "minus": "-"}
_FORMATS = ("table", "csv", "structured")
_SCAN_PARAMETERS = ("zeta", "coupler")
_SCAN_TARGETS = ("middle", "outer")
# Bounds run time only: sampling memory is flat in the shot count, and
# 10**7 shots take about 0.3 s on a 2-CPU machine.
_MAX_SHOTS = 10**7


@dataclass(frozen=True)
class ProtocolConfig:
    mode: str
    shots: int
    seed: int
    sign: str
    include_k13: bool


@dataclass(frozen=True)
class ScanConfig:
    parameter: str
    target: str
    values: tuple


@dataclass(frozen=True)
class OutputConfig:
    format: str
    path: str


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration plus the source it was loaded from."""

    network: CapacitanceNetwork
    settings: ControlSettings
    readout_time: float
    protocol: ProtocolConfig
    scan: ScanConfig
    output: OutputConfig
    source: str


def _merge(base: dict, override: dict, path: str) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        dotted = f"{path}.{key}" if path else str(key)
        if key not in base:
            raise ConfigError(f"unknown configuration key: {dotted}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{dotted}: expected a mapping")
            out[key] = _merge(base[key], value, dotted)
        else:
            out[key] = value
    return out


def _number(raw, field, minimum=None):
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ConfigError(f"{field}: expected a number, got {raw!r}")
    value = float(raw)
    if not math.isfinite(value):
        raise ConfigError(f"{field}: must be finite, got {raw!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{field}: must be >= {minimum}, got {raw!r}")
    return value


def _number_list(raw, field, length):
    if not isinstance(raw, (list, tuple)) or len(raw) != length:
        raise ConfigError(f"{field}: expected a list of {length} numbers, got {raw!r}")
    return tuple(_number(v, f"{field}[{i}]") for i, v in enumerate(raw))


def _choice(raw, field, allowed):
    if raw not in allowed:
        raise ConfigError(f"{field}: expected one of {allowed}, got {raw!r}")
    return raw


def load_config(path: str = None, overrides: dict = None) -> RunConfig:
    """Load and validate a run configuration.

    ``path`` of None selects the built-in reference device.  ``overrides``
    follows the file's schema and is laid over the file before validation.
    Malformed YAML, unknown keys, wrong shapes, and physically inconsistent
    values all raise ConfigError naming the offending field.
    """
    if path is None:
        loaded = {}
        source = "builtin reference device"
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                loaded = yaml.load(fh, Loader=_Loader)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except yaml.YAMLError as exc:
            raise ConfigError(f"invalid YAML in {path}: {exc}") from exc
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ConfigError(f"{path}: top level must be a mapping")
        source = str(path)
    merged = _merge(_merge(DEFAULT_CONFIG, loaded, ""), overrides or {}, "")
    return _build(merged, source)


def _build(raw: dict, source: str) -> RunConfig:
    dev = raw["device"]
    network = _network(dev)
    settings_kwargs = {
        "gate_charge": _number_list(dev["gate_charge"], "device.gate_charge", 3),
        "flux": _number_list(dev["flux"], "device.flux", 3),
        "epsilon_j": _number_list(dev["josephson_energy_ghz"], "device.josephson_energy_ghz", 3),
    }
    for i, n in enumerate(settings_kwargs["gate_charge"]):
        if not 0.0 <= n <= 1.0:
            raise ConfigError(f"device.gate_charge[{i}]: must lie in [0, 1], got {n}")
    for i, e in enumerate(settings_kwargs["epsilon_j"]):
        if e <= 0.0:
            raise ConfigError(f"device.josephson_energy_ghz[{i}]: must be > 0, got {e}")
    try:
        settings = ControlSettings(**settings_kwargs)
    except Exception as exc:
        raise ConfigError(f"device: {exc}") from exc
    readout_time = _number(dev["readout_time_ns"], "device.readout_time_ns", minimum=0.0)

    proto_raw = raw["protocol"]
    mode = _choice(proto_raw["mode"], "protocol.mode", _MODES)
    shots = proto_raw["shots"]
    if isinstance(shots, bool) or not isinstance(shots, int) or shots < 0:
        raise ConfigError(f"protocol.shots: expected a non-negative integer, got {shots!r}")
    if shots > _MAX_SHOTS:
        raise ConfigError(f"protocol.shots: at most {_MAX_SHOTS} shots, got {shots}")
    seed = proto_raw["seed"]
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        raise ConfigError(f"protocol.seed: expected an integer or null, got {seed!r}")
    if seed is not None and seed < 0:
        raise ConfigError(f"protocol.seed must be non-negative, got {seed}")
    if shots > 0 and seed is None:
        raise ConfigError("protocol.seed: required whenever protocol.shots > 0")
    sign = _SIGNS[_choice(proto_raw["sign"], "protocol.sign", tuple(_SIGNS))]
    include_k13 = proto_raw["include_k13"]
    if not isinstance(include_k13, bool):
        raise ConfigError(f"protocol.include_k13: expected a boolean, got {include_k13!r}")
    protocol = ProtocolConfig(mode, shots, seed, sign, include_k13)

    scan_raw = raw["scan"]
    parameter = _choice(scan_raw["parameter"], "scan.parameter", _SCAN_PARAMETERS)
    target = _choice(scan_raw["target"], "scan.target", _SCAN_TARGETS)
    values_raw = scan_raw["values"]
    if not isinstance(values_raw, (list, tuple)) or not values_raw:
        raise ConfigError(f"scan.values: expected a non-empty list, got {values_raw!r}")
    values = tuple(_number(v, f"scan.values[{i}]") for i, v in enumerate(values_raw))
    if parameter == "zeta":
        for i, v in enumerate(values):
            if not 0.0 <= v < 0.5:
                raise ConfigError(f"scan.values[{i}]: zeta must lie in [0, 0.5), got {v}")
    else:
        for i, v in enumerate(values):
            if v <= 0.0:
                raise ConfigError(f"scan.values[{i}]: coupler capacitance must be > 0, got {v}")
    scan = ScanConfig(parameter, target, values)

    out_raw = raw["output"]
    fmt = _choice(out_raw["format"], "output.format", _FORMATS)
    out_path = out_raw["path"]
    if out_path is not None and not isinstance(out_path, str):
        raise ConfigError(f"output.path: expected a string or null, got {out_path!r}")
    output = OutputConfig(fmt, out_path)

    return RunConfig(network, settings, readout_time, protocol, scan, output, source)


def _network(dev: dict) -> CapacitanceNetwork:
    kwargs = {
        "c_junction": _number_list(dev["junction_capacitance_af"],
                                   "device.junction_capacitance_af", 3),
        "c_gate": _number_list(dev["gate_capacitance_af"], "device.gate_capacitance_af", 3),
        "c_coupler": _number_list(dev["coupler_capacitance_af"],
                                  "device.coupler_capacitance_af", 2),
    }
    try:
        return CapacitanceNetwork(**kwargs)
    except Exception as exc:
        raise ConfigError(f"device: {exc}") from exc
