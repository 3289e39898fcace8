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
import re

import yaml

from .circuit import CapacitanceNetwork, ControlSettings
from .errors import (
    _MODES,
    _SCAN_TARGETS,
    ConfigError,
    UnphysicalNetworkError,
    _choice,
    _count,
    _duration,
    _reals,
    _record,
    _zetas,
)

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

# Each field of CapacitanceNetwork, then of ControlSettings, under its YAML key.
_DEVICE_KEYS = {"c_junction": "junction_capacitance_af", "c_gate": "gate_capacitance_af",
                "c_coupler": "coupler_capacitance_af", "gate_charge": "gate_charge",
                "flux": "flux", "epsilon_j": "josephson_energy_ghz"}
_SIGNS = {"plus": "+", "minus": "-"}
_FORMATS = ("table", "csv", "structured")
_SCAN_PARAMETERS = ("zeta", "coupler")
# Bounds run time only: sampling memory is flat in the shot count, and
# 10**7 shots take about 0.3 s on a 2-CPU machine.
_MAX_SHOTS = 10**7


@_record
class ProtocolConfig:
    mode: str
    shots: int
    seed: int
    sign: str
    include_k13: bool


@_record
class ScanConfig:
    parameter: str
    target: str
    values: tuple


@_record
class OutputConfig:
    format: str
    path: str


@_record
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


def _require_idle_point(settings: ControlSettings) -> None:
    """Refuse a device away from its idle point, every gate charge 0.5 and
    every flux a half-integer: the pulse sequences set every charging and
    Josephson energy themselves and assume that both vanish between them."""
    for i, n in enumerate(settings.gate_charge):
        if n != 0.5:
            raise ConfigError(f"device.gate_charge[{i}]: pulses need the idle gate charge 0.5, "
                              f"got {n}")
    for i, f in enumerate(settings.flux):
        if f % 1.0 != 0.5:
            raise ConfigError(f"device.flux[{i}]: pulses need a half-integer idle flux, got {f}")


def _build(raw: dict, source: str) -> RunConfig:
    dev = raw["device"]
    values = [dev[key] for key in _DEVICE_KEYS.values()]
    try:  # the records validate these; each message starts with the field's name
        network, settings = CapacitanceNetwork(*values[:3]), ControlSettings(*values[3:])
    except UnphysicalNetworkError as exc:
        name = re.match(r"\w+", str(exc)).group()
        raise ConfigError(f"device.{_DEVICE_KEYS[name]}{str(exc)[len(name):]}") from exc
    readout_time = _duration(dev["readout_time_ns"], "device.readout_time_ns", ConfigError)

    proto_raw = raw["protocol"]
    mode = _choice(proto_raw["mode"], "protocol.mode", _MODES, ConfigError)
    shots = _count(proto_raw["shots"], "protocol.shots", ConfigError)
    if shots > _MAX_SHOTS:
        raise ConfigError(f"protocol.shots: at most {_MAX_SHOTS} shots, got {shots}")
    seed = proto_raw["seed"]
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        raise ConfigError(f"protocol.seed: expected an integer or null, got {seed!r}")
    if seed is not None and seed < 0:
        raise ConfigError(f"protocol.seed: must be non-negative, got {seed}")
    if shots > 0 and seed is None:
        raise ConfigError("protocol.seed: required whenever protocol.shots > 0")
    sign = _SIGNS[_choice(proto_raw["sign"], "protocol.sign", tuple(_SIGNS), ConfigError)]
    include_k13 = proto_raw["include_k13"]
    if not isinstance(include_k13, bool):
        raise ConfigError(f"protocol.include_k13: expected a boolean, got {include_k13!r}")
    protocol = ProtocolConfig(mode, shots, seed, sign, include_k13)

    scan_raw = raw["scan"]
    parameter = _choice(scan_raw["parameter"], "scan.parameter", _SCAN_PARAMETERS, ConfigError)
    target = _choice(scan_raw["target"], "scan.target", _SCAN_TARGETS, ConfigError)
    values_raw = scan_raw["values"]
    if not isinstance(values_raw, (list, tuple)) or not values_raw:
        raise ConfigError(f"scan.values: expected a non-empty list, got {values_raw!r}")
    values = _reals(values_raw, "scan.values", len(values_raw), ConfigError)
    if parameter == "zeta":
        _zetas(values, "scan.values", ConfigError)
    else:
        for i, v in enumerate(values):
            if v <= 0.0:
                raise ConfigError(f"scan.values[{i}]: coupler capacitance must be > 0, got {v}")
    scan = ScanConfig(parameter, target, values)

    out_raw = raw["output"]
    fmt = _choice(out_raw["format"], "output.format", _FORMATS, ConfigError)
    out_path = out_raw["path"]
    if out_path is not None and not isinstance(out_path, str):
        raise ConfigError(f"output.path: expected a string or null, got {out_path!r}")
    output = OutputConfig(fmt, out_path)

    return RunConfig(network, settings, readout_time, protocol, scan, output, source)
