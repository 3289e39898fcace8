"""The record contract: every record class of the layers is frozen, builds
from its fields by position or keyword, prints and compares by its field
tuple (the states and operators by identity), and refuses a wrong call."""

import importlib
import inspect

import pytest

from ghzsim import (
    PerturbationParams,
    crosstalk_ratio,
    derive_energies,
    effective_capacitances,
    ghz_prepare,
    ghz_state,
    load_config,
    pauli,
    readout_timing_margin,
    sample,
    verify_ghz,
)

_LAYERS = ("circuit", "config", "core", "effective", "protocols", "pulses")
# Compared by identity: each holds one read-only array.
_IDENTITY = {"StateVector", "Operator"}


def _records():
    """Every record class the layer modules define, by name."""
    found = {}
    for layer in _LAYERS:
        module = importlib.import_module(f"ghzsim.{layer}")
        found.update({name: value for name, value in vars(module).items()
                      if inspect.isclass(value) and value.__module__ == module.__name__
                      and hasattr(value, "_fields")})
    return found


def _instances():
    """One instance of each record, taken from a run on the reference device."""
    cfg = load_config()
    energies = derive_energies(cfg.network, cfg.settings)
    _, schedule, report = ghz_prepare(energies, include_k13=True)
    made = [cfg, cfg.network, cfg.settings, cfg.protocol, cfg.scan, cfg.output, energies,
            effective_capacitances(cfg.network), crosstalk_ratio(energies),
            readout_timing_margin(energies.k12, cfg.readout_time), ghz_state(), pauli("x", 1),
            sample(ghz_state(), 10, 3), schedule, schedule.segments[0],
            report.flip_solutions[0], report, PerturbationParams.middle_qubit(energies),
            verify_ghz(shots=10, seed=3)]
    return {type(x).__name__: x for x in made}


_RECORDS = _records()
_INSTANCES = _instances()


def test_every_record_has_an_instance():
    assert len(_RECORDS) == 19
    assert set(_INSTANCES) == set(_RECORDS)


def _hash_or_error(value):
    try:
        return hash(value)
    except TypeError as exc:  # a record holding a dict is unhashable, as its tuple
        return str(exc)


@pytest.mark.parametrize("name", sorted(_RECORDS))
def test_record_contract(name):
    cls, record = _RECORDS[name], _INSTANCES[name]
    fields = cls._fields
    assert fields == tuple(cls.__annotations__)
    assert tuple(inspect.signature(cls).parameters) == fields
    values = tuple(getattr(record, f) for f in fields)
    assert repr(record) == f"{name}({', '.join(f'{f}={v!r}' for f, v in zip(fields, values))})"

    positional, keyword = cls(*values), cls(**dict(zip(fields, values)))
    assert repr(positional) == repr(keyword) == repr(record)
    if name in _IDENTITY:
        assert record == record and positional != record and positional != keyword
        assert hash(record) == object.__hash__(record)
    else:
        assert positional == record == keyword and not positional != record
        assert _hash_or_error(record) == _hash_or_error(values)
        assert record != values and record != object()
    defaults = [p.default for p in inspect.signature(cls).parameters.values()
                if p.default is not p.empty]
    required = values[:len(fields) - len(defaults)]
    if defaults and name not in _IDENTITY:
        assert cls(*required) == cls(*required, *defaults)

    for attr in (fields[0], "other"):
        with pytest.raises(AttributeError):
            setattr(record, attr, values[0])
        with pytest.raises(AttributeError):
            delattr(record, attr)
    assert getattr(record, fields[0]) is values[0]

    for args, kwargs in [(required[:-1], {}), ((*values, values[0]), {}),
                         (values, {"unknown": 1}), ((), dict(zip(fields, values), extra=0))]:
        with pytest.raises(TypeError):
            cls(*args, **kwargs)
