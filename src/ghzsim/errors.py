"""Exception hierarchy shared by the whole package.

Every failure mode that callers are expected to handle derives from
SimulationError.  The CLI maps these onto process exit codes, so the split
between configuration problems, pulse-search failures and internal contract
violations is part of the public interface.  The readers of caller-supplied
values live here too, one rule each: a number, a finite number, a list of
numbers, an iterable (``_items``), an array of numbers, a word, an integer
choice (``_member``), a count, a perturbation ratio (``_ratio``, which the
scan's zetas map at _SCAN_ZETA_LIMIT and PerturbationParams reads at 1), a
duration and a positive number (``_positive``).  The config calls each
rule with the field's YAML path and ConfigError, the library with its
parameter name, so both accept the same values and say why alike; the
iterable and array readers serve the library alone.  Every record class
is a frozen ``_record``: one generated ``__init__`` each, all else shared.
"""

import math
import operator

import numpy as np

# Verification modes (protocols), error-scan targets and the zeta bound
# (effective): config validates against them without loading either layer.
_MODES = ("ideal", "effective", "full")
_SCAN_TARGETS = ("middle", "outer")
_SCAN_ZETA_LIMIT = 0.5


class SimulationError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(SimulationError):
    """A run configuration is malformed or physically inconsistent."""


class UnphysicalNetworkError(ConfigError):
    """Device values with no valid electrostatics or control.

    Raised when a required capacitance is non-positive or a coupler negative,
    when the network determinant is not positive (the inverse capacitance
    matrix would be ill-defined) or its screening leaves float range, and for
    a gate charge outside [0, 1], an eps_J that is not positive or whose
    2 * eps_J overflows, or a flux whose pi * flux overflows.  Each message on
    a field's entries starts with the field's name, as ``gate_charge[1]: ...``.
    """


class DegenerateControlError(ConfigError):
    """A control target cannot be met because the control matrix is singular."""


class InfeasiblePulseError(SimulationError):
    """No pulse satisfying the requested timing constraints exists in bounds."""


class ContractViolationError(SimulationError):
    """An internal invariant or documented precondition was violated."""


class GateChargeRangeWarning(UserWarning):
    """Solved gate charges fall outside the physical window [0, 1]."""


def _record(cls=None, *, eq=True):
    """``cls`` as a frozen record of its annotated fields, in order: one
    generated ``__init__`` (a class attribute named after a field is its
    default; ``__post_init__`` runs last), the shared repr and refusal to
    assign or delete, and ``==`` and hash on the field tuple, or identity
    without ``eq``.  ``cls._fields`` names the fields."""
    if cls is None:
        return lambda cls: _record(cls, eq=eq)
    cls._fields = fields = tuple(cls.__annotations__)
    defaults = {f: vars(cls)[f] for f in fields if f in vars(cls)}
    params = ", ".join(f"{f}=_defaults[{f!r}]" if f in defaults else f for f in fields)
    body = "".join(f"\n    _set(self, {f!r}, {f})" for f in fields)
    post = "\n    self.__post_init__()" if hasattr(cls, "__post_init__") else ""
    scope = {"_set": object.__setattr__, "_defaults": defaults}
    exec(f"def __init__(self, {params}):{body}{post}", scope)
    cls.__init__, cls.__repr__ = scope["__init__"], _record_repr
    cls.__setattr__ = cls.__delattr__ = _record_frozen
    if eq:  # every such record has two or more fields, so _values gives a tuple
        cls._values = operator.attrgetter(*fields)
        cls.__eq__, cls.__hash__ = _record_eq, _record_hash
    return cls


def _record_repr(self) -> str:
    values = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
    return f"{type(self).__qualname__}({values})"


def _record_eq(self, other):
    if other.__class__ is self.__class__:
        return self._values(self) == other._values(other)
    return NotImplemented


def _record_hash(self) -> int:
    return hash(self._values(self))


def _record_frozen(self, name, *value):
    raise AttributeError(f"cannot assign to or delete field {name!r} of a frozen record")


def _real(value, name: str, error=ContractViolationError) -> float:
    """``value`` as a float: the package's one non-bool real-number check.
    A bool or a non-number raises ``error`` as ``{name}: expected a number``;
    an integer beyond float range reads as an infinity of its sign."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise error(f"{name}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _integer(value) -> bool:
    """Whether ``value`` is a non-bool ``int`` or a numpy integer: the
    package's one test for an index, an outcome or a sign value."""
    return type(value) is int or isinstance(value, np.integer)


def _finite(value, name: str, error=ContractViolationError) -> float:
    """``value`` as a float: a finite non-bool real."""
    x = value if type(value) is float else _real(value, name, error)
    if not math.isfinite(x):
        raise error(f"{name}: must be finite, got {value!r}")
    return x


def _entries(values, name: str, length: int, error=ContractViolationError):
    """``values``, a list, tuple or 1-D array of ``length`` entries, as a
    list or tuple."""
    entries = values.tolist() if isinstance(values, np.ndarray) and values.ndim == 1 else values
    if not isinstance(entries, (list, tuple)) or len(entries) != length:
        raise error(f"{name}: expected a list of {length} numbers, got {values!r}")
    return entries


def _reals(values, name: str, length: int, error=ContractViolationError) -> tuple:
    """``values`` as a tuple of ``length`` floats: a list, tuple or 1-D array
    of finite non-bool reals.  Anything else raises ``error`` naming the
    first bad entry, as ``{name}[{i}]``."""
    reals = []
    for i, v in enumerate(_entries(values, name, length, error)):
        if type(v) is not float or not math.isfinite(v):
            v = _finite(v, f"{name}[{i}]", error)
        reals.append(v)
    return tuple(reals)


def _items(values, name: str, what: str) -> tuple:
    """``values``, an iterable other than a string, as a tuple."""
    try:
        items = None if isinstance(values, (str, bytes)) else tuple(values)
    except TypeError:
        items = None
    if items is None:
        raise ContractViolationError(f"{name}: expected an iterable of {what}, got {values!r}")
    return items


def _complex_array(values, name: str) -> np.ndarray:
    """``values``, an array or nested list of numbers (not bools, text or
    other objects), as a fresh complex array."""
    try:
        arr = np.array(values, copy=True)
    except (TypeError, ValueError):  # a ragged nesting
        arr = None
    if arr is None or arr.dtype.kind not in "iufc":
        raise ContractViolationError(f"{name}: expected an array of numbers, got {values!r}")
    return arr.astype(complex, copy=False)


def _choice(value, name: str, allowed: tuple, error=ContractViolationError) -> str:
    """``value``, a ``str`` in ``allowed``: the one check of a word."""
    if not isinstance(value, str) or value not in allowed:
        raise error(f"{name}: expected one of {allowed}, got {value!r}")
    return value


def _member(value, name: str, allowed: tuple, error=ContractViolationError) -> int:
    """``value``, an ``_integer`` in ``allowed``, as an ``int``: the one check
    of an index, an outcome or a sign value."""
    if not _integer(value) or value not in allowed:
        raise error(f"{name}: expected one of {allowed}, got {value!r}")
    return int(value)


def _count(value, name: str, error=ContractViolationError) -> int:
    """``value``, a non-negative ``_integer``, as an ``int``."""
    if not _integer(value) or value < 0:
        raise error(f"{name}: expected a non-negative integer, got {value!r}")
    return int(value)


def _ratio(value, name: str, limit: float, error=ContractViolationError) -> float:
    """``value`` as a float: a perturbation ratio zeta, a finite non-bool
    real in [0, limit)."""
    z = _finite(value, name, error)
    if not 0.0 <= z < limit:
        raise error(f"{name}: zeta must lie in [0, {limit}), got {z}")
    return z


def _zetas(values, name: str, error=ContractViolationError) -> tuple:
    """``values``, each a ``_ratio`` below _SCAN_ZETA_LIMIT, as a tuple."""
    return tuple(_ratio(z, f"{name}[{i}]", _SCAN_ZETA_LIMIT, error) for i, z in enumerate(values))


def _duration(value, name: str, error=ContractViolationError) -> float:
    """``value`` as a float: a finite non-bool real >= 0."""
    t = _finite(value, name, error)
    if t < 0.0:
        raise error(f"{name}: must be >= 0.0, got {value!r}")
    return t


def _positive(value, name: str, error=ContractViolationError) -> float:
    """``value`` as a float: a finite non-bool real > 0."""
    x = _finite(value, name, error)
    if x <= 0.0:
        raise error(f"{name}: must be > 0, got {x}")
    return x
