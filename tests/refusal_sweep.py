"""How every driven entry point answers a grid of extreme devices, one line
per call, so that the output of two checkouts can be diffed.

Each device is the reference device with some fields replaced, built as
``DerivedEnergies(**dict(vars(reference), **replaced))``.  Each of k12, k23,
k13 and the three ``ej_max`` entries is set alone to 5e-324, 1e-300, 1e-5,
1e154, 1e308, 1.7e308, -1.0 and 0.0, and each pair of them to every pair of
1e-5, 1e308 and -1.0: 183 devices.  On each device ``ghz_prepare`` runs with
both signs, and ``verify_ghz`` and ``verify_mixture_control`` in effective
and full mode, each with ``include_k13`` off and on: 12 calls per device,
2196 lines.  Every ghzsim memo is emptied before each call, so no answer
depends on the call before it.  A line reads

    <replaced fields> | <entry point> | k13=<on/off> | <result>

where the result is ``ok`` with the preparation's fidelity or the
protocol's expectations, or the class and message of the exception raised.
Run from the repository root, optionally naming another checkout to import
ghzsim from, such as a copy of the parent commit:

    python tests/refusal_sweep.py [ROOT] > sweep.txt

pytest does not collect this file: its name does not start with ``test_``.
"""

import itertools
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_SINGLE = (5e-324, 1e-300, 1e-5, 1e154, 1e308, 1.7e308, -1.0, 0.0)
_PAIRED = (1e-5, 1e308, -1.0)
_FIELDS = ("k12", "k23", "k13", "ej_max[0]", "ej_max[1]", "ej_max[2]")


def _assignments():
    """Every replacement of the sweep, as a tuple of (field, value) pairs."""
    yield from (((field, value),) for field in _FIELDS for value in _SINGLE)
    for f, g in itertools.combinations(_FIELDS, 2):
        yield from (((f, v), (g, u)) for v in _PAIRED for u in _PAIRED)


def _device(ghzsim, reference, assignment):
    """The reference device with each (field, value) of ``assignment`` set."""
    replaced, ej_max = {}, list(reference.ej_max)
    for field, value in assignment:
        if field.startswith("ej_max"):
            ej_max[int(field[-2])] = value
            replaced["ej_max"] = tuple(ej_max)
        else:
            replaced[field] = value
    return ghzsim.DerivedEnergies(**dict(vars(reference), **replaced))


def _clear_memos():
    """Empty every functools cache on the loaded ghzsim modules."""
    for name, module in list(sys.modules.items()):
        if name == "ghzsim" or name.startswith("ghzsim."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def _entries(ghzsim):
    """(name, call on (energies, include_k13), summary of its result)."""
    def fidelity(out):
        return f"fidelity {out[2].fidelity!r}"

    def expectations(out):
        return f"expectations {sorted(out.expectations.items())!r}"

    entries = [(f"ghz_prepare{sign}",
                lambda e, k13, sign=sign: ghzsim.ghz_prepare(e, sign, include_k13=k13), fidelity)
               for sign in "+-"]
    entries += [(f"{protocol.__name__}-{mode}",
                 lambda e, k13, protocol=protocol, mode=mode: protocol(e, mode, include_k13=k13),
                 expectations)
                for protocol in (ghzsim.verify_ghz, ghzsim.verify_mixture_control)
                for mode in ("effective", "full")]
    return entries


def main(argv) -> int:
    root = Path(argv[1]) if len(argv) > 1 else ROOT
    sys.path.insert(0, str(root / "src"))
    import ghzsim

    cfg = ghzsim.load_config()
    reference = ghzsim.derive_energies(cfg.network, cfg.settings)
    entries = _entries(ghzsim)
    warnings.simplefilter("ignore")
    for assignment in _assignments():
        device = _device(ghzsim, reference, assignment)
        label = " ".join(f"{field}={value!r}" for field, value in assignment)
        for (name, call, summary), k13 in itertools.product(entries, (False, True)):
            _clear_memos()
            try:
                result = "ok " + summary(call(device, k13))
            except Exception as exc:  # the sweep reports every class, expected or not
                result = f"{type(exc).__name__}: {exc}"
            print(f"{label} | {name} | k13={'on' if k13 else 'off'} | {result}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
