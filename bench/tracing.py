"""Outside-in layer tracing of ghzsim.

The tracer wraps, from outside the package, every public function and the
constructor of every public class defined in the layer modules, plus
``numpy.kron`` and ``numpy.linalg.eigh`` as kernel counters.  The modules
import each other's functions by name (``from .core import
build_hamiltonian``), so a wrapper on one module attribute would miss most
calls: installation replaces every binding of an original object in every
loaded ``ghzsim`` module and then checks that none is left.

Spans carry a parent index and ``perf_counter_ns`` start and end stamps.  A
layer's self time is its span minus the union of its child spans; integer
nanoseconds make the identity "self times sum to the op's wall time" exact,
and every op is checked against it.
"""

import importlib
import inspect
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("circuit", "core", "pulses", "effective", "protocols", "config", "cli")

# Called once per shot or per candidate inside a traced function; wrapping
# them would multiply the tracing cost, so their time stays with the caller.
PER_ELEMENT_HELPERS = {"core.basis_label", "protocols.lhv_prediction"}

# Private names that still carry a named per-layer metric.
EXTRA_TARGETS = {"effective._h_eff_outer_operator"}


def _targets():
    """(qualified name, owner, attribute, original) for every traced callable."""
    found = []
    for layer in LAYERS:
        mod = importlib.import_module(f"ghzsim.{layer}")
        for attr, obj in vars(mod).items():
            qual = f"{layer}.{attr}"
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if qual in PER_ELEMENT_HELPERS:
                continue
            if attr.startswith("_") and qual not in EXTRA_TARGETS:
                continue
            if inspect.isclass(obj) and not issubclass(obj, BaseException):
                found.append((qual, obj, "__init__", obj.__init__))
            elif inspect.isfunction(obj):
                found.append((qual, mod, attr, obj))
    return found


class Tracer:
    """Span recorder and per-op aggregator.

    ``active`` is true only while an op runs, so harness code between ops
    records nothing.  Aggregates: ``calls`` and ``self_ns`` by qualified
    name, ``counts`` for kernel and simulation counters.
    """

    def __init__(self):
        self.active = False
        self.spans = []  # [parent index, name, start ns, end ns]
        self.stack = []
        self.calls = Counter()
        self.self_ns = Counter()
        self.counts = Counter()
        self.ops = 0
        self.op_ns = 0
        self.selfcheck_failures = 0
        self.kept_spans = []  # spans of the first ops, written to the result file
        self.keep_ops = 0
        self._patches = []

    # -- installation ----------------------------------------------------
    def install(self):
        replacements = {}
        for qual, owner, attr, original in _targets():
            wrapper = self._wrap(qual, original, _RETURN_HOOKS.get(qual))
            if inspect.isclass(owner):
                self._patch(owner, attr, wrapper)
            else:
                replacements[id(original)] = (original, wrapper)
        for name, mod in list(sys.modules.items()):
            if name != "ghzsim" and not name.startswith("ghzsim."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replacements and replacements[id(obj)][0] is obj:
                    self._patch(mod, attr, replacements[id(obj)][1])
        self._patch(np, "kron", self._counter("core.np_kron", np.kron))
        self._patch(np.linalg, "eigh", self._counter("core.np_eigh", np.linalg.eigh))
        for name, mod in list(sys.modules.items()):
            if name == "ghzsim" or name.startswith("ghzsim."):
                missed = [a for a, o in vars(mod).items()
                          if id(o) in replacements and replacements[id(o)][0] is o]
                if missed:
                    self.uninstall()
                    raise RuntimeError(f"tracing missed bindings in {name}: {missed}")

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, qual, fn, hook):
        tracer = self
        signature = inspect.signature(fn) if hook is not None else None

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            spans = tracer.spans
            idx = len(spans)
            span = [tracer.stack[-1], qual, time.perf_counter_ns(), 0]
            spans.append(span)
            tracer.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter_ns()
                tracer.stack.pop()
            if hook is not None:
                hook(tracer.counts, signature.bind(*args, **kwargs), result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counter(self, key, fn):
        tracer = self

        def counted(*args, **kwargs):
            if tracer.active:
                tracer.counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- one op ----------------------------------------------------------
    def run_op(self, op, item):
        """Run ``op(item)`` as one traced op; the root span is the harness."""
        self.spans = [[-1, "bench.op", time.perf_counter_ns(), 0]]
        self.stack = [0]
        self.active = True
        try:
            return op(item)
        finally:
            self.spans[0][3] = time.perf_counter_ns()
            self.active = False
            self._close_op()

    def bind(self, op):
        """``op`` as a traced op."""
        return lambda item: self.run_op(op, item)

    def _close_op(self):
        spans = self.spans
        children = [[] for _ in spans]
        for span in spans[1:]:
            children[span[0]].append((span[2], span[3]))
        total_self = 0
        for idx, (_, name, start, end) in enumerate(spans):
            covered, direct, reach = 0, 0, start
            for c_start, c_end in children[idx]:  # already in start order
                if c_start < start or c_end > end:
                    self.selfcheck_failures += 1
                direct += c_end - c_start
                lo = max(c_start, reach)
                if c_end > lo:
                    covered += c_end - lo
                    reach = c_end
            own = (end - start) - covered
            if own != (end - start) - direct or own < 0:
                self.selfcheck_failures += 1
            total_self += own
            if idx:
                self.calls[name] += 1
            self.self_ns[name] += own
        root = spans[0][3] - spans[0][2]
        if total_self != root:
            self.selfcheck_failures += 1
        self.ops += 1
        self.op_ns += root
        if self.keep_ops > 0:
            self.keep_ops -= 1
            self.kept_spans.append(spans)


def _sample_hook(counts, bound, result):
    counts["core.sample.shots"] += int(bound.arguments["shots"])


def _flip_hook(counts, bound, result):
    """(m, n) candidates the search tried before returning ``result``."""
    bound.apply_defaults()
    max_n = bound.arguments["max_n"]
    tried = sum(max_n - m for m in range(result.m)) + (result.n - result.m)
    counts["pulses.flip_candidates"] += tried
    counts["pulses.flip_solutions"] += 1


def _prepare_hook(counts, bound, result):
    counts["pulses.simulated_ns"] += result[2].total_duration


_RETURN_HOOKS = {
    "core.sample": _sample_hook,
    "pulses.solve_conditional_flip": _flip_hook,
    "pulses.ghz_prepare": _prepare_hook,
}
