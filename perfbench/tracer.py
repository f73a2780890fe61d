"""Outside-in layer tracer for the package.

A layer is one module of the package.  ``Tracer.install`` wraps every
public function of each layer (module-level functions and the public
methods of the module's classes) and rebinds the wrapper wherever the
original is bound: the attributes of every ``kemeny`` module, since callers
import functions by name, and the values of module-level dicts such as
``bootstrap.METHODS`` and ``cli._MATRIX_METRICS``, which hold references
captured at import.  Calls inside a module go through the module's globals,
so they are traced too.  ``Tracer.remove`` restores every binding.
``Tracer.unwrapped_bindings`` lists functions of one layer still bound
unwrapped in another layer's namespace (a private function imported across
layers, say), whose time would land in the caller's self time.

Each call records a span ``[name, layer, start, end, parent, op, error,
work]`` in memory; nothing is written until the run ends.  A layer's self
time is the duration of its spans minus the time covered by their direct
child spans, so self times of all layers plus the time outside any span
add up to the traced wall time.  Waiting does not occur: the package is
single-threaded, and BLAS worker threads are pinned off by the launcher
(a tracer outside the package could not see them anyway).
"""

from __future__ import annotations

import functools
import sys
import time
import types

LAYERS = ("cli", "datasets", "report", "bootstrap", "hypotests", "baselines",
          "core", "special", "betafit", "moments", "population")

NAME, LAYER, START, END, PARENT, OP, ERROR, WORK = range(8)


def _harness_work(result):
    return (sum(result.evaluated.values()), sum(result.skipped.values()),
            result.config.replicates)


#: work recorded at a layer boundary, from the call's result
WORK_HOOKS = {
    "core.pair_counts": lambda result: result.total,
    "bootstrap.run_harness": _harness_work,
    "bootstrap.ordinal_welch_sweep": lambda result: result.count,
    "population.distance_histogram": lambda result: result.total,
    "datasets.load_csv": lambda result: result.data.size,
    "datasets.load_dataset": lambda result: result.data.size,
    "datasets.load_iris": lambda result: result.data.size,
    "datasets.load_sleep": lambda result: result.data.size,
}


class Tracer:
    """Span recorder over the package's public functions."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._bindings: list[tuple] = []
        self._wrappers: set[int] = set()
        self._error_type = sys.modules["kemeny.errors"].KemenyError

    def _wrap(self, fn, layer: str, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        error_type, hook, tracer = self._error_type, WORK_HOOKS.get(name), self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, False, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except error_type:
                rec[ERROR] = True
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if hook is not None:
                rec[WORK] = hook(result)
            return result

        self._wrappers.add(id(traced))
        return traced

    def _targets(self) -> dict[int, tuple]:
        """id(original) -> (original, wrapper) for every public function."""
        found = {}
        for layer in LAYERS:
            module = sys.modules[f"kemeny.{layer}"]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    found[id(obj)] = (obj, self._wrap(obj, layer, f"{layer}.{attr}"))
                elif isinstance(obj, type):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and isinstance(fn, types.FunctionType):
                            wrapper = self._wrap(fn, layer, f"{layer}.{attr}.{meth}")
                            found[id(fn)] = (fn, wrapper)
                            self._bind(obj, meth, wrapper, setattr)
        return found

    def _bind(self, target, key, wrapper, setter):
        original = getattr(target, key) if setter is setattr else target[key]
        self._bindings.append((target, key, original, setter))
        setter(target, key, wrapper)

    def install(self) -> None:
        if self._bindings:
            raise RuntimeError("tracer already installed")
        targets = self._targets()
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "kemeny" or name.startswith("kemeny."))]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("__"):
                    continue
                if id(obj) in targets and targets[id(obj)][0] is obj:
                    self._bind(module, attr, targets[id(obj)][1], setattr)
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in targets and targets[id(value)][0] is value:
                            self._bind(obj, key, targets[id(value)][1], _setitem)

    def unwrapped_bindings(self) -> list[str]:
        """Functions of a layer bound, unwrapped, in another kemeny module's
        attributes or in the values of its module-level dicts, lists and
        tuples.  Call while installed."""
        layer_modules = {f"kemeny.{layer}" for layer in LAYERS}
        found = []
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "kemeny" or name.startswith("kemeny.")):
                continue
            for attr, obj in vars(module).items():
                if attr.startswith("__"):
                    continue
                values = obj.values() if isinstance(obj, dict) else (
                    obj if isinstance(obj, (list, tuple)) else (obj,))
                for value in values:
                    if (isinstance(value, types.FunctionType)
                            and value.__module__ in layer_modules
                            and value.__module__ != name
                            and id(value) not in self._wrappers):
                        found.append(f"{name}.{attr}: {value.__module__}.{value.__qualname__}")
        return found

    def remove(self) -> None:
        """Restore every binding, newest first, and verify the restore."""
        for target, key, original, setter in reversed(self._bindings):
            setter(target, key, original)
        for target, key, original, setter in self._bindings:
            current = getattr(target, key) if setter is setattr else target[key]
            if current is not original:
                raise RuntimeError(f"binding {key!r} was not restored")
        self._bindings.clear()


def _setitem(target, key, value):
    target[key] = value


def analyse(spans: list[list]) -> dict:
    """Per-layer totals over a span list.

    calls: every span of the layer; busy_s: spans with no ancestor in the
    same layer; self_s: span time minus direct child spans; errors: spans
    that raised a package error into a different layer (or to the caller).
    Also returns the per-span exclusive times' minimum and the number of
    child spans lying outside their parent, for the self-check.
    """
    bit = {layer: 1 << i for i, layer in enumerate(LAYERS)}
    totals = {layer: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": 0}
              for layer in LAYERS}
    child_time = [0.0] * len(spans)
    mask = [0] * len(spans)
    escaped = 0
    for i, s in enumerate(spans):
        duration = s[END] - s[START]
        parent = s[PARENT]
        outer_mask = mask[parent] if parent >= 0 else 0
        mask[i] = outer_mask | bit[s[LAYER]]
        t = totals[s[LAYER]]
        t["calls"] += 1
        if not outer_mask & bit[s[LAYER]]:
            t["busy_s"] += duration
        if parent >= 0:
            child_time[parent] += duration
            p = spans[parent]
            if s[START] < p[START] or s[END] > p[END]:
                escaped += 1
        if s[ERROR] and (parent < 0 or spans[parent][LAYER] != s[LAYER]):
            t["errors"] += 1
    min_exclusive = 0.0
    for i, s in enumerate(spans):
        exclusive = s[END] - s[START] - child_time[i]
        min_exclusive = min(min_exclusive, exclusive)
        totals[s[LAYER]]["self_s"] += exclusive
    return {"layers": totals, "min_exclusive_s": min_exclusive, "escaped_children": escaped}


def work_counts(spans: list[list]) -> dict:
    """Work counted at layer boundaries over a span list."""
    counts = {"core.pair_counts.calls": 0, "core.pairs_scored": 0,
              "bootstrap.replicates": 0, "datasets.cells_parsed": 0,
              "population.member_pairs": 0, "special.student_t_sf.calls": 0,
              "betafit.beta_mle_fit.calls": 0}
    evaluated = skipped = 0
    for s in spans:
        name, work = s[NAME], s[WORK]
        if name == "core.pair_counts":
            counts["core.pair_counts.calls"] += 1
            counts["core.pairs_scored"] += work
        elif name == "bootstrap.run_harness":
            evaluated += work[0]
            skipped += work[1]
            counts["bootstrap.replicates"] += work[2]
        elif name == "bootstrap.ordinal_welch_sweep":
            counts["bootstrap.replicates"] += work
        elif name.startswith("datasets.load_") and (
                s[PARENT] < 0 or spans[s[PARENT]][LAYER] != "datasets"):
            counts["datasets.cells_parsed"] += work
        elif name == "population.distance_histogram":
            counts["population.member_pairs"] += work
        elif name == "special.student_t_sf":
            counts["special.student_t_sf.calls"] += 1
        elif name == "betafit.beta_mle_fit":
            counts["betafit.beta_mle_fit.calls"] += 1
    # no harness run (every workload but resample_sleep) reports 0
    counts["bootstrap.evaluated_ratio"] = (
        evaluated / (evaluated + skipped) if evaluated + skipped else 0.0)
    return counts
