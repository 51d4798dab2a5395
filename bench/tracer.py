"""Per-function call counts and times for the cuntzkit layers.

`Tracer.install()` replaces every public function of the traced modules
(and every public method of the classes they define) with a timing
wrapper, both as the module attribute and wherever another cuntzkit
module bound the same function object by name. Calls made inside a
module therefore pass through the wrappers too. Nothing under `src/`
changes.

Per function the tracer keeps, in memory, the number of calls, the
inclusive time and the time spent in wrapped callees, so a layer's self
time is inclusive time minus callee time summed over its functions. Full
spans are kept only at the coarse boundaries: each benchmark operation
and each entry into `chains` or `checks` from another layer.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# Layers whose public functions are wrapped, from the cut algebra up.
LAYERS = ("geometry", "lsc", "gen", "duality", "models", "chains", "checks")
# Layers whose entries from another layer also get a span.
SPAN_LAYERS = ("chains", "checks")
# Trivial leaf helpers left unwrapped: their time lands in the caller's
# self time. geometry.frac alone makes ~0.6M calls per 1000-case suite.
UNWRAPPED = frozenset({
    "geometry.frac", "geometry.frac_to_str", "lsc.level", "lsc.num_levels",
})
# The check functions that return a PropertyVerdict.
VERDICT_FUNCTIONS = frozenset({
    "checks.check_refinable_sums",
    "checks.check_almost_ordered_sums",
    "checks.check_weak_chainability",
})


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive_s, callee_s]
        self.verdicts: dict[str, int] = {}  # verdict kind -> count
        self.spans: list[dict] = []
        self.op_id = None
        self._stack = [0.0]  # callee-time accumulators; slot 0 is the caller of everything
        self._open: list[int] = []  # indices of open spans
        self._restore: list = []

    # -------------------------------------------------------------- install

    def install(self) -> None:
        """Wrap the public functions of every traced cuntzkit module."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"cuntzkit.{layer}")
            if mod is None:
                raise RuntimeError(f"cuntzkit.{layer} is not imported")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") and not inspect.isclass(obj):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    qual = f"{layer}.{name}"
                    if qual not in UNWRAPPED:
                        wrappers[id(obj)] = (obj, self._wrap(qual, layer, obj))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for mname, meth in list(vars(obj).items()):
                        if mname.startswith("_") or not inspect.isfunction(meth):
                            continue
                        w = self._wrap(f"{layer}.{obj.__name__}.{mname}", layer, meth)
                        self._restore.append((obj, mname, meth))
                        setattr(obj, mname, w)
        # Rebind each wrapped function wherever a cuntzkit module holds it
        # by name, so `from .geometry import normalize` style bindings and
        # package re-exports are traced as well.
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "cuntzkit" or modname.startswith("cuntzkit.")):
                continue
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, hit[1])

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ------------------------------------------------------------- wrappers

    def _wrap(self, qual: str, layer: str, fn):
        rec = self.stats.setdefault(qual, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        if layer not in SPAN_LAYERS:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                stack.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    rec[0] += 1
                    rec[1] += dt
                    rec[2] += stack.pop()
                    stack[-1] += dt
            return counted

        is_verdict = qual in VERDICT_FUNCTIONS

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            entry = not self._open or self.spans[self._open[-1]]["layer"] != layer
            if entry:
                self._begin_span(qual, layer)
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                if is_verdict:
                    self.verdicts[out.kind] = self.verdicts.get(out.kind, 0) + 1
                return out
            finally:
                dt = clock() - t0
                rec[0] += 1
                rec[1] += dt
                rec[2] += stack.pop()
                stack[-1] += dt
                if entry:
                    self._end_span()
        return spanned

    # ---------------------------------------------------------------- spans

    def _begin_span(self, name: str, layer: str) -> None:
        parent = self._open[-1] if self._open else None
        self._open.append(len(self.spans))
        self.spans.append({"name": name, "layer": layer, "start": time.perf_counter(),
                           "end": None, "parent": parent, "op": self.op_id})

    def _end_span(self) -> None:
        self.spans[self._open.pop()]["end"] = time.perf_counter()

    def begin_op(self, op_id: int, name: str) -> None:
        """Open the span of one benchmark operation."""
        self.op_id = op_id
        self._begin_span(name, "op")

    def end_op(self) -> None:
        self._end_span()
        self.op_id = None

    # -------------------------------------------------------------- results

    def calls(self) -> dict[str, int]:
        return {name: rec[0] for name, rec in self.stats.items() if rec[0]}

    def merge(self, other: dict) -> None:
        """Add the stats and verdict counts of another process's `dump()`."""
        for name, (calls, incl, callee) in other["stats"].items():
            rec = self.stats.setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += incl
            rec[2] += callee
        for kind, n in other["verdicts"].items():
            self.verdicts[kind] = self.verdicts.get(kind, 0) + n

    def dump(self) -> dict:
        """Stats and verdict counts, for `merge` in another process."""
        return {"stats": {k: v for k, v in self.stats.items() if v[0]},
                "verdicts": dict(self.verdicts)}
