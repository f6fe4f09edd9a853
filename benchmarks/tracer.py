"""In-process span tracer that wraps planwise's public functions from outside.

Each public function of the traced modules is replaced by a wrapper in
every planwise module that holds a reference to it (``planners.locate`` as
well as ``tree.locate``), so calls between layers are seen however the name
was imported. Planner ``fit``/``plan`` methods are wrapped on their classes
and named after the planner instance (``planners.xtree.fit``). Spans are
kept in flat in-memory arrays and written out only after the run.

A span's busy time counts only its outermost call of a name (recursion is
not double-counted); its self time is its duration minus the durations of
its direct child spans.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import types
from array import array
from collections import Counter, defaultdict
from functools import wraps
from pathlib import Path
from time import perf_counter

LAYERS = (
    "datasets", "discretize", "tree", "stats", "planners", "refactorings",
    "bellwether", "evaluate", "cli",
)

# Helpers inside tree growth's inner loops: apply_bins runs once per metric
# cell and entropy once per candidate split, so a span per call would cost
# more than the work it times. Their time stays in the callers' self time.
UNTRACED = frozenset({"discretize.apply_bins", "stats.entropy"})

PLANNER_METHODS = ("fit", "plan", "plan_all")


def _count_leaves(node) -> int:
    if node.is_leaf:
        return 1
    return sum(_count_leaves(child) for child in node.children.values())


def _observe_discover(counters: Counter, report) -> None:
    for row in report.scores.values():
        counters["bellwether.pairs_scored"] += len(row)
        counters["bellwether.defined_scores"] += sum(s is not None for s in row.values())


# Counters read from a traced function's result, keyed by span name.
OBSERVERS = {
    "datasets.load_csv": lambda c, r: c.update({"datasets.rows_loaded": len(r.records)}),
    "discretize.mdlp_cuts": lambda c, r: c.update(
        {"discretize.metrics_with_cuts": int(bool(r.cut_points))}),
    "tree.build_tree": lambda c, r: c.update({"tree.leaves": _count_leaves(r)}),
    "stats.fit_univariate_logistic": lambda c, r: c.update(
        {"stats.logistic_converged": int(r.converged)}),
    "bellwether.discover": _observe_discover,
}


class Tracer:
    """Context manager: patch on enter, restore every original on exit."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._depth: list[int] = []
        self.span_name = array("i")
        self.parent = array("i")
        self.outermost = array("b")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.span_name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.outermost.append(self._depth[nid] == 0)
        self._depth[nid] += 1
        self._stack.append(idx)
        self.end.append(0.0)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int, nid: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()
        self._depth[nid] -= 1

    def _wrap_function(self, fn, name: str):
        nid = self._name_id(name)
        observe = OBSERVERS.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, nid)
            if observe is not None:
                observe(self.counters, result)
            return result

        return traced

    def _wrap_method(self, fn, method: str):
        counters = self.counters

        @wraps(fn)
        def traced(planner, *args, **kwargs):
            nid = self._name_id(f"planners.{planner.name}.{method}")
            idx = self._open(nid)
            try:
                result = fn(planner, *args, **kwargs)
            finally:
                self._close(idx, nid)
            if method == "plan":
                counters[f"planners.{planner.name}.plans"] += 1
                changed = any(a.direction != "." for a in result.actions.values())
                counters[f"planners.{planner.name}.changed"] += changed
            return result

        return traced

    # -- patching --------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        modules = {
            layer: importlib.import_module(f"planwise.{layer}") for layer in LAYERS
        }
        wrapped = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (
                    isinstance(obj, types.FunctionType)
                    and not attr.startswith("_")
                    and obj.__module__ == module.__name__
                    and name not in UNTRACED
                ):
                    wrapped[obj] = self._wrap_function(obj, name)
        # Every planwise module that imported a traced name gets the wrapper.
        holders = [m for n, m in sys.modules.items()
                   if n == "planwise" or n.startswith("planwise.")]
        for module in holders:
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    self._patch(module, attr, wrapped[obj])
        planners = modules["planners"]
        for obj in list(vars(planners).values()):
            if isinstance(obj, type) and issubclass(obj, planners.PlannerBase):
                for method in PLANNER_METHODS:
                    if method in vars(obj):
                        self._patch(obj, method, self._wrap_method(vars(obj)[method], method))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results ---------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Span name -> calls, busy_s (outermost calls) and self_s."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for i in range(n):
            entry = out[self.names[self.span_name[i]]]
            duration = self.end[i] - self.start[i]
            entry["calls"] += 1
            if self.outermost[i]:
                entry["busy_s"] += duration
            entry["self_s"] += duration - child[i]
        return dict(out)

    def write(self, path: Path) -> None:
        """Spans as gzipped CSV: id, parent, name, start and duration (s)."""
        origin = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,duration_s\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.parent[i]},{self.names[self.span_name[i]]},"
                         f"{self.start[i] - origin:.7f},{self.end[i] - self.start[i]:.7f}\n")
