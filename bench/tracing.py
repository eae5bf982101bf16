"""Span tracing for the benchmark's traced run.

The tracer wraps, from outside the package, every public function of the
layer modules and every public static method of their classes (report's
API is ``ResidualReport.from_per_point``).  Instance methods are left
alone: they run once per grid point and would swamp the spans.  Each
wrapper replaces the function under every name a ``tsnoether`` module binds
it to, so ``noether.el_expressions`` is traced like
``variational.el_expressions``.  ``remove`` puts every original back.

Spans live in memory as [parent, name, start, end] rows whose index is the
span id; a task opens a root span.  A span's self time is its duration
minus the durations of its direct children, so within one task the self
times of all spans, the root's included, add up to the task's duration.
The root's self time is the part no layer covers.

The density callables of the 1-D Lagrangians the run uses (the ones the
benchmark builds and the ones ``variational.catalog`` returns) are counted
by swapping counting wrappers into their fields while tracing.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
import types
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("cli", "timescale", "variational", "noether", "multigrid", "em", "report")
DENSITY_FIELDS = ("eval", "d_t", "d_u", "d_v")
# Kernels whose returned arrays are summed into multigrid.bytes_computed.
BYTE_KERNELS = ("multigrid.partial_delta", "multigrid.shift_axis", "multigrid.random_polynomial_field")

# Every per-layer metric the traced run reports: (name, unit).
PER_LAYER = tuple(
    [(f"{layer}.{m}", unit) for layer in LAYERS for m, unit in (("calls", "count"), ("self_s", "s"), ("share", "ratio"), ("self_s.exp", "exponent"))]
    + [
        ("timescale.shift.calls", "count"),
        ("timescale.shift.self_s", "s"),
        ("timescale.delta_derivative.self_s", "s"),
        ("timescale.csv.self_s", "s"),
        ("variational.density_calls", "count"),
        ("variational.density_calls_per_point", "calls/point"),
        ("variational.lagrangian_along.self_s", "s"),
        ("variational.solve.residual_evals", "count"),
        ("variational.solve_extremal.self_s", "s"),
        ("noether.trials", "count"),
        ("noether.check_invariance.self_s", "s"),
        ("noether.transform.self_s", "s"),
        ("noether.identity.self_s", "s"),
        ("multigrid.partial_delta.calls", "count"),
        ("multigrid.shift_axis.calls", "count"),
        ("multigrid.random_polynomial_field.self_s", "s"),
        ("multigrid.bytes_computed", "bytes"),
        ("em.em_functional.calls", "count"),
        ("trace.overhead", "ratio"),
        ("trace.uncovered.share", "ratio"),
    ]
)

# Span names summed into the named self-time metrics.
_SELF_GROUPS = {
    "timescale.shift.self_s": ("timescale.shift",),
    "timescale.delta_derivative.self_s": ("timescale.delta_derivative",),
    "timescale.csv.self_s": ("timescale.write_csv", "timescale.read_csv"),
    "variational.lagrangian_along.self_s": ("variational.lagrangian_along",),
    "variational.solve_extremal.self_s": ("variational.solve_extremal",),
    "noether.check_invariance.self_s": ("noether.check_invariance",),
    "noether.transform.self_s": ("noether.transform",),
    "noether.identity.self_s": ("noether.noether_identity", "noether.noether_identity_time"),
    "multigrid.random_polynomial_field.self_s": ("multigrid.random_polynomial_field",),
}
_CALL_GROUPS = {
    "timescale.shift.calls": "timescale.shift",
    "multigrid.partial_delta.calls": "multigrid.partial_delta",
    "multigrid.shift_axis.calls": "multigrid.shift_axis",
    "em.em_functional.calls": "em.em_functional",
}


class Tracer:
    """Installs span wrappers on the ``tsnoether`` modules and keeps the
    spans, task records and counters of one traced run."""

    def __init__(self, package: str = "tsnoether"):
        self.package = package
        self.spans: list[list] = []  # [parent id or -1, name, start, end]
        self.tasks: list[dict] = []  # root span id, name, points, counters
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._density_calls = 0
        self._bytes = 0
        self._counted_ids: set[int] = set()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        replaced = {}
        for layer in LAYERS:
            mod = sys.modules[f"{self.package}.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
                elif inspect.isclass(obj):
                    for attr, raw in list(vars(obj).items()):
                        if not attr.startswith("_") and isinstance(raw, staticmethod):
                            self._set(obj, attr, staticmethod(self._wrap(f"{layer}.{name}.{attr}", raw.__func__)))
        for modname, mod in sorted(sys.modules.items()):
            if modname != self.package and not modname.startswith(self.package + "."):
                continue
            for name, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, name, hit[1])

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            _setattr(owner, attr, original)
        self._counted_ids.clear()

    def count_densities(self, L) -> None:
        """Swap counting wrappers into the density fields of a Lagrangian
        until ``remove``; a Lagrangian already counted is left as it is."""
        if id(L) in self._counted_ids:
            return
        self._counted_ids.add(id(L))
        for field in DENSITY_FIELDS:
            fn = getattr(L, field)
            if fn is not None:
                self._set(L, field, self._counted(fn))

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        _setattr(owner, attr, value)

    def _counted(self, fn):
        def counted(*args):
            self._density_calls += 1
            return fn(*args)

        return counted

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        if name in BYTE_KERNELS:
            def hook(result):
                self._bytes += result.values.nbytes
        elif name == "variational.catalog":
            hook = self.count_densities
        else:
            hook = None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = [stack[-1] if stack else -1, name, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(row)
            row[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[3] = clock()
                stack.pop()
            if hook is not None:
                hook(result)
            return result

        return traced

    # -- tasks ----------------------------------------------------------------

    @contextmanager
    def task(self, name: str, points: int, group: str):
        """Root span of one task; ``group`` labels the run phase."""
        if self._stack:
            raise RuntimeError("a task started inside another span")
        sid = len(self.spans)
        row = [-1, "task", 0.0, 0.0]
        self.spans.append(row)
        self._stack.append(sid)
        calls0, bytes0 = self._density_calls, self._bytes
        row[2] = time.perf_counter()
        try:
            yield
        finally:
            row[3] = time.perf_counter()
            self._stack.pop()
            self.tasks.append(
                {
                    "span": sid,
                    "name": name,
                    "points": points,
                    "group": group,
                    "density_calls": self._density_calls - calls0,
                    "bytes": self._bytes - bytes0,
                }
            )

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> tuple[list[float], list[int]]:
        """Self time of every span and the root (task) span it belongs to."""
        self_s = [row[3] - row[2] for row in self.spans]
        root = list(range(len(self.spans)))
        for sid, row in enumerate(self.spans):
            parent = row[0]
            if parent >= 0:
                self_s[parent] -= row[3] - row[2]
                root[sid] = root[parent]
        return self_s, root

    def group(self, name: str) -> list[dict]:
        return [t for t in self.tasks if t["group"] == name]

    def by_task(self, tasks: list[dict]) -> dict:
        """{root span id: (self seconds by span name, calls by span name)} for
        the given tasks; a root's own time is filed as "uncovered"."""
        self_s, root = self.self_times()
        table = {t["span"]: (defaultdict(float), defaultdict(int)) for t in tasks}
        for sid, row in enumerate(self.spans):
            entry = table.get(root[sid])
            if entry is not None:
                name = "uncovered" if sid == root[sid] else row[1]
                entry[0][name] += self_s[sid]
                entry[1][name] += 1
        return table

    def solve_residual_evals(self, tasks: list[dict]) -> int:
        """el_expressions spans with a solve_extremal span among their ancestors."""
        roots = {t["span"] for t in tasks}
        _, root = self.self_times()
        in_solve = [False] * len(self.spans)
        count = 0
        for sid, (parent, name, _, _) in enumerate(self.spans):
            if parent >= 0:
                in_solve[sid] = in_solve[parent] or self.spans[parent][1] == "variational.solve_extremal"
            if in_solve[sid] and name == "variational.el_expressions" and root[sid] in roots:
                count += 1
        return count

    def metrics(self, tasks: list[dict], untraced: dict, sweep: list) -> tuple[dict, float]:
        """Every PER_LAYER metric for the given traced tasks, and the largest
        gap between a task's duration and the sum of its spans' self times.

        ``untraced`` maps task names to their untraced times; ``sweep`` lists
        the traced tasks at the other sizes, for the scaling exponents.
        """
        table = self.by_task(tasks)
        durations = {sid: self.spans[sid][3] - self.spans[sid][2] for sid in table}
        total = sum(durations.values())
        self_by, calls_by = defaultdict(float), defaultdict(int)
        for self_s, calls in table.values():
            for name, v in self_s.items():
                self_by[name] += v
            for name, n in calls.items():
                calls_by[name] += n
        exps = fit_exponents(self, tasks + sweep)
        out = {}
        for layer in LAYERS:
            names = [n for n in self_by if _layer(n) == layer]
            out[f"{layer}.calls"] = sum(calls_by[n] for n in names)
            out[f"{layer}.self_s"] = sum(self_by[n] for n in names)
            out[f"{layer}.share"] = out[f"{layer}.self_s"] / total
            out[f"{layer}.self_s.exp"] = exps.get(layer, 0.0)
        for metric, names in _SELF_GROUPS.items():
            out[metric] = sum(self_by[n] for n in names)
        for metric, name in _CALL_GROUPS.items():
            out[metric] = calls_by[name]
        density = sum(t["density_calls"] for t in tasks)
        out["variational.density_calls"] = density
        out["variational.density_calls_per_point"] = density / sum(t["points"] for t in tasks)
        out["variational.solve.residual_evals"] = self.solve_residual_evals(tasks)
        out["noether.trials"] = calls_by["noether.transform"]
        out["multigrid.bytes_computed"] = sum(t["bytes"] for t in tasks)
        out["trace.overhead"] = total / sum(untraced[t["name"]] for t in tasks) - 1.0
        out["trace.uncovered.share"] = self_by["uncovered"] / total
        gap = max(abs(durations[sid] - sum(self_s.values())) for sid, (self_s, _) in table.items())
        return {name: out[name] for name, _ in PER_LAYER}, gap


def _layer(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def fit_exponents(tracer: Tracer, tasks: list[dict]) -> dict:
    """Scaling exponent of each layer's self time against task size.

    For every task name run at two or more sizes, log self time is regressed
    on log size with one intercept per task name (a pooled within-task
    slope).  Sizes at which a task spends no time in the layer are left out;
    a layer with nothing to fit gets no entry.
    """
    samples = defaultdict(list)  # (layer, task name) -> [(log size, log self)]
    by_span = {t["span"]: t for t in tasks}
    for sid, (self_s, _) in tracer.by_task(tasks).items():
        per_layer = defaultdict(float)
        for name, v in self_s.items():
            per_layer[_layer(name)] += v
        task = by_span[sid]
        for layer in LAYERS:
            if per_layer[layer] > 0:
                samples[(layer, task["name"])].append((math.log(task["points"]), math.log(per_layer[layer])))
    num, den = defaultdict(float), defaultdict(float)
    for (layer, _), pts in samples.items():
        mx = sum(x for x, _ in pts) / len(pts)
        my = sum(y for _, y in pts) / len(pts)
        num[layer] += sum((x - mx) * (y - my) for x, y in pts)
        den[layer] += sum((x - mx) ** 2 for x, _ in pts)
    return {layer: num[layer] / den[layer] for layer in den if den[layer] > 0}


def _setattr(owner, attr, value) -> None:
    if isinstance(owner, (types.ModuleType, type)):
        setattr(owner, attr, value)
    else:  # frozen dataclass instances such as Lagrangian
        object.__setattr__(owner, attr, value)
