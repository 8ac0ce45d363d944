"""Span tracing of kerrsense from outside the package.

`Tracer.install` replaces module attributes of kerrsense with wrappers that
record one span per call: name, start, end, parent span, thread.  A function
is replaced wherever it is bound, so names that callers took with
`from ... import ...` (`metrology.converge_dim`, `harness.wigner`) are traced
where they are looked up.  Nothing under src/ changes.

Module self time comes from span nesting.  Within a thread a span's exclusive
intervals are its duration minus the intervals of its same-thread children;
across threads each instant is split evenly between the threads doing work.
A thread blocked in `harness._map` waiting for its workers counts as idle
while any worker is inside a span.  The self times of all modules therefore
add up to the duration of the root span, i.e. to the traced wall time.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter

MODULES = ("cli", "harness", "fock", "dynamics", "metrology", "wigner")
ROOT = "cli.main"
DISPATCH = "harness._map"

# (module, attribute, span name); the span name's first word is its module.
FUNCTIONS = [
    ("harness", "run_experiment", "harness.run_experiment"),
    ("harness", "evaluate_point", "harness.evaluate_point"),
    ("harness", "_point_row", "harness._point_row"),
    ("harness", "_group_dim", "harness._group_dim"),
    ("harness", "_map", DISPATCH),
    ("harness", "_scaling_series", "harness._scaling_series"),
    ("harness", "_fig3_snapshots", "harness._fig3_snapshots"),
    ("harness", "emit", "harness.emit"),
    ("fock", "ladder_moments", "fock.ladder_moments"),
    ("fock", "quadrature_covariance", "fock.quadrature_covariance"),
    ("fock", "displacement", "fock.displacement"),
    ("fock", "variance", "fock.variance"),
    ("fock", "expectation", "fock.expectation"),
    ("fock", "apply_quadrature", "fock.apply_quadrature"),
    ("fock", "position", "fock.position"),
    ("fock", "momentum", "fock.momentum"),
    ("dynamics", "eigensystem", "dynamics.eigensystem"),
    ("dynamics", "evolve_unitary", "dynamics.evolve_unitary"),
    ("dynamics", "evolve_lindblad", "dynamics.evolve_lindblad"),
    ("dynamics", "liouvillian", "dynamics.liouvillian"),
    ("dynamics", "_lindblad_apply", "dynamics.lindblad"),
    ("dynamics", "min_variance", "dynamics.min_variance"),
    ("dynamics", "squeezing_trace", "dynamics.squeezing_trace"),
    ("dynamics", "optimal_squeezing", "dynamics.optimal_squeezing"),
    ("metrology", "noisy_linear_sensitivity", "metrology.linear"),
    ("metrology", "linear_sensitivity", "metrology.linear"),
    ("metrology", "moment_basis", "metrology.moment_basis"),
    ("metrology", "mai_sensitivity", "metrology.mai_sensitivity"),
    ("metrology", "_mai_operator_route", "metrology.mai.operator"),
    ("metrology", "_mai_derivative_route", "metrology.mai.derivative"),
    ("wigner", "wigner", "wigner"),
]

# (class in fock, method) traced as fock work wherever it is called from.
METHODS = [
    ("QuantumState", "from_ket"),
    ("QuantumState", "from_density_matrix"),
    ("QuantumState", "vacuum"),
    ("QuantumState", "density_matrix"),
    ("QuantumState", "populations"),
    ("QuantumState", "tail_population"),
    ("Operator", "__init__"),
]


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    """Records spans in memory; `summary` turns them into layer metrics."""

    def __init__(self) -> None:
        # (id, name, start, end, parent id, thread id, info)
        self.records: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._modules: dict = {}
        self._cache_base: dict[str, int] = {}

    # -- recording -----------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.get_ident() == self._main
            stack = self._local.stack = self._main_stack if main else []
        return stack

    def call(self, name: str, fn, args=(), kwargs=None, info=None):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:  # a worker thread's span belongs to the main thread's open span
            parent = self._main_stack[-1] if self._main_stack else None
        sid = next(self._ids)
        stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = perf_counter()
            stack.pop()
            self.records.append((sid, name, start, end, parent, threading.get_ident(), info))

    def _wrap(self, name, fn, info=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            return tracer.call(span, fn, args, kwargs, info(args, kwargs) if info else None)

        return traced

    def _converge_dim(self, fn):
        """converge_dim: time each builder call, remember the dim it returned."""
        tracer = self

        @functools.wraps(fn)
        def traced(builder, *args, **kwargs):
            module = getattr(builder, "__module__", "") or ""
            span = module.rpartition(".")[2] + ".converge_builder"
            info = {"builds": [], "used": None}

            def timed_builder(dim):
                start = perf_counter()
                try:
                    return tracer.call(span, builder, (dim,), None, dim)
                finally:
                    info["builds"].append((dim, perf_counter() - start))

            def run():
                figures, used = fn(timed_builder, *args, **kwargs)
                info["used"] = used
                return figures, used

            return tracer.call("fock.converge_dim", run, info=info)

        return traced

    # -- installation --------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        for mod in self._modules.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, replacement)

    def install(self) -> None:
        """Wrap kerrsense's layer functions; call after importing kerrsense.cli."""
        self._modules = {
            name: mod for name, mod in sys.modules.items()
            if name == "kerrsense" or name.startswith("kerrsense.")
        }
        mod = {name: self._modules[f"kerrsense.{name}"] for name in MODULES}
        infos = {
            "dynamics.eigensystem": lambda a, k: _arg(a, k, 0, "dim"),
            "dynamics.lindblad": _lindblad_info,
            "wigner": lambda a, k: _wigner_points(mod["wigner"], a, k),
            "harness.emit": _emitted_rows,
        }
        for module, attr, span in FUNCTIONS:
            original = getattr(mod[module], attr)
            self._rebind(original, self._wrap(span, original, infos.get(span)))
        metrology = mod["metrology"]
        self._rebind(metrology.moment_sensitivity,
                     self._wrap(_moment_span, metrology.moment_sensitivity))
        self._rebind(metrology.qfi_max, self._wrap(_qfi_span, metrology.qfi_max))
        converge = mod["fock"].converge_dim
        self._rebind(converge, self._converge_dim(converge))
        for cls_name, method in METHODS:
            cls = getattr(mod["fock"], cls_name)
            raw = cls.__dict__[method]
            span = f"fock.{cls_name}.{method.strip('_')}"
            if isinstance(raw, classmethod):
                setattr(cls, method, classmethod(self._wrap(span, raw.__func__)))
            else:
                setattr(cls, method, self._wrap(span, raw))
        self._cache_base = {
            "eig": mod["dynamics"]._eigensystem.cache_info().misses,
            "moment": metrology._moment_matrices.cache_info().misses,
        }

    # -- reporting -----------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Wall time per module, split as described in the module docstring."""
        by_id = {r[0]: r for r in self.records}
        children = defaultdict(list)
        for r in self.records:
            parent = by_id.get(r[4])
            if parent is not None and parent[5] == r[5]:
                children[r[4]].append(r)
        events = []
        for sid, name, start, end, _, thread, _ in self.records:
            module = name.split(".", 1)[0]
            idle = name == DISPATCH
            cursor = start
            for child in sorted(children[sid], key=lambda c: c[2]):
                if child[2] > cursor:
                    events += [(cursor, 1, thread, module, idle), (child[2], 0, thread, None, idle)]
                cursor = max(cursor, child[3])
            if end > cursor:
                events += [(cursor, 1, thread, module, idle), (end, 0, thread, None, idle)]
        events.sort(key=lambda e: (e[0], e[1]))
        totals = dict.fromkeys(MODULES, 0.0)
        active: dict[int, tuple[str, bool]] = {}
        prev = None
        for t, kind, thread, module, idle in events:
            if active and t > prev:
                busy = [m for m, i in active.values() if not i] or [m for m, _ in active.values()]
                share = (t - prev) / len(busy)
                for m in busy:
                    totals[m] = totals.get(m, 0.0) + share
            prev = t
            if kind == 0:
                active.pop(thread, None)
            else:
                active[thread] = (module, idle)
        return totals

    def summary(self) -> dict[str, float]:
        """Layer metrics of this process (sums; the caller adds processes up)."""
        secs = defaultdict(float)
        calls = defaultdict(int)
        for _, name, start, end, _, _, _ in self.records:
            secs[name] += end - start
            calls[name] += 1

        def infos(name):
            return [r[6] for r in self.records if r[1] == name]

        mod = {name: self._modules[f"kerrsense.{name}"] for name in MODULES}
        lindblad = infos("dynamics.lindblad")
        builds = [(d, s, info["used"]) for info in infos("fock.converge_dim")
                  for d, s in info["builds"]]
        useful = sum(s for d, s, used in builds if d == used)
        built = sum(s for _, s, _ in builds)
        m = {
            "dynamics.eigensystem.s": secs["dynamics.eigensystem"],
            "dynamics.eigensystem.calls": calls["dynamics.eigensystem"],
            "dynamics.eigensystem.decompositions":
                mod["dynamics"]._eigensystem.cache_info().misses - self._cache_base["eig"],
            "dynamics.eigensystem.max_dim": max(infos("dynamics.eigensystem"), default=0),
            "dynamics.evolve_unitary.s": secs["dynamics.evolve_unitary"],
            "dynamics.squeezing_trace.s": secs["dynamics.squeezing_trace"],
            "dynamics.optimal_squeezing.s": secs["dynamics.optimal_squeezing"],
            "dynamics.lindblad.s": secs["dynamics.lindblad"],
            "dynamics.lindblad.calls": calls["dynamics.lindblad"],
            "dynamics.lindblad.columns": sum(c for c, _ in lindblad),
            "dynamics.lindblad.work": sum(w for _, w in lindblad),
            "metrology.mai.operator.s": secs["metrology.mai.operator"],
            "metrology.mai.derivative.s": secs["metrology.mai.derivative"],
            "metrology.mai.calls": calls["metrology.mai.operator"]
                + calls["metrology.mai.derivative"],
            "metrology.moment.k2.s": secs["metrology.moment.k2"],
            "metrology.moment.k3.s": secs["metrology.moment.k3"],
            "metrology.moment_basis.s": secs["metrology.moment_basis"],
            "metrology.moment_basis.calls": calls["metrology.moment_basis"],
            "metrology.moment_basis.misses":
                mod["metrology"]._moment_matrices.cache_info().misses
                - self._cache_base["moment"],
            "metrology.qfi.pure.s": secs["metrology.qfi.pure"],
            "metrology.qfi.mixed.s": secs["metrology.qfi.mixed"],
            "wigner.s": secs["wigner"],
            "wigner.points": sum(infos("wigner")),
            "fock.converge_dim.s": secs["fock.converge_dim"],
            "fock.converge_dim.dims_tried": len(builds),
            "fock.converge_dim.wasted_s": built - useful,
            "fock.converge_dim.useful_s": useful,
            "harness.evaluate_point.calls": calls["harness.evaluate_point"],
            "harness.rows": sum(infos("harness.emit")),
            "harness.emit.s": secs["harness.emit"],
            "trace.wall_s": secs[ROOT],
            "trace.spans": len(self.records),
        }
        for module, seconds in self.self_times().items():
            m[f"{module}.self_s"] = seconds
        m["trace.span_cost_s"] = len(self.records) * self._span_cost()
        return m

    def _span_cost(self, calls: int = 20000) -> float:
        """Seconds one traced call adds, timed on a traced no-op."""
        noop = self._wrap("trace.noop", lambda: None)
        start = perf_counter()
        for _ in range(calls):
            noop()
        cost = (perf_counter() - start) / calls
        del self.records[-calls:]
        return cost

    def write_spans(self, path, workload: str, invocation: str) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent, thread, _ in self.records:
                fh.write(json.dumps({
                    "workload": workload, "invocation": invocation, "id": sid,
                    "name": name, "start": start, "end": end, "parent": parent,
                    "thread": thread,
                }) + "\n")


def _moment_span(args, kwargs) -> str:
    basis = _arg(args, kwargs, 1, "basis")
    order = basis if isinstance(basis, int) else basis.order
    return f"metrology.moment.k{order}"


def _qfi_span(args, kwargs) -> str:
    return "metrology.qfi.pure" if _arg(args, kwargs, 0, "state").is_pure else "metrology.qfi.mixed"


def _lindblad_info(args, kwargs) -> tuple[int, float]:
    """(columns, columns x dim^2 x t) of one exp(L t) application."""
    block = _arg(args, kwargs, 1, "block")
    t = _arg(args, kwargs, 2, "t")
    columns = block.shape[1] if block.ndim == 2 else 1
    return columns, columns * block.shape[0] * abs(t)


def _wigner_points(wigner_module, args, kwargs) -> int:
    grid = _arg(args, kwargs, 1, "grid", wigner_module.DEFAULT_GRID)
    return grid.nx * grid.np


def _emitted_rows(args, kwargs) -> int:
    result = _arg(args, kwargs, 0, "result")
    return len(result.rows) + len(result.optima or [])
