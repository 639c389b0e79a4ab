"""Spans around the calls into each layer of bosemilne, recorded from outside.

`Tracer.install` replaces each traced function at every module attribute
that holds it (callers look some up through their own module, for example
`factorization` binds `pv_integral` and `ordered_map` at import), so the
program itself is not edited. Spans (id, name, parent, start, end) stay in
memory; `layer_metrics` turns one round of them into the per-layer numbers
and `write` stores them all at the end of the run.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute path, span name); every public function the CLI's
# commands reach in each layer
TRACED = (
    ("special", "xi_alpha", "special.xi_alpha"),
    ("quadrature", "integrate_with_error", "quadrature.integrate"),
    ("quadrature", "pv_integral", "quadrature.pv_integral"),
    ("dispersion", "lambda_boundary", "dispersion.lambda_boundary"),
    ("dispersion", "build_theta_table", "dispersion.build_theta_table"),
    ("factorization", "v1_coefficient", "factorization.v1_coefficient"),
    ("factorization", "spectrum_table", "factorization.spectrum_table"),
    ("factorization", "v_cut", "factorization.v_cut"),
    ("field", "solve_milne", "field.solve_milne"),
    ("field", "evaluate", "field.evaluate"),
    ("field", "boundary_residual", "field.boundary_residual"),
    ("dom", "DomGrid.build", "dom.DomGrid.build"),
    ("dom", "solve", "dom.solve"),
    ("util", "ordered_map", "util.ordered_map"),
)

class Tracer:
    """In-memory span recorder; one per benchmark run."""

    def __init__(self):
        self.spans: list[tuple[int, str, int, float, float]] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, *, prepare=None, after=None):
        """fn inside a span; prepare(span_id, args) may rewrite the arguments,
        after(args, kwargs, result) may add counts."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else -1
            if prepare is not None:
                args = prepare(sid, args)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, parent, start, end))
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _adopt_workers(self, sid: int, args):
        """ordered_map: spans opened in pool threads get the map's span as parent."""
        fn, items, *rest = args
        items = list(items)
        self.counts["util.ordered_map.items"] += len(items)
        tracer = self

        def in_worker(item):
            stack = tracer._stack()
            adopt = not stack
            if adopt:
                stack.append(sid)
            try:
                return fn(item)
            finally:
                if adopt:
                    stack.pop()

        return (in_worker, items, *rest)

    def _after_table(self, args, kwargs, table):
        self.counts["dispersion.table_nodes"] += len(table.samples)

    def _after_dom_solve(self, args, kwargs, result):
        grid = args[1] if len(args) > 1 else kwargs["grid"]
        self.counts["dom.solve.sweeps"] += result.iterations
        self.counts["dom.solve.cell_updates"] += (
            result.iterations * (len(grid.x_nodes) - 1) * len(grid.v_nodes) * len(grid.w_nodes))

    def install(self, package: str = "bosemilne"):
        """Replace every traced function wherever a bosemilne module holds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        hooks = {
            "util.ordered_map": dict(prepare=self._adopt_workers),
            "dispersion.build_theta_table": dict(after=self._after_table),
            "dom.solve": dict(after=self._after_dom_solve),
        }
        for mod_name, path, name in TRACED:
            owner = sys.modules[f"{package}.{mod_name}"]
            if "." in path:  # a classmethod, replaced on its class
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr].__func__
                wrapped = self.wrap(name, original, **hooks.get(name, {}))
                self._undo.append((cls, attr, cls.__dict__[attr]))
                setattr(cls, attr, classmethod(wrapped))
                continue
            original = getattr(owner, path)
            wrapped = self.wrap(name, original, **hooks.get(name, {}))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, attr, original))
                        setattr(mod, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def write(self, path):
        """All spans, as gzip-compressed JSON: names once, spans as index rows."""
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = min((s[3] for s in self.spans), default=0.0)
        rows = [[sid, index[name], parent, round(start - t0, 7), round(end - t0, 7)]
                for sid, name, parent, start, end in self.spans]
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["id", "name", "parent", "start_s", "end_s"],
                       "names": names, "spans": rows}, fh)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals inside (lo, hi)."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def span_totals(spans):
    """Summed duration, self time and call count per span name.

    Self time is a span minus the union of its child spans, so work a layer
    hands to pool threads is not subtracted twice.
    """
    children = defaultdict(list)
    for sid, name, parent, start, end in spans:
        children[parent].append((start, end))
    total, own, calls = defaultdict(float), defaultdict(float), Counter()
    for sid, name, parent, start, end in spans:
        total[name] += end - start
        own[name] += end - start - _covered(children.get(sid, ()), start, end)
        calls[name] += 1
    return total, own, calls


def module_coverage(spans) -> dict[str, float]:
    """Wall time covered by any span of each module (the name's first part).

    Inclusive of everything the module calls, so nested layers overlap:
    the shares of one round do not add up to its pass time.
    """
    by_module = defaultdict(list)
    for sid, name, parent, start, end in spans:
        by_module[name.split(".")[0]].append((start, end))
    return {m: _covered(iv, -float("inf"), float("inf")) for m, iv in by_module.items()}


def layer_metrics(spans, counts: Counter) -> dict[str, float]:
    """Per-layer numbers of one round, keyed by their names in BENCHMARK.json."""
    total, own, calls = span_totals(spans)

    def per_call(name, scale):
        return scale * total[name] / calls[name] if calls[name] else 0.0

    sweeps = counts["dom.solve.sweeps"]
    return {
        "cli.self_s": own["cli"],
        "cli.out_bytes": counts["cli.out_bytes"],
        "special.xi_alpha.calls": calls["special.xi_alpha"],
        "special.xi_alpha.s": total["special.xi_alpha"],
        "quadrature.integrate.calls": calls["quadrature.integrate"],
        "quadrature.integrate.self_s": own["quadrature.integrate"],
        "quadrature.pv_integral.calls": calls["quadrature.pv_integral"],
        "dispersion.lambda_boundary.calls": calls["dispersion.lambda_boundary"],
        "dispersion.lambda_boundary.s": total["dispersion.lambda_boundary"],
        "dispersion.lambda_boundary.us_per_call": per_call("dispersion.lambda_boundary", 1e6),
        "dispersion.build_theta_table.s": total["dispersion.build_theta_table"],
        "dispersion.build_theta_table.self_s": own["dispersion.build_theta_table"],
        "dispersion.table_nodes": counts["dispersion.table_nodes"],
        "factorization.v1_coefficient.s": total["factorization.v1_coefficient"],
        "factorization.spectrum_table.s": total["factorization.spectrum_table"],
        "factorization.v_cut.calls": calls["factorization.v_cut"],
        "factorization.v_cut.us_per_call": per_call("factorization.v_cut", 1e6),
        "field.solve_milne.s": total["field.solve_milne"],
        "field.evaluate.calls": calls["field.evaluate"],
        "field.evaluate.s": total["field.evaluate"],
        "field.evaluate.us_per_call": per_call("field.evaluate", 1e6),
        "field.boundary_residual.s": total["field.boundary_residual"],
        "dom.DomGrid.build.s": total["dom.DomGrid.build"],
        "dom.solve.s": total["dom.solve"],
        "dom.solve.sweeps": sweeps,
        "dom.solve.ms_per_sweep": 1e3 * total["dom.solve"] / sweeps if sweeps else 0.0,
        "dom.solve.cell_updates": counts["dom.solve.cell_updates"],
        "util.ordered_map.calls": calls["util.ordered_map"],
        "util.ordered_map.items": counts["util.ordered_map.items"],
        "util.ordered_map.s": total["util.ordered_map"],
    }
