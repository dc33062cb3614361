"""Spans around plaplab's layers, recorded from outside the package.

``Tracer.install`` replaces each public function of a layer, under every
name a caller looks it up by (``from .descent import bb_descent`` binds a
second name in ``plaplab.solvers``), with a wrapper that records a span:
id, parent id, name, start, end and a few facts about the result. The
value, gradient and guard callbacks handed to ``bb_descent`` and
``projected_descent`` are wrapped the same way. Spans stay in memory until
the round ends; ``layer_metrics`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# module -> functions wrapped there; the span is named "<module>.<function>"
WRAPPED = {
    "eigen": ("first_eigenpair",),
    "critical": ("compute_critical_values", "picone_condition", "region_classify"),
    "descent": ("bb_descent", "projected_descent"),
    "solvers": (
        "ground_state",
        "m_minus",
        "minimizer_set_at_star",
        "local_min_continuation",
        "mountain_pass",
        "string_relax",
        "runaway_state",
        "classify",
    ),
    "sweeps": ("build_problem", "run_sweep", "run_three_solutions", "run_region_map"),
    "tables": ("emit",),
    "cli": ("_write",),  # the eigen and critical commands write their record here
}
CALLBACKS = {"fun": "functionals.value", "grad": "functionals.gradient", "guard": "functionals.guard"}
SOLVERS = ("ground_state", "m_minus", "minimizer_set_at_star", "local_min_continuation", "mountain_pass")
SOLVERS_WITH_ITERS = ("ground_state", "m_minus", "local_min_continuation", "mountain_pass")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, parent, name, start, end, info]
        self._stack: list[int] = []
        self._eigen_seen: dict[int, object] = {}  # keeps results alive so ids stay unique

    def _call(self, name: str, fn, args, kwargs, describe=None):
        span = [len(self.spans), self._stack[-1] if self._stack else None, name, perf_counter(), 0.0, None]
        self.spans.append(span)
        self._stack.append(span[0])
        try:
            result = fn(*args, **kwargs)
        finally:
            span[4] = perf_counter()
            self._stack.pop()
        if describe is not None:
            span[5] = describe(result, args, kwargs)
        return result

    def _callback(self, name: str, fn):
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)

        return traced

    def _wrapper(self, module: str, fn_name: str, fn):
        name = f"{module}.{fn_name}"
        signature = inspect.signature(fn)
        describe = self._describer(module, fn_name, signature)
        if module == "descent":

            def traced(*args, **kwargs):
                bound = signature.bind(*args, **kwargs)
                for key, cb_name in CALLBACKS.items():
                    if bound.arguments.get(key) is not None:
                        bound.arguments[key] = self._callback(cb_name, bound.arguments[key])
                return self._call(name, fn, bound.args, bound.kwargs, describe)

        else:

            def traced(*args, **kwargs):
                return self._call(name, fn, args, kwargs, describe)

        return traced

    def _describer(self, module: str, fn_name: str, signature):
        if module == "descent":
            return lambda r, a, k: {"iterations": r.iterations, "status": r.status}
        if module == "eigen":

            def eigen_info(r, a, k):
                hit = id(r) in self._eigen_seen
                self._eigen_seen[id(r)] = r
                return {"iterations": r.iterations, "cache_hit": hit}

            return eigen_info
        if fn_name == "string_relax":

            def string_info(r, a, k):
                cap = signature.bind(*a, **k)
                cap.apply_defaults()
                sweeps = len(r[1])
                return {"sweeps": sweeps, "capped": sweeps >= cap.arguments["max_sweeps"]}

            return string_info
        if fn_name in SOLVERS_WITH_ITERS:
            return lambda r, a, k: {"iterations": r.iterations, "status": r.status}
        if fn_name.startswith("run_"):
            return lambda r, a, k: {
                "rows": len(r.rows),
                "rows_ok": sum(getattr(row, "status", "ok") == "ok" for row in r.rows),
            }
        if fn_name == "emit":
            return lambda r, a, k: {"bytes": Path(a[1]).stat().st_size}
        if fn_name == "_write":
            return lambda r, a, k: {"bytes": len(a[0].encode())}
        return None

    def install(self) -> None:
        """Wrap every function in WRAPPED under all names plaplab binds it to."""
        homes = {m: importlib.import_module(f"plaplab.{m}") for m in WRAPPED}
        modules = [mod for name, mod in sys.modules.items() if name == "plaplab" or name.startswith("plaplab.")]
        for module, names in WRAPPED.items():
            for fn_name in names:
                orig = getattr(homes[module], fn_name)
                traced = self._wrapper(module, fn_name, orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, traced)

    def write(self, path: Path, origin: float) -> None:
        with open(path, "w") as fh:
            for span_id, parent, name, start, end, info in self.spans:
                rec = [span_id, parent, name, round(start - origin, 9), round(end - origin, 9)]
                fh.write(json.dumps(rec + [info] if info else rec) + "\n")


def layer_metrics(spans: list[list], wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: counts, inclusive and self times (duration minus children)."""
    child_time: dict[int, float] = defaultdict(float)
    for _, parent, _, start, end, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    info: dict[str, list[dict]] = defaultdict(list)
    top_level = 0.0
    for span_id, parent, name, start, end, extra in spans:
        total[name] += end - start
        self_time[name] += end - start - child_time[span_id]
        calls[name] += 1
        if extra:
            info[name].append(extra)
        if parent is None:
            top_level += end - start

    def summed(name: str, key: str) -> int:
        return sum(int(x[key]) for x in info[name])

    m: dict[str, tuple[float, str]] = {}
    cb = tuple(CALLBACKS.values())
    evals = sum(calls[c] for c in cb)
    eval_s = sum(total[c] for c in cb)
    m["functionals.evals"] = (evals, "count")
    m["functionals.s"] = (eval_s, "s")
    m["functionals.us_per_eval"] = (1e6 * eval_s / evals if evals else 0.0, "us")

    descent = ("descent.bb_descent", "descent.projected_descent")
    runs = [x for d in descent for x in info[d]]
    m["descent.calls"] = (len(runs), "count")
    m["descent.s"] = (sum(self_time[d] for d in descent), "s")
    m["descent.iters"] = (sum(x["iterations"] for x in runs), "count")
    m["descent.capped"] = (sum(x["status"] == "max_iterations" for x in runs), "count")
    m["descent.stalled"] = (sum(x["status"] == "stalled" for x in runs), "count")
    m["descent.converged_ratio"] = (
        sum(x["status"] == "converged" for x in runs) / len(runs) if runs else 0.0,
        "ratio",
    )

    m["critical.values_s"] = (total["critical.compute_critical_values"], "s")
    picone = calls["critical.picone_condition"]
    m["critical.picone_calls"] = (picone, "count")
    m["critical.picone_s"] = (total["critical.picone_condition"], "s")
    m["critical.picone_us"] = (1e6 * total["critical.picone_condition"] / picone if picone else 0.0, "us")

    for fn in SOLVERS:
        m[f"solvers.{fn}.s"] = (total[f"solvers.{fn}"], "s")
        if fn in SOLVERS_WITH_ITERS:
            m[f"solvers.{fn}.iters"] = (summed(f"solvers.{fn}", "iterations"), "count")
    m["solvers.string_relax.s"] = (total["solvers.string_relax"], "s")
    m["solvers.string_relax.sweeps"] = (summed("solvers.string_relax", "sweeps"), "count")
    m["solvers.string_relax.capped"] = (summed("solvers.string_relax", "capped"), "count")

    eigen = info["eigen.first_eigenpair"]
    m["eigen.calls"] = (len(eigen), "count")
    m["eigen.cache_hits"] = (sum(x["cache_hit"] for x in eigen), "count")
    m["eigen.s"] = (total["eigen.first_eigenpair"], "s")
    m["eigen.iters"] = (sum(x["iterations"] for x in eigen if not x["cache_hit"]), "count")

    experiments = WRAPPED["sweeps"]
    m["sweeps.s"] = (sum(self_time[f"sweeps.{d}"] for d in experiments), "s")
    m["sweeps.rows"] = (sum(summed(f"sweeps.{d}", "rows") for d in experiments if d.startswith("run_")), "count")
    m["sweeps.rows_ok"] = (
        sum(summed(f"sweeps.{d}", "rows_ok") for d in experiments if d.startswith("run_")),
        "count",
    )
    m["tables.emit_s"] = (total["tables.emit"] + total["cli._write"], "s")
    m["tables.bytes"] = (summed("tables.emit", "bytes") + summed("cli._write", "bytes"), "bytes")
    m["trace.unattributed_s"] = (wall_s - top_level, "s")
    return m
