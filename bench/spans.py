"""Trace spans recorded from the benchmark's side of each layer boundary.

A :class:`Tracer` replaces the public functions of parklab's modules (and the
entries of ``validation.CRITERIA``) with timing wrappers for the duration of a
``with tracer.instrument(pkg):`` block, so nothing under ``src/`` is edited.
Spans are kept in memory; :func:`layer_metrics` turns one traced run into the
per-layer metrics listed in ``PER_LAYER``.

Spans opened inside ``multiprocessing`` workers are not collected: the
simulator's unit costs come from the ``run_mc`` span and the histogram it
returns.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

# (module, public function) pairs wrapped in a traced run.  cli.main is the
# root span of every command.
TRACED = (
    ("cli", "main"),
    ("solver", "solve_mean"),
    ("solver", "solve_mean_derivative"),
    ("solver", "solve_uniform_mean_derivative"),
    ("solver", "solve_second_moment"),
    ("solver", "integrate_weighted"),
    ("constants", "constants_report"),
    ("constants", "truncated_laplace"),
    ("envelope", "window_extrema"),
    ("envelope", "check_nesting"),
    ("montecarlo", "run_mc"),
    ("montecarlo", "z_diagnostics"),
    ("validation", "run_checks"),
)
FIRST_ORDER_SOLVERS = ("solve_mean", "solve_mean_derivative", "solve_uniform_mean_derivative")
CRITERIA_COUNT = 11


def _calls_and_self(layer: str, fn: str) -> list[tuple[str, str]]:
    return [(f"{layer}.{fn}.calls", "count"), (f"{layer}.{fn}.self_s", "s")]


# Every per-layer metric a traced run reports, with its unit.  A layer that
# does not run on a workload reports 0 for its counts and times.
PER_LAYER: list[tuple[str, str]] = [
    *_calls_and_self("solver", "solve_second_moment"),
    ("solver.product_panels", "count"),
    ("solver.ns_per_panel", "ns"),
    *_calls_and_self("solver", "solve_mean"),
    *_calls_and_self("solver", "solve_mean_derivative"),
    *_calls_and_self("solver", "solve_uniform_mean_derivative"),
    *_calls_and_self("solver", "integrate_weighted"),
    ("solver.stepper_nodes", "count"),
    ("solver.ns_per_node", "ns"),
    ("core.grid_bytes", "B"),
    *_calls_and_self("constants", "constants_report"),
    ("constants.halving_s", "s"),
    *_calls_and_self("constants", "truncated_laplace"),
    ("constants.c_width", "1"),
    ("constants.b_width", "1"),
    ("constants.d_width", "1"),
    ("constants.quad_delta", "1"),
    *_calls_and_self("envelope", "window_extrema"),
    *_calls_and_self("envelope", "check_nesting"),
    *_calls_and_self("montecarlo", "run_mc"),
    ("montecarlo.trials", "count"),
    ("montecarlo.cars", "count"),
    ("montecarlo.workers", "count"),
    ("montecarlo.us_per_trial", "us"),
    ("montecarlo.ns_per_car", "ns"),
    ("montecarlo.z_diagnostics.self_s", "s"),
    ("montecarlo.z_rerun_s", "s"),
    ("cli.self_s", "s"),
    ("cli.out_bytes", "B"),
    ("validation.run_checks.self_s", "s"),
    *[(f"validation.criterion_{k}_s", "s") for k in range(1, CRITERIA_COUNT + 1)],
    ("trace.overhead_s", "s"),
    ("trace.wall_s", "s"),
]


def product_panels(n: int, m: int) -> int:
    """Quadrature panels one M2 solve integrates, computed as m*((n-1)^2-1).

    Segment s = 1..n-2 is stepped at m+1 nodes; node j of it splits the
    product convolution into s+1 panels when j > 0 and s more when j < m,
    which sums to (2s+1)*m per segment.
    """
    return m * ((n - 1) ** 2 - 1)


def stepper_nodes(n: int, m: int) -> int:
    """Grid nodes one first-order solve fills, computed as n*(m+1)."""
    return n * (m + 1)


def histogram_cars(histogram: dict) -> int:
    """Cars parked over all trials, the exact sum of count*frequency."""
    return sum(int(k) * int(v) for k, v in histogram.items())


@dataclass
class Span:
    id: int
    parent: Optional[int]
    run: int
    name: str
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "run": self.run, "name": self.name,
                "start": self.start, "end": self.end, **self.info}


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    spans = list(spans)
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out


def _grid_bytes(result: Any) -> int:
    values = getattr(result, "values", None)
    return int(values.nbytes) if values is not None and hasattr(values, "nbytes") else 0


def _info_for(name: str, pkg) -> Optional[Callable[[inspect.BoundArguments, Any], dict]]:
    """Work counts a span records from its call's arguments and result."""
    if name == "solver.solve_second_moment":
        def info(bound, result):
            p = bound.arguments["params"]
            return {"panels": product_panels(p.horizon_n, p.resolution_m),
                    "grid_bytes": _grid_bytes(result)}
        return info
    if name in ("solver.solve_mean", "solver.solve_mean_derivative"):
        def info(bound, result):
            p = bound.arguments["params"]
            return {"nodes": stepper_nodes(p.horizon_n, p.resolution_m),
                    "grid_bytes": _grid_bytes(result)}
        return info
    if name == "solver.solve_uniform_mean_derivative":
        def info(bound, result):
            a = bound.arguments
            return {"nodes": stepper_nodes(a["horizon_n"], a["resolution_m"]),
                    "grid_bytes": _grid_bytes(result)}
        return info
    if name == "constants.constants_report":
        def info(bound, result):
            return {"halving": bool(bound.arguments.get("with_halving_delta"))}
        return info
    if name == "montecarlo.run_mc":
        resolve = getattr(pkg.montecarlo, "_resolve_workers", None)

        def info(bound, result):
            cfg = bound.arguments["config"]
            workers = resolve(bound.arguments.get("threads"), cfg.trials) if resolve else 0
            return {"trials": int(cfg.trials), "cars": histogram_cars(result.histogram),
                    "workers": int(workers)}
        return info
    return None


class Tracer:
    """Collects spans from timing wrappers set on parklab's module attributes."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run_id = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, info=None) -> Callable:
        sig = inspect.signature(fn) if info is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(len(self.spans), self._stack[-1] if self._stack else None,
                        self.run_id, name, 0.0)
            self.spans.append(span)
            self._stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if info is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.info = info(bound, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def instrument(self, pkg):
        """Wrap every TRACED function and CRITERIA entry; restore them on exit."""
        saved: list[tuple[Any, str, Any]] = []
        try:
            for layer, fn_name in TRACED:
                module = getattr(pkg, layer)
                original = getattr(module, fn_name)
                name = f"{layer}.{fn_name}"
                saved.append((module, fn_name, original))
                setattr(module, fn_name, self.wrap(name, original, _info_for(name, pkg)))
            criteria = pkg.validation.CRITERIA
            for k, original in list(criteria.items()):
                saved.append((criteria, k, original))
                criteria[k] = self.wrap(f"validation.criterion_{k}", original)
            yield self
        finally:
            for target, key, original in reversed(saved):
                if isinstance(target, dict):
                    target[key] = original
                else:
                    setattr(target, key, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.to_dict()) + "\n")


def layer_metrics(spans: list[Span], out_bytes: int, quality: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run (every PER_LAYER name but trace.*)."""
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    metrics: dict[str, float] = {name: 0 for name, _ in PER_LAYER if not name.startswith("trace.")}
    for s in spans:
        calls_key = f"{s.name}.calls"
        if calls_key in metrics:
            metrics[calls_key] += 1
        self_key = "cli.self_s" if s.name == "cli.main" else f"{s.name}.self_s"
        if self_key in metrics:
            metrics[self_key] += selfs[s.id]
        if s.name.startswith("validation.criterion_"):
            metrics[f"{s.name}_s"] += s.duration
        info = s.info
        metrics["solver.product_panels"] += info.get("panels", 0)
        metrics["solver.stepper_nodes"] += info.get("nodes", 0)
        metrics["core.grid_bytes"] += info.get("grid_bytes", 0)
        if s.name == "montecarlo.run_mc":
            metrics["montecarlo.trials"] += info["trials"]
            metrics["montecarlo.cars"] += info["cars"]
            metrics["montecarlo.workers"] = max(metrics["montecarlo.workers"], info["workers"])
        parent = by_id.get(s.parent)
        if s.name == "montecarlo.run_mc" and parent and parent.name == "montecarlo.z_diagnostics":
            metrics["montecarlo.z_rerun_s"] += s.duration
        if info.get("halving"):
            # the first report nested in a halving report is the coarse-m one
            nested = [c for c in spans if c.parent == s.id and c.name == s.name]
            if nested:
                metrics["constants.halving_s"] += min(nested, key=lambda c: c.start).duration
    first_order_s = sum(metrics[f"solver.{fn}.self_s"] for fn in FIRST_ORDER_SOLVERS)
    if metrics["solver.product_panels"]:
        metrics["solver.ns_per_panel"] = \
            1e9 * metrics["solver.solve_second_moment.self_s"] / metrics["solver.product_panels"]
    if metrics["solver.stepper_nodes"]:
        metrics["solver.ns_per_node"] = 1e9 * first_order_s / metrics["solver.stepper_nodes"]
    if metrics["montecarlo.trials"]:
        metrics["montecarlo.us_per_trial"] = \
            1e6 * metrics["montecarlo.run_mc.self_s"] / metrics["montecarlo.trials"]
    if metrics["montecarlo.cars"]:
        metrics["montecarlo.ns_per_car"] = \
            1e9 * metrics["montecarlo.run_mc.self_s"] / metrics["montecarlo.cars"]
    metrics["cli.out_bytes"] = out_bytes
    for key in ("c_width", "b_width", "d_width", "quad_delta"):
        metrics[f"constants.{key}"] = quality.get(key, 0.0)
    return metrics
