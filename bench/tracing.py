"""Spans around the calls into each pkmforge layer, and the per-layer
metrics derived from them.

Wrappers are installed only for a traced run: each one replaces the name a
caller module resolves at call time (``pkmforge.cli.evaluate_mask``,
``pkmforge.stiffness.batch_inverse_kinematics``, ...) or the method a
caller looks up on a class, so the package source is never edited and an
untraced run executes the package exactly as shipped.  Spans are kept in
memory and reduced to metrics when the run ends.

A span records its name, start, end, the span that was open when it
started (its parent), the operation it belongs to and optional counters.
A span's self time is its duration minus the durations of its children;
the benchmark drives the package from one thread, so children never
overlap.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    parent: Optional[int]
    op: int
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one thread.

    Recording is on only inside ``operation``; wrapped functions called
    outside an operation (for example by a correctness check) run untraced.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.op_walls: list[float] = []
        self.op_cpus: list[float] = []
        self._stack: list[int] = []
        self._op: Optional[int] = None

    @contextmanager
    def operation(self):
        """Record one benchmark operation as span ``op`` with its children."""
        self._op = len(self.op_walls)
        cpu0 = time.process_time()
        index = self._open("op")
        try:
            yield
        finally:
            self._close(index)
            self.op_cpus.append(time.process_time() - cpu0)
            self.op_walls.append(self.spans[index].duration)
            self._op = None

    @contextmanager
    def span(self, name: str):
        if self._op is None:
            yield None
            return
        index = self._open(name)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        """``fn`` inside a span; ``count(args, result)`` adds span counters."""

        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    self.spans[index].counts.update(count(args, result))
                return result
            finally:
                self._close(index)

        traced.__wrapped__ = fn
        return traced

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, self._op))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError("spans must close in the order they opened")

    def self_times(self) -> list[float]:
        """Self time of every span, indexed like ``spans``."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        return [span.duration - child for span, child in zip(self.spans, child_time)]


# ---------------------------------------------------------------------------
# call-site wrappers
# ---------------------------------------------------------------------------

# field sweep spans are named after the function that built the field
_FIELD_KINDS = {
    "condition_field": "field.condition",
    "deflection_field": "field.deflection",
    "inertia_norm_field": "field.gie",
    "acceleration_field": "field.accel",
}


def _rows(args, result) -> dict:
    return {"nodes": len(args[0])}


def _ik_counts(args, result) -> dict:
    reachable, _ = result
    return {"nodes": int(reachable.size), "reachable": int(reachable.sum())}


def _method_rows(args, result) -> dict:
    return {"nodes": len(args[1])}


def _matrices(args, result) -> dict:
    return {"matrices": int(result.size // 3)}


def _mask_nodes(args, result) -> dict:
    return {"nodes": int(result.data.size)}


def _cuboid_nodes(args, result) -> dict:
    return {"nodes": int(args[0].data.size)}


class CallSites:
    """Installs span wrappers at every call site the workloads reach."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def _replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap_function(self, name, owners, attr, count=None) -> None:
        original = getattr(owners[0], attr)
        traced = self.tracer.wrap(name, original, count)
        for owner in owners:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"{owner.__name__}.{attr} is not the shared {name}")
            self._replace(owner, attr, traced)

    def install(self) -> None:
        from pkmforge import _spectral, cli, dynamics, grid, kinematics, optimize, stiffness

        tracer = self.tracer
        wrap = self._wrap_function
        wrap("kinematics.batch_inverse_kinematics", [kinematics, stiffness], "batch_inverse_kinematics", _ik_counts)
        wrap("kinematics.batch_rate_matrices", [kinematics, dynamics], "batch_rate_matrices", _rows)
        wrap("kinematics.batch_transmission", [kinematics], "batch_transmission", _rows)
        wrap("spectral.sym_eigvals_3x3", [_spectral, kinematics, dynamics], "sym_eigvals_3x3", _matrices)
        wrap("grid.evaluate_mask", [grid, cli, optimize], "evaluate_mask", _mask_nodes)
        wrap("grid.largest_cuboid", [grid, cli, optimize], "largest_cuboid", _cuboid_nodes)
        wrap("optimize.design_eval", [optimize], "workspace_constraint")

        model = stiffness.OrthoglideStiffnessModel
        for attr, name in (
            ("batch_cartesian_stiffness", "stiffness.batch_cartesian_stiffness"),
            ("batch_deflection", "stiffness.batch_deflection"),
        ):
            self._replace(model, attr, tracer.wrap(name, model.__dict__[attr], _method_rows))

        pattern_search = optimize.pattern_search

        def traced_pattern_search(func, *args, **kwargs):
            return pattern_search(tracer.wrap("optimize.poll", func), *args, **kwargs)

        self._replace(optimize, "pattern_search", traced_pattern_search)

        base = grid.ScalarField

        class TracedField(base):
            """A field whose sweeps and batch requests are spans."""

            def __init__(self, scalar, batch=None):
                if batch is not None:
                    kind = batch.__qualname__.split(".")[0]
                    batch = tracer.wrap(_FIELD_KINDS.get(kind, "field.other"), batch)
                super().__init__(scalar, batch)

            def batch(self, positions):
                with tracer.span("grid.field_request"):
                    return super().batch(positions)

        for owner in (grid, stiffness, dynamics):
            if owner.__dict__["ScalarField"] is not base:
                raise RuntimeError(f"{owner.__name__}.ScalarField is not grid.ScalarField")
            self._replace(owner, "ScalarField", TracedField)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


UNITS = {
    "trace.op_s": "s",
    "trace.overhead_ratio": "ratio",
    "proc.cpu_s": "s",
    "proc.cpu_util": "ratio",
    "kinematics.ik_s": "s",
    "kinematics.rate_s": "s",
    "kinematics.transmission_s": "s",
    "kinematics.nodes": "count",
    "kinematics.reachable_ratio": "ratio",
    "spectral.eig3_s": "s",
    "spectral.matrices": "count",
    "grid.mask_s": "s",
    "grid.mask_nodes_per_s": "1/s",
    "grid.cuboid_s": "s",
    "grid.cuboid_calls": "count",
    "grid.cuboid_nodes_per_s": "1/s",
    "grid.criterion_ms.p50": "ms",
    "grid.criterion_ms.p90": "ms",
    "grid.field_sweeps": "count",
    "grid.field_cache_hit_ratio": "ratio",
    "stiffness.assembly_inverse_share": "ratio",
    "stiffness.solve_share": "ratio",
    "stiffness.nodes": "count",
    "dynamics.gie_share": "ratio",
    "dynamics.accel_share": "ratio",
    "optimize.design_evals": "count",
    "optimize.cache_hit_ratio": "ratio",
    "optimize.search_share": "ratio",
    "optimize.verify_share": "ratio",
    "optimize.eval_share": "ratio",
    "optimize.self_share": "ratio",
    "cli.overhead_share": "ratio",
}


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics: per-operation values, median over traced operations.

    Times of layers that every workload enters are seconds; layers that
    some workload never enters are reported as a share of the traced
    operation's wall time (``trace.op_s``), so that no time reads as a
    constant zero.  ``grid.criterion_ms`` pools one sample per mask and the
    cuboid search that follows it, over all traced operations.
    """
    self_time = tracer.self_times()
    spans = tracer.spans
    per_op: list[dict[str, float]] = []
    criterion_ms: list[float] = []
    for op, wall in enumerate(tracer.op_walls):
        total = {}
        selft = {}
        counts: dict[str, dict[str, float]] = {}
        calls: dict[str, int] = {}
        last_mask = None
        search_evals = poll_evals = 0
        search_eval_s = 0.0
        for index, span in enumerate(spans):
            if span.op != op:
                continue
            name = span.name
            total[name] = total.get(name, 0.0) + span.duration
            selft[name] = selft.get(name, 0.0) + self_time[index]
            calls[name] = calls.get(name, 0) + 1
            bucket = counts.setdefault(name, {})
            for key, value in span.counts.items():
                bucket[key] = bucket.get(key, 0) + value
            if name == "grid.evaluate_mask":
                last_mask = span.duration
            elif name == "grid.largest_cuboid" and last_mask is not None:
                criterion_ms.append(1e3 * (last_mask + span.duration))
                last_mask = None
            elif name == "optimize.design_eval":
                ancestors = _ancestors(spans, index)
                if "optimize.search" in ancestors:
                    search_evals += 1
                    search_eval_s += span.duration
                if "optimize.poll" in ancestors:
                    poll_evals += 1

        def count(name, key):
            return counts.get(name, {}).get(key, 0)

        mask_nodes = count("grid.evaluate_mask", "nodes")
        cuboid_nodes = count("grid.largest_cuboid", "nodes")
        requests = calls.get("grid.field_request", 0)
        sweeps = sum(calls.get(kind, 0) for kind in (*_FIELD_KINDS.values(), "field.other"))
        polls = calls.get("optimize.poll", 0)
        search = total.get("optimize.search", 0.0)
        cpu = tracer.op_cpus[op]
        per_op.append(
            {
                "trace.op_s": wall,
                "proc.cpu_s": cpu,
                "proc.cpu_util": _ratio(cpu, wall),
                "kinematics.ik_s": selft.get("kinematics.batch_inverse_kinematics", 0.0),
                "kinematics.rate_s": selft.get("kinematics.batch_rate_matrices", 0.0),
                "kinematics.transmission_s": selft.get("kinematics.batch_transmission", 0.0),
                "kinematics.nodes": count("kinematics.batch_inverse_kinematics", "nodes"),
                "kinematics.reachable_ratio": _ratio(
                    count("kinematics.batch_inverse_kinematics", "reachable"),
                    count("kinematics.batch_inverse_kinematics", "nodes"),
                ),
                "spectral.eig3_s": selft.get("spectral.sym_eigvals_3x3", 0.0),
                "spectral.matrices": count("spectral.sym_eigvals_3x3", "matrices"),
                "grid.mask_s": selft.get("grid.evaluate_mask", 0.0),
                "grid.mask_nodes_per_s": _ratio(mask_nodes, total.get("grid.evaluate_mask", 0.0)),
                "grid.cuboid_s": total.get("grid.largest_cuboid", 0.0),
                "grid.cuboid_calls": calls.get("grid.largest_cuboid", 0),
                "grid.cuboid_nodes_per_s": _ratio(cuboid_nodes, total.get("grid.largest_cuboid", 0.0)),
                "grid.field_sweeps": sweeps,
                "grid.field_cache_hit_ratio": _ratio(requests - sweeps, requests),
                "stiffness.assembly_inverse_share": _ratio(
                    total.get("stiffness.batch_cartesian_stiffness", 0.0), wall
                ),
                "stiffness.solve_share": _ratio(selft.get("stiffness.batch_deflection", 0.0), wall),
                "stiffness.nodes": count("stiffness.batch_cartesian_stiffness", "nodes"),
                "dynamics.gie_share": _ratio(total.get("field.gie", 0.0), wall),
                "dynamics.accel_share": _ratio(total.get("field.accel", 0.0), wall),
                "optimize.design_evals": search_evals,
                "optimize.cache_hit_ratio": _ratio(polls - poll_evals, polls),
                "optimize.search_share": _ratio(search, wall),
                "optimize.verify_share": _ratio(total.get("optimize.verify", 0.0), wall),
                "optimize.eval_share": _ratio(search_eval_s, wall),
                "optimize.self_share": _ratio(search - search_eval_s, wall),
                "cli.overhead_share": _ratio(selft.get("cli.main", 0.0), wall),
            }
        )
    metrics = {name: statistics.median(op[name] for op in per_op) for name in per_op[0]}
    metrics["grid.criterion_ms.p50"] = _percentile(criterion_ms, 0.5)
    metrics["grid.criterion_ms.p90"] = _percentile(criterion_ms, 0.9)
    return metrics


def _ancestors(spans: list[Span], index: int) -> set[str]:
    names = set()
    parent = spans[index].parent
    while parent is not None:
        names.add(spans[parent].name)
        parent = spans[parent].parent
    return names
