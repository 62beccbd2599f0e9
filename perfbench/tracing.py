"""Per-layer spans for the traced benchmark run, recorded from outside the program.

:class:`SpanRecorder` wraps the public entry points of each ``repro`` layer
(class methods patched on their class, module functions patched where the
caller looks them up) and records one span per outermost call: name, parent
span, episode id, start and end.  Spans stay in memory until the run ends.
A span's *self time* is its duration minus the time its child spans cover;
since the benchmark is single-threaded, children nest strictly inside their
parent, so that is the duration minus the sum of the direct children's.

A call into a layer that is already the innermost open span (for example
``ScopedBus.publish`` forwarding to ``MessageBus.publish``) is folded into
the open span, so ``calls`` counts layer entries, not internal hops.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

# Span name -> list of (module, attribute path) entry points it wraps.
# Kept in layer order; the README's layer map follows the same order.
SPAN_TARGETS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "api.session": (
        ("repro.api.session", "ParkingSession.start"),
        ("repro.api.session", "ParkingSession.begin_step"),
        ("repro.api.session", "ParkingSession.finish_step"),
        ("repro.api.session", "ParkingSession.complete_step"),
    ),
    "middleware.publish": (
        ("repro.middleware.bus", "MessageBus.publish"),
        ("repro.middleware.bus", "ScopedBus.publish"),
    ),
    "world.build": (("repro.api.session", "build_scenario"),),
    "world.step": (("repro.world.world", "ParkingWorld.step"),),
    "vehicle.rollout": (
        ("repro.vehicle.kinematics", "AckermannModel.rollout_with_sensitivities"),
        ("repro.vehicle.kinematics", "AckermannModel.rollout_batch_with_sensitivities"),
        ("repro.vehicle.kinematics", "AckermannModel.rollout_controls_array"),
    ),
    "spatial.index_build": (("repro.spatial.index", "SpatialIndex.from_scenario"),),
    "spatial.timegrid_build": (("repro.spatial.timegrid", "TimeGrid.from_scenario"),),
    "spatial.slice_field": (("repro.spatial.timegrid", "TimeGrid.field_for_slice"),),
    # planning.astar_static / planning.astar_timed share one entry point;
    # the wrapper names each call by its time layer (see _astar_span).
    "planning.astar": (("repro.planning.hybrid_astar", "HybridAStarPlanner.plan"),),
    "planning.reservation_broad": (
        ("repro.planning.reservation", "ReservationTable.clearance_at"),
        ("repro.planning.reservation", "ReservationTable.pose_clearance_at"),
        ("repro.planning.reservation", "ReservationTable.time_to_conflict"),
    ),
    "planning.reservation_narrow": (
        ("repro.planning.reservation", "ReservationTable.pose_conflicts"),
        ("repro.planning.reservation", "ReservationTable.footprint_hits_at"),
        ("repro.planning.reservation", "ReservationTable.conflicts_at"),
        ("repro.planning.reservation", "ReservationTable.conflicts_in_window"),
        ("repro.planning.reservation", "ReservationTable.first_safe_stop"),
        ("repro.planning.hybrid_astar", "HybridAStarPlanner.dynamic_pose_in_collision"),
    ),
    "il.expert": (("repro.il.expert", "ExpertDriver.act"),),
    "il.policy": (("repro.il.policy", "ILPolicy.predict_action"),),
    "nn.predict": (("repro.nn.network", "Sequential.predict"),),
    "perception.bev": (("repro.perception.bev", "BEVRenderer.render"),),
    "perception.detect": (("repro.perception.detector", "ObjectDetector.detect"),),
    "core.hsa": (("repro.core.hsa", "HSAModel.update"),),
    "co.build": (("repro.co.controller", "COController.act_split"),),
    "co.solve": (("repro.co.solver", "GaussNewtonSolver.solve"),),
    "co.solve_many": (("repro.co.solver", "BatchedGaussNewtonSolver.solve_many"),),
    "serve.tick": (("repro.serve.fleet", "FleetStepper.tick"),),
}

SPAN_NAMES: Tuple[str, ...] = tuple(
    name
    for target in SPAN_TARGETS
    for name in (
        ("planning.astar_static", "planning.astar_timed")
        if target == "planning.astar"
        else (target,)
    )
)

# Exact counters of the traced run (name -> unit); run.per_layer_metrics
# fills them in.
COUNTER_UNITS: Dict[str, str] = {
    "geometry.convex_polygons": "count",
    "planning.astar_expanded": "count",
    "planning.astar_failed": "count",
    "planning.reservation_narrow.conflict_frac": "fraction",
    "co.iterations_per_solve": "iterations",
    "co.unconverged": "count",
    "serve.solves_per_tick": "problems/tick",
    "serve.problems_per_solve": "problems",
    "serve.ragged_ticks": "count",
    "core.co_frame_frac": "fraction",
    "core.mode_switches": "count",
    "outcome.parked_frac": "fraction",
    "trace.overhead_frac": "fraction",
}


def per_layer_metric_units() -> Dict[str, str]:
    """Every per-layer metric name of the traced run, with its unit."""
    units: Dict[str, str] = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
    units.update(COUNTER_UNITS)
    return units


class SpanRecorder:
    """In-memory span store for one single-threaded process.

    ``episode`` is the id stamped on every span opened from now on.  Spans
    of the session layer set it, for their duration, to
    ``episode_ids[id(session.spec)]`` (the spec's index in the run), so
    every span under one session call carries that episode's id; work a
    fleet tick does for many sessions at once (``solve_many``) keeps ``-1``.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.episode = -1
        self.episode_ids: Dict[int, int] = {}
        self.names: List[str] = []
        self.parents: List[int] = []
        self.episodes: List[int] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.counters: Counter = Counter()
        self._stack: List[int] = []

    def wrap(
        self,
        name,
        fn: Callable,
        on_result: Optional[Callable[[Counter, object], None]] = None,
        session_scoped: bool = False,
    ) -> Callable:
        """``fn`` recording a span per call.

        ``name`` is a span name, or a callable ``(args, kwargs) -> name``
        for entry points whose span depends on the arguments.
        ``on_result(counters, result)`` reads counters off the return value.
        ``session_scoped`` marks session methods, whose first argument's
        spec names the episode (see the class docstring).
        """
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            stack = recorder._stack
            if stack and recorder.names[stack[-1]] == span_name:
                return fn(*args, **kwargs)
            outer_episode = recorder.episode
            if session_scoped:
                recorder.episode = recorder.episode_ids.get(id(args[0].spec), -1)
            span = len(recorder.names)
            recorder.names.append(span_name)
            recorder.parents.append(stack[-1] if stack else -1)
            recorder.episodes.append(recorder.episode)
            recorder.starts.append(0.0)
            recorder.ends.append(0.0)
            stack.append(span)
            recorder.starts[span] = recorder.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.ends[span] = recorder.clock()
                stack.pop()
                recorder.episode = outer_episode
            if on_result is not None:
                on_result(recorder.counters, result)
            return result

        return traced

    def self_times(self) -> Dict[str, Tuple[int, float]]:
        """``{span name: (calls, self seconds)}`` over every recorded span."""
        starts = np.asarray(self.starts)
        durations = np.asarray(self.ends) - starts
        parents = np.asarray(self.parents, dtype=np.int64)
        covered = np.zeros(len(durations))
        has_parent = parents >= 0
        np.add.at(covered, parents[has_parent], durations[has_parent])
        totals: Dict[str, Tuple[int, float]] = {}
        for span_name, own in zip(self.names, durations - covered):
            calls, seconds = totals.get(span_name, (0, 0.0))
            totals[span_name] = (calls + 1, seconds + float(own))
        return totals

    def write(self, path: Path) -> None:
        """Dump every span (names interned) to a compressed ``.npz``."""
        vocabulary = sorted(set(self.names))
        index = {span_name: code for code, span_name in enumerate(vocabulary)}
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            vocabulary=np.asarray(vocabulary),
            name=np.asarray([index[n] for n in self.names], dtype=np.int16),
            parent=np.asarray(self.parents, dtype=np.int64),
            episode=np.asarray(self.episodes, dtype=np.int64),
            start=np.asarray(self.starts),
            end=np.asarray(self.ends),
        )


def _resolve(module_name: str, path: str):
    """``(owner, attribute name, raw attribute)`` for a dotted entry point."""
    module = __import__(module_name, fromlist=["_"])
    owner_path, _, attribute = path.rpartition(".")
    owner = functools.reduce(getattr, owner_path.split("."), module) if owner_path else module
    raw = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
    return owner, attribute, raw


def _astar_span(args, kwargs) -> str:
    """``planning.astar_timed`` when the plan call carries a non-empty time layer.

    ``PlannerResult.arrival_times`` is set by both kinds of search, so the
    split reads the arguments: an explicit ``timegrid`` or the spatial
    index's attached ``time_layer``.
    """
    from repro.planning.hybrid_astar import HybridAStarPlanner

    bound = inspect.signature(HybridAStarPlanner.plan).bind(*args, **kwargs)
    layer = bound.arguments.get("timegrid")
    if layer is None:
        layer = getattr(bound.arguments.get("spatial_index"), "time_layer", None)
    timed = layer is not None and not layer.empty
    return "planning.astar_timed" if timed else "planning.astar_static"


def _count_plan(counters: Counter, result) -> None:
    counters["planning.astar_expanded"] += result.expanded_nodes
    counters["planning.astar_failed"] += not result.success


def _count_narrow(counters: Counter, result) -> None:
    # first_safe_stop returns a prefix length, not a verdict: only the
    # boolean queries enter the conflict ratio.
    if isinstance(result, (bool, np.bool_)):
        counters["narrow.verdicts"] += 1
        counters["narrow.conflicts"] += bool(result)


def _count_solve(counters: Counter, result) -> None:
    results = result if isinstance(result, list) else [result]
    for item in results:
        counters["co.solves"] += 1
        counters["co.iterations"] += item.iterations
        counters["co.unconverged"] += not item.converged


_ON_RESULT = {
    "planning.astar": _count_plan,
    "planning.reservation_narrow": _count_narrow,
    "co.solve": _count_solve,
    "co.solve_many": _count_solve,
}


class Tracing:
    """Installs a recorder's wrappers on every entry point; undone by :meth:`close`."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._restore: List[Tuple[object, str, object]] = []
        for span_name, targets in SPAN_TARGETS.items():
            name = _astar_span if span_name == "planning.astar" else span_name
            for module_name, path in targets:
                owner, attribute, raw = _resolve(module_name, path)
                self._patch(
                    owner, attribute, raw, name, _ON_RESULT.get(span_name),
                    session_scoped=span_name == "api.session",
                )
        self._count_polygons()

    def _patch(self, owner, attribute, raw, name, on_result, session_scoped) -> None:
        def wrap(fn):
            return self.recorder.wrap(name, fn, on_result, session_scoped)

        patched = classmethod(wrap(raw.__func__)) if isinstance(raw, classmethod) else wrap(raw)
        setattr(owner, attribute, patched)
        self._restore.append((owner, attribute, raw))

    def _count_polygons(self) -> None:
        from repro.geometry.shapes import ConvexPolygon

        counters = self.recorder.counters
        original = ConvexPolygon.__dict__["__post_init__"]

        @functools.wraps(original)
        def counted(polygon) -> None:
            counters["geometry.convex_polygons"] += 1
            original(polygon)

        ConvexPolygon.__post_init__ = counted
        self._restore.append((ConvexPolygon, "__post_init__", original))

    def close(self) -> None:
        for owner, attribute, raw in reversed(self._restore):
            setattr(owner, attribute, raw)
        self._restore.clear()

    def __enter__(self) -> "Tracing":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
