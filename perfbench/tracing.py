"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public entry points of each ``repro`` layer from the
outside (the program itself is not modified) and records one span per
call: name, layer, thread, start, end, parent span and trace id (the
spec hash of the job the span ran under).  Spans are kept in columnar
arrays and written out once, at the end of the run.

Each thread keeps its own stack of open spans, so the per-rank carrier
threads of the ``threads`` backend nest independently of the scheduler
thread.  Busy time comes from ``time.thread_time()``: a rank thread
parked on its resume lock is not busy, so a span's wait time is its wall
time minus its busy time.  Self time subtracts the time of the span's
children *on the same thread*; a carrier thread's first span names the
``Simulator.spawn`` span that created the process as its parent (the
span that caused it) but is never subtracted from it, because the two
run on different threads.

Importing this module does not import ``repro`` (the benchmark pins its
CPU before ``repro`` is imported); :func:`instrument` does.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import sys
import threading
import time
from array import array
from typing import Any, Callable

#: Every per-layer metric the traced run reports, in output order.
PER_LAYER_METRICS: dict[str, str] = {
    "harness.jobs_executed": "count",
    "harness.jobs_deduped": "count",
    "harness.job_s.p50": "s",
    "harness.job_s.p90": "s",
    "harness.self_s": "s",
    "harness.cache_put_s": "s",
    "harness.cache_bytes": "bytes",
    "harness.fold_s": "s",
    "des.sim_events": "count",
    "des.suspends": "count",
    "des.spawns": "count",
    "des.loop_self_s": "s",
    "des.suspend_cpu_s": "s",
    "des.setup_close_s": "s",
    "des.host_sys_s": "s",
    "des.self_s": "s",
    "core.hooks": "count",
    "core.self_s": "s",
    "core.barriers": "count",
    "core.poll_sleeps": "count",
    "core.polls_per_barrier": "ratio",
    "core.na_rejections": "count",
    "mana.ckpt_requested": "count",
    "mana.ckpt_committed": "count",
    "mana.commit_ratio": "ratio",
    "mana.drained_msgs": "count",
    "mana.image_build_s": "s",
    "mana.restore_s": "s",
    "mana.self_s": "s",
    "simmpi.coll_calls": "count",
    "simmpi.p2p_calls": "count",
    "simmpi.calls": "count",
    "simmpi.self_s": "s",
    "netmodel.calls": "count",
    "netmodel.self_s": "s",
    "apps.steps": "count",
    "apps.compute_s": "s",
    "apps.self_s": "s",
    "trace.spans": "count",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
}

LAYERS = ("harness", "des", "core", "mana", "simmpi", "netmodel", "apps")

_TWO_PC_HOOKS = (
    "TwoPhaseCommitProtocol.on_blocking_collective",
    "TwoPhaseCommitProtocol.on_nonblocking_collective",
)
_PROTOCOLS = ("TwoPhaseCommitProtocol.", "CollectiveClockProtocol.")
_P2P = {"send", "isend", "recv", "recv_status", "irecv", "sendrecv",
        "probe", "iprobe"}
_COMM_ADMIN = {"rank", "compare", "dup", "split", "create_group", "free"}


class _Frame:
    """One open span on a thread's stack."""

    __slots__ = ("id", "name", "parent", "trace", "start", "cpu",
                 "child_wall", "child_busy")

    def __init__(self, id, name, parent, trace, start, cpu):
        self.id = id
        self.name = name
        self.parent = parent
        self.trace = trace
        self.start = start
        self.cpu = cpu
        self.child_wall = 0.0
        self.child_busy = 0.0


class Tracer:
    """Span recorder; ``clock``/``cpu_clock`` are injectable for tests.

    ``cpu_clock`` must be a per-thread CPU clock (the default is
    ``time.thread_time``).
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        cpu_clock: Callable[[], float] = time.thread_time,
    ):
        self._clock = clock
        self._cpu = cpu_clock
        self._local = threading.local()
        self._ids = itertools.count()
        self._threads = itertools.count()
        self._lock = threading.Lock()
        #: ``(layer, name)`` per name index.
        self.names: list[tuple[str, str]] = []
        self._name_index: dict[tuple[str, str], int] = {}
        #: Trace ids (spec hashes) per trace index; 0 is batch level.
        self.traces: list[str] = [""]
        self._trace_index: dict[str, int] = {"": 0}
        self.current_trace = 0
        #: Exception class name per span id, for spans that raised.
        self.errors: dict[int, str] = {}
        # Closed spans, one column per field (row order = close order).
        self.span_id = array("q")
        self.parent = array("q")
        self.name = array("i")
        self.trace = array("i")
        self.thread = array("i")
        self.start = array("d")
        self.end = array("d")
        self.busy = array("d")
        self.self_wall = array("d")
        self.self_busy = array("d")

    # -- recording ----------------------------------------------------- #

    def name_id(self, layer: str, name: str) -> int:
        key = (layer, name)
        with self._lock:
            index = self._name_index.get(key)
            if index is None:
                index = self._name_index[key] = len(self.names)
                self.names.append(key)
        return index

    def set_trace(self, trace_id: str) -> None:
        with self._lock:
            index = self._trace_index.get(trace_id)
            if index is None:
                index = self._trace_index[trace_id] = len(self.traces)
                self.traces.append(trace_id)
        self.current_trace = index

    def _stack(self) -> list:
        local = self._local
        try:
            return local.stack
        except AttributeError:
            local.stack = []
            local.index = next(self._threads)
            local.cause = -1
            return local.stack

    def open(self, name: int) -> _Frame:
        stack = self._stack()
        parent = stack[-1].id if stack else self._local.cause
        frame = _Frame(next(self._ids), name, parent, self.current_trace,
                       self._clock(), self._cpu())
        stack.append(frame)
        return frame

    def close(self, frame: _Frame, error: str | None = None) -> None:
        end = self._clock()
        busy = self._cpu() - frame.cpu
        stack = self._local.stack
        # Pop through any frame left open by a non-local exit.
        while stack and stack.pop() is not frame:
            pass
        wall = end - frame.start
        if stack:
            stack[-1].child_wall += wall
            stack[-1].child_busy += busy
        with self._lock:  # one row across all columns
            if error is not None:
                self.errors[frame.id] = error
            self.span_id.append(frame.id)
            self.parent.append(frame.parent)
            self.name.append(frame.name)
            self.trace.append(frame.trace)
            self.thread.append(self._local.index)
            self.start.append(frame.start)
            self.end.append(end)
            self.busy.append(busy)
            self.self_wall.append(wall - frame.child_wall)
            self.self_busy.append(busy - frame.child_busy)

    def set_cause(self, span_id: int) -> None:
        """Make ``span_id`` the parent of this thread's next root span."""
        self._stack()
        self._local.cause = span_id

    def wrap(self, fn: Callable, layer: str, name: str) -> Callable:
        """``fn`` recording one span per call."""
        index = self.name_id(layer, name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer.open(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(frame, type(exc).__name__)
                raise
            tracer.close(frame)
            return result

        return traced

    def __len__(self) -> int:
        return len(self.span_id)

    # -- output -------------------------------------------------------- #

    def write(self, path) -> None:
        """Write every span to ``path`` (numpy ``.npz``, one array per
        field plus the name, layer, trace-id and error tables)."""
        import numpy as np

        np.savez(
            path,
            span_id=np.frombuffer(self.span_id, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            name=np.frombuffer(self.name, dtype=np.int32),
            trace=np.frombuffer(self.trace, dtype=np.int32),
            thread=np.frombuffer(self.thread, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            busy=np.frombuffer(self.busy, dtype=np.float64),
            self_wall=np.frombuffer(self.self_wall, dtype=np.float64),
            self_busy=np.frombuffer(self.self_busy, dtype=np.float64),
            name_table=np.array([name for _, name in self.names]),
            layer_table=np.array([layer for layer, _ in self.names]),
            trace_table=np.array(self.traces),
            error_ids=np.array(sorted(self.errors), dtype=np.int64),
            error_names=np.array([self.errors[i] for i in sorted(self.errors)]),
        )


# --------------------------------------------------------------------- #
# Instrumentation of the repro layers
# --------------------------------------------------------------------- #

def _subclasses(cls: type) -> list[type]:
    found, stack = {}, [cls]
    while stack:
        klass = stack.pop()
        found[klass] = None
        stack.extend(klass.__subclasses__())
    return list(found)


class _Patcher:
    """Replaces attributes and remembers the originals for :meth:`undo`."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def method(self, cls: type, attr: str, layer: str,
               subclasses: bool = False) -> None:
        """Trace ``cls.attr`` (and every subclass override of it)."""
        for klass in _subclasses(cls) if subclasses else [cls]:
            raw = klass.__dict__.get(attr)
            if raw is None:
                continue
            name = f"{klass.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                value = type(raw)(self.tracer.wrap(raw.__func__, layer, name))
            else:
                value = self.tracer.wrap(raw, layer, name)
            self.set(klass, attr, value)

    def function(self, module: Any, attr: str, layer: str,
                 wrapper: Callable | None = None) -> None:
        """Trace a module-level function wherever ``repro`` imported it."""
        original = getattr(module, attr)
        traced = self.tracer.wrap(original, layer, attr)
        if wrapper is not None:
            traced = wrapper(traced)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if (name == "repro" or name.startswith("repro.")) and \
                    mod.__dict__.get(attr) is original:
                self.set(mod, attr, traced)

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def instrument(tracer: Tracer, on_job: Callable[[Any], None]) -> Callable[[], None]:
    """Wrap each layer's public entry points; returns an undo callable.

    ``on_job(result)`` receives every job result the engine executes.
    """
    import repro.apps  # noqa: F401 - registers every app class
    from repro.apps.base import AppContext, MpiApp
    from repro.core.cc import CollectiveClockProtocol
    from repro.core.twophase import TwoPhaseCommitProtocol
    from repro.des import Simulator
    from repro.harness import ExperimentEngine, ResultCache, spec_hash
    from repro.harness import engine as engine_mod
    from repro.mana.coordinator import CheckpointCoordinator
    from repro.mana.session import Session
    from repro.netmodel import StorageModel, Topology, collectives
    from repro.simmpi.comm import Communicator
    from repro.simmpi.request import Request

    patch = _Patcher(tracer)

    # harness
    patch.method(ExperimentEngine, "run_batch", "harness")
    patch.method(ResultCache, "put", "harness")
    patch.method(ResultCache, "put_images", "harness")

    def job_wrapper(traced):
        def execute(spec, *args, **kwargs):
            tracer.set_trace(spec_hash(spec))
            try:
                result = traced(spec, *args, **kwargs)
            finally:
                tracer.current_trace = 0
            on_job(result)
            return result
        return execute

    patch.function(engine_mod, "execute", "harness", job_wrapper)

    # des
    for attr in ("run", "close", "sleep", "block"):
        patch.method(Simulator, attr, "des")
    spawn_index = tracer.name_id("des", "Simulator.spawn")
    spawn = Simulator.__dict__["spawn"]

    def traced_spawn(self, fn, *args, **kwargs):
        frame = tracer.open(spawn_index)
        cause = frame.id

        def body(*a, **k):
            tracer.set_cause(cause)
            return fn(*a, **k)

        try:
            return spawn(self, body, *args, **kwargs)
        finally:
            tracer.close(frame)

    patch.set(Simulator, "spawn", traced_spawn)

    # core
    for cls in (TwoPhaseCommitProtocol, CollectiveClockProtocol):
        patch.method(cls, "on_blocking_collective", "core")
        patch.method(cls, "on_nonblocking_collective", "core")
    patch.method(Session, "protocol_ibarrier", "core")

    # mana
    patch.method(CheckpointCoordinator, "request_checkpoint", "mana")
    for attr in ("build_image", "from_image", "rebuild_lower", "collective",
                 "icollective", "p2p_send", "p2p_isend", "p2p_recv",
                 "p2p_irecv", "p2p_iprobe", "vreq_wait", "vreq_test",
                 "comm_split", "comm_dup", "comm_create_group"):
        patch.method(Session, attr, "mana")

    # simmpi
    for cls in (Communicator, Request):
        for attr, raw in list(vars(cls).items()):
            if not attr.startswith("_") and callable(raw):
                patch.method(cls, attr, "simmpi")

    # netmodel
    patch.method(collectives.ExitSolver, "on_arrival", "netmodel")
    patch.function(collectives, "make_solver", "netmodel")
    for attr in ("link", "p2p_time", "mean_alpha", "mean_inv_bandwidth"):
        patch.method(Topology, attr, "netmodel", subclasses=True)
    patch.method(StorageModel, "write_time", "netmodel")
    patch.method(StorageModel, "read_time", "netmodel")

    # apps
    patch.method(MpiApp, "step", "apps", subclasses=True)
    patch.method(AppContext, "compute", "apps")
    patch.method(AppContext, "compute_jittered", "apps")

    return patch.undo


# --------------------------------------------------------------------- #
# Per-layer metrics
# --------------------------------------------------------------------- #

def _percentile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer, jobs: list, *, deduped: int,
                  cache_bytes: int, host_sys_s: float) -> dict[str, float]:
    """Every per-layer metric except the ``trace.*`` wall times.

    ``jobs`` holds the :class:`RunResult` of every executed job.
    """
    count: dict[str, int] = {}
    wall: dict[str, float] = {}
    busy: dict[str, float] = {}
    self_busy: dict[str, float] = {}
    calls = dict.fromkeys(LAYERS, 0)
    job_walls: list[float] = []
    # Parent links resolve after the scan: children close before parents.
    ids_by_name: dict[str, set[int]] = {}
    sleeps_by_parent: dict[int, int] = {}
    compute_rows: list[tuple[int, float]] = []
    na_rejections = coll_calls = p2p_calls = 0
    for row in range(len(tracer)):
        layer, name = tracer.names[tracer.name[row]]
        span_wall = tracer.end[row] - tracer.start[row]
        calls[layer] += 1
        count[name] = count.get(name, 0) + 1
        wall[name] = wall.get(name, 0.0) + span_wall
        busy[name] = busy.get(name, 0.0) + tracer.busy[row]
        self_busy[layer] = self_busy.get(layer, 0.0) + tracer.self_busy[row]
        self_busy[name] = self_busy.get(name, 0.0) + tracer.self_busy[row]
        span = tracer.span_id[row]
        if name == "execute":
            job_walls.append(span_wall)
        elif name in _TWO_PC_HOOKS or name == "AppContext.compute_jittered":
            ids_by_name.setdefault(name, set()).add(span)
        elif name == "Simulator.sleep":
            parent = tracer.parent[row]
            sleeps_by_parent[parent] = sleeps_by_parent.get(parent, 0) + 1
        elif name == "AppContext.compute":
            compute_rows.append((tracer.parent[row], tracer.busy[row]))
        if layer == "core" and tracer.errors.get(span) == \
                "UnsupportedOperationError":
            na_rejections += 1
        elif name.startswith("Communicator."):
            method = name.split(".", 1)[1]
            if method in _P2P:
                p2p_calls += 1
            elif method not in _COMM_ADMIN:
                coll_calls += 1

    def total(table: dict, *keys: str) -> float:
        return sum(table.get(k, 0) for k in keys)

    hook_ids = set().union(*(ids_by_name.get(h, ()) for h in _TWO_PC_HOOKS))
    jittered = ids_by_name.get("AppContext.compute_jittered", set())
    poll_sleeps = sum(n for p, n in sleeps_by_parent.items() if p in hook_ids)
    barriers = count.get("Session.protocol_ibarrier", 0)
    requested = count.get("CheckpointCoordinator.request_checkpoint", 0)
    committed = sum(1 for r in jobs for c in r.checkpoints if c.committed)
    return {
        "harness.jobs_executed": len(job_walls),
        "harness.jobs_deduped": deduped,
        "harness.job_s.p50": _percentile(job_walls, 50),
        "harness.job_s.p90": _percentile(job_walls, 90),
        "harness.self_s": self_busy.get("harness", 0.0),
        "harness.cache_put_s": total(wall, "ResultCache.put"),
        "harness.cache_bytes": cache_bytes,
        "harness.fold_s": total(wall, "FigurePlan.fold"),
        "des.sim_events": sum(r.sim_events for r in jobs),
        "des.suspends": total(count, "Simulator.sleep", "Simulator.block"),
        "des.spawns": count.get("Simulator.spawn", 0),
        "des.loop_self_s": self_busy.get("Simulator.run", 0.0),
        "des.suspend_cpu_s": total(busy, "Simulator.sleep", "Simulator.block"),
        "des.setup_close_s": total(wall, "Simulator.spawn", "Simulator.close"),
        "des.host_sys_s": host_sys_s,
        "des.self_s": self_busy.get("des", 0.0),
        "core.hooks": sum(c for name, c in count.items()
                          if name.startswith(_PROTOCOLS)),
        "core.self_s": self_busy.get("core", 0.0),
        "core.barriers": barriers,
        "core.poll_sleeps": poll_sleeps,
        "core.polls_per_barrier": poll_sleeps / barriers if barriers else 0.0,
        "core.na_rejections": na_rejections,
        "mana.ckpt_requested": requested,
        "mana.ckpt_committed": committed,
        "mana.commit_ratio": committed / requested if requested else 0.0,
        "mana.drained_msgs": sum(sum(r.drain_buffered) for r in jobs),
        "mana.image_build_s": total(busy, "Session.build_image"),
        "mana.restore_s": total(busy, "Session.from_image",
                                "Session.rebuild_lower"),
        "mana.self_s": self_busy.get("mana", 0.0),
        "simmpi.coll_calls": coll_calls,
        "simmpi.p2p_calls": p2p_calls,
        "simmpi.calls": calls["simmpi"],
        "simmpi.self_s": self_busy.get("simmpi", 0.0),
        "netmodel.calls": calls["netmodel"],
        "netmodel.self_s": self_busy.get("netmodel", 0.0),
        "apps.steps": sum(c for name, c in count.items()
                          if name.endswith(".step")),
        "apps.compute_s": total(busy, "AppContext.compute_jittered") + sum(
            b for parent, b in compute_rows if parent not in jittered),
        "apps.self_s": self_busy.get("apps", 0.0),
        "trace.spans": len(tracer),
    }
