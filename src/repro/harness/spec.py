"""Declarative run specifications: one immutable value per simulated job.

A :class:`RunSpec` fully describes one simulated MPI job — application,
process layout, protocol, seed, checkpoint schedule, and model
parameters — as a frozen, hashable dataclass.  Because the spec is a
*value* (not a closure over factories, as ``launch_run`` calls used to
be), the experiment engine can deduplicate identical jobs across
figures, key a persistent on-disk cache by content hash, and ship jobs
to worker processes.

Dependent phases are part of the spec language:

* ``checkpoint_fractions`` — request checkpoints at fractions of the
  job's own uncheckpointed ("probe") runtime.  The probe is itself a
  plain spec (:meth:`RunSpec.probe_spec`), so it participates in
  dedup/caching like any other job (Figure 9 used to run it inline).
* ``checkpoint_completion_fracs`` — request checkpoints at fractions of
  the probe's *earliest rank finish time* (fault injection: fractions
  near or past 1.0 race rank completion, the scenario class the
  coordinator must checkpoint *through*; see ``repro.harness.verify``).
* ``restart_of`` — restart from the Nth committed checkpoint of another
  spec's run (a fresh lower half adopting the images, as in MANA).

:func:`execute` resolves these chains and runs the simulation;
:func:`spec_hash` provides the stable content hash; and the
``*_to_dict`` / ``*_from_dict`` pairs round-trip :class:`RunSpec` and
:class:`RunResult` (including committed :class:`CheckpointImage`
metadata) through JSON so results can cross process and disk
boundaries.  Image *payloads* (application state, call logs, drained
messages) are deliberately dropped in the JSON form — they can hold
hundreds of MB of numpy state; a result deserialized from JSON reports
every measurement but cannot seed a restart, which :func:`execute`
detects and handles by loading the parent's committed images from the
cache's image tier (the ``images`` loader argument) or, failing that,
by re-simulating the parent.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, replace
from typing import Any, Callable, Mapping, MutableMapping

import numpy as np

from ..apps import make_app_factory, resolve_app_name
from ..core import UnsupportedOperationError
from ..des import ProcessFailed
from ..mana import CheckpointImage, CheckpointRecord
from ..netmodel import (
    CollectiveTuning,
    ComputeModel,
    LinkParams,
    ModelParams,
    OverheadCosts,
    StorageModel,
)
from ..scenarios import ScenarioError, canonical_scenario
from ..util.hashing import stable_json_hash
from .runner import RunResult, launch_run

__all__ = [
    "SCHEMA_VERSION",
    "SPEC_POINT_FIELDS",
    "RunSpec",
    "SpecError",
    "execute",
    "spec_hash",
    "spec_to_dict",
    "spec_from_dict",
    "run_result_to_dict",
    "run_result_from_dict",
    "checkpoint_record_to_dict",
    "checkpoint_record_from_dict",
    "image_is_stripped",
    "record_has_full_images",
    "result_has_full_images",
]

#: Bump whenever the meaning of a spec field or the serialized result
#: layout changes; the cache segregates entries by this version.
SCHEMA_VERSION = 2

#: Point keys :meth:`RunSpec.from_point` routes to spec fields; every
#: other key becomes an app kwarg.  ``restart`` (bool) is the sweep
#: layer's chain marker: the point's checkpoint schedule moves to a
#: parent spec and the built spec restarts from it.
SPEC_POINT_FIELDS = (
    "app",
    "nprocs",
    "protocol",
    "ppn",
    "seed",
    "checkpoint_at",
    "checkpoint_fractions",
    "checkpoint_completion_fracs",
    "storage",
    "params",
    "max_events",
    "restart",
    "restart_ckpt",
    "crash_fracs",
    "scenario",
)

#: The schedule-shaped point fields (scalars promoted to 1-tuples).
_SCHEDULE_FIELDS = (
    "checkpoint_at",
    "checkpoint_fractions",
    "checkpoint_completion_fracs",
)

#: Sentinel key marking a deserialized image whose payload was dropped.
_STRIPPED_KEY = "__payload_stripped__"

_SCALAR_TYPES = (bool, int, float, str, type(None))


class SpecError(ValueError):
    """Malformed or unexecutable run specification."""


def _normalize_kwargs(app_kwargs: Any) -> tuple[tuple[str, Any], ...]:
    """Canonical (sorted, scalar-only) form of an app's kwargs."""
    if app_kwargs is None:
        return ()
    if isinstance(app_kwargs, Mapping):
        items = app_kwargs.items()
    else:
        items = tuple(app_kwargs)
    out = []
    for key, value in sorted(items):
        if not isinstance(key, str):
            raise SpecError(f"app kwarg name must be str, got {key!r}")
        if not isinstance(value, _SCALAR_TYPES):
            raise SpecError(
                f"app kwarg {key}={value!r} is not a scalar; specs must be "
                "fully declarative (configure apps by value, not object)"
            )
        out.append((key, value))
    return tuple(out)


@dataclass(frozen=True)
class RunSpec:
    """Immutable description of one simulated job.

    Build via :meth:`RunSpec.create`, which normalizes ``app_kwargs``
    into the canonical sorted-tuple form that makes equal specs compare
    (and hash) equal regardless of construction order.
    """

    app: str
    nprocs: int
    app_kwargs: tuple[tuple[str, Any], ...] = ()
    protocol: str = "native"
    ppn: int | None = None
    seed: int = 0
    #: Absolute virtual times of coordinator checkpoint requests.
    checkpoint_at: tuple[float, ...] = ()
    #: Checkpoint requests at fractions of the probe run's runtime.
    checkpoint_fractions: tuple[float, ...] = ()
    #: Checkpoint requests at fractions of the probe run's *earliest
    #: rank completion* — the fault-injection knob for the
    #: request-races-completion scenario class.  Fractions near (or
    #: past) 1.0 land requests in the window where some ranks have
    #: finished while others are mid-program; the coordinator must
    #: checkpoint through the completed ranks instead of aborting.
    checkpoint_completion_fracs: tuple[float, ...] = ()
    #: Crash-fault injection: ``(rank, frac)`` pairs hard-killing
    #: ``rank`` at ``frac`` of the probe run's runtime.  A crashed rank
    #: is *not* a finished rank: rounds it participates in abort, later
    #: requests abort immediately, and the coordinator tears the job
    #: down.  On a ``restart_of`` spec the fractions are relative to the
    #: *restart leg's own* crash-free runtime (its probe keeps
    #: ``restart_of``), so a crash can land while survivors rebuild the
    #: lower half, replay comm creation, or drain restored p2p.
    #: Recovery is a further restart from the last committed image —
    #: see :mod:`repro.harness.recovery` for the bounded-retry planner.
    crash_fracs: tuple[tuple[int, float], ...] = ()
    storage: StorageModel | None = None
    params: ModelParams | None = None
    max_events: int | None = None
    #: Dependent phase: restart from a committed checkpoint of this spec.
    restart_of: "RunSpec | None" = None
    #: Index into the parent run's *committed* checkpoint list.
    restart_ckpt: int = 0
    #: Canonical scenario string (:mod:`repro.scenarios`) perturbing the
    #: run — fabric, stragglers, link degradation.  ``None`` is the
    #: unperturbed run and (like the fault-schedule fields) stays out of
    #: the serialized form, so pre-scenario specs keep their hashes.
    scenario: str | None = None

    @classmethod
    def create(
        cls,
        app: str,
        nprocs: int,
        *,
        app_kwargs: Mapping[str, Any] | None = None,
        protocol: str = "native",
        ppn: int | None = None,
        seed: int = 0,
        checkpoint_at: tuple[float, ...] | list[float] = (),
        checkpoint_fractions: tuple[float, ...] | list[float] = (),
        checkpoint_completion_fracs: tuple[float, ...] | list[float] = (),
        crash_fracs: Any = (),
        storage: StorageModel | None = None,
        params: ModelParams | None = None,
        max_events: int | None = None,
        restart_of: "RunSpec | None" = None,
        restart_ckpt: int = 0,
        scenario: Any = None,
    ) -> "RunSpec":
        try:
            scenario = canonical_scenario(scenario)
        except ScenarioError as exc:
            raise SpecError(str(exc)) from None
        spec = cls(
            # Canonicalize aliases ("vasp" -> "minivasp") here, where
            # nprocs/seed are already being normalized: spec equality,
            # dedup, and the cache key must not depend on spelling.
            app=resolve_app_name(app),
            nprocs=int(nprocs),
            app_kwargs=_normalize_kwargs(app_kwargs),
            protocol=protocol,
            ppn=None if ppn is None else int(ppn),
            seed=int(seed),
            checkpoint_at=tuple(float(t) for t in checkpoint_at),
            checkpoint_fractions=tuple(float(f) for f in checkpoint_fractions),
            checkpoint_completion_fracs=tuple(
                float(f) for f in checkpoint_completion_fracs
            ),
            # Canonical sorted-by-rank form so equal fault schedules
            # compare (and hash) equal regardless of construction order.
            crash_fracs=tuple(
                sorted((int(r), float(f)) for r, f in crash_fracs)
            ),
            storage=storage,
            params=params,
            max_events=max_events,
            restart_of=restart_of,
            restart_ckpt=int(restart_ckpt),
            scenario=scenario,
        )
        spec.validate()
        return spec

    @classmethod
    def from_point(cls, point: Mapping[str, Any]) -> "RunSpec":
        """Build a spec from a flat axis-point mapping (the sweep layer).

        Keys in :data:`SPEC_POINT_FIELDS` route to spec fields; every
        other key is an app kwarg (so ``niters``, ``kind``, ``nbytes``…
        are first-class sweep axes).  Scalar ``checkpoint_at`` /
        ``checkpoint_fractions`` values are promoted to one-element
        schedules.  A truthy ``restart`` key moves the point's
        checkpoint schedule onto a parent spec and returns a spec that
        restarts from that parent's ``restart_ckpt``-th commit.
        """
        point = dict(point)
        try:
            app = point.pop("app")
            nprocs = point.pop("nprocs")
        except KeyError as exc:
            raise SpecError(f"sweep point is missing the {exc.args[0]!r} axis") from None
        restart = bool(point.pop("restart", False))
        restart_ckpt = int(point.pop("restart_ckpt", 0))
        fields = {
            name: point.pop(name)
            for name in SPEC_POINT_FIELDS
            if name in point
        }
        for schedule in _SCHEDULE_FIELDS:
            value = fields.get(schedule)
            if isinstance(value, (int, float)):
                fields[schedule] = (float(value),)
            elif value is not None:
                fields[schedule] = tuple(value)
        app_kwargs = point  # whatever is left belongs to the application
        if not restart:
            return cls.create(app, nprocs, app_kwargs=app_kwargs, **fields)
        if not any(fields.get(schedule) for schedule in _SCHEDULE_FIELDS):
            raise SpecError(
                "restart=True needs a checkpoint schedule (checkpoint_at, "
                "checkpoint_fractions, or checkpoint_completion_fracs) for "
                "the parent run to commit"
            )
        # The parent leg keeps the checkpoint schedule (so it commits an
        # image to restart from) but never the crash: a point that arms
        # both restarts *past* a parent commit and injects the crash on
        # the restart leg itself — the crash-during-recovery scenario.
        crash = fields.pop("crash_fracs", None)
        parent = cls.create(app, nprocs, app_kwargs=app_kwargs, **fields)
        for schedule in _SCHEDULE_FIELDS:
            fields.pop(schedule, None)
        if crash is not None:
            fields["crash_fracs"] = crash
        return cls.create(
            app,
            nprocs,
            app_kwargs=app_kwargs,
            restart_of=parent,
            restart_ckpt=restart_ckpt,
            **fields,
        )

    def validate(self) -> None:
        if self.nprocs < 1:
            raise SpecError(f"nprocs must be >= 1, got {self.nprocs}")
        if self.protocol not in ("native", "2pc", "cc"):
            raise SpecError(f"unknown protocol {self.protocol!r}")
        wants_ckpt = bool(
            self.checkpoint_at
            or self.checkpoint_fractions
            or self.checkpoint_completion_fracs
        )
        if wants_ckpt and self.protocol == "native":
            raise SpecError("native runs cannot be checkpointed")
        if self.restart_of is not None:
            if self.checkpoint_fractions or self.checkpoint_completion_fracs:
                raise SpecError(
                    "restart specs cannot also use probe-relative checkpoint "
                    "fractions; schedule further checkpoints with absolute "
                    "checkpoint_at"
                )
            if self.restart_of.protocol != self.protocol:
                raise SpecError(
                    f"restart protocol {self.protocol!r} != parent "
                    f"protocol {self.restart_of.protocol!r}"
                )
            if self.restart_of.nprocs != self.nprocs:
                raise SpecError("restart must use the parent's process count")
        if any(f <= 0 for f in self.checkpoint_fractions):
            raise SpecError("checkpoint fractions must be positive")
        if any(f <= 0 for f in self.checkpoint_completion_fracs):
            raise SpecError("checkpoint completion fractions must be positive")
        if self.crash_fracs:
            ranks = [r for r, _f in self.crash_fracs]
            if len(set(ranks)) != len(ranks):
                raise SpecError("crash_fracs names a rank more than once")
            bad = [r for r in ranks if not 0 <= r < self.nprocs]
            if bad:
                raise SpecError(f"crash_fracs names nonexistent rank(s) {bad}")
            if any(f <= 0 for _r, f in self.crash_fracs):
                raise SpecError("crash fractions must be positive")
        if self.scenario is not None:
            try:
                canonical = canonical_scenario(self.scenario)
            except ScenarioError as exc:
                raise SpecError(str(exc)) from None
            if canonical != self.scenario:
                raise SpecError(
                    f"scenario {self.scenario!r} is not canonical (expected "
                    f"{canonical!r}); build specs via RunSpec.create"
                )

    # -- structure ------------------------------------------------------ #

    def probe_spec(self) -> "RunSpec | None":
        """The uncheckpointed, uncrashed probe this spec's fractions and
        crash times are relative to."""
        if (
            not self.checkpoint_fractions
            and not self.checkpoint_completion_fracs
            and not self.crash_fracs
        ):
            return None
        return replace(
            self,
            checkpoint_at=(),
            checkpoint_fractions=(),
            checkpoint_completion_fracs=(),
            crash_fracs=(),
        )

    def with_scenario(self, scenario: Any) -> "RunSpec":
        """This spec — and its whole restart chain — under ``scenario``.

        A restart leg and its parent must see the same fabric for the
        images to replay faithfully, so the rewrite recurses through
        ``restart_of``.
        """
        try:
            canonical = canonical_scenario(scenario)
        except ScenarioError as exc:
            raise SpecError(str(exc)) from None
        parent = (
            None
            if self.restart_of is None
            else self.restart_of.with_scenario(canonical)
        )
        return replace(self, scenario=canonical, restart_of=parent)

    def parents(self) -> "tuple[RunSpec, ...]":
        """Specs whose results this spec's execution depends on."""
        out = []
        probe = self.probe_spec()
        if probe is not None:
            out.append(probe)
        if self.restart_of is not None:
            out.append(self.restart_of)
        return tuple(out)

    def ancestors(self) -> "tuple[RunSpec, ...]":
        """Transitive dependency closure (no duplicates, parents first)."""
        seen: dict[RunSpec, None] = {}
        stack = list(self.parents())
        while stack:
            spec = stack.pop()
            if spec in seen:
                continue
            seen[spec] = None
            stack.extend(spec.parents())
        return tuple(seen)

    def chain_depth(self) -> int:
        """0 for independent jobs, 1 + max parent depth for chained ones."""
        parents = self.parents()
        if not parents:
            return 0
        return 1 + max(p.chain_depth() for p in parents)

    def app_factory(self):
        """Zero-argument app factory (one instance per rank)."""
        return make_app_factory(self.app, **dict(self.app_kwargs))

    def _own_cost(self) -> float:
        """This spec's cost ignoring any restart parent."""
        niters = 30.0
        for key, value in self.app_kwargs:
            if key == "niters":
                niters = float(value)
                break
        cost = float(self.nprocs) * niters
        n_ckpt = (
            len(self.checkpoint_at)
            + len(self.checkpoint_fractions)
            + len(self.checkpoint_completion_fracs)
        )
        if n_ckpt:
            # Checkpoint phases add drain/commit rounds on top of the
            # app's own traffic.
            cost *= 1.0 + 0.25 * n_ckpt
        return cost

    def cost_hint(self) -> float:
        """Relative execution-cost estimate (``nprocs × niters`` shaped).

        The engine's wave scheduler prefers *recorded* wall times from
        the result cache; this heuristic is the fallback for specs never
        executed before.  Units are arbitrary — only the ordering within
        a wave matters — but :data:`~repro.harness.engine.HEURISTIC_SECONDS_PER_UNIT`
        maps them onto rough seconds so recorded and estimated costs can
        sort together.

        ``restart_of`` chains are folded iteratively, deepest ancestor
        first, and each link's value is memoized on the (immutable)
        instance — wave sorting used to recompute every ancestor's cost
        per call, O(depth²) across a chain, and recursed past Python's
        stack limit on very deep chains.
        """
        memo = self.__dict__.get("_cost_hint")
        if memo is not None:
            return memo
        chain: list[RunSpec] = []
        node: RunSpec | None = self
        while node is not None and "_cost_hint" not in node.__dict__:
            chain.append(node)
            node = node.restart_of
        inherited = 0.0 if node is None else node.__dict__["_cost_hint"]
        for spec in reversed(chain):
            cost = spec._own_cost()
            if spec.restart_of is not None:
                # A restart replays the tail of the parent's run.
                cost = max(cost, 0.5 * inherited)
            object.__setattr__(spec, "_cost_hint", cost)
            inherited = cost
        return inherited

    def label(self) -> str:
        """Short human-readable identity for progress reporting."""
        tag = f"{self.app}/{self.protocol} p={self.nprocs}"
        if self.restart_of is not None:
            tag += " (restart)"
        elif (
            self.checkpoint_fractions
            or self.checkpoint_at
            or self.checkpoint_completion_fracs
        ):
            tag += " (ckpt)"
        if self.crash_fracs:
            tag += " (crash)"
        if self.scenario:
            tag += f" [{self.scenario}]"
        return tag


def spec_hash(spec: RunSpec) -> str:
    """Stable content hash of a spec, identical across processes."""
    payload = spec_to_dict(spec)
    payload["!schema"] = SCHEMA_VERSION
    return stable_json_hash(payload)


# --------------------------------------------------------------------- #
# Execution
# --------------------------------------------------------------------- #

def execute(
    spec: RunSpec,
    deps: MutableMapping[RunSpec, RunResult] | None = None,
    *,
    max_events_guard: int | None = None,
    images: "Callable[[RunSpec, int], dict | None] | None" = None,
) -> RunResult:
    """Run one spec (resolving probe/restart chains) and return its result.

    Args:
        spec: the job to run.
        deps: optional already-computed results for this spec's
            ancestors (the engine passes wave-N-1 results here).  A
            parent result lacking full checkpoint images — e.g. one
            deserialized from the JSON cache — is transparently
            re-simulated, since images never cross the JSON boundary.
        max_events_guard: per-job event ceiling applied to specs that do
            not set their own ``max_events`` (runaway-simulation guard;
            it never alters the result of a job that completes).
        images: optional loader ``(parent_spec, committed_index) ->
            image map or None`` backed by the cache's image tier (see
            :meth:`repro.harness.cache.ResultCache.get_images`).  When
            it serves a restart parent's images, the parent is not
            simulated at all — the warm-restart fast path.  Any miss
            falls back to the re-simulation path, so a loader can only
            make execution faster, never change a result.

    A job whose protocol cannot wrap the application (the paper's NA
    cells, e.g. 2PC with non-blocking collectives) returns a
    :class:`RunResult` with ``na_reason`` set rather than raising, so
    batch execution records *why* the cell is NA instead of dying.
    """
    deps = deps if deps is not None else {}
    return _execute(spec, deps, guard=max_events_guard, images=images)


def _execute(
    spec: RunSpec,
    deps: MutableMapping[RunSpec, RunResult],
    *,
    guard: int | None,
    images: "Callable[[RunSpec, int], dict | None] | None" = None,
) -> RunResult:
    checkpoint_at = spec.checkpoint_at
    crash_at: dict[int, float] | None = None
    probe = spec.probe_spec()
    if probe is not None:
        probe_result = _resolve_parent(
            probe,
            deps,
            guard=guard,
            images=images,
            need_images=False,
            # Completion fractions anchor on per-rank finish instants; a
            # probe result cached before that field existed is unusable
            # and gets re-simulated (the fresh result then overwrites the
            # stale cache entry), so the derived schedule is a function
            # of the spec alone, never of cache vintage.
            need_finish_times=bool(spec.checkpoint_completion_fracs),
        )
        if probe_result.na_reason:
            return _na_result(spec, probe_result.na_reason)
        checkpoint_at = checkpoint_at + tuple(
            f * probe_result.runtime for f in spec.checkpoint_fractions
        )
        if spec.checkpoint_completion_fracs:
            first_finish = min(probe_result.rank_finish_times)
            checkpoint_at = checkpoint_at + tuple(
                f * first_finish for f in spec.checkpoint_completion_fracs
            )
        if spec.crash_fracs:
            crash_at = {
                rank: f * probe_result.runtime for rank, f in spec.crash_fracs
            }

    restore_images = None
    if spec.restart_of is not None:
        # Warm-restart fast path: a known-NA parent still propagates NA,
        # but a parent whose result is merely image-stripped (or not
        # resolved at all) can be served straight from the image tier —
        # the committed images are the only thing a restart needs from
        # its parent.
        known = deps.get(spec.restart_of)
        if known is not None and known.na_reason:
            return _na_result(spec, known.na_reason)
        if images is not None and (
            known is None or not result_has_full_images(known)
        ):
            restore_images = images(spec.restart_of, spec.restart_ckpt)
        if restore_images is None:
            parent = _resolve_parent(
                spec.restart_of, deps, guard=guard, images=images,
                need_images=True,
            )
            if parent.na_reason:
                return _na_result(spec, parent.na_reason)
            committed = [r for r in parent.checkpoints if r.committed]
            if not committed:
                raise SpecError(
                    f"restart parent {spec.restart_of.label()} committed no "
                    "checkpoints — nothing to restart from"
                )
            try:
                restore_images = committed[spec.restart_ckpt].images
            except IndexError:
                raise SpecError(
                    f"restart_ckpt={spec.restart_ckpt} out of range: parent "
                    f"committed {len(committed)} checkpoint(s)"
                ) from None

    max_events = spec.max_events if spec.max_events is not None else guard
    try:
        result = launch_run(
            spec.app_factory(),
            spec.nprocs,
            protocol=spec.protocol,
            ppn=spec.ppn,
            params=spec.params,
            seed=spec.seed,
            checkpoint_at=checkpoint_at,
            storage=spec.storage,
            restore_images=restore_images,
            max_events=max_events,
            crash_at=crash_at,
            scenario=spec.scenario,
        )
    except ProcessFailed as exc:
        if isinstance(exc.original, UnsupportedOperationError):
            return _na_result(spec, str(exc.original))
        raise
    # Canonicalize per-rank payloads (numpy scalars -> python, tuples ->
    # lists) so a fresh result compares equal to one that crossed the
    # pickle/JSON boundary.
    result.per_rank = _canonical_value(result.per_rank)
    return result


def _resolve_parent(
    parent: RunSpec,
    deps: MutableMapping[RunSpec, RunResult],
    *,
    guard: int | None,
    images: "Callable[[RunSpec, int], dict | None] | None",
    need_images: bool,
    need_finish_times: bool = False,
) -> RunResult:
    known = deps.get(parent)
    if known is not None and not known.na_reason:
        if need_images and not result_has_full_images(known):
            known = None
        elif need_finish_times and not known.rank_finish_times:
            known = None
    if known is not None:
        return known
    fresh = _execute(parent, deps, guard=guard, images=images)
    deps[parent] = fresh
    return fresh


def _na_result(spec: RunSpec, reason: str) -> RunResult:
    ppn = spec.ppn if spec.ppn is not None else min(spec.nprocs, 128)
    return RunResult(
        app=spec.app,
        protocol=spec.protocol,
        nprocs=spec.nprocs,
        nnodes=-(-spec.nprocs // ppn),
        runtime=0.0,
        per_rank=[],
        coll_calls=0,
        p2p_calls=0,
        na_reason=reason or "unsupported",
    )


# --------------------------------------------------------------------- #
# JSON (de)serialization
# --------------------------------------------------------------------- #

def _canonical_value(value: Any) -> Any:
    """Recursively reduce a value to JSON-canonical python types."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, _SCALAR_TYPES):
        return value
    if isinstance(value, (list, tuple)):
        return [_canonical_value(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canonical_value(v) for k, v in value.items()}
    return repr(value)


def spec_to_dict(spec: RunSpec) -> dict:
    """JSON-representable form of a spec (recursive over restart chains)."""
    out = {
        "app": spec.app,
        "nprocs": spec.nprocs,
        "app_kwargs": [[k, v] for k, v in spec.app_kwargs],
        "protocol": spec.protocol,
        "ppn": spec.ppn,
        "seed": spec.seed,
        "checkpoint_at": list(spec.checkpoint_at),
        "checkpoint_fractions": list(spec.checkpoint_fractions),
        "storage": None if spec.storage is None else dataclasses.asdict(spec.storage),
        "params": None if spec.params is None else dataclasses.asdict(spec.params),
        "max_events": spec.max_events,
        "restart_of": None if spec.restart_of is None else spec_to_dict(spec.restart_of),
        "restart_ckpt": spec.restart_ckpt,
    }
    # Fault-schedule fields enter the content hash only when set, so
    # every pre-existing spec keeps its hash (and its cache entry).
    if spec.checkpoint_completion_fracs:
        out["checkpoint_completion_fracs"] = list(spec.checkpoint_completion_fracs)
    if spec.crash_fracs:
        out["crash_fracs"] = [[r, f] for r, f in spec.crash_fracs]
    if spec.scenario:
        out["scenario"] = spec.scenario
    return out


def spec_from_dict(data: Mapping[str, Any]) -> RunSpec:
    params = data.get("params")
    if params is not None:
        params = ModelParams(
            intra=LinkParams(**params["intra"]),
            inter=LinkParams(**params["inter"]),
            overheads=OverheadCosts(**params["overheads"]),
            tuning=CollectiveTuning(**params["tuning"]),
            compute=ComputeModel(**params["compute"]),
        )
    storage = data.get("storage")
    restart_of = data.get("restart_of")
    return RunSpec.create(
        data["app"],
        data["nprocs"],
        app_kwargs={k: v for k, v in data.get("app_kwargs", [])},
        protocol=data.get("protocol", "native"),
        ppn=data.get("ppn"),
        seed=data.get("seed", 0),
        checkpoint_at=tuple(data.get("checkpoint_at", ())),
        checkpoint_fractions=tuple(data.get("checkpoint_fractions", ())),
        checkpoint_completion_fracs=tuple(
            data.get("checkpoint_completion_fracs", ())
        ),
        crash_fracs=tuple(
            (int(r), float(f)) for r, f in data.get("crash_fracs", ())
        ),
        storage=None if storage is None else StorageModel(**storage),
        params=params,
        max_events=data.get("max_events"),
        restart_of=None if restart_of is None else spec_from_dict(restart_of),
        restart_ckpt=data.get("restart_ckpt", 0),
        scenario=data.get("scenario"),
    )


#: CheckpointImage fields preserved verbatim in the JSON form; the
#: payload fields (app state, logs, drained messages, request tables)
#: are replaced by their element counts.
_IMAGE_SCALARS = (
    "rank",
    "nprocs",
    "protocol",
    "ckpt_id",
    "call_index",
    "boundary_index",
    "remaining_compute",
    "declared_bytes",
)
_IMAGE_DROPPED = ("app_state", "seq_table", "creation_log", "call_log", "drained")


def _image_to_dict(image: CheckpointImage) -> dict:
    out = {name: getattr(image, name) for name in _IMAGE_SCALARS}
    # ``final_result`` travels with the payload (it can be arbitrary app
    # data): a stripped image cannot seed a restart anyway, so dropping
    # it costs nothing the JSON form could have used.
    out["finished"] = image.finished
    out["ggid_peers"] = {
        str(g): list(peers) for g, peers in image.ggid_peers.items()
    }
    out["pending_recvs"] = list(image.pending_recvs)
    out["stats"] = _canonical_value(image.stats)
    if image_is_stripped(image):
        # Re-serializing a deserialized image must be idempotent: report
        # the original payload's element counts (preserved in the
        # stripped marker), not the marker's own shape.
        out["dropped"] = dict(image.app_state[_STRIPPED_KEY])
    else:
        out["dropped"] = {
            name: len(getattr(image, name)) for name in _IMAGE_DROPPED
        }
    return out


def _image_from_dict(data: Mapping[str, Any]) -> CheckpointImage:
    image = CheckpointImage(
        **{name: data[name] for name in _IMAGE_SCALARS},
        finished=bool(data.get("finished", False)),
        app_state={_STRIPPED_KEY: dict(data.get("dropped", {}))},
        ggid_peers={int(g): list(p) for g, p in data.get("ggid_peers", {}).items()},
        pending_recvs=list(data.get("pending_recvs", ())),
        stats=dict(data.get("stats", {})),
    )
    return image


def image_is_stripped(image: CheckpointImage) -> bool:
    """True iff this image came back from JSON without its payload."""
    return _STRIPPED_KEY in image.app_state


def record_has_full_images(record: CheckpointRecord) -> bool:
    """True iff the record's images can actually seed a restart."""
    return bool(record.images) and not any(
        image_is_stripped(im) for im in record.images.values()
    )


def result_has_full_images(result: RunResult) -> bool:
    committed = [r for r in result.checkpoints if r.committed]
    return bool(committed) and all(record_has_full_images(r) for r in committed)


def checkpoint_record_to_dict(record: CheckpointRecord) -> dict:
    return {
        "ckpt_id": record.ckpt_id,
        "protocol": record.protocol,
        "t_request": record.t_request,
        "t_targets": record.t_targets,
        "t_quiesced": record.t_quiesced,
        "t_drained": record.t_drained,
        "t_written": record.t_written,
        "t_resumed": record.t_resumed,
        "aborted": record.aborted,
        "abort_reason": record.abort_reason,
        "total_image_bytes": record.total_image_bytes,
        "images": {str(r): _image_to_dict(im) for r, im in record.images.items()},
        "seq_reports": {
            str(rank): {str(g): s for g, s in table.items()}
            for rank, table in record.seq_reports.items()
        },
        "initial_targets": {str(g): t for g, t in record.initial_targets.items()},
    }


def checkpoint_record_from_dict(data: Mapping[str, Any]) -> CheckpointRecord:
    return CheckpointRecord(
        ckpt_id=data["ckpt_id"],
        protocol=data["protocol"],
        t_request=data["t_request"],
        t_targets=data.get("t_targets"),
        t_quiesced=data.get("t_quiesced"),
        t_drained=data.get("t_drained"),
        t_written=data.get("t_written"),
        t_resumed=data.get("t_resumed"),
        aborted=data.get("aborted", False),
        abort_reason=data.get("abort_reason", ""),
        total_image_bytes=data.get("total_image_bytes", 0),
        images={
            int(r): _image_from_dict(im)
            for r, im in data.get("images", {}).items()
        },
        seq_reports={
            int(rank): {int(g): s for g, s in table.items()}
            for rank, table in data.get("seq_reports", {}).items()
        },
        initial_targets={
            int(g): t for g, t in data.get("initial_targets", {}).items()
        },
    )


def run_result_to_dict(result: RunResult) -> dict:
    """JSON-representable form of a result (image payloads dropped)."""
    return {
        "schema": SCHEMA_VERSION,
        "app": result.app,
        "protocol": result.protocol,
        "nprocs": result.nprocs,
        "nnodes": result.nnodes,
        "runtime": result.runtime,
        "per_rank": _canonical_value(result.per_rank),
        "coll_calls": result.coll_calls,
        "p2p_calls": result.p2p_calls,
        "checkpoints": [checkpoint_record_to_dict(r) for r in result.checkpoints],
        "restart_read_time": result.restart_read_time,
        "restart_ready_time": result.restart_ready_time,
        "rank_finish_times": list(result.rank_finish_times),
        "sim_events": result.sim_events,
        "na_reason": result.na_reason,
        "crashed_ranks": list(result.crashed_ranks),
        "drain_restored": list(result.drain_restored),
        "drain_buffered": list(result.drain_buffered),
        "drain_consumed": list(result.drain_consumed),
        "drain_leftover": list(result.drain_leftover),
    }


def run_result_from_dict(data: Mapping[str, Any]) -> RunResult:
    schema = data.get("schema", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise ValueError(
            f"serialized result has schema {schema}, expected {SCHEMA_VERSION}"
        )
    return RunResult(
        app=data["app"],
        protocol=data["protocol"],
        nprocs=data["nprocs"],
        nnodes=data["nnodes"],
        runtime=data["runtime"],
        per_rank=list(data.get("per_rank", ())),
        coll_calls=data.get("coll_calls", 0),
        p2p_calls=data.get("p2p_calls", 0),
        checkpoints=[
            checkpoint_record_from_dict(r) for r in data.get("checkpoints", ())
        ],
        restart_read_time=data.get("restart_read_time", 0.0),
        restart_ready_time=data.get("restart_ready_time", 0.0),
        rank_finish_times=list(data.get("rank_finish_times", ())),
        sim_events=data.get("sim_events", 0),
        na_reason=data.get("na_reason", ""),
        crashed_ranks=list(data.get("crashed_ranks", ())),
        drain_restored=list(data.get("drain_restored", ())),
        drain_buffered=list(data.get("drain_buffered", ())),
        drain_consumed=list(data.get("drain_consumed", ())),
        drain_leftover=list(data.get("drain_leftover", ())),
    )
