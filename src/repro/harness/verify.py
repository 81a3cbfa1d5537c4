"""Fault-injection + differential-oracle verification subsystem.

The paper's central claim — a topological sort over collective
dependencies yields a *safe cut* under any interleaving of checkpoint
requests and application progress — is the kind of property that only
systematic adversarial validation keeps true as the system grows.  This
module turns the repo's ad-hoc oracles (the online-vs-offline cut test,
the serial-vs-parallel engine comparisons, the cold-vs-warm image-tier
differentials) into one reusable subsystem:

* :class:`FaultSchedule` — a seed-deterministic draw of the adversarial
  knobs: checkpoint-request timing (mid-run fractions *and*
  completion-window fractions that race rank exits), rank-completion
  staggering (the ``earlyexit`` app's shape), and restart depth.  The
  schedule's perturbations reach simulation through declarative
  :class:`RunSpec` fields (``checkpoint_fractions``,
  ``checkpoint_completion_fracs``, app kwargs), so they enter the spec
  content hash and the result cache just like any figure cell.
* :class:`Oracle` — one check: run the scenario a fault schedule
  describes and compare two independent derivations of the same truth
  (online vs offline cut, interrupted vs uninterrupted fingerprint,
  serial vs parallel engine, cold vs warm tier).
* :func:`run_oracles` — sweep oracles over seeds; every failure carries
  a *derandomized reproduction command* (``repro-mpi verify --oracle X
  --seeds 1 --base-seed N``) so a nightly CI hit replays locally in one
  paste.

``repro-mpi verify`` is the CLI face (cache-aware where an oracle
permits, ``--bench-json``, failing-seed artifact on mismatch).
"""

from __future__ import annotations

import tempfile
import time
from abc import ABC, abstractmethod
from dataclasses import asdict, dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from ..des.errors import DeadlockError, SchedulingError
from ..scenarios import SCENARIOS
from ..util.hashing import stable_json_hash
from .cache import ResultCache
from .engine import ExperimentEngine, fan_out
from .runner import RunResult
from .spec import (
    RunSpec,
    _canonical_value,
    execute,
    run_result_to_dict,
)

__all__ = [
    "FaultSchedule",
    "Oracle",
    "OracleMismatch",
    "OracleReport",
    "ORACLES",
    "program_position_for",
    "result_fingerprint",
    "run_oracles",
    "schedule_from_dict",
    "schedule_to_dict",
]


class OracleMismatch(AssertionError):
    """An oracle's two derivations of the same truth disagreed."""


def result_fingerprint(result: RunResult) -> str:
    """Determinism fingerprint of a run's application-visible outcome.

    Per-rank results only: virtual times, event counts, and checkpoint
    phase timings legitimately differ between an uninterrupted run and
    a restart — what must be byte-identical is what the application
    computed.
    """
    return stable_json_hash(_canonical_value(result.per_rank))


def program_position_for(program, rank: int, counts: dict) -> int:
    """Program position matching a rank's per-group executed counts.

    The inverse projection the safe-cut oracle needs: SEQ tables count
    per-group executions, positions index the rank's op sequence.
    """
    remaining = dict(counts)
    pos = 0
    for g in program.ops[rank]:
        if all(v <= 0 for v in remaining.values()):
            break
        if remaining.get(g, 0) > 0:
            remaining[g] -= 1
            pos += 1
        else:
            if any(v > 0 for v in remaining.values()):
                raise OracleMismatch(
                    f"rank {rank}: counts {counts} unreachable in program"
                )
            break
    if any(v != 0 for v in remaining.values()):
        raise OracleMismatch(
            f"rank {rank}: counts {counts} leave remainder {remaining}"
        )
    return pos


# --------------------------------------------------------------------- #
# Fault schedules
# --------------------------------------------------------------------- #

#: Modest storage so checkpoint phases stay fast at verification scale.
def _storage():
    from ..netmodel import StorageModel

    return StorageModel(base_latency=1e-4)


@dataclass(frozen=True)
class FaultSchedule:
    """One seed's adversarial scenario, fully declarative.

    Everything here flows into :class:`RunSpec` fields or app kwargs,
    so equal schedules build equal (content-hashed, cacheable) specs.
    """

    seed: int
    protocol: str = "cc"
    nprocs: int = 4
    niters: int = 12
    shared: int = 4
    leavers: int = 1
    #: Request instants as fractions of the probe's earliest rank
    #: finish — the completion-race window (may exceed 1.0: requests
    #: landing after ranks exited).
    completion_fracs: tuple[float, ...] = (0.99,)
    #: Additional mid-run request instants (fractions of probe runtime).
    mid_fracs: tuple[float, ...] = ()
    #: How many restart legs to chain from the committed images.
    restart_depth: int = 1
    #: Which committed checkpoint the first restart adopts.
    restart_ckpt: int = 0
    #: Crash-fault events: ``(rank, frac)`` hard-kills ``rank`` at that
    #: fraction of the probe runtime.  Only the crash-aware specs
    #: (:meth:`crash_spec`) carry these — the graceful specs the
    #: commit-must-succeed oracles compare stay crash-free.
    crash_fracs: tuple[tuple[int, float], ...] = ()
    #: Multi-hop failure storm: ``recovery_crash_fracs[i]`` is the
    #: ``crash_fracs`` plan armed on recovery leg ``i+1`` of the
    #: bounded-retry chain the ``recovery-chain`` oracle drives (see
    #: :mod:`repro.harness.recovery`).  Recovery legs are restart specs,
    #: so a non-empty hop is exactly a crash *on a restart leg*, with
    #: fractions relative to that leg's own runtime.
    recovery_crash_fracs: tuple[tuple[tuple[int, float], ...], ...] = ()
    #: Canonical scenario string (:mod:`repro.scenarios`) the whole
    #: schedule runs under — fabric, straggler, degraded link — so the
    #: fuzzer explores scenarios against crashes and recovery chains.
    #: ``None`` is the unperturbed cluster.
    scenario: "str | None" = None

    @classmethod
    def draw(
        cls, seed: int, *, protocols: Sequence[str] = ("cc", "2pc")
    ) -> "FaultSchedule":
        """Deterministically derive a schedule from ``seed``.

        The draw covers the scenario axes the coordinator historically
        got wrong: requests just before/at/after the first rank exit,
        requests stacked so some defer behind an in-flight round, both
        protocols, single/chained restarts, and (new axes drawn last, so
        pre-existing seeds keep their schedules) ranks hard-killed
        before, during, or after the commit window.
        """
        rng = np.random.default_rng(np.random.SeedSequence([0x5EED, seed]))
        nprocs = int(rng.integers(3, 6))
        niters = int(rng.integers(10, 15))
        shared = int(rng.integers(3, min(6, niters)))
        leavers = int(rng.integers(1, max(2, nprocs - 1)))
        n_completion = int(rng.integers(1, 3))
        completion_fracs = tuple(
            round(float(f), 6) for f in rng.uniform(0.85, 1.15, n_completion)
        )
        mid_fracs = (
            (round(float(rng.uniform(0.2, 0.7)), 6),)
            if rng.random() < 0.5
            else ()
        )
        n_commits = n_completion + len(mid_fracs)
        protocol = str(rng.choice(list(protocols)))
        restart_depth = int(rng.integers(1, 3))
        restart_ckpt = int(rng.integers(0, n_commits))
        crash_fracs: tuple[tuple[int, float], ...] = ()
        if rng.random() < 0.4:
            crash_fracs = (
                (
                    int(rng.integers(0, nprocs)),
                    round(float(rng.uniform(0.3, 1.1)), 6),
                ),
            )
            # Multi-rank simultaneous failure: with the round already
            # doomed by one corpse, a second corpse in the same round
            # must reclaim *its* debt sets too (drawn after every other
            # axis, so crash-free seeds keep their schedules).
            if rng.random() < 0.3:
                survivors = [
                    r for r in range(nprocs) if r != crash_fracs[0][0]
                ]
                second = (
                    int(survivors[int(rng.integers(0, len(survivors)))]),
                    round(float(rng.uniform(0.3, 1.1)), 6),
                )
                crash_fracs = tuple(sorted(crash_fracs + (second,)))
        # Multi-hop storms: crashes armed on the *recovery legs* of the
        # retry chain chasing the crash above — i.e. crashes on restart
        # legs, landing while survivors rebuild the lower half or drain
        # restored p2p.  Drawn after every other axis (and only when a
        # first crash exists), so every pre-existing seed keeps its
        # schedule bit-exact.
        recovery_crash_fracs: tuple[tuple[tuple[int, float], ...], ...] = ()
        if crash_fracs and rng.random() < 0.5:
            hops = []
            hops.append((
                (
                    int(rng.integers(0, nprocs)),
                    round(float(rng.uniform(0.15, 1.0)), 6),
                ),
            ))
            if rng.random() < 0.35:
                hops.append((
                    (
                        int(rng.integers(0, nprocs)),
                        round(float(rng.uniform(0.15, 1.0)), 6),
                    ),
                ))
            recovery_crash_fracs = tuple(hops)
        # Scenario axis: run the whole schedule — baseline, checkpoint,
        # crash, and every recovery leg — under a perturbed fabric or
        # compute condition.  Drawn after every other axis, so every
        # pre-existing seed keeps its schedule bit-exact.
        scenario: "str | None" = None
        if rng.random() < 0.35:
            scenario = str(rng.choice(sorted(SCENARIOS)))
        return cls(
            seed=seed,
            protocol=protocol,
            nprocs=nprocs,
            niters=niters,
            shared=shared,
            leavers=leavers,
            completion_fracs=completion_fracs,
            mid_fracs=mid_fracs,
            restart_depth=restart_depth,
            restart_ckpt=restart_ckpt,
            crash_fracs=crash_fracs,
            recovery_crash_fracs=recovery_crash_fracs,
            scenario=scenario,
        )

    # -- spec builders ------------------------------------------------- #

    def _app_kwargs(self) -> dict:
        return {
            "niters": self.niters,
            "shared": self.shared,
            "leavers": self.leavers,
            "memory_bytes": 1 << 20,
        }

    def uninterrupted_spec(self) -> RunSpec:
        """The baseline run (identical to the checkpoint spec's probe,
        so the engine dedupes the two)."""
        return RunSpec.create(
            "earlyexit",
            self.nprocs,
            app_kwargs=self._app_kwargs(),
            protocol=self.protocol,
            seed=self.seed,
            storage=_storage(),
            scenario=self.scenario,
        )

    def checkpoint_spec(self) -> RunSpec:
        """The perturbed run: requests racing rank completion (plus any
        mid-run requests)."""
        return RunSpec.create(
            "earlyexit",
            self.nprocs,
            app_kwargs=self._app_kwargs(),
            protocol=self.protocol,
            seed=self.seed,
            checkpoint_fractions=self.mid_fracs,
            checkpoint_completion_fracs=self.completion_fracs,
            storage=_storage(),
            scenario=self.scenario,
        )

    def crash_spec(
        self, crash_fracs: "tuple[tuple[int, float], ...] | None" = None
    ) -> RunSpec:
        """The checkpointed run with the schedule's crash faults armed.

        ``crash_fracs`` overrides the drawn events (the crash oracle
        derives a deterministic fallback when the draw produced none).
        Falls back to :meth:`checkpoint_spec` when there is no crash to
        inject.
        """
        fracs = self.crash_fracs if crash_fracs is None else tuple(crash_fracs)
        if not fracs:
            return self.checkpoint_spec()
        return RunSpec.create(
            "earlyexit",
            self.nprocs,
            app_kwargs=self._app_kwargs(),
            protocol=self.protocol,
            seed=self.seed,
            checkpoint_fractions=self.mid_fracs,
            checkpoint_completion_fracs=self.completion_fracs,
            crash_fracs=fracs,
            storage=_storage(),
            scenario=self.scenario,
        )

    def restart_chain(self, base_runtime: float) -> "list[RunSpec]":
        """``restart_depth`` chained restart specs from the checkpoint
        run's commits.

        Intermediate legs carry their own absolute-time request so the
        next leg has an image set to adopt; the request instant is a
        pure function of the (deterministic) base runtime, so the chain
        specs are cache-stable.
        """
        chain: list[RunSpec] = []
        parent = self.checkpoint_spec()
        ckpt_index = self.restart_ckpt
        for depth in range(self.restart_depth):
            last = depth == self.restart_depth - 1
            chain.append(
                RunSpec.create(
                    "earlyexit",
                    self.nprocs,
                    app_kwargs=self._app_kwargs(),
                    protocol=self.protocol,
                    seed=self.seed,
                    storage=_storage(),
                    restart_of=parent,
                    restart_ckpt=ckpt_index,
                    # Intermediate legs re-checkpoint (possibly past
                    # their own completion: a terminal snapshot is a
                    # legal parent now) so the chain can keep going.
                    checkpoint_at=() if last else (base_runtime * 1.5,),
                    scenario=self.scenario,
                )
            )
            parent = chain[-1]
            ckpt_index = 0
        return chain


def schedule_to_dict(schedule: FaultSchedule) -> dict:
    """JSON-stable form of a schedule (tuples become lists).

    This is the fuzz corpus format: a schedule round-trips the JSON
    boundary bit-exact, so a stored entry replays exactly the check
    that found it.
    """
    out = asdict(schedule)
    out["completion_fracs"] = list(schedule.completion_fracs)
    out["mid_fracs"] = list(schedule.mid_fracs)
    out["crash_fracs"] = [[r, f] for r, f in schedule.crash_fracs]
    # Only present when armed: existing corpora hash schedules without
    # this key, and the fuzzer's content-addressed entry keys must not
    # shift under them.
    if schedule.recovery_crash_fracs:
        out["recovery_crash_fracs"] = [
            [[r, f] for r, f in hop] for hop in schedule.recovery_crash_fracs
        ]
    else:
        out.pop("recovery_crash_fracs", None)
    if schedule.scenario:
        out["scenario"] = schedule.scenario
    else:
        out.pop("scenario", None)
    return out


def schedule_from_dict(data: dict) -> FaultSchedule:
    return FaultSchedule(
        seed=int(data["seed"]),
        protocol=str(data["protocol"]),
        nprocs=int(data["nprocs"]),
        niters=int(data["niters"]),
        shared=int(data["shared"]),
        leavers=int(data["leavers"]),
        completion_fracs=tuple(float(f) for f in data["completion_fracs"]),
        mid_fracs=tuple(float(f) for f in data["mid_fracs"]),
        restart_depth=int(data["restart_depth"]),
        restart_ckpt=int(data["restart_ckpt"]),
        crash_fracs=tuple(
            (int(r), float(f)) for r, f in data.get("crash_fracs", ())
        ),
        recovery_crash_fracs=tuple(
            tuple((int(r), float(f)) for r, f in hop)
            for hop in data.get("recovery_crash_fracs", ())
        ),
        scenario=data.get("scenario"),
    )


# --------------------------------------------------------------------- #
# Oracles
# --------------------------------------------------------------------- #

@dataclass
class OracleReport:
    """One oracle × seed outcome."""

    oracle: str
    seed: int
    ok: bool
    detail: str = ""
    #: Derandomized one-paste reproduction command.
    repro: str = ""
    #: Anomaly class for failing reports ("" while ``ok``):
    #: ``"mismatch"`` — the oracle's two derivations disagreed;
    #: ``"deadlock"`` — the simulation wedged (a genuine distributed
    #: deadlock, or a hung schedule dying at its ``max_events`` guard);
    #: ``"recovery"`` — a bounded-retry recovery chain exhausted its
    #: budget without reaching clean completion;
    #: ``"crash"`` — the oracle itself blew up (ProtocolError, SpecError…).
    kind: str = ""

    def as_dict(self) -> dict:
        return {
            "oracle": self.oracle,
            "seed": self.seed,
            "ok": self.ok,
            "detail": self.detail,
            "repro": self.repro,
            "kind": self.kind,
        }


def _classify_exception(exc: BaseException) -> str:
    """Anomaly class of a non-mismatch failure.

    A hung schedule surfaces either as a :class:`DeadlockError` (live
    processes blocked with no pending events) or as the ``max_events``
    guard tripping on a runaway poll loop (:class:`SchedulingError`) —
    both mean "this schedule wedged the simulation", which is its own
    anomaly class, distinct from an oracle implementation blowing up.
    A :class:`~repro.harness.recovery.RecoveryError` — the retry budget
    ran dry while the schedule kept crashing the chain — is likewise its
    own class: the interesting question it raises is "why did every
    restart leg die", not "which oracle broke".
    """
    from .recovery import RecoveryError

    if isinstance(exc, RecoveryError) or "RecoveryError" in str(exc):
        return "recovery"
    if isinstance(exc, DeadlockError):
        return "deadlock"
    if isinstance(exc, SchedulingError) and "max_events" in str(exc):
        return "deadlock"
    # ProcessFailed wraps the body's exception; a deadlock/runaway inside
    # a worker process arrives stringified, so match on the message too.
    if "max_events" in str(exc) or "DeadlockError" in str(exc):
        return "deadlock"
    return "crash"


class Oracle(ABC):
    """One differential check, sweepable over fault-schedule seeds."""

    #: Registry key and ``--oracle`` spelling.
    name: str = "abstract"
    #: One-line catalog entry (README / ``--help``).
    description: str = ""
    #: Whether the check can serve (and warm) the shared result cache.
    cache_aware: bool = False

    def check(self, seed: int, engine: "ExperimentEngine | None" = None) -> OracleReport:
        """Run the check for one seed; never raises.

        A mismatch is the oracle's verdict; any *other* exception — a
        ProtocolError, a simulated deadlock, a spec error — is exactly
        the kind of fault the sweep exists to surface, so it becomes a
        failing report too (with the same derandomized repro command)
        instead of crashing the remaining seeds and losing the artifact.
        """
        return self.check_schedule(FaultSchedule.draw(seed), engine)

    def check_schedule(
        self,
        schedule: FaultSchedule,
        engine: "ExperimentEngine | None" = None,
    ) -> OracleReport:
        """:meth:`check` for an explicit (possibly hand-built) schedule.

        The fuzzer's shrinker re-checks *mutated* schedules that no seed
        draws; the report's ``seed`` and repro command refer to the
        schedule's originating seed.
        """
        seed = schedule.seed
        if engine is None or not self.cache_aware:
            engine = ExperimentEngine()
        kind = ""
        try:
            detail = self.verify(schedule, engine)
            ok = True
        except OracleMismatch as exc:
            detail = str(exc)
            ok = False
            kind = "mismatch"
        except Exception as exc:  # noqa: BLE001 - reported, never swallowed
            ok = False
            kind = _classify_exception(exc)
            if kind == "deadlock":
                detail = f"simulation wedged: {type(exc).__name__}: {exc}"
            else:
                detail = f"oracle crashed: {type(exc).__name__}: {exc}"
        return OracleReport(
            oracle=self.name,
            seed=seed,
            ok=ok,
            detail=detail,
            repro=f"repro-mpi verify --oracle {self.name} --seeds 1 --base-seed {seed}",
            kind=kind,
        )

    @abstractmethod
    def verify(self, schedule: FaultSchedule, engine: ExperimentEngine) -> str:
        """Perform the check; return a human-readable detail line or
        raise :class:`OracleMismatch`."""

    @staticmethod
    def _require(condition: bool, message: str) -> None:
        if not condition:
            raise OracleMismatch(message)


class RankCompletionOracle(Oracle):
    """Checkpoint-through-rank-completion, end to end.

    A round racing rank completion must COMMIT (no ``abort_reason``),
    the interrupted run must finish with the uninterrupted run's
    per-rank results, and restarting from the committed images — to the
    schedule's chained depth — must reproduce the same determinism
    fingerprint.
    """

    name = "rank-completion"
    description = (
        "requests racing rank exits commit, and restart chains from the "
        "committed images reproduce the uninterrupted fingerprint"
    )
    cache_aware = True

    def verify(self, schedule: FaultSchedule, engine: ExperimentEngine) -> str:
        base = schedule.uninterrupted_spec()
        ckpt = schedule.checkpoint_spec()
        results = engine.run_batch([base, ckpt])
        base_res, ckpt_res = results[base], results[ckpt]
        self._require(not base_res.na_reason, f"baseline NA: {base_res.na_reason}")
        self._require(not ckpt_res.na_reason, f"ckpt run NA: {ckpt_res.na_reason}")

        n_requests = len(schedule.completion_fracs) + len(schedule.mid_fracs)
        self._require(
            len(ckpt_res.checkpoints) == n_requests,
            f"{n_requests} requests produced {len(ckpt_res.checkpoints)} records",
        )
        aborted = [r for r in ckpt_res.checkpoints if r.aborted or r.abort_reason]
        self._require(
            not aborted,
            "round(s) aborted instead of committing through completion: "
            + "; ".join(r.abort_reason or "<no reason>" for r in aborted),
        )
        self._require(
            all(r.committed for r in ckpt_res.checkpoints),
            "not every record committed",
        )

        want = result_fingerprint(base_res)
        got = result_fingerprint(ckpt_res)
        self._require(
            got == want,
            f"interrupted run fingerprint {got} != uninterrupted {want}",
        )

        chain = schedule.restart_chain(base_res.runtime)
        chain_res = engine.run_batch(chain)
        final = chain_res[chain[-1]]
        self._require(not final.na_reason, f"restart NA: {final.na_reason}")
        got = result_fingerprint(final)
        self._require(
            got == want,
            f"depth-{schedule.restart_depth} restart fingerprint {got} != "
            f"uninterrupted {want}",
        )
        finished_images = sum(
            1
            for rec in ckpt_res.checkpoints
            for im in rec.images.values()
            if getattr(im, "finished", False)
        )
        return (
            f"{n_requests} commit(s), {finished_images} finished-rank "
            f"image(s), depth-{schedule.restart_depth} restart fingerprint ok"
        )


def _safe_cut_detail(
    schedule: FaultSchedule, scenario: "str | None" = None
) -> str:
    """Shared body of the safe-cut check: online CC cut vs the offline
    topological-sort fixpoint, optionally under a scenario.

    Runs the schedule-known ``scheduled`` app, checkpoints it at a
    seed-drawn instant, and verifies the per-group SEQ values frozen in
    the images equal :func:`repro.core.graph.compute_safe_cut` applied
    to the request-time reports (paper Section 4.2.2).  Executes fresh
    (never from cache): the comparison needs the full images' SEQ
    tables, which never cross the JSON boundary.  The scenario changes
    *when* the cut lands (fabric and compute skew shift every request
    instant), never *whether* its structure is safe — exactly what the
    scenario-invariance oracle leans on.
    """
    from ..apps.scheduled import ScheduledMix
    from ..core import compute_safe_cut

    rng = np.random.default_rng(np.random.SeedSequence([0xC0DE, schedule.seed]))
    nprocs = int(rng.choice([4, 6]))
    niters = int(rng.integers(8, 13))
    frac = float(rng.uniform(0.15, 1.05))
    app_kwargs = {
        "niters": niters,
        "nprocs": nprocs,
        "schedule_seed": schedule.seed,
    }
    spec = RunSpec.create(
        "scheduled",
        nprocs,
        app_kwargs=app_kwargs,
        protocol="cc",
        seed=2,
        checkpoint_fractions=(frac,),
        storage=_storage(),
        scenario=scenario,
    )
    result = execute(spec)
    Oracle._require(not result.na_reason, f"run NA: {result.na_reason}")
    committed = [r for r in result.checkpoints if r.committed]
    Oracle._require(bool(committed), "request did not commit")

    program = ScheduledMix(**app_kwargs).offline_program()
    checked = 0
    for rec in committed:
        start = tuple(
            program_position_for(program, r, rec.seq_reports.get(r, {}))
            for r in range(nprocs)
        )
        cut = compute_safe_cut(program, start)
        for g, target in cut.targets.items():
            for r in program.members[g]:
                snap = rec.images[r].seq_table["seq"].get(g, 0)
                Oracle._require(
                    snap == target,
                    f"group {g:#x}: rank {r} snapshot seq {snap} != "
                    f"oracle target {target}",
                )
                checked += 1
    return f"{len(committed)} cut(s), {checked} (group, rank) targets match"


def _require_conserved(label: str, res: RunResult) -> None:
    """Per-rank drain conservation (restored + buffered == consumed +
    leftover) — shared by every oracle that sweeps run legs."""
    for rank in range(res.nprocs):
        restored = res.drain_restored[rank]
        buffered = res.drain_buffered[rank]
        consumed = res.drain_consumed[rank]
        leftover = res.drain_leftover[rank]
        Oracle._require(
            restored + buffered == consumed + leftover,
            f"{label}: rank {rank} drain imbalance — restored {restored} "
            f"+ buffered {buffered} != consumed {consumed} + leftover "
            f"{leftover}",
        )


class SafeCutOracle(Oracle):
    """Online CC cut vs the offline topological-sort fixpoint.

    See :func:`_safe_cut_detail` — the check honors the schedule's drawn
    scenario, so the fuzzer stresses cut structure under perturbed
    fabrics and compute skew too.
    """

    name = "safe-cut"
    description = (
        "committed SEQ tables equal the offline topological-sort fixpoint "
        "of the request-time reports"
    )
    cache_aware = False

    def verify(self, schedule: FaultSchedule, engine: ExperimentEngine) -> str:
        return _safe_cut_detail(schedule, scenario=schedule.scenario)


class EngineEquivalenceOracle(Oracle):
    """Serial vs parallel engine execution of one deduplicated batch.

    The same specs — probe, checkpointed run, restart — through
    ``jobs=1`` and ``jobs=2`` engines (both cache-less, so both actually
    simulate) must serialize to byte-identical results.
    """

    name = "engine"
    description = (
        "a probe/checkpoint/restart batch is byte-identical between "
        "serial and parallel engine execution"
    )
    cache_aware = False

    def verify(self, schedule: FaultSchedule, engine: ExperimentEngine) -> str:
        base = schedule.uninterrupted_spec()
        ckpt = schedule.checkpoint_spec()
        restart = RunSpec.create(
            "earlyexit",
            schedule.nprocs,
            app_kwargs=schedule._app_kwargs(),
            protocol=schedule.protocol,
            seed=schedule.seed,
            storage=_storage(),
            restart_of=ckpt,
        )
        specs = [base, ckpt, restart]
        if schedule.crash_fracs:
            # A crash run must be just as deterministic as a graceful
            # one: crashed_ranks, abort records, and drain counters all
            # travel through the serialized result.
            specs.append(schedule.crash_spec())
        serial = ExperimentEngine(jobs=1).run_batch(specs)
        parallel = ExperimentEngine(jobs=2).run_batch(specs)
        for spec in specs:
            a = stable_json_hash(run_result_to_dict(serial[spec]))
            b = stable_json_hash(run_result_to_dict(parallel[spec]))
            self._require(
                a == b,
                f"{spec.label()}: serial result {a} != parallel {b}",
            )
        return f"{len(specs)} specs byte-identical across jobs=1 and jobs=2"


class ImageTierOracle(Oracle):
    """Cold vs warm restart: the image tier must be invisible in results.

    A restart whose parent is re-simulated inline (cold) and the same
    restart fed the parent's committed images from a freshly-populated
    cache tier (warm) must serialize identically — and the warm run
    must actually have used the tier.
    """

    name = "image-tier"
    description = (
        "a tier-fed warm restart is byte-identical to a cold recompute "
        "and simulates zero parents"
    )
    cache_aware = False

    def verify(self, schedule: FaultSchedule, engine: ExperimentEngine) -> str:
        parent = schedule.checkpoint_spec()
        restart = RunSpec.create(
            "earlyexit",
            schedule.nprocs,
            app_kwargs=schedule._app_kwargs(),
            protocol=schedule.protocol,
            seed=schedule.seed,
            storage=_storage(),
            restart_of=parent,
            restart_ckpt=schedule.restart_ckpt,
        )
        cold = execute(restart)
        self._require(not cold.na_reason, f"cold restart NA: {cold.na_reason}")
        with tempfile.TemporaryDirectory(prefix="repro-verify-") as tmp:
            ExperimentEngine(cache=ResultCache(tmp)).run(parent)
            warm_engine = ExperimentEngine(cache=ResultCache(tmp))
            warm = warm_engine.run(restart)
            stats = warm_engine.last_stats
            self._require(
                stats is not None and stats.images_reused == 1,
                "warm restart did not load its parent from the image tier",
            )
            self._require(
                stats.executed == 1,
                f"warm restart simulated {stats.executed} jobs (expected 1: "
                "the restart alone)",
            )
        a = stable_json_hash(run_result_to_dict(cold))
        b = stable_json_hash(run_result_to_dict(warm))
        self._require(a == b, f"cold restart {a} != warm tier-fed restart {b}")
        return "cold == warm, parent served from tier"


class DrainConservationOracle(Oracle):
    """Message conservation through the drain buffer (Section 4.3.3).

    Three independent derivations of "no message is lost or forged
    across a cut": (a) every run — graceful, restarted, or crashed —
    satisfies restored + buffered == consumed + leftover per rank at
    job end; (b) a restart's restored count equals exactly the message
    count frozen in the image it adopted, and everything restored is
    consumed or still buffered (nothing re-drained); (c) a round
    aborted by a crash keeps no partial images — the corpse's debts are
    reclaimed with the round, not leaked into the record.
    """

    name = "drain-conservation"
    description = (
        "messages drained into a checkpoint equal the messages restored "
        "and consumed after resume, and crash-aborted rounds reclaim "
        "(not leak) the corpse's drain debts"
    )
    cache_aware = False

    def _conserved(self, label: str, res: RunResult) -> None:
        _require_conserved(label, res)

    def verify(self, schedule: FaultSchedule, engine: ExperimentEngine) -> str:
        parent = schedule.checkpoint_spec()
        deps: dict = {}
        parent_res = execute(parent, deps)
        self._require(not parent_res.na_reason, f"ckpt run NA: {parent_res.na_reason}")
        self._conserved("ckpt run", parent_res)

        committed = [r for r in parent_res.checkpoints if r.committed]
        self._require(bool(committed), "checkpoint run committed nothing")
        idx = min(schedule.restart_ckpt, len(committed) - 1)
        restart = RunSpec.create(
            "earlyexit",
            schedule.nprocs,
            app_kwargs=schedule._app_kwargs(),
            protocol=schedule.protocol,
            seed=schedule.seed,
            storage=_storage(),
            restart_of=parent,
            restart_ckpt=idx,
        )
        deps[parent] = parent_res
        restart_res = execute(restart, deps)
        self._require(not restart_res.na_reason, f"restart NA: {restart_res.na_reason}")
        self._conserved("restart", restart_res)
        images = committed[idx].images
        total = 0
        for rank in range(schedule.nprocs):
            frozen = len(images[rank].drained)
            restored = restart_res.drain_restored[rank]
            self._require(
                restored == frozen,
                f"rank {rank}: image froze {frozen} drained message(s) but "
                f"the restart restored {restored}",
            )
            self._require(
                restart_res.drain_buffered[rank] == 0,
                f"rank {rank}: restart re-drained "
                f"{restart_res.drain_buffered[rank]} message(s) on a leg "
                "with no checkpoint request",
            )
            total += frozen

        crash_note = ""
        if schedule.crash_fracs:
            crash_res = execute(schedule.crash_spec(), deps)
            self._require(
                not crash_res.na_reason, f"crash run NA: {crash_res.na_reason}"
            )
            self._conserved("crash run", crash_res)
            for rec in crash_res.checkpoints:
                if rec.aborted:
                    self._require(
                        not rec.images,
                        f"crash-aborted record {rec.ckpt_id} leaked "
                        f"{len(rec.images)} partial image(s)",
                    )
            crash_note = (
                f", crash leg conserved ({len(crash_res.crashed_ranks)} corpse(s))"
            )
        return f"{total} drained message(s) conserved through restart{crash_note}"


class CrashFaultOracle(Oracle):
    """Crash faults end to end: a dead rank is not a finished rank.

    Hard-kills a rank (the schedule's drawn crash, or a deterministic
    fallback so every seed exercises the path) and verifies: the corpse
    never finishes and reports no result; surviving requests in flight
    abort with a crash-specific reason and keep no images; no round
    commits after the crash; and a restart from the last committed
    image — which excludes the crash — reproduces the uninterrupted
    run's determinism fingerprint.
    """

    name = "crash-fault"
    description = (
        "a hard-killed rank aborts in-flight rounds (distinct reason, "
        "no leaked images), later requests abort immediately, and "
        "restart from the last pre-crash commit matches the "
        "uninterrupted fingerprint"
    )
    cache_aware = False

    def _check_crash_run(
        self,
        label: str,
        crash_res: RunResult,
        crash_times: "dict[int, float]",
    ) -> "tuple[list, list]":
        """Corpse semantics shared by both legs; returns (committed,
        aborted) records of the crash run."""
        self._require(
            set(crash_res.crashed_ranks) <= set(crash_times),
            f"{label}: unexpected corpse(s) {crash_res.crashed_ranks} vs "
            f"injected {sorted(crash_times)}",
        )
        for rank, t in crash_times.items():
            finish = crash_res.rank_finish_times[rank]
            if rank in crash_res.crashed_ranks:
                self._require(
                    finish is None and crash_res.per_rank[rank] is None,
                    f"{label}: crashed rank {rank} still reported a finish "
                    f"({finish!r}) / result — a corpse is not a finished rank",
                )
            else:
                # A rank whose kill never landed either finished first
                # (raced completion and won) — or the job was torn down
                # by an *earlier* corpse before this rank's instant, in
                # which case it neither finishes nor crashes.
                torn_down_first = any(
                    crash_times[other] < t
                    for other in crash_res.crashed_ranks
                    if other != rank
                )
                self._require(
                    (finish is not None and finish <= t) or torn_down_first,
                    f"{label}: rank {rank} neither crashed nor finished "
                    f"before its crash instant {t:g} (finish={finish!r})",
                )
        committed = [r for r in crash_res.checkpoints if r.committed]
        aborted = [r for r in crash_res.checkpoints if r.aborted]
        if crash_res.crashed_ranks:
            first_crash = min(
                t for r, t in crash_times.items() if r in crash_res.crashed_ranks
            )
            for rec in committed:
                self._require(
                    rec.t_request < first_crash,
                    f"{label}: record {rec.ckpt_id} committed from a request "
                    f"at {rec.t_request:g}, after the crash at {first_crash:g}",
                )
            for rec in aborted:
                self._require(
                    "crashed" in rec.abort_reason,
                    f"{label}: record {rec.ckpt_id} aborted without a crash "
                    f"reason: {rec.abort_reason!r}",
                )
                self._require(
                    not rec.images,
                    f"{label}: crash-aborted record {rec.ckpt_id} leaked images",
                )
        return committed, aborted

    def verify(self, schedule: FaultSchedule, engine: ExperimentEngine) -> str:
        rng = np.random.default_rng(np.random.SeedSequence([0xDEAD, schedule.seed]))
        fallback_rank = int(rng.integers(0, schedule.nprocs))
        early_fracs = schedule.crash_fracs or (
            (fallback_rank, round(float(rng.uniform(0.35, 0.95)), 6)),
        )
        deps: dict = {}
        base = schedule.uninterrupted_spec()
        base_res = execute(base, deps)
        self._require(not base_res.na_reason, f"baseline NA: {base_res.na_reason}")
        deps[base] = base_res  # also the crash specs' probe

        # Leg 1 — the schedule's drawn crash (or an early fallback):
        # typically lands mid-protocol, before any round finishes its
        # storage write, so it exercises the abort/reclaim paths.
        early = schedule.crash_spec(early_fracs)
        early_res = execute(early, deps)
        self._require(not early_res.na_reason, f"crash run NA: {early_res.na_reason}")
        times = {r: f * base_res.runtime for r, f in early_fracs}
        _committed, aborted = self._check_crash_run("early", early_res, times)
        early_note = (
            f"{len(early_res.crashed_ranks)} corpse(s), "
            f"{len(aborted)} crash-abort(s)"
            if early_res.crashed_ranks
            else "crash raced completion and lost"
        )

        # Leg 2 — crash anchored *after* the first round's commit
        # completes (checkpointing stretches the run well past the probe
        # runtime, so drawn fractions of probe runtime land before any
        # commit; this leg is what proves a commit survives a later
        # crash).  The anchor comes from the graceful checkpoint run —
        # deterministic, so the derived spec is too.
        graceful = schedule.checkpoint_spec()
        graceful_res = execute(graceful, deps)
        self._require(
            not graceful_res.na_reason, f"ckpt run NA: {graceful_res.na_reason}"
        )
        commits = [r for r in graceful_res.checkpoints if r.committed]
        self._require(bool(commits), "graceful checkpoint run committed nothing")
        late_frac = round(commits[0].t_resumed * 1.1 / base_res.runtime, 6)
        late = schedule.crash_spec(((fallback_rank, late_frac),))
        late_res = execute(late, deps)
        self._require(not late_res.na_reason, f"late-crash NA: {late_res.na_reason}")
        times = {fallback_rank: late_frac * base_res.runtime}
        committed, _ = self._check_crash_run("late", late_res, times)
        self._require(
            bool(committed),
            "no commit survived a crash anchored after the first round's "
            f"resume ({commits[0].t_resumed:g})",
        )

        # Recovery: restart from the last committed image — which
        # excludes the crash — must reproduce the uninterrupted run.
        deps[late] = late_res
        restart = RunSpec.create(
            "earlyexit",
            schedule.nprocs,
            app_kwargs=schedule._app_kwargs(),
            protocol=schedule.protocol,
            seed=schedule.seed,
            storage=_storage(),
            restart_of=late,
            restart_ckpt=len(committed) - 1,
        )
        restart_res = execute(restart, deps)
        self._require(
            not restart_res.na_reason, f"restart NA: {restart_res.na_reason}"
        )
        want = result_fingerprint(base_res)
        got = result_fingerprint(restart_res)
        self._require(
            got == want,
            f"restart-past-crash fingerprint {got} != uninterrupted {want}",
        )
        return (
            f"early leg: {early_note}; late leg: {len(committed)} pre-crash "
            "commit(s), restart past the crash matches the baseline"
        )


class RecoveryChainOracle(Oracle):
    """Bounded-retry recovery: crash → restart → crash → … → baseline.

    Arms the schedule's drawn crash (or a deterministic fallback) on the
    checkpointed run, then drives :func:`repro.harness.recovery.run_recovery`
    with the schedule's multi-hop plan (``recovery_crash_fracs``; a
    fallback hop is armed when the draw produced none, so every seed
    exercises a crash *on a restart leg*).  Verifies the chain reaches
    clean completion inside the budget, the recovered final fingerprint
    is byte-identical to the uninterrupted run's, no leg leaks images
    out of a crash-aborted round, and per-rank drain conservation holds
    on every hop.
    """

    name = "recovery-chain"
    description = (
        "a crash — even one landing on a restart leg — recovers under "
        "bounded retry to the uninterrupted run's fingerprint, with no "
        "leaked images and drain conservation across every hop"
    )
    cache_aware = False

    def _conserved(self, label: str, res: RunResult) -> None:
        _require_conserved(label, res)

    def verify(self, schedule: FaultSchedule, engine: ExperimentEngine) -> str:
        from .recovery import (
            RecoveryError,
            RecoveryPolicy,
            resolve_policy,
            run_recovery,
        )

        rng = np.random.default_rng(
            np.random.SeedSequence([0x2ECF, schedule.seed])
        )
        hops = schedule.recovery_crash_fracs or (
            (
                (
                    int(rng.integers(0, schedule.nprocs)),
                    round(float(rng.uniform(0.2, 0.9)), 6),
                ),
            ),
        )

        deps: dict = {}
        base = schedule.uninterrupted_spec()
        base_res = execute(base, deps)
        self._require(not base_res.na_reason, f"baseline NA: {base_res.na_reason}")
        want = result_fingerprint(base_res)

        # Anchor the chain's first crash *after* the first round's commit
        # (drawn fractions of probe runtime land before any commit once
        # checkpointing stretches the run — see the crash-fault oracle's
        # late leg).  With an image committed, recovery leg 1 is an
        # image restart carrying the first hop's faults: a crash landing
        # while survivors rebuild the lower half / replay comm creation /
        # drain restored p2p — the scenario this oracle exists for.  The
        # anchor comes from the graceful checkpoint run, deterministic,
        # so the chain specs are too.
        graceful = schedule.checkpoint_spec()
        graceful_res = execute(graceful, deps)
        self._require(
            not graceful_res.na_reason, f"ckpt run NA: {graceful_res.na_reason}"
        )
        commits = [r for r in graceful_res.checkpoints if r.committed]
        self._require(bool(commits), "graceful checkpoint run committed nothing")
        instant = commits[0].t_resumed * 1.05
        # The crash run's timeline is identical to the graceful run's up
        # to the crash, so the graceful finish times tell us who is
        # still alive at the instant — a victim that already exited
        # would lose the race and the chain would never start.  Prefer a
        # drawn crash rank when one qualifies.
        finish = graceful_res.rank_finish_times
        alive = [
            r
            for r in range(schedule.nprocs)
            if finish[r] is None or finish[r] > instant
        ]
        if alive:
            drawn = [r for r, _f in schedule.crash_fracs if r in alive]
            victim = drawn[0] if drawn else alive[int(rng.integers(0, len(alive)))]
            crash_fracs = ((victim, round(instant / base_res.runtime, 6)),)
        else:
            # Every rank exited before the first commit (a terminal
            # snapshot from a request that raced completion past all
            # exits): no post-commit crash exists, so this seed
            # exercises the *degraded* chain — an early crash that
            # commits nothing and recovers from scratch.
            crash_fracs = schedule.crash_fracs or (
                (
                    int(rng.integers(0, schedule.nprocs)),
                    round(float(rng.uniform(0.3, 0.9)), 6),
                ),
            )

        # Every leg runs in-process through a private engine: the chain
        # is the subject under test, so its execution must not depend on
        # how many workers the sweep itself fans out over.
        leg_engine = ExperimentEngine()
        # Budget: enough for every armed hop plus slack, and never less
        # than the resolved default (--max-attempts can only raise it —
        # a user-lowered budget must not fail chains by construction).
        policy = RecoveryPolicy(
            max_attempts=max(
                resolve_policy(None).max_attempts, len(hops) + 2
            )
        )
        outcome = run_recovery(
            schedule.crash_spec(crash_fracs),
            policy,
            leg_faults=hops,
            engine=leg_engine,
        )
        if not outcome.completed:
            raise RecoveryError(
                f"retry budget ({policy.max_attempts}) exhausted: "
                + outcome.describe()
            )
        if alive:
            self._require(
                any(
                    a.spec.restart_of is not None for a in outcome.attempts[1:]
                ),
                "chain never took an image-restart leg despite a post-commit "
                "crash: " + outcome.describe(),
            )

        for i, attempt in enumerate(outcome.attempts):
            label = f"leg {i} ({attempt.restarted_from})"
            res = attempt.result
            self._require(not res.na_reason, f"{label} NA: {res.na_reason}")
            self._conserved(label, res)
            for rec in res.checkpoints:
                if rec.aborted:
                    self._require(
                        not rec.images,
                        f"{label}: crash-aborted record {rec.ckpt_id} leaked "
                        f"{len(rec.images)} image(s)",
                    )
                if rec.aborted and res.crashed_ranks:
                    self._require(
                        "crashed" in rec.abort_reason,
                        f"{label}: abort without a crash-specific reason: "
                        f"{rec.abort_reason!r}",
                    )

        got = result_fingerprint(outcome.final_result)
        self._require(
            got == want,
            f"recovered fingerprint {got} != uninterrupted {want} "
            f"({outcome.describe()})",
        )
        restart_leg_crashes = sum(
            1
            for a in outcome.attempts
            if a.spec.restart_of is not None and a.crashed
        )
        return (
            f"{outcome.describe()}; {restart_leg_crashes} restart-leg "
            f"crash(es), fingerprint matches baseline, chain {outcome.chain_key()}"
        )


class ScenarioInvarianceOracle(Oracle):
    """Every registered scenario preserves the system's invariants.

    Per scenario: the checkpointed run commits, drain conservation
    holds on every rank, safe-cut structure matches the offline
    topological-sort fixpoint, and the serialized result is
    byte-identical across ``threads``/``inline`` execution and
    serial/pool dispatch — a scenario may change *what happens*, never
    *whether it is deterministic*.
    """

    name = "scenario-invariance"
    description = (
        "every registered scenario commits, conserves drains, keeps the "
        "safe cut, and is byte-identical across threads/inline execution "
        "and serial/pool dispatch"
    )
    cache_aware = False

    def verify(self, schedule: FaultSchedule, engine: ExperimentEngine) -> str:
        names = sorted(SCENARIOS)
        specs = {
            name: replace(schedule, scenario=name).checkpoint_spec()
            for name in names
        }
        # Execution backends, serial dispatch: the reference hashes.
        ref: "dict[str, str]" = {}
        for name in names:
            for backend in ("threads", "inline"):
                res = ExperimentEngine(backend=backend).run(specs[name])
                self._require(
                    not res.na_reason, f"{name}/{backend}: NA: {res.na_reason}"
                )
                _require_conserved(f"{name}/{backend}", res)
                self._require(
                    any(r.committed for r in res.checkpoints),
                    f"{name}/{backend}: checkpoint run committed nothing",
                )
                digest = stable_json_hash(run_result_to_dict(res))
                if backend == "threads":
                    ref[name] = digest
                else:
                    self._require(
                        digest == ref[name],
                        f"{name}: inline-backend result {digest} != "
                        f"threads {ref[name]}",
                    )
        # Pool dispatch: the same specs as one batch over two workers.
        batch = [specs[name] for name in names]
        pool = ExperimentEngine(jobs=2).run_batch(batch)
        for name in names:
            digest = stable_json_hash(run_result_to_dict(pool[specs[name]]))
            self._require(
                digest == ref[name],
                f"{name}: pool result {digest} != serial dispatch "
                f"{ref[name]}",
            )
        # Safe-cut structure under every scenario.
        for name in names:
            _safe_cut_detail(schedule, scenario=name)
        return (
            f"{len(names)} scenario(s) committed, conserved, cut-safe, and "
            "byte-identical across threads/inline execution and "
            "serial/pool dispatch"
        )


#: Oracle catalog, ``--oracle`` spelling -> instance.
ORACLES: "dict[str, Oracle]" = {
    oracle.name: oracle
    for oracle in (
        RankCompletionOracle(),
        SafeCutOracle(),
        EngineEquivalenceOracle(),
        ImageTierOracle(),
        DrainConservationOracle(),
        CrashFaultOracle(),
        RecoveryChainOracle(),
        ScenarioInvarianceOracle(),
    )
}


def timed_check(
    name: str, schedule: FaultSchedule
) -> "tuple[OracleReport, float]":
    """One oracle check and its wall duration (the fuzzer's cost-model
    input); the job body :func:`run_oracles` and the fuzzer fan out."""
    t0 = time.perf_counter()
    report = ORACLES[name].check_schedule(schedule)
    return report, time.perf_counter() - t0


def run_oracles(
    names: Iterable[str],
    seeds: Iterable[int],
    *,
    engine: "ExperimentEngine | None" = None,
    progress=None,
    jobs: int = 1,
) -> "list[OracleReport]":
    """Sweep the named oracles over ``seeds``; returns every report.

    ``progress``, if given, is called with each report as it lands.
    Unknown oracle names raise ``KeyError`` with the catalog spelled out.

    ``jobs > 1`` fans the (oracle, seed) grid over a spawn pool
    (:func:`repro.harness.engine.fan_out`).  Reports come back in the
    same (oracle-order, seed-order) sequence as a serial sweep and carry
    the same contents — each check is an independent simulation, so the
    fan-out can only change wall time, never a report (``tests/verify``
    pins the byte-identity).
    """
    seeds = list(seeds)
    tasks: list[tuple[str, int]] = []
    for name in names:
        if name not in ORACLES:
            raise KeyError(
                f"unknown oracle {name!r}; expected one of {sorted(ORACLES)}"
            )
        tasks.extend((name, seed) for seed in seeds)

    reports: list[OracleReport] = []
    # The serial path keeps the caller's (cache-aware) engine in the
    # loop; the pool path draws each schedule here and checks it in a
    # worker.  Collection is in task order either way, so the report
    # sequence (and any serialized artifact) matches a serial sweep's.
    if jobs <= 1 or len(tasks) <= 1:
        checked = (ORACLES[name].check(seed, engine) for name, seed in tasks)
    else:
        drawn = [(name, FaultSchedule.draw(seed)) for name, seed in tasks]
        pooled = fan_out(timed_check, drawn, jobs, ordered=True)
        checked = (report for _, (report, _dur) in pooled)
    for report in checked:
        reports.append(report)
        if progress is not None:
            progress(report)
    return reports
