"""The benchmark's workloads, one timed pass, and its correctness check.

A workload turns the benchmark seed into a list of :class:`RunSpec`
(every spec carries the seed as ``RunSpec.seed``; seed 0 reproduces the
cells of ``repro-mpi all``) plus the figure plans folded after the batch.
A pass runs the specs cold — a fresh :class:`ResultCache` directory and
``ExperimentEngine(jobs=1)`` — folds the figures and checks every
result.  Importing this module imports ``repro``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import time
import traceback
from pathlib import Path
from typing import Callable, Mapping

from repro.harness import (
    PLANNERS,
    ExperimentEngine,
    FigurePlan,
    ResultCache,
    RunResult,
    RunSpec,
    result_fingerprint,
    run_result_to_dict,
    spec_hash,
)
from repro.harness.experiments import plan_fig9

REFERENCE_DIR = Path(__file__).resolve().parent / "references"


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int], tuple[list[RunSpec], list[FigurePlan]]]


def _chains(protocol: str, nodes: tuple[int, ...]):
    def build(seed: int):
        plan = plan_fig9(nodes=nodes, seed=seed)
        return [s for s in plan.specs if s.protocol == protocol], []
    return build


#: The scaled ``repro-mpi all`` recipe: --procs 4 --nprocs 4 --repeats 1.
_FIGURE_KWARGS = {
    "table1": {"nprocs": 4},
    "fig5a": {"procs": (4,), "repeats": 1},
    "fig5b": {"procs": (4,)},
    "fig6": {"procs": (4,)},
    "fig7": {"nprocs": 4, "repeats": 1},
    "fig8": {"procs": (4,), "repeats": 1},
}


def _figures(seed: int):
    plans = [PLANNERS[name](seed=seed, **kwargs)
             for name, kwargs in _FIGURE_KWARGS.items()]
    return [s for p in plans for s in p.specs], plans


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ckpt-2pc",
            "Fig. 9 miniVASP probe/checkpoint/restart chains under 2PC at 16 "
            "and 32 ranks: the trivial-barrier poll loop loads des and core",
            _chains("2pc", (4, 8)),
        ),
        Workload(
            "ckpt-cc",
            "the same chains under CC at 16, 32 and 64 ranks: no poll loop, so "
            "apps compute, simmpi collectives and mana images dominate",
            _chains("cc", (4, 8, 16)),
        ),
        Workload(
            "figures",
            "Table 1 and Figs. 5a-8 at 4 ranks as one batch: many short jobs "
            "load harness, simulator set-up, simmpi and netmodel",
            _figures,
        ),
    )
}


# --------------------------------------------------------------------- #
# Correctness
# --------------------------------------------------------------------- #

def expects_na(spec: RunSpec) -> bool:
    """The paper's NA cells: 2PC refuses non-blocking collectives, which
    the non-blocking OSU runs and the Poisson solver issue."""
    if spec.protocol != "2pc":
        return False
    kwargs = dict(spec.app_kwargs)
    return (spec.app in ("poisson", "osu_overlap")
            or (spec.app == "osu" and kwargs.get("blocking") is False))


def job_record(result: RunResult) -> dict:
    """What the reference pins for one job."""
    document = json.dumps(run_result_to_dict(result), sort_keys=True)
    return {
        "fingerprint": result_fingerprint(result),
        "sim_events": result.sim_events,
        "runtime": result.runtime,
        "result_sha256": hashlib.sha256(document.encode()).hexdigest(),
    }


def figure_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def invariant_failures(spec: RunSpec, result: RunResult,
                       results: Mapping[RunSpec, RunResult]) -> list[str]:
    """Seed-independent checks on one submitted job."""
    problems = []
    if bool(result.na_reason) != expects_na(spec):
        problems.append(f"NA is {bool(result.na_reason)}, expected "
                        f"{expects_na(spec)} ({result.na_reason!r})")
    if result.crashed_ranks:
        problems.append(f"ranks crashed: {result.crashed_ranks}")
    if not result.na_reason:
        for rank, counts in enumerate(zip(
                result.drain_restored, result.drain_buffered,
                result.drain_consumed, result.drain_leftover)):
            restored, buffered, consumed, leftover = counts
            if restored + buffered != consumed + leftover:
                problems.append(f"drain conservation broken on rank {rank}: "
                                f"{counts}")
    if spec.checkpoint_fractions and not any(
            c.committed for c in result.checkpoints):
        problems.append("no committed checkpoint in the chain")
    parent = spec.restart_of
    if parent is not None:
        if parent not in results:
            problems.append("checkpointed run missing from the batch")
        elif result_fingerprint(result) != result_fingerprint(results[parent]):
            problems.append("restart fingerprint differs from the "
                            "checkpointed run's")
    return problems


def reference_failures(record: dict, expected: dict | None) -> list[str]:
    if expected is None:
        return ["job missing from the reference"]
    return [f"{key} {record[key]!r} != reference {expected[key]!r}"
            for key in record if record[key] != expected.get(key)]


def load_reference(workload: str, seed: int) -> dict | None:
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text())["seeds"].get(str(seed))


def save_reference(workload: str, seed: int, entry: dict) -> Path:
    path = REFERENCE_DIR / f"{workload}.json"
    data = json.loads(path.read_text()) if path.is_file() else {"seeds": {}}
    data["seeds"][str(seed)] = entry
    data["seeds"] = dict(sorted(data["seeds"].items(), key=lambda kv: int(kv[0])))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return path


def check(specs: list[RunSpec], results: Mapping[RunSpec, RunResult],
          figures: dict[str, str], reference: dict | None) -> dict[str, list[str]]:
    """Failures keyed by job label (or ``figure:<name>``); empty = correct.

    Every seed gets the invariants; seeds with a stored reference are
    also compared job by job and figure by figure.
    """
    failures: dict[str, list[str]] = {}
    for spec in dict.fromkeys(specs):
        key = spec_hash(spec)
        problems = invariant_failures(spec, results[spec], results)
        if reference is not None:
            problems += reference_failures(job_record(results[spec]),
                                           reference["jobs"].get(key))
        if problems:
            failures[f"{spec.label()} [{key[:12]}]"] = problems
    for name, text in figures.items():
        if reference is not None and \
                figure_digest(text) != reference["figures"].get(name):
            failures[f"figure:{name}"] = ["rendered figure differs from "
                                          "the reference"]
    return failures


# --------------------------------------------------------------------- #
# One pass
# --------------------------------------------------------------------- #

@dataclasses.dataclass
class PassResult:
    wall_s: float
    attempted: int
    failed: int
    failures: dict[str, list[str]]
    results: dict
    figures: dict[str, str]
    deduped: int = 0
    cache_bytes: int = 0


def _tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def run_pass(specs: list[RunSpec], plans: list[FigurePlan], cache_dir: Path,
             reference: dict | None) -> PassResult:
    """Run the batch cold, fold, check; the wall time covers all three."""
    engine = ExperimentEngine(jobs=1, cache=ResultCache(cache_dir))
    attempted = len(set(specs)) + len(plans)
    t0 = time.perf_counter()
    try:
        results = engine.run_batch(specs)
        figures = {p.name: p.fold(results).render() for p in plans}
        failures = check(specs, results, figures, reference)
    except Exception:  # noqa: BLE001 - a raising job fails the pass
        wall = time.perf_counter() - t0
        # Which job raised is unknown, so every job of the pass failed.
        return PassResult(wall, attempted, attempted,
                          {"pass": [traceback.format_exc()]}, {}, {})
    finally:
        engine.close()
    wall = time.perf_counter() - t0
    outcome = PassResult(wall, attempted, len(failures), failures, results,
                         figures, engine.last_stats.deduped,
                         _tree_bytes(cache_dir))
    shutil.rmtree(cache_dir, ignore_errors=True)
    return outcome
