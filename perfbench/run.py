"""End-to-end benchmark of the paper's workloads (see README.md).

Run from the repository root::

    python3 perfbench/run.py --workload ckpt-2pc --seed 0 --seconds 30 --trace 0

``--trace 0`` times cold passes of the workload through the public
``repro.harness`` API and reports the end-to-end metrics; ``--trace 1``
runs one untraced and one traced pass and reports the per-layer metrics.
The last line of standard output is the result as one JSON object; a
human-readable summary goes to standard error.  The exit code is 0 only
when every job and figure passed the correctness check.

``--record-reference`` runs one pass and stores its per-job outputs and
rendered figures as the reference for ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space (result caches, trace output) inside the checkout.
RUN_DIR = ROOT / ".perfbench"
SETUP_SAMPLES = 7
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def pin_cpu() -> tuple[int, int]:
    """Pin this process (and its future threads) to one allowed CPU."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    return cpus[-1], len(cpus)


def import_repro():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    sys.path[:0] = [str(SRC), str(ROOT)]
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import repro from {SRC}: {exc}")
    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"perfbench: repro imported from {origin}, "
                         f"not from {SRC}")


def git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", f"--git-dir={ROOT / '.git'}", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(cpu: int, nproc: int, seed: int) -> dict:
    import numpy

    from repro.des import resolve_backend

    return {
        "backend": resolve_backend(None),
        "pinned_cpu": cpu,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "seed": seed,
    }


# --------------------------------------------------------------------- #

def setup_probe(workload: str, seed: int) -> None:
    """Child body of a set-up sample: build everything up to the first
    submitted job, then report the (system-wide) monotonic clock."""
    from repro.harness import ExperimentEngine, ResultCache

    from perfbench.workloads import WORKLOADS

    WORKLOADS[workload].build(seed)
    ExperimentEngine(jobs=1, cache=ResultCache(RUN_DIR / "probe-cache"))
    print(repr(time.monotonic()))


def measure_setup(workload: str, seed: int) -> list[float]:
    """Interpreter start to first job submitted, in fresh interpreters."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", workload,
             "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return samples


def timed_run(workload: str, seed: int, seconds: float, cache_root: Path):
    from perfbench.workloads import WORKLOADS, load_reference, run_pass

    specs, plans = WORKLOADS[workload].build(seed)
    reference = load_reference(workload, seed)
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        outcome = run_pass(specs, plans, cache_root / f"pass{len(passes)}",
                           reference)
        outcome.results.clear()  # keep memory flat across passes
        passes.append(outcome)
        if len(passes) == 1:
            # One cold pass, as `repro-mpi all` runs it; later passes
            # would add allocator growth that depends on the pass count.
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
    # Sampled after the passes, on a CPU that is already busy: a short
    # sample taken from idle also measures the host's clock ramp-up.
    setup = measure_setup(workload, seed)
    metrics = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }
    detail = {"passes": [p.wall_s for p in passes], "setup": setup}
    return passes, metrics, detail


def traced_run(workload: str, seed: int, cache_root: Path):
    import dataclasses

    from perfbench.tracing import Tracer, instrument, layer_metrics
    from perfbench.workloads import WORKLOADS, load_reference, run_pass

    specs, plans = WORKLOADS[workload].build(seed)
    reference = load_reference(workload, seed)
    sys0 = resource.getrusage(resource.RUSAGE_SELF).ru_stime
    plain = run_pass(specs, plans, cache_root / "plain", reference)
    host_sys_s = resource.getrusage(resource.RUSAGE_SELF).ru_stime - sys0

    tracer = Tracer()
    jobs: list = []
    undo = instrument(tracer, jobs.append)
    try:
        traced_plans = [
            dataclasses.replace(
                p, fold=tracer.wrap(p.fold, "harness", "FigurePlan.fold"))
            for p in plans
        ]
        traced = run_pass(specs, traced_plans, cache_root / "traced", reference)
    finally:
        undo()
    metrics = layer_metrics(tracer, jobs, deduped=traced.deduped,
                            cache_bytes=traced.cache_bytes,
                            host_sys_s=host_sys_s)
    metrics["trace.untraced_wall_s"] = plain.wall_s
    metrics["trace.traced_wall_s"] = traced.wall_s
    metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
    tracer.write(RUN_DIR / f"trace-{workload}.npz")
    return [plain, traced], metrics, {}


def record_reference(workload: str, seed: int, cache_root: Path) -> int:
    from repro.harness import spec_hash

    from perfbench.workloads import (WORKLOADS, figure_digest, job_record,
                                     run_pass, save_reference)

    specs, plans = WORKLOADS[workload].build(seed)
    outcome = run_pass(specs, plans, cache_root / "reference", None)
    if outcome.failed:
        print(json.dumps(outcome.failures, indent=1), file=sys.stderr)
        return 1
    entry = {
        "jobs": {spec_hash(s): job_record(outcome.results[s])
                 for s in dict.fromkeys(specs)},
        "figures": {n: figure_digest(t) for n, t in outcome.figures.items()},
    }
    print(f"perfbench: wrote {save_reference(workload, seed, entry)}",
          file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="ckpt-2pc, ckpt-cc or figures")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    cpu, nproc = pin_cpu()
    import_repro()
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of "
                     + ", ".join(WORKLOADS))
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    cache_root = RUN_DIR / f"cache-{os.getpid()}"
    try:
        if args.record_reference:
            return record_reference(args.workload, args.seed, cache_root)
        if args.trace:
            passes, metrics, detail = traced_run(args.workload, args.seed,
                                                 cache_root)
        else:
            passes, metrics, detail = timed_run(args.workload, args.seed,
                                                args.seconds, cache_root)
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)

    from perfbench.tracing import PER_LAYER_METRICS

    units = PER_LAYER_METRICS if args.trace else END_TO_END_UNITS
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    env = environment(cpu, nproc, args.seed)
    summary = [f"perfbench {args.workload} seed={args.seed} "
               f"trace={args.trace}: {json.dumps(env)}"]
    for p in passes:
        for label, problems in p.failures.items():
            summary.append(f"  FAILED {label}: {'; '.join(problems)}")
    for name in units:
        summary.append(f"  {name:<26} {metrics[name]:>14.6g} {units[name]}")
    summary.append(f"  {'failed_frac':<26} {failed / attempted:>14.6g} ratio "
                   f"({failed} of {attempted} jobs and figures)")
    print("\n".join(summary), file=sys.stderr)
    print(json.dumps({"env": env, **detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
