"""Tests for the benchmark's own code: tracer, attribution, checks, names."""

from __future__ import annotations

import json
import re
import sys
import threading

from perfbench import run
from perfbench.tracing import PER_LAYER_METRICS, Tracer, instrument, layer_metrics


class FakeClocks:
    """A shared wall clock plus one CPU clock per thread, advanced by hand."""

    def __init__(self):
        self.now = 0.0
        self.cpu: dict[int, float] = {}

    def wall(self) -> float:
        return self.now

    def thread_cpu(self) -> float:
        return self.cpu.get(threading.get_ident(), 0.0)

    def advance(self, wall: float, busy: float) -> None:
        self.now += wall
        ident = threading.get_ident()
        self.cpu[ident] = self.cpu.get(ident, 0.0) + busy


def spans(tracer: Tracer) -> dict[str, dict]:
    out = {}
    for row in range(len(tracer)):
        out[tracer.names[tracer.name[row]][1]] = {
            "id": tracer.span_id[row],
            "parent": tracer.parent[row],
            "thread": tracer.thread[row],
            "wall": tracer.end[row] - tracer.start[row],
            "busy": tracer.busy[row],
            "self_wall": tracer.self_wall[row],
            "self_busy": tracer.self_busy[row],
        }
    return out


def test_self_and_busy_time_for_spans_nested_across_two_threads():
    clocks = FakeClocks()
    tracer = Tracer(clock=clocks.wall, cpu_clock=clocks.thread_cpu)
    outer = tracer.name_id("harness", "outer")
    inner = tracer.name_id("des", "inner")
    root = tracer.name_id("apps", "root")
    leaf = tracer.name_id("simmpi", "leaf")

    a = tracer.open(outer)
    clocks.advance(1.0, 1.0)
    b = tracer.open(inner)
    clocks.advance(2.0, 0.5)  # parked for 1.5 s of the 2 s
    tracer.close(b)

    def carrier():
        tracer.set_cause(a.id)
        c = tracer.open(root)
        clocks.advance(1.0, 1.0)
        d = tracer.open(leaf)
        clocks.advance(3.0, 2.0)
        tracer.close(d)
        tracer.close(c)

    thread = threading.Thread(target=carrier)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    clocks.advance(1.0, 1.0)
    tracer.close(a)

    s = spans(tracer)
    # The carrier thread's 4 s run inside outer's interval on another
    # thread: they are outer's wait, never its children's time.
    assert s["outer"]["wall"] == 8.0
    assert s["outer"]["busy"] == 2.5
    assert s["outer"]["self_wall"] == 6.0
    assert s["outer"]["self_busy"] == 2.0
    assert s["inner"]["wall"] - s["inner"]["busy"] == 1.5
    assert s["inner"]["parent"] == s["outer"]["id"]
    # The carrier's root names the span that caused it.
    assert s["root"]["parent"] == s["outer"]["id"]
    assert s["leaf"]["parent"] == s["root"]["id"]
    assert s["root"]["thread"] == s["leaf"]["thread"] != s["outer"]["thread"]
    assert (s["root"]["wall"], s["root"]["busy"]) == (4.0, 3.0)
    assert (s["root"]["self_wall"], s["root"]["self_busy"]) == (1.0, 1.0)


def test_concurrent_threads_lose_no_spans_and_keep_their_own_stacks():
    tracer = Tracer()
    inner = tracer.wrap(lambda: None, "des", "inner")
    outer = tracer.wrap(lambda: [inner() for _ in range(3)], "apps", "outer")
    workers, rounds = 8, 300
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=lambda: [outer() for _ in range(rounds)])
            for _ in range(workers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(previous)
    assert len(tracer) == workers * rounds * 4
    assert len(set(tracer.span_id)) == len(tracer)
    parent_thread = {tracer.span_id[r]: tracer.thread[r]
                     for r in range(len(tracer))}
    for row in range(len(tracer)):
        if tracer.names[tracer.name[row]][1] == "inner":
            # Every inner span nests under an outer span of its own thread.
            assert parent_thread[tracer.parent[row]] == tracer.thread[row]
        else:
            assert tracer.parent[row] == -1


def test_poll_sleeps_count_only_sleeps_directly_under_a_2pc_hook():
    tracer = Tracer()
    sleep = tracer.wrap(lambda: None, "des", "Simulator.sleep")
    ibarrier = tracer.wrap(lambda: None, "core", "Session.protocol_ibarrier")
    barrier = tracer.wrap(sleep, "simmpi", "Communicator.barrier")

    def body():
        ibarrier()
        for _ in range(3):
            sleep()
        barrier()  # a sleep inside simmpi is not a poll

    two_pc = tracer.wrap(body, "core",
                         "TwoPhaseCommitProtocol.on_blocking_collective")
    cc = tracer.wrap(sleep, "core",
                     "CollectiveClockProtocol.on_blocking_collective")
    two_pc()
    cc()
    sleep()
    m = layer_metrics(tracer, [], deduped=0, cache_bytes=0, host_sys_s=0.0)
    assert m["core.poll_sleeps"] == 3
    assert m["core.barriers"] == 1
    assert m["core.polls_per_barrier"] == 3.0
    assert m["core.hooks"] == 2
    assert m["des.suspends"] == 6
    assert m["simmpi.coll_calls"] == 1


def test_instrumented_runs_show_polls_under_2pc_only_and_undo_cleanly():
    from repro.des import Simulator
    from repro.harness import ExperimentEngine, RunSpec

    original_sleep = Simulator.__dict__["sleep"]
    polls = {}
    for protocol in ("2pc", "cc"):
        tracer = Tracer()
        jobs = []
        undo = instrument(tracer, jobs.append)
        try:
            spec = RunSpec.create("minivasp", 4, app_kwargs={"niters": 2},
                                  protocol=protocol, ppn=2)
            result = ExperimentEngine(jobs=1).run(spec)
        finally:
            undo()
        assert result.ok and jobs == [result]
        m = layer_metrics(tracer, jobs, deduped=0, cache_bytes=0,
                          host_sys_s=0.0)
        assert m["des.sim_events"] == result.sim_events
        assert m["harness.jobs_executed"] == 1
        assert m["core.hooks"] > 0
        polls[protocol] = m["core.poll_sleeps"]
    assert polls["2pc"] > 0
    assert polls["cc"] == 0
    assert Simulator.__dict__["sleep"] is original_sleep


def test_corrupted_fingerprint_counts_as_a_failure(tmp_path):
    from repro.harness import spec_hash
    from repro.harness.experiments import plan_fig9

    from perfbench.workloads import job_record, run_pass

    specs = [s for s in plan_fig9(nodes=(1,), niters=4).specs
             if s.protocol == "cc"]
    clean = run_pass(specs, [], tmp_path / "a", None)
    assert clean.failed == 0 and clean.attempted == 2
    reference = {
        "jobs": {spec_hash(s): job_record(clean.results[s]) for s in specs},
        "figures": {},
    }
    assert run_pass(specs, [], tmp_path / "b", reference).failed == 0

    victim = spec_hash(specs[0])
    reference["jobs"][victim]["fingerprint"] = "0" * 16
    corrupted = run_pass(specs, [], tmp_path / "c", reference)
    assert corrupted.failed == 1 and corrupted.attempted == 2
    [(label, problems)] = corrupted.failures.items()
    assert victim[:12] in label
    assert any(p.startswith("fingerprint") for p in problems)


def test_metric_names_follow_the_name_rule_and_match_benchmark_json():
    rule = re.compile(r"[A-Za-z0-9_.-]+")
    names = list(run.END_TO_END_UNITS) + list(PER_LAYER_METRICS)
    assert all(rule.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    config = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in config["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["name"] for m in config["per_layer"]] == list(PER_LAYER_METRICS)
    for metric in config["end_to_end"]:
        assert metric["unit"] == run.END_TO_END_UNITS[metric["name"]]
    for metric in config["per_layer"]:
        assert metric["unit"] == PER_LAYER_METRICS[metric["name"]]
    assert not rule.fullmatch("bad name") and not rule.fullmatch("")
