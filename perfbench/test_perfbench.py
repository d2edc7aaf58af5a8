"""Self-checks of the benchmark: the tracer changes no output, its counts
repeat exactly, and wrong outputs are reported as failures.

Run with: python3 -m pytest perfbench
"""

import dataclasses
import json

import pytest

import run as bench
import tracer as tracing
import workloads

mc = workloads.load_package()

SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNT_METRICS = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]


def small_random_sweep(jobs: int):
    cfg = workloads.sweep_config(mc, "random-oracle", seed=5)
    return dataclasses.replace(cfg, sample_count=60, jobs=jobs)


def test_traced_sweep_reports_equal_untraced_and_counts_repeat():
    first, second = bench.Run(), bench.Run()
    metrics_a, _ = bench.traced_sweep(mc, small_random_sweep(jobs=2), first)
    metrics_b, _ = bench.traced_sweep(mc, small_random_sweep(jobs=2), second)
    # Each run compares its traced and parallel reports with the untraced one.
    assert (first.failed, second.failed) == (0, 0), first.errors + second.errors
    assert first.attempted == 3
    assert {k: metrics_a[k] for k in COUNT_METRICS} == {k: metrics_b[k] for k in COUNT_METRICS}
    assert metrics_a["matching.blossom_runs"] > 0
    assert metrics_a["matching.enumerations"] == 60
    assert metrics_a["sweep.chunks"] == 8


def test_traced_cli_bytes_equal_untraced_and_counts_repeat():
    graphs = workloads.cli_graphs(mc, seed=7, count=9)
    first, second = bench.Run(), bench.Run()
    metrics_a, _ = bench.traced_cli(mc, graphs, first)
    metrics_b, _ = bench.traced_cli(mc, graphs, second)
    # Each run compares every traced reply's bytes with the untraced reply.
    assert (first.failed, second.failed) == (0, 0), first.errors + second.errors
    assert {k: metrics_a[k] for k in COUNT_METRICS} == {k: metrics_b[k] for k in COUNT_METRICS}
    for name in ("graph.builds", "matching.blossom_runs", "cover.allowed_tests"):
        assert metrics_a[name] > 0, name


def test_tracer_restores_every_patched_name():
    originals = {
        (module, attr): getattr(getattr(mc, module), attr)
        for module, attr, _ in tracing.KERNEL_TARGETS + tracing.ORCHESTRATION_TARGETS
    }
    init, adjacency = mc.Graph.__init__, mc.Graph.__dict__["adjacency"]
    tracer = tracing.Tracer()
    tracer.install_kernel(mc)
    tracer.install_orchestration(mc)
    assert mc.cover._is_allowed is not originals[("cover", "_is_allowed")]
    assert mc.sweep.enumerate_maximum_matchings is not originals[
        ("matching", "enumerate_maximum_matchings")
    ]
    tracer.uninstall()
    assert tracer.missing == []
    for (module, attr), original in originals.items():
        assert getattr(getattr(mc, module), attr) is original
    assert mc.Graph.__init__ is init
    assert mc.Graph.__dict__["adjacency"] is adjacency


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    inner = tracer.wrap("matching.inner", lambda: sum(range(20000)))
    outer = tracer.wrap("cover.outer", lambda: [inner() for _ in range(3)])
    outer()
    spans = tracer.summary()
    calls, inclusive, own = spans["cover.outer"]
    assert calls == 1 and spans["matching.inner"][0] == 3
    assert own == pytest.approx(inclusive - spans["matching.inner"][1])
    assert list(tracer.span_parent) == [-1, 0, 0, 0]


def test_corrupted_cli_reply_is_a_failure(monkeypatch):
    graphs = workloads.cli_graphs(mc, seed=3, count=1)
    clean = bench.Run()
    bench.cli_session(mc, graphs, 0, clean)
    assert clean.failed == 0 and clean.attempted >= 3

    def drop_first_allowed(payload):
        if payload.get("allowed"):
            payload = dict(payload, allowed=payload["allowed"][1:])
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"

    monkeypatch.setattr(mc.cli, "canonical_json", drop_first_allowed)
    corrupted = bench.Run()
    bench.cli_session(mc, graphs, 0, corrupted)
    assert corrupted.failed == 1
    assert "analyze" in corrupted.errors[0]


def test_exception_out_of_cli_main_is_a_failure(monkeypatch):
    def guard(g):
        raise mc.GuardExceededError("exhaustive search limited")

    monkeypatch.setattr(mc.cover, "core_subgraph", guard)
    run = bench.Run()
    bench.cli_session(mc, workloads.cli_graphs(mc, seed=3, count=1), 0, run)
    # The chain stops after core fails: analyze passes, core is counted failed.
    assert (run.attempted, run.failed) == (2, 1)
    assert "GuardExceededError" in run.errors[0]


def test_wrong_sweep_report_is_a_failure(monkeypatch):
    cfg = workloads.sweep_config(mc, "exhaustive-theorem", seed=0)
    good = mc.SweepReport(
        population=workloads.POPULATION_N6,
        in_class={"theorem": 349},
        passes={"theorem": 349},
        failures={"theorem": 0},
        first_counterexample=None,
        wall_time=0.0,
    )
    assert workloads.check_sweep(cfg, good) == []
    for wrong in (
        dataclasses.replace(good, in_class={"theorem": 348}, passes={"theorem": 348}),
        dataclasses.replace(good, population=33867),
        dataclasses.replace(good, passes={"theorem": 348}, failures={"theorem": 1},
                            first_counterexample=("theorem", "Bw")),
    ):
        monkeypatch.setattr(mc.sweep, "run_sweep", lambda cfg, report=wrong: report)
        run = bench.Run()
        bench.sweep_session(mc, cfg, 0, run)
        assert (run.attempted, run.failed) == (1, 1)
