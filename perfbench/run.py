"""Run one matchcover benchmark workload and print its metrics.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the run measures the end-to-end metrics with tracing off
for about S seconds; with ``--trace 1`` it runs a fixed amount of the
workload once untraced and once traced, and reports the per-layer metrics.
Every output is checked outside the timed region.  The metric names and
units come from ``BENCHMARK.json``; the last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as tracing
import workloads
from workloads import ROOT

HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench-out"

# Fresh processes timed for setup_s; the run reports their median.
SETUP_PROBES = 5
# Graphs whose request chain the traced cli-session run issues (10 per n).
TRACE_GRAPHS = 90
# Failures printed in full; the rest are only counted.
SHOWN_ERRORS = 5


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "start_method": multiprocessing.get_start_method(),
    }


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus that of its largest child."""
    kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kib / 1024


def setup_seconds(workload: str, seed: int, seconds: int) -> float:
    times = []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(seconds)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(probe.stdout.split()[-1]))
    return statistics.median(times)


class Run:
    """Operations attempted and failed, and the errors behind the failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.notes: list[str] = []

    def record(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors)


# ---------------------------------------------------------------------------
# End-to-end runs (tracing off)
# ---------------------------------------------------------------------------


def sweep_session(mc, cfg, seconds: int, run: Run) -> dict:
    start = time.perf_counter()
    outcomes = []
    while not outcomes or time.perf_counter() - start < seconds:
        outcomes.append(workloads.run_sweep_op(mc, cfg))
    wall = time.perf_counter() - start
    rss = peak_rss_mb()
    reference = None
    for outcome in outcomes:
        run.record(_sweep_errors(cfg, outcome, reference))
        if outcome.error is None and reference is None:
            reference = workloads.sweep_payload(outcome.value)
    latencies = [o.latency for o in outcomes]
    run.notes.append(f"{len(latencies)} sweeps")
    return {
        "sweep_s": statistics.median(latencies),
        "request_p50_ms": statistics.median(latencies) * 1e3,
        "request_p99_ms": percentile(latencies, 99) * 1e3,
        "requests_per_s": len(latencies) / wall,
        "peak_rss_mb": rss,
    }


def _sweep_errors(cfg, outcome, reference) -> list[str]:
    if outcome.error is not None:
        return [f"run_sweep raised {outcome.error}"]
    errors = workloads.check_sweep(cfg, outcome.value)
    if reference is not None and workloads.sweep_payload(outcome.value) != reference:
        errors.append("report differs from the first sweep of the run")
    return errors


def cli_session(mc, graphs: list[str], seconds: int, run: Run) -> dict:
    start = time.perf_counter()
    requests, chains = [], []
    while not chains or time.perf_counter() - start < seconds:
        began = time.perf_counter()
        requests.extend(workloads.cli_chain(mc, graphs[len(chains) % len(graphs)]))
        chains.append(time.perf_counter() - began)
    wall = time.perf_counter() - start
    rss = peak_rss_mb()
    checker = workloads.CliChecker(mc)
    for request in requests:
        run.record(checker.check(request))
    latencies = [r.outcome.latency for r in requests]
    run.notes.append(f"{len(latencies)} requests over {len(chains)} graphs")
    return {
        "sweep_s": statistics.median(chains),
        "request_p50_ms": statistics.median(latencies) * 1e3,
        "request_p99_ms": percentile(latencies, 99) * 1e3,
        "requests_per_s": len(latencies) / wall,
        "peak_rss_mb": rss,
    }


# ---------------------------------------------------------------------------
# Traced runs (per-layer metrics)
# ---------------------------------------------------------------------------


def traced(mc, tracer, install, op):
    install(mc)
    try:
        return op()
    finally:
        tracer.uninstall()


def traced_sweep(mc, cfg, run: Run) -> tuple[dict, list]:
    # The kernel layers are traced on a serial pass over the same population;
    # a parallel workload's orchestration is traced on its own jobs > 1 pass.
    serial = dataclasses.replace(cfg, jobs=1)
    untraced = workloads.run_sweep_op(mc, serial)
    kernel = tracing.Tracer()

    def install_all(mc):
        kernel.install_kernel(mc)
        kernel.install_orchestration(mc)

    outcomes = [untraced, traced(mc, kernel, install_all, lambda: workloads.run_sweep_op(mc, serial))]
    orchestration, sweep_wall = kernel, untraced.latency
    if cfg.jobs > 1:
        orchestration = tracing.Tracer()
        parallel = traced(mc, orchestration, orchestration.install_orchestration,
                          lambda: workloads.run_sweep_op(mc, cfg))
        outcomes.append(parallel)
        sweep_wall = parallel.latency
    reference = None
    for outcome in outcomes:
        run.record(_sweep_errors(cfg, outcome, reference))
        if outcome.error is None and reference is None:
            reference = workloads.sweep_payload(outcome.value)
    population = reference["population"] if reference else 0
    metrics = layer_metrics(
        kernel, orchestration,
        population=population,
        jobs=cfg.jobs,
        graphs_per_s=population / sweep_wall,
        untraced_s=untraced.latency,
        traced_s=outcomes[1].latency,
        command_latencies={},
    )
    return metrics, [kernel] if orchestration is kernel else [kernel, orchestration]


def traced_cli(mc, graphs: list[str], run: Run) -> tuple[dict, list]:
    graphs = graphs[:TRACE_GRAPHS]

    def session():
        start = time.perf_counter()
        requests = [r for g6 in graphs for r in workloads.cli_chain(mc, g6)]
        return requests, time.perf_counter() - start

    session()  # warm-up: the first pass in a process runs slower
    untraced, untraced_s = session()
    kernel = tracing.Tracer()
    traced_requests, traced_s = traced(mc, kernel, kernel.install_kernel, session)
    checker = workloads.CliChecker(mc)
    for request in untraced:
        run.record(checker.check(request))
    replies = [(r.command, r.graph6, r.exit_code, r.stdout) for r in untraced]
    traced_replies = [(r.command, r.graph6, r.exit_code, r.stdout) for r in traced_requests]
    for i, reply in enumerate(traced_replies):
        same = i < len(replies) and reply == replies[i]
        run.record([] if same else [f"traced reply {i} differs from the untraced run"])
    if len(traced_replies) != len(replies):
        run.record(["traced and untraced runs issued different requests"])
    by_command = {c: [] for c in workloads.CLI_COMMANDS}
    for request in untraced:
        by_command[request.command].append(request.outcome.latency)
    metrics = layer_metrics(
        kernel, kernel,
        population=len(traced_requests),
        jobs=0,
        graphs_per_s=0.0,
        untraced_s=untraced_s,
        traced_s=traced_s,
        command_latencies=by_command,
    )
    return metrics, [kernel]


def layer_metrics(kernel, orchestration, *, population, jobs, graphs_per_s,
                  untraced_s, traced_s, command_latencies) -> dict:
    spans = kernel.summary()

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def inclusive(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    def layer_self(layer):
        return sum(s[2] for name, s in spans.items() if name.startswith(layer + "."))

    blossom_runs = calls("matching.blossom")
    metrics = {
        "graph.builds": calls("graph.build"),
        "graph.build_s": own("graph.build"),
        "graph.builds_per_graph": calls("graph.build") / population if population else 0.0,
        "graph.adjacency_s": own("graph.adjacency"),
        "graph.graph6_decode_s": own("graph.graph6_decode"),
        "graph.graph6_encode_s": own("graph.graph6_encode"),
        "graph.bfs_s": own("graph.bfs"),
        "graph.self_s": layer_self("graph"),
        "matching.blossom_runs": blossom_runs,
        "matching.blossom_s": own("matching.blossom"),
        "matching.blossom_us_per_run": own("matching.blossom") / blossom_runs * 1e6 if blossom_runs else 0.0,
        "matching.oracle_nu_runs": calls("matching.oracle_nu"),
        "matching.oracle_nu_s": own("matching.oracle_nu"),
        "matching.enumerations": calls("matching.enumerate"),
        "matching.enumerate_s": own("matching.enumerate"),
        "matching.matchings_enumerated": kernel.counts["matching.matchings_enumerated"],
        "matching.self_s": layer_self("matching"),
        "cover.allowed_tests": calls("cover.allowed_test"),
        "cover.covered_calls": calls("cover.covered"),
        "cover.covered_s": inclusive("cover.covered"),
        "cover.minimize_s": inclusive("cover.minimize"),
        "cover.minimize_steps": kernel.counts["cover.minimize_steps"],
        "cover.dominated_calls": calls("cover.dominated"),
        "cover.witness_s": inclusive("cover.witness"),
        "cover.analyze_s": inclusive("cover.analyze"),
        "cover.self_s": layer_self("cover"),
        "sweep.population_s": own("sweep.population"),
    }
    for prop in workloads.IN_CLASS_N6:
        metrics[f"sweep.check_s.{prop}"] = inclusive(f"sweep.check.{prop}")
    orchestration_spans = orchestration.summary()
    busy = list(orchestration.chunk_busy) + orchestration.durations("sweep.chunk")
    run_wall = orchestration_spans.get("sweep.run", (0, 0.0, 0.0))[1]
    metrics.update({
        "sweep.reverify_calls": calls("sweep.reverify"),
        "sweep.graphs_per_s": graphs_per_s,
        "sweep.chunks": len(busy),
        "sweep.pool_start_s": orchestration_spans.get("sweep.pool_start", (0, 0.0, 0.0))[1],
        "sweep.merge_s": orchestration_spans.get("sweep.merge", (0, 0.0, 0.0))[1],
        "sweep.worker_busy_frac": sum(busy) / (jobs * run_wall) if busy and run_wall else 0.0,
        "sweep.chunk_imbalance": max(busy) / statistics.mean(busy) if busy else 0.0,
        "sweep.self_s": layer_self("sweep"),
        "cli.parse_s": own("cli.parse"),
        "cli.json_s": own("cli.json"),
    })
    for command in workloads.CLI_COMMANDS:
        latencies = command_latencies.get(command)
        metrics[f"cli.p50_ms.{command}"] = statistics.median(latencies) * 1e3 if latencies else 0.0
    metrics.update({
        "cli.self_s": layer_self("cli"),
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.overhead_ratio": traced_s / untraced_s,
        "trace.spans": kernel.span_count,
    })
    return metrics


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Run one matchcover benchmark workload.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        mc = workloads.load_package()
    except (OSError, ValueError, ImportError) as exc:
        print(f"error: cannot set up the benchmark: {exc}", file=sys.stderr)
        return 2
    env = environment()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))

    run = Run()
    inputs = workloads.build_inputs(mc, args.workload, args.seed, args.seconds)
    if args.trace:
        if args.workload == "cli-session":
            values, tracers = traced_cli(mc, inputs, run)
        else:
            values, tracers = traced_sweep(mc, inputs, run)
        declared = spec["per_layer"]
        OUT.mkdir(exist_ok=True)
        for i, t in enumerate(tracers):
            path = OUT / f"{args.workload}-seed{args.seed}-pass{i}.spans.tsv.gz"
            t.write_spans(path)
            run.notes.append(f"{t.span_count} spans written to {path.relative_to(ROOT)}")
            if t.missing:
                run.notes.append("not traced (absent from matchcover): " + ", ".join(t.missing))
    else:
        setup = setup_seconds(args.workload, args.seed, args.seconds)
        if args.workload == "cli-session":
            values = cli_session(mc, inputs, args.seconds, run)
        else:
            values = sweep_session(mc, inputs, args.seconds, run)
        values["setup_s"] = setup
        run.notes.append(f"setup_s is the median of {SETUP_PROBES} fresh processes")
        declared = spec["end_to_end"]

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, metric in metrics.items():
        print(f"{name:<32} {metric['value']:.6g} {metric['unit']}")
    print(f"{'failed_frac':<32} {run.failed / max(run.attempted, 1):.6g} ratio "
          f"({run.failed} of {run.attempted} operations)")
    for note in run.notes:
        print(note)
    for error in run.errors[:SHOWN_ERRORS]:
        print(f"FAILED: {error}", file=sys.stderr)
    if len(run.errors) > SHOWN_ERRORS:
        print(f"... and {len(run.errors) - SHOWN_ERRORS} more errors", file=sys.stderr)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
