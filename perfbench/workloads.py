"""The benchmark's four workloads: inputs from a seed, the operations a
client issues, and the checks on every output.

Each workload is a closed loop with one client: the next operation starts
only after the previous one returned.  On the three sweep workloads an
operation is one ``run_sweep`` call; on ``cli-session`` it is one in-process
``cli.main`` call with stdout captured.  Checks run outside the timed
region and use the package's enumeration oracle, never its fast path.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import io
import json
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = (
    "exhaustive-theorem",
    "random-oracle",
    "exhaustive-all-parallel",
    "cli-session",
)

# Known tallies of the n <= 6 labeled population (33,868 graphs).
POPULATION_N6 = sum(1 << (n * (n - 1) // 2) for n in range(7))
IN_CLASS_N6 = {
    "theorem": 349,
    "lemma1": 1798,
    "lemma2": 1798,
    "corollary": 1349,
    "oracle-nu": POPULATION_N6,
    "oracle-allowed": POPULATION_N6,
}

# random-oracle: about 3 s per sweep on the machine in README.md's table.
RANDOM_SAMPLES = 2000

# cli-session graphs: n cycles through 8..16 so every run has the same mix of
# sizes; each graph has min(30, 35% of all pairs) edges placed uniformly, which
# keeps every input and every derived graph within the 32-edge enumeration
# guard the output checks rely on.
CLI_MIN_N, CLI_MAX_N = 8, 16
CLI_MAX_EDGES = 30
CLI_DENSITY = 0.35
# Graphs generated per second of --seconds: about three times the 33 graphs/s
# measured for README.md's table.  The session cycles if it runs out.
CLI_GRAPHS_PER_SECOND = 100

CLI_COMMANDS = ("analyze", "core", "minimize", "witness")


def load_package():
    """Import ``matchcover`` from this checkout's ``src`` and return it.

    Raises ``ImportError`` when the package is missing or would come from
    anywhere else, so the benchmark never measures an installed copy.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mc = importlib.import_module("matchcover")
    importlib.import_module("matchcover.cli")
    origin = Path(mc.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"matchcover imported from {origin}, not from {SRC}")
    return mc


def build_inputs(mc, workload: str, seed: int, seconds: int):
    """A sweep workload's ``SweepConfig``, or cli-session's graph6 codes."""
    if workload == "cli-session":
        return cli_graphs(mc, seed, CLI_GRAPHS_PER_SECOND * seconds)
    return sweep_config(mc, workload, seed)


@dataclasses.dataclass
class Outcome:
    """What one operation returned, kept for the checks after timing."""

    latency: float
    value: object = None
    error: str | None = None


# ---------------------------------------------------------------------------
# Sweep workloads
# ---------------------------------------------------------------------------


def sweep_config(mc, workload: str, seed: int):
    """The workload's ``SweepConfig``; ``jobs`` is always explicit."""
    sweep = mc.sweep
    if workload == "exhaustive-theorem":
        return sweep.SweepConfig(
            mode=sweep.EXHAUSTIVE_MODE, properties=("theorem",), max_n=6, jobs=1
        )
    if workload == "exhaustive-all-parallel":
        return sweep.SweepConfig(
            mode=sweep.EXHAUSTIVE_MODE,
            properties=tuple(IN_CLASS_N6),
            max_n=6,
            jobs=2,
        )
    if workload == "random-oracle":
        # Disjoint sample seeds per benchmark seed: sample i uses seed + i.
        return sweep.SweepConfig(
            mode=sweep.RANDOM_MODE,
            properties=("oracle-nu", "oracle-allowed"),
            n=10,
            edge_probability=0.3,
            sample_count=RANDOM_SAMPLES,
            seed=seed * RANDOM_SAMPLES,
            jobs=1,
        )
    raise ValueError(f"{workload} is not a sweep workload")


def run_sweep_op(mc, cfg) -> Outcome:
    start = time.perf_counter()
    try:
        report = mc.sweep.run_sweep(cfg)
    except Exception as exc:  # a failed operation, counted and reported
        return Outcome(time.perf_counter() - start, error=repr(exc))
    return Outcome(time.perf_counter() - start, report)


def check_sweep(cfg, report) -> list[str]:
    """Compare a sweep report with the population's known tallies."""
    if cfg.mode == "random":
        population = cfg.sample_count
        in_class = {p: cfg.sample_count for p in cfg.properties}
    else:
        population = POPULATION_N6
        in_class = {p: IN_CLASS_N6[p] for p in cfg.properties}
    errors = []
    if report.population != population:
        errors.append(f"population {report.population}, expected {population}")
    if report.in_class != in_class:
        errors.append(f"in_class {report.in_class}, expected {in_class}")
    if report.passes != report.in_class:
        errors.append(f"passes {report.passes} differ from in_class")
    if any(report.failures.values()) or report.first_counterexample is not None:
        errors.append(
            f"failures {report.failures}, counterexample {report.first_counterexample}"
        )
    return errors


def sweep_payload(report) -> dict:
    """The report without its wall time: equal across repeats and tracing."""
    return report.to_payload(include_wall_time=False)


# ---------------------------------------------------------------------------
# cli-session
# ---------------------------------------------------------------------------


def cli_graphs(mc, seed: int, count: int) -> list[str]:
    """``count`` seeded graphs as graph6 codes."""
    rng = random.Random(seed)
    codes = []
    span = CLI_MAX_N - CLI_MIN_N + 1
    for i in range(count):
        n = CLI_MIN_N + i % span
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        m = min(CLI_MAX_EDGES, round(CLI_DENSITY * len(pairs)))
        codes.append(mc.to_graph6(mc.Graph(n, rng.sample(pairs, m))))
    return codes


@dataclasses.dataclass
class Request:
    command: str
    graph6: str
    outcome: Outcome
    exit_code: int | None = None
    stdout: str = ""


def cli_request(mc, command: str, graph6: str) -> Request:
    """One in-process ``cli.main`` call; any exception is a failed request."""
    out, err = io.StringIO(), io.StringIO()
    argv = [command, "--graph6", graph6]
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = mc.cli.main(argv)
    except Exception as exc:  # e.g. GuardExceededError escaping cli.main
        outcome = Outcome(time.perf_counter() - start, error=repr(exc))
        return Request(command, graph6, outcome)
    outcome = Outcome(time.perf_counter() - start)
    return Request(command, graph6, outcome, code, out.getvalue())


def cli_chain(mc, graph6: str) -> list[Request]:
    """``analyze G``, ``core G``, ``minimize core``, then ``witness result``
    when the result has an edge.  A step whose input is unavailable because
    an earlier step failed is not issued."""
    chain = [cli_request(mc, "analyze", graph6)]
    core = cli_request(mc, "core", graph6)
    chain.append(core)
    core_code = _reply_field(core, "core_graph6")
    if core_code is None:
        return chain
    minimized = cli_request(mc, "minimize", core_code)
    chain.append(minimized)
    result = _reply_field(minimized, "result_graph6")
    if result is not None and mc.parse_graph6(result).edges:
        chain.append(cli_request(mc, "witness", result))
    return chain


def _reply_field(request: Request, key: str):
    if request.exit_code != 0:
        return None
    try:
        return json.loads(request.stdout)[key]
    except (ValueError, KeyError):
        return None


class CliChecker:
    """Checks replies against the enumeration oracle.

    A request repeated with the same graph must reply with the same bytes;
    the oracle runs once per distinct request.
    """

    def __init__(self, mc):
        self.mc = mc
        self._verdicts: dict[tuple[str, str], tuple[str, list[str]]] = {}
        self._oracle: dict[object, tuple[int, list[list[int]]]] = {}

    def check(self, request: Request) -> list[str]:
        if request.outcome.error is not None:
            return [f"{request.command} raised {request.outcome.error}"]
        if request.exit_code != 0:
            return [f"{request.command} exited with {request.exit_code}"]
        key = (request.command, request.graph6)
        if key in self._verdicts:
            first_stdout, errors = self._verdicts[key]
            if request.stdout != first_stdout:
                return [f"{request.command} {request.graph6}: reply changed on repeat"]
            return errors
        try:
            reply = json.loads(request.stdout)
            g = self.mc.parse_graph6(request.graph6)
            errors = getattr(self, "_check_" + request.command)(g, reply)
        except Exception as exc:  # a malformed reply is a wrong output
            errors = [f"{request.command} reply unreadable: {exc!r}"]
        errors = [f"{request.command} {request.graph6}: {e}" for e in errors]
        self._verdicts[key] = (request.stdout, errors)
        return errors

    def _nu_and_allowed(self, g) -> tuple[int, list[list[int]]]:
        """The matching number and the allowed edges, by enumeration."""
        if g not in self._oracle:
            ms = self.mc.enumerate_maximum_matchings(g)
            allowed = sorted({e for f in ms for e in f.edges})
            self._oracle[g] = (ms.nu, [list(e) for e in allowed])
        return self._oracle[g]

    def _covered(self, g) -> bool:
        return len(self._nu_and_allowed(g)[1]) == len(g.edges)

    def _check_analyze(self, g, reply) -> list[str]:
        nu, allowed = self._nu_and_allowed(g)
        errors = []
        if reply["allowed"] != allowed:
            errors.append(f"allowed {reply['allowed']}, oracle {allowed}")
        if reply["disallowed"] != _complement(g, allowed):
            errors.append("disallowed is not the complement of the oracle's allowed set")
        if reply["nu"] != nu:
            errors.append(f"nu {reply['nu']}, oracle {nu}")
        return errors

    def _check_core(self, g, reply) -> list[str]:
        _, allowed = self._nu_and_allowed(g)
        core = self.mc.parse_graph6(reply["core_graph6"])
        errors = []
        if core.n != g.n or [list(e) for e in core.edges] != allowed:
            errors.append(f"core {reply['core_graph6']} is not the oracle's allowed set")
        if reply["removed"] != _complement(g, allowed):
            errors.append("removed is not the complement of the oracle's allowed set")
        return errors

    def _check_minimize(self, g, reply) -> list[str]:
        result = self.mc.parse_graph6(reply["result_graph6"])
        errors = []
        if not self._covered(result):
            errors.append("result is not matching covered")
        if any(self._covered(self.mc.delete_edge(result, e)) for e in result.edges):
            errors.append("result is not minimal matching covered")
        if 2 * self._nu_and_allowed(result)[0] != result.n:
            errors.append("result has no perfect matching")
        if any(not result.adjacency[v] for v in range(result.n)):
            errors.append("result has an isolated vertex")
        return errors

    def _check_witness(self, g, reply) -> list[str]:
        mc = self.mc
        first, second = (tuple(e) for e in reply["pair"])
        if first == second:
            return ["pair edges are equal"]
        ms = mc.enumerate_maximum_matchings(g)
        through_first = mc.matchings_containing(ms, first)
        through_second = mc.matchings_containing(ms, second)
        shared = [[list(e) for e in f.edges] for f in through_second]
        errors = []
        if through_first != through_second:
            errors.append(f"pair {reply['pair']} has different matching sets")
        if reply["shared_matchings"] != shared:
            errors.append("shared_matchings differ from the oracle's")
        return errors


def _complement(g, allowed: list[list[int]]) -> list[list[int]]:
    return [list(e) for e in g.edges if list(e) not in allowed]
