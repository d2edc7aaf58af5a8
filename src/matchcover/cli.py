"""Command-line interface: analysis, minimization, witnesses, and sweeps.

The four graph commands are rows of one table, run by one runner: load the
graph, compute, print the JSON reply, then write the optional DOT file.
JSON goes to stdout, diagnostics to stderr.  Exit codes: 0 on success, 1
when a mathematical property was refuted (a sweep counterexample or a
witness assertion failure), 2 on usage or input errors (graphs with n > 62
are refused on loading, random sweeps before any work) and when a graph is
too large for an exhaustive routine (the enumeration edge guard), 3 on an
internal error (the fast route and the enumeration oracle disagree, or any
other unexpected exception): an ``internal error:`` line and the traceback
go to stderr, and nothing to stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from . import cover, sweep as sweep_mod
from .cover import RefutationError
from .graph import Graph, ParseError, check_graph6_size, parse_edge_list, parse_graph6, to_dot, to_graph6
from .matching import GuardExceededError, matchings_containing

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def canonical_json(payload: dict) -> str:
    """Byte-stable rendering: sorted keys, compact separators, one trailing newline."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _edge_pairs(edges) -> list[list[int]]:
    return [[u, v] for u, v in edges]


def _load_graph(args: argparse.Namespace) -> Graph:
    g = _read_graph(args)
    # Every reply echoes its input as graph6: refuse it before doing any work.
    check_graph6_size(g.n)
    return g


def _read_graph(args: argparse.Namespace) -> Graph:
    if args.graph6 is not None and args.edges is not None:
        raise ValueError("--graph6 cannot be combined with --edges")
    if args.graph6 is not None:
        return parse_graph6(args.graph6)
    if args.edges is not None:
        with open(args.edges, "r", encoding="utf-8") as handle:
            return parse_edge_list(handle.read())
    text = sys.stdin.read()
    lines = [line for line in text.splitlines() if line.strip()]
    if len(lines) == 1:
        try:
            return parse_graph6(lines[0].strip())
        except ParseError:
            pass
    return parse_edge_list(text)


def _default_jobs() -> int:
    # A cpuset or affinity mask can leave fewer processors than os.cpu_count().
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _write_dot(path: str | None, g: Graph, highlight=()) -> None:
    if path is None:
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(to_dot(g, highlight))


def _emit(payload: dict) -> None:
    sys.stdout.write(canonical_json(payload))


def _analyze(g: Graph):
    report = cover.analyze(g)
    payload = {
        "n": g.n,
        "nu": report.nu,
        "allowed": _edge_pairs(report.allowed),
        "disallowed": _edge_pairs(report.disallowed),
        "matching_covered": report.is_matching_covered,
        "minimal_matching_covered": report.is_minimal_matching_covered,
        "perfect_matching": report.has_perfect_matching,
    }
    return payload, g, report.disallowed


def _core(g: Graph):
    core = cover.core_subgraph(g)
    removed = tuple(e for e in g.edges if e not in core.edge_set)
    return {"core_graph6": to_graph6(core), "removed": _edge_pairs(removed)}, g, removed


def _minimize(g: Graph):
    result, initial_dropped, trace = cover.minimize_with_trace(g)
    payload = {
        "result_graph6": to_graph6(result),
        "dropped_before": list(initial_dropped),
        "trace": [
            {"edge": [step.edge.u, step.edge.v], "dropped_vertices": list(step.dropped)}
            for step in trace
        ],
    }
    return payload, result, ()


def _witness(g: Graph):
    ws, ms = cover._witness_with_set(g)
    shared = matchings_containing(ms, ws.pair[1])
    payload = {
        "sequence": _edge_pairs(ws.edges),
        "repeat_i": ws.repeat_i,
        "repeat_j": ws.repeat_j,
        "pair": _edge_pairs(ws.pair),
        "shared_matchings": [_edge_pairs(f.edges) for f in shared],
    }
    return payload, g, ws.pair


# Each graph command: its help line, and g -> (payload, graph to draw, edges
# to highlight).  The functions read ``cover`` when called.
_GRAPH_COMMANDS = {
    "analyze": ("allowed/disallowed edges and covered predicates", _analyze),
    "core": ("the subgraph of allowed edges", _core),
    "minimize": ("delete edges while the graph stays matching covered", _minimize),
    "witness": ("edge sequence exhibiting two edges with equal matching sets", _witness),
}


def _run_graph_command(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    payload, drawn, highlight = _GRAPH_COMMANDS[args.command][1](g)
    _emit({"graph6": to_graph6(g), **payload})
    _write_dot(args.dot, drawn, highlight)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    properties = tuple(p.strip() for p in args.properties.split(",") if p.strip())
    if args.ingest is not None:
        if args.exhaustive or args.random:
            raise ValueError("--ingest cannot be combined with --exhaustive/--random")
        if (args.max_n, args.n, args.p, args.samples, args.seed) != (None,) * 5:
            raise ValueError("--max-n/--n/--p/--samples/--seed do not apply to --ingest")
        with open(args.ingest, "r", encoding="utf-8") as handle:
            graphs = sweep_mod.ingest_graph6_stream(handle)
            report = sweep_mod.sweep_graphs(graphs, properties, jobs=args.jobs)
    else:
        if args.exhaustive == args.random:
            raise ValueError("choose exactly one of --exhaustive or --random")
        # Flags of the other mode reach the config, which rejects them.
        cfg = sweep_mod.SweepConfig(
            mode=sweep_mod.EXHAUSTIVE_MODE if args.exhaustive else sweep_mod.RANDOM_MODE,
            properties=properties,
            max_n=args.max_n,
            n=args.n,
            edge_probability=args.p,
            sample_count=args.samples,
            seed=0 if args.random and args.seed is None else args.seed,
            jobs=args.jobs,
        )
        report = sweep_mod.run_sweep(cfg)
    _emit(report.to_payload())
    if report.total_failures:
        prop, code = report.first_counterexample
        print(
            f"counterexample found: property {prop} fails on {code}",
            file=sys.stderr,
        )
        return EXIT_REFUTED
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchcover",
        description=(
            "Analyze allowed edges and matching covered structure of small "
            "graphs, and sweep graph populations for property counterexamples."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (help_line, _) in _GRAPH_COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        p.add_argument("--graph6", help="graph6 code of the input graph")
        p.add_argument("--edges", help="path to an edge-list file ('n' then 'u v' lines)")
        p.add_argument("--dot", help="write a DOT rendering to this path")
        p.add_argument(
            "--json",
            action="store_true",
            default=True,
            help="emit JSON on stdout (default; kept for pipeline compatibility)",
        )
        p.set_defaults(func=_run_graph_command)

    p = sub.add_parser("sweep", help="falsification sweep over a graph population")
    p.add_argument("--exhaustive", action="store_true", help="all labeled graphs with n <= --max-n")
    p.add_argument("--random", action="store_true", help="seeded random graphs")
    p.add_argument("--ingest", help="path to a newline-delimited graph6 stream")
    p.add_argument("--max-n", type=int, default=None, help="exhaustive mode size bound")
    p.add_argument("--n", type=int, default=None, help="random mode vertex count")
    p.add_argument("--p", type=float, default=None, help="random mode edge probability")
    p.add_argument("--samples", type=int, default=None, help="random mode sample count")
    p.add_argument("--seed", type=int, default=None, help="random mode base seed (default 0)")
    p.add_argument(
        "--properties",
        default=",".join(sweep_mod.PROPERTY_NAMES),
        help="comma-separated subset of: " + ", ".join(sweep_mod.PROPERTY_NAMES),
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=_default_jobs(),
        help="worker processes (default: the processors this process may run on)",
    )
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RefutationError as exc:
        print(f"refuted: {exc}", file=sys.stderr)
        return EXIT_REFUTED
    except (ParseError, ValueError, OSError, GuardExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a bug, e.g. sweep.RouteDisagreementError
        import traceback  # only on this path, to keep start-up light

        print(f"internal error: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
