"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Derived expectations are recomputed here from the exhaustive
oracles (backtracking matching numbers, full enumeration) rather than
trusted from the fast paths they certify.
"""

import json
import time
from pathlib import Path

import pytest

from matchcover import (
    Graph,
    SweepConfig,
    brute_force_matching_number,
    delete_edge,
    drop_isolated,
    enumerate_labeled_graphs,
    enumerate_maximum_matchings,
    has_perfect_matching,
    is_matching_covered,
    is_minimal_matching_covered,
    matchings_containing,
    minimize,
    minimize_with_trace,
    mu,
    parse_graph6,
    run_sweep,
    theorem_witness_sequence,
    to_graph6,
)
from matchcover.cli import canonical_json
from matchcover.sweep import EXHAUSTIVE_MODE, PROPERTY_NAMES, RANDOM_MODE

REPO_ROOT = Path(__file__).resolve().parents[1]
GOLDEN = REPO_ROOT / "tests" / "golden"

POPULATION_N6 = sum(1 << (n * (n - 1) // 2) for n in range(7))  # 33868


def check(criterion: str, condition: bool, detail: str) -> None:
    print(f"{'PASS' if condition else 'FAIL'} {criterion}: {detail}")
    assert condition, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# Shared populations and sweeps (computed once)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def full_sweep():
    cfg = SweepConfig(
        mode=EXHAUSTIVE_MODE, properties=PROPERTY_NAMES, max_n=6, jobs=2
    )
    return run_sweep(cfg)


@pytest.fixture(scope="session")
def theorem_sweeps():
    cfg1 = SweepConfig(
        mode=EXHAUSTIVE_MODE, properties=("theorem",), max_n=6, jobs=1
    )
    cfg8 = SweepConfig(
        mode=EXHAUSTIVE_MODE, properties=("theorem",), max_n=6, jobs=8
    )
    started = time.perf_counter()
    serial = run_sweep(cfg1)
    serial_elapsed = time.perf_counter() - started
    parallel = run_sweep(cfg8)
    return serial, serial_elapsed, parallel


@pytest.fixture(scope="session")
def classified_n6():
    """All n <= 6 graphs that are matching covered, and the minimal ones
    with at least one edge.

    Classified with the fast predicates, whose agreement with the
    enumeration oracle over this exact population is criterion 6.
    """
    covered, minimal = [], []
    for n in range(7):
        for g in enumerate_labeled_graphs(n):
            if not is_matching_covered(g):
                continue
            covered.append(g)
            if g.edges and all(
                not is_matching_covered(delete_edge(g, e)) for e in g.edges
            ):
                minimal.append(g)
    return covered, minimal


# ---------------------------------------------------------------------------
# Oracle-only replays used by the golden-fixture criterion
# ---------------------------------------------------------------------------


def oracle_allowed(g: Graph):
    return tuple(sorted({e for f in enumerate_maximum_matchings(g) for e in f.edges}))


def oracle_covered(g: Graph) -> bool:
    return oracle_allowed(g) == g.edges


def oracle_minimal_covered(g: Graph) -> bool:
    return oracle_covered(g) and all(
        not oracle_covered(delete_edge(g, e)) for e in g.edges
    )


def oracle_perfect(g: Graph) -> bool:
    return g.n % 2 == 0 and 2 * brute_force_matching_number(g) == g.n


def oracle_analyze_payload(g: Graph) -> dict:
    allowed = oracle_allowed(g)
    disallowed = tuple(e for e in g.edges if e not in set(allowed))
    return {
        "graph6": to_graph6(g),
        "n": g.n,
        "nu": brute_force_matching_number(g),
        "allowed": [[u, v] for u, v in allowed],
        "disallowed": [[u, v] for u, v in disallowed],
        "matching_covered": not disallowed,
        "minimal_matching_covered": oracle_minimal_covered(g),
        "perfect_matching": oracle_perfect(g),
    }


def oracle_dominated_edge(g: Graph, e):
    smaller = delete_edge(g, e)
    allowed = set(oracle_allowed(smaller))
    return next(c for c in smaller.edges if c not in allowed)


def oracle_witness_payload(g: Graph) -> dict:
    sequence = [g.edges[0]]
    positions = {g.edges[0]: 0}
    while True:
        nxt = oracle_dominated_edge(g, sequence[-1])
        sequence.append(nxt)
        if nxt in positions:
            i, j = positions[nxt], len(sequence) - 1
            break
        positions[nxt] = len(sequence) - 1
    ms = enumerate_maximum_matchings(g)
    pair = (sequence[-2], sequence[-1])
    assert matchings_containing(ms, pair[0]) == matchings_containing(ms, pair[1])
    shared = matchings_containing(ms, pair[1])
    return {
        "graph6": to_graph6(g),
        "sequence": [[u, v] for u, v in sequence],
        "repeat_i": i,
        "repeat_j": j,
        "pair": [[u, v] for u, v in pair],
        "shared_matchings": [[[u, v] for u, v in f.edges] for f in shared],
    }


def oracle_minimize_payload(g: Graph) -> dict:
    assert oracle_covered(g)
    original = g
    initial = [v for v in range(g.n) if not g.adjacency[v]]
    g = drop_isolated(g)
    trace = []
    while True:
        for e in g.edges:
            smaller = delete_edge(g, e)
            if oracle_covered(smaller):
                dropped = [v for v in range(smaller.n) if not smaller.adjacency[v]]
                trace.append({"edge": [e.u, e.v], "dropped_vertices": dropped})
                g = drop_isolated(smaller)
                break
        else:
            return {
                "graph6": to_graph6(original),
                "result_graph6": to_graph6(g),
                "dropped_before": initial,
                "trace": trace,
            }


def oracle_core_payload(g: Graph) -> dict:
    allowed = oracle_allowed(g)
    removed = [e for e in g.edges if e not in set(allowed)]
    return {
        "graph6": to_graph6(g),
        "core_graph6": to_graph6(Graph(g.n, allowed)),
        "removed": [[u, v] for u, v in removed],
    }


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_criterion_01_theorem_sweep(full_sweep, theorem_sweeps):
    serial, elapsed, _ = theorem_sweeps
    ok = (
        full_sweep.population == POPULATION_N6
        and full_sweep.failures["theorem"] == 0
        and full_sweep.passes["theorem"] == full_sweep.in_class["theorem"] == 349
        and serial.failures["theorem"] == 0
        and serial.in_class["theorem"] == 349
        and elapsed < 300.0
    )
    check(
        "criterion-1",
        ok,
        f"theorem holds on all {full_sweep.in_class['theorem']} minimal matching "
        f"covered graphs (n <= 6, no isolated vertices); 0 counterexamples; "
        f"sweep took {elapsed:.1f}s",
    )


def test_criterion_02_lemma1_sweep(full_sweep):
    ok = (
        full_sweep.failures["lemma1"] == 0
        and full_sweep.passes["lemma1"] == full_sweep.in_class["lemma1"] == 1798
        and full_sweep.first_counterexample is None
    )
    check(
        "criterion-2",
        ok,
        f"min distance-to-missed is 0 for every edge of all "
        f"{full_sweep.in_class['lemma1']} in-class graphs",
    )


def test_criterion_02b_literal_mu_minimum():
    # Spot-check the criterion's literal formulation on the full in-class
    # population at n <= 5: the minimum of mu over the enumerated maximum
    # matchings is exactly 0 for every edge.
    from matchcover import is_connected

    checked = 0
    for n in range(6):
        for g in enumerate_labeled_graphs(n):
            if not (is_connected(g) and is_matching_covered(g)) or has_perfect_matching(g):
                continue
            ms = enumerate_maximum_matchings(g)
            for e in g.edges:
                assert min(mu(g, e, f) for f in ms) == 0
                checked += 1
    assert checked > 0


def test_criterion_03_lemma2_sweep(full_sweep):
    ok = (
        full_sweep.failures["lemma2"] == 0
        and full_sweep.passes["lemma2"] == full_sweep.in_class["lemma2"] == 1798
    )
    check(
        "criterion-3",
        ok,
        f"edge -> matching-set map injective on all "
        f"{full_sweep.in_class['lemma2']} in-class graphs",
    )


def test_criterion_04_corollary_sweep(full_sweep):
    ok = (
        full_sweep.failures["corollary"] == 0
        and full_sweep.passes["corollary"] == full_sweep.in_class["corollary"] == 1349
    )
    check(
        "criterion-4",
        ok,
        f"missed-vertex implication holds on all "
        f"{full_sweep.in_class['corollary']} connected bipartite covered graphs",
    )


def test_criterion_05_oracle_nu(full_sweep):
    random_report = run_sweep(
        SweepConfig(
            mode=RANDOM_MODE,
            properties=("oracle-nu",),
            n=10,
            edge_probability=0.3,
            sample_count=1000,
            seed=0,
            jobs=2,
        )
    )
    ok = (
        full_sweep.in_class["oracle-nu"] == POPULATION_N6
        and full_sweep.passes["oracle-nu"] == POPULATION_N6
        and full_sweep.failures["oracle-nu"] == 0
        and random_report.population == 1000
        and random_report.passes["oracle-nu"] == 1000
        and random_report.failures["oracle-nu"] == 0
    )
    check(
        "criterion-5",
        ok,
        f"blossom nu == backtracking nu on all {POPULATION_N6} graphs with "
        f"n <= 6 and on 1000 seeded random graphs (n=10, p=0.3)",
    )


def test_criterion_06_oracle_allowed(full_sweep):
    ok = (
        full_sweep.in_class["oracle-allowed"] == POPULATION_N6
        and full_sweep.passes["oracle-allowed"] == POPULATION_N6
        and full_sweep.failures["oracle-allowed"] == 0
    )
    check(
        "criterion-6",
        ok,
        f"nu-difference allowed test == enumerated-union membership on all "
        f"{POPULATION_N6} graphs with n <= 6, per edge",
    )


def test_criterion_07_witness_soundness(classified_n6):
    _, minimal = classified_n6
    assert len(minimal) == 429
    for g in minimal:
        ws = theorem_witness_sequence(g)
        assert ws.pair[0] != ws.pair[1]
        ms = enumerate_maximum_matchings(g)
        assert matchings_containing(ms, ws.pair[0]) == matchings_containing(
            ms, ws.pair[1]
        )
        for a, b in zip(ws.edges, ws.edges[1:]):
            assert set(matchings_containing(ms, b)) <= set(
                matchings_containing(ms, a)
            )
    check(
        "criterion-7",
        True,
        f"witness sequence produced a verified equal-matching-set pair on all "
        f"{len(minimal)} minimal matching covered graphs (n <= 6)",
    )


def test_criterion_08_minimizer_contract(classified_n6):
    covered, _ = classified_n6
    assert len(covered) == 9013
    for g in covered:
        result = minimize(g)
        assert is_minimal_matching_covered(result)
        assert has_perfect_matching(result)
    check(
        "criterion-8",
        True,
        f"minimize yielded a minimal matching covered graph with a perfect "
        f"matching on all {len(covered)} matching covered graphs (n <= 6)",
    )


def test_criterion_09_golden_fixtures():
    oracle_payloads = {
        "analyze_c4.json": oracle_analyze_payload(parse_graph6("Cl")),
        "analyze_k3.json": oracle_analyze_payload(parse_graph6("Bw")),
        "analyze_k4.json": oracle_analyze_payload(parse_graph6("C~")),
        "analyze_p4.json": oracle_analyze_payload(parse_graph6("Ch")),
        "analyze_k2.json": oracle_analyze_payload(parse_graph6("A_")),
        "analyze_k13.json": oracle_analyze_payload(parse_graph6("Cs")),
        "core_p4.json": oracle_core_payload(parse_graph6("Ch")),
        "minimize_k3.json": oracle_minimize_payload(parse_graph6("Bw")),
        "minimize_c4.json": oracle_minimize_payload(parse_graph6("Cl")),
        "minimize_n16.json": oracle_minimize_payload(parse_graph6("O??OH?W?AAHGQOhOpG}IP")),
        "witness_c4.json": oracle_witness_payload(parse_graph6("Cl")),
        "witness_k4.json": oracle_witness_payload(parse_graph6("C~")),
    }
    cli_argv = {
        "analyze": ["analyze"],
        "core": ["core"],
        "minimize": ["minimize"],
        "witness": ["witness"],
    }
    import io
    from contextlib import redirect_stdout

    from matchcover import cli

    for name, payload in oracle_payloads.items():
        golden_bytes = (GOLDEN / name).read_text()
        # The oracle-replayed values render to the frozen bytes...
        assert canonical_json(payload) == golden_bytes, name
        # ...and the CLI reproduces them from the same input.
        command = cli_argv[name.split("_")[0]]
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = cli.main(command + ["--graph6", json.loads(golden_bytes)["graph6"]])
        assert rc == 0
        assert buf.getvalue() == golden_bytes, name
    check(
        "criterion-9",
        True,
        f"{len(oracle_payloads)} golden fixtures reproduced by the oracle "
        f"replay and byte-identical to the CLI output",
    )


def test_criterion_10_worker_determinism(theorem_sweeps):
    serial, _, parallel = theorem_sweeps
    serial_bytes = canonical_json(serial.to_payload(include_wall_time=False))
    parallel_bytes = canonical_json(parallel.to_payload(include_wall_time=False))
    ok = serial_bytes == parallel_bytes and serial.to_payload(
        include_wall_time=False
    ) == parallel.to_payload(include_wall_time=False)
    check(
        "criterion-10",
        ok,
        "theorem sweep with 1 worker and 8 workers produced byte-identical "
        "reports (wall_time excluded as execution metadata)",
    )
