"""Allowed-edge analysis, covered predicates, minimization, and witnesses.

Derived expectations are double-checked inside the tests: every allowed set
is recomputed from the enumerated maximum matchings, and every witness is
re-validated against the enumeration before comparing with the frozen value.
"""

import random

import pytest

from matchcover import (
    Edge,
    Graph,
    GuardExceededError,
    Matching,
    RefutationError,
    WitnessSequence,
    analyze,
    allowed_edges,
    allowed_edges_enumerated,
    core_subgraph,
    delete_edge,
    distance_to_set,
    drop_isolated,
    enumerate_labeled_graphs,
    enumerate_maximum_matchings,
    find_dominated_edge,
    is_allowed,
    is_matching_covered,
    is_minimal_matching_covered,
    lemma1_witness,
    matching_number,
    matchings_containing,
    maximum_matching,
    minimize,
    minimize_with_trace,
    mu,
    parse_graph6,
    random_graph,
    theorem_witness_sequence,
)
from matchcover import cli, matching, to_graph6
from matchcover.cover import DeletionStep, _covered_without, _Facts, _OracleFacts
from matchcover.graph import isolated_vertices
from matchcover.matching import within_guard

from helpers import (
    C4,
    C6,
    K2,
    K3,
    K4,
    P3,
    P4,
    STAR3,
    TWO_K2,
    count_blossom_passes,
    count_deletion_kernel_runs,
    count_scans,
    cycle_graph,
    min_scan_lemma1_witness,
    oracle_analyze_payload,
    path_graph,
    shared_matching_set,
)


class TestAllowed:
    def test_path_middle_edge_disallowed(self):
        assert not is_allowed(P4, (1, 2))
        assert is_allowed(P4, (0, 1))

    def test_cycle_all_allowed(self):
        for e in C4.edges:
            assert is_allowed(C4, e)

    def test_single_edge_allowed(self):
        assert is_allowed(K2, (0, 1))

    def test_non_edge_rejected(self):
        with pytest.raises(ValueError):
            is_allowed(P4, (0, 2))

    @pytest.mark.parametrize("g", [K2, P3, K3, P4, C4, K4, STAR3, C6, TWO_K2])
    def test_fast_route_agrees_with_enumeration(self, g):
        assert allowed_edges(g) == allowed_edges_enumerated(g)


def covered_by_enumeration(g):
    return allowed_edges_enumerated(g) == g.edges


def minimal_by_enumeration(g):
    return covered_by_enumeration(g) and not any(
        covered_by_enumeration(delete_edge(g, e)) for e in g.edges
    )


class TestAllowedKernel:
    """The fast route decides every edge from one maximum matching M."""

    # Each edge's branch, given M = {01, 23}: in M; an endpoint left
    # uncovered by M; the search from mate(u) succeeds; only the search from
    # mate(v) succeeds; neither succeeds.
    P5 = path_graph(5)
    FORK = Graph(5, [(0, 1), (0, 4), (1, 2), (2, 3)])

    @pytest.mark.parametrize(
        "g, e, allowed",
        [
            (P5, (0, 1), True),
            (P5, (3, 4), True),
            (FORK, (1, 2), True),
            (P5, (1, 2), True),
            (P4, (1, 2), False),
        ],
        ids=["in-matching", "uncovered-endpoint", "first-search",
             "second-search-only", "both-searches-fail"],
    )
    def test_each_branch(self, g, e, allowed):
        assert maximum_matching(g).edges == (Edge(0, 1), Edge(2, 3))
        assert is_allowed(g, e) is allowed
        assert (Edge(*e) in allowed_edges_enumerated(g)) is allowed

    def test_a_perfect_matching_needs_one_search(self, monkeypatch):
        # M = {01, 23} of P4 is perfect: once the search from mate(1) = 0
        # fails, no path from mate(2) = 3 can end at an exposed vertex.
        searches = []
        original = matching._augment_from

        def counting(root, n, adj, mate):
            searches.append(root)
            return original(root, n, adj, mate)

        monkeypatch.setattr(matching, "_augment_from", counting)
        assert maximum_matching(P4).edges == (Edge(0, 1), Edge(2, 3))
        searches.clear()
        assert is_allowed(P4, (1, 2)) is False
        assert searches == [0]

    def test_all_graphs_up_to_five_vertices(self):
        count = 0
        for n in range(6):
            for g in enumerate_labeled_graphs(n):
                assert allowed_edges(g) == allowed_edges_enumerated(g), g.edges
                assert is_matching_covered(g) == covered_by_enumeration(g), g.edges
                assert is_minimal_matching_covered(g) == minimal_by_enumeration(g), g.edges
                count += 1
        assert count == 1100

    def test_minimal_on_covered_graphs_up_to_six_vertices(self):
        covered = [
            g
            for n in range(7)
            for g in enumerate_labeled_graphs(n)
            if is_matching_covered(g)
        ]
        assert len(covered) == 9013
        for g in covered:
            assert is_minimal_matching_covered(g) == minimal_by_enumeration(g), g.edges

    def test_networkx_above_the_enumeration_guard(self):
        # Every edge of graphs with at most 100 edges, a seeded sample of 10
        # on denser ones: networkx runs one matching per edge checked.
        nx = pytest.importorskip("networkx")

        def nx_nu(h):
            return len(nx.max_weight_matching(h, maxcardinality=True))

        rng = random.Random(3)
        graphs = disallowed = 0
        while graphs < 40:
            n, p = rng.randint(12, 62), rng.uniform(0.05, 0.5)
            g = random_graph(n, p, seed=rng.randrange(2**32))
            if len(g.edges) <= 32:
                continue
            graphs += 1
            h = nx.Graph(g.edges)
            h.add_nodes_from(range(g.n))
            nu = nx_nu(h)
            assert matching_number(g) == nu, g.edges
            checked = g.edges if len(g.edges) <= 100 else rng.sample(g.edges, 10)
            expected = {e for e in checked if nx_nu(nx.restricted_view(h, e, [])) == nu - 1}
            assert set(allowed_edges(g)) & set(checked) == expected, g.edges
            disallowed += len(checked) - len(expected)
        assert disallowed > 0


def dominated_by_rebuild(g, e):
    smaller = delete_edge(g, e)
    return next(x for x in smaller.edges if not is_allowed(smaller, x))


def minimize_by_rebuild(g):
    # The greedy walk with every deletion G - e built as a Graph.
    initial = isolated_vertices(g)
    g = drop_isolated(g)
    trace = []
    while True:
        e = next((e for e in g.edges if is_matching_covered(delete_edge(g, e))), None)
        if e is None:
            return g, initial, tuple(trace)
        smaller = delete_edge(g, e)
        trace.append(DeletionStep(e, isolated_vertices(smaller)))
        g = drop_isolated(smaller)


def seeded_graphs_8_to_14():
    rng = random.Random(8)
    for _ in range(40):
        n, p = rng.randint(8, 14), rng.uniform(0.2, 0.7)
        yield random_graph(n, p, seed=rng.randrange(2**32))


class TestDeletionInTheKernel:
    """The fast route decides "is G - e matching covered" on G's neighbor
    lists with e left out, and agrees with building G - e."""

    def check(self, graphs):
        # Returns (deletions compared, dominated edges compared, graphs minimized).
        deletions = dominated = minimized = 0
        for g in graphs:
            covered = is_matching_covered(g)
            for e in g.edges:
                expected = is_matching_covered(delete_edge(g, e))
                assert _covered_without(g, e) == expected, (g.edges, e)
                deletions += 1
                if covered and not expected:
                    assert find_dominated_edge(g, e) == dominated_by_rebuild(g, e)
                    dominated += 1
            if covered:
                assert minimize_with_trace(g) == minimize_by_rebuild(g), g.edges
                minimized += 1
        return deletions, dominated, minimized

    def test_every_edge_of_graphs_up_to_five_vertices(self):
        graphs = [g for n in range(6) for g in enumerate_labeled_graphs(n)]
        assert self.check(graphs) == (5325, 948, 700)

    def test_every_edge_of_seeded_graphs_8_to_14(self):
        assert self.check(seeded_graphs_8_to_14()) == (1024, 45, 31)

    def test_minimize_of_seeded_cores_16_to_30(self):
        # Long traces, where rejections are carried across many deletions;
        # results within the guard are also checked minimal by enumeration.
        guarded = 0
        for n, p in ((16, 0.3), (20, 0.25), (24, 0.2), (30, 0.15)):
            for seed in range(4):
                g = core_subgraph(random_graph(n, p, seed))
                result = minimize_with_trace(g)
                assert result == minimize_by_rebuild(g), (n, p, seed)
                if matching.within_guard(result[0]):
                    assert _OracleFacts(result[0]).minimal_covered, (n, p, seed)
                    guarded += 1
        assert guarded == 13

    @pytest.mark.parametrize(
        "code, runs",
        [("O??OH?W?AAHGQOhOpG}IP", 80), ("OL_AkQCkRGPQ?geB@k@ae", 53)],
    )
    def test_minimize_reruns_the_kernel_only_for_lapsed_rejections(
        self, monkeypatch, code, runs
    ):
        # Rescanning every earlier edge at each step ran 154 and 201 times.
        kernel_runs = count_deletion_kernel_runs(monkeypatch)
        minimize_with_trace(parse_graph6(code))
        assert len(kernel_runs) == runs


class TestCoreSubgraph:
    def test_cycle_unchanged(self):
        assert core_subgraph(C4) == C4

    def test_path_loses_middle_edge(self):
        core = core_subgraph(P4)
        assert core.n == 4
        assert core.edges == (Edge(0, 1), Edge(2, 3))

    def test_edgeless_unchanged(self):
        assert core_subgraph(Graph(3)) == Graph(3)

    def test_core_keeps_exactly_allowed_edges(self):
        # The definitional property; re-coring the core may remove more and
        # is deliberately not asserted.
        for g in (P4, C4, K4, STAR3, TWO_K2):
            assert core_subgraph(g).edges == allowed_edges(g)


class TestCoveredPredicates:
    def test_triangle_covered(self):
        assert is_matching_covered(K3)

    def test_path_not_covered(self):
        assert not is_matching_covered(P4)

    def test_edgeless_vacuously_covered(self):
        assert is_matching_covered(Graph(2))

    def test_cycle_minimal(self):
        assert is_minimal_matching_covered(C4)

    def test_single_edge_not_minimal(self):
        # K2 - e is edgeless, which equals its own core vacuously.
        assert not is_minimal_matching_covered(K2)

    def test_complete_four_minimal(self):
        assert is_minimal_matching_covered(K4)

    def test_six_cycle_minimal(self):
        assert is_minimal_matching_covered(C6)

    def test_triangle_not_minimal(self):
        assert not is_minimal_matching_covered(K3)


class TestMinimize:
    def test_cycle_already_minimal(self):
        result, initial, trace = minimize_with_trace(C4)
        assert result == C4
        assert initial == ()
        assert trace == ()

    def test_triangle_shrinks_to_empty(self):
        result, initial, trace = minimize_with_trace(K3)
        assert result == Graph(0)
        assert initial == ()
        assert trace == (
            DeletionStep(Edge(0, 1), ()),
            DeletionStep(Edge(0, 2), (0,)),
            DeletionStep(Edge(0, 1), (0, 1)),
        )

    def test_complete_four_already_minimal(self):
        assert minimize(K4) == K4

    def test_not_covered_rejected(self):
        with pytest.raises(ValueError, match="matching covered"):
            minimize(P4)

    def test_input_isolated_vertices_shed_first(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3)])
        result, initial, trace = minimize_with_trace(g)
        assert initial == (4,)
        assert result == C4
        assert trace == ()

    def test_postconditions_on_fixtures(self):
        from matchcover import has_perfect_matching

        for g in (C4, K3, K4, C6, K2, TWO_K2, Graph(3)):
            if not is_matching_covered(g):
                continue
            result = minimize(g)
            assert is_minimal_matching_covered(result)
            assert has_perfect_matching(result)


class TestMu:
    def test_both_endpoints_covered(self):
        assert mu(K3, (0, 1), Matching.of(K3, [(0, 1)])) == 1

    def test_endpoint_missed(self):
        assert mu(K3, (0, 1), Matching.of(K3, [(0, 2)])) == 0

    def test_path_end_missed(self):
        assert mu(P3, (0, 1), Matching.of(P3, [(1, 2)])) == 0

    def test_perfect_matching_rejected(self):
        with pytest.raises(ValueError, match="perfect"):
            mu(C4, (0, 1), Matching.of(C4, [(0, 1), (2, 3)]))

    def test_non_edge_rejected(self):
        with pytest.raises(ValueError):
            mu(K3, (0, 3), Matching.of(K3, [(0, 1)]))

    def test_zero_iff_endpoint_missed(self):
        for g in (K3, P3, STAR3):
            for f in enumerate_maximum_matchings(g):
                missed = frozenset(range(g.n)) - f.covered_vertices()
                for e in g.edges:
                    expected_zero = e.u in missed or e.v in missed
                    assert (mu(g, e, f) == 0) == expected_zero

    def test_same_as_both_endpoint_distances(self):
        # The value from BFS at both endpoints, as mu computed it before it
        # stopped at an endpoint that is already missed.
        for g in (K3, path_graph(5), STAR3):
            for f in enumerate_maximum_matchings(g):
                missed = frozenset(range(g.n)) - f.covered_vertices()
                for e in g.edges:
                    finite = [d for d in (distance_to_set(g, e.u, missed),
                                          distance_to_set(g, e.v, missed))
                              if d is not None]
                    assert mu(g, e, f) == (min(finite) if finite else None)

    def test_missed_first_endpoint_needs_one_search(self, monkeypatch):
        from matchcover import cover

        targets = []

        def counting(g, w, missed):
            targets.append(w)
            return distance_to_set(g, w, missed)

        monkeypatch.setattr(cover, "distance_to_set", counting)
        assert mu(K3, (1, 2), Matching.of(K3, [(0, 2)])) == 0
        assert targets == [1]


class TestLemma1Witness:
    @pytest.mark.parametrize(
        "g,e,expected",
        [
            (K3, (0, 1), (Edge(0, 2),)),
            (P3, (0, 1), (Edge(1, 2),)),
            (STAR3, (0, 1), (Edge(0, 2),)),
        ],
    )
    def test_examples(self, g, e, expected):
        f = lemma1_witness(g, e)
        assert f.edges == expected
        missed = frozenset(range(g.n)) - f.covered_vertices()
        assert e[0] in missed or e[1] in missed

    def test_every_edge_of_every_fixture(self):
        for g in (K3, P3, STAR3):
            for e in g.edges:
                f = lemma1_witness(g, e)
                assert mu(g, e, f) == 0

    def test_first_zero_equals_the_min_scan_up_to_six_vertices(self):
        # Every (graph, edge) pair in lemma1's class with n <= 6: the first
        # matching missing an endpoint is the one a scan for the least
        # distance over all maximum matchings picks.
        pairs = 0
        for n in range(7):
            for g in enumerate_labeled_graphs(n):
                facts = _Facts(g)
                if facts.connected and facts.covered and not facts.perfect:
                    for e in g.edges:
                        assert lemma1_witness(g, e) == min_scan_lemma1_witness(g, e), e
                        pairs += 1
        assert pairs == 10811

    def test_class_and_matchings_share_one_blossom_pass(self, monkeypatch):
        # C5 is connected, matching covered and has no perfect matching.
        passes = count_blossom_passes(monkeypatch)
        assert lemma1_witness(cycle_graph(5), (0, 1)).edges == (Edge(0, 4), Edge(2, 3))
        assert passes == [5]

    def test_preconditions(self):
        with pytest.raises(ValueError):
            lemma1_witness(P4, (0, 1))  # not matching covered
        with pytest.raises(ValueError):
            lemma1_witness(C4, (0, 1))  # has a perfect matching
        with pytest.raises(ValueError):
            lemma1_witness(TWO_K2, (0, 1))  # disconnected


class TestDominatedEdge:
    @pytest.mark.parametrize(
        "g,e,expected",
        [
            (C4, (0, 1), Edge(2, 3)),
            (C4, (1, 2), Edge(0, 3)),
            (K4, (0, 1), Edge(2, 3)),
        ],
    )
    def test_examples(self, g, e, expected):
        dominated = find_dominated_edge(g, e)
        assert dominated == expected
        # Independent re-check of both defining facts.
        ms = enumerate_maximum_matchings(g)
        assert set(matchings_containing(ms, dominated)) <= set(
            matchings_containing(ms, e)
        )
        smaller = delete_edge(g, e)
        assert dominated not in allowed_edges_enumerated(smaller)

    def test_no_dominated_edge_when_deletion_stays_covered(self):
        with pytest.raises(ValueError, match="no dominated edge"):
            find_dominated_edge(K3, (0, 1))

    def test_not_covered_rejected(self):
        with pytest.raises(ValueError):
            find_dominated_edge(P4, (0, 1))


class TestWitnessSequence:
    @pytest.mark.parametrize("g", [C6, K4], ids=["C6", "K4"])
    def test_enumerates_the_graph_once(self, g, monkeypatch):
        scanned = count_scans(monkeypatch)
        theorem_witness_sequence(g)
        assert scanned == [g]

    def test_guard_is_checked_before_the_walk(self, monkeypatch):
        from matchcover import cover

        def no_walk(*args):
            raise AssertionError("the walk started")

        monkeypatch.setattr(cover, "_dominated_edge", no_walk)
        with pytest.raises(GuardExceededError):
            theorem_witness_sequence(cycle_graph(34))  # 34 edges

    def test_cycle_trace(self):
        ws = theorem_witness_sequence(C4)
        assert ws.edges == (Edge(0, 1), Edge(2, 3), Edge(0, 1))
        assert (ws.repeat_i, ws.repeat_j) == (0, 2)
        assert ws.pair == (Edge(2, 3), Edge(0, 1))
        shared = shared_matching_set(C4, ws)
        assert [f.edges for f in shared] == [(Edge(0, 1), Edge(2, 3))]

    def test_complete_four_within_bound(self):
        ws = theorem_witness_sequence(K4)
        assert len(ws.edges) <= 7
        assert ws.pair[0] != ws.pair[1]
        ms = enumerate_maximum_matchings(K4)
        assert matchings_containing(ms, ws.pair[0]) == matchings_containing(
            ms, ws.pair[1]
        )

    def test_six_cycle_trace(self):
        # Frozen after replaying the dominated-edge rule by enumeration.
        ws = theorem_witness_sequence(C6)
        assert ws.edges == (Edge(0, 1), Edge(2, 3), Edge(0, 1))
        assert (ws.repeat_i, ws.repeat_j) == (0, 2)
        assert ws.pair == (Edge(2, 3), Edge(0, 1))
        shared = shared_matching_set(C6, ws)
        assert [f.edges for f in shared] == [
            (Edge(0, 1), Edge(2, 3), Edge(4, 5))
        ]

    @pytest.mark.parametrize("g", [C4, K4, C6])
    def test_consecutive_steps_nest(self, g):
        ws = theorem_witness_sequence(g)
        ms = enumerate_maximum_matchings(g)
        for a, b in zip(ws.edges, ws.edges[1:]):
            assert set(matchings_containing(ms, b)) <= set(
                matchings_containing(ms, a)
            )

    def test_preconditions(self):
        with pytest.raises(ValueError):
            theorem_witness_sequence(P4)
        with pytest.raises(ValueError):
            theorem_witness_sequence(K2)
        with pytest.raises(ValueError):
            theorem_witness_sequence(Graph(2))

    def test_invariant_validation(self):
        e01, e23 = Edge(0, 1), Edge(2, 3)
        with pytest.raises(ValueError, match="indices"):
            WitnessSequence((e01, e23, e01), 2, 0, (e23, e01))
        with pytest.raises(ValueError, match="different edges"):
            WitnessSequence((e01, e23, e23), 0, 2, (e23, e23))
        with pytest.raises(ValueError, match="last step"):
            WitnessSequence((e01, e23, e01), 0, 2, (e01, e23))


    def test_pair_edges_must_differ(self):
        e01 = Edge(0, 1)
        with pytest.raises(ValueError, match="distinct"):
            WitnessSequence((e01, e01), 0, 1, (e01, e01))


class TestAnalyze:
    def test_cycle(self):
        report = analyze(C4)
        assert report.nu == 2
        assert report.allowed == C4.edges
        assert report.disallowed == ()
        assert report.is_matching_covered
        assert report.is_minimal_matching_covered
        assert report.has_perfect_matching

    def test_path(self):
        report = analyze(P4)
        assert report.nu == 2
        assert report.allowed == (Edge(0, 1), Edge(2, 3))
        assert report.disallowed == (Edge(1, 2),)
        assert not report.is_matching_covered
        assert not report.is_minimal_matching_covered
        assert report.has_perfect_matching

    def test_nu_and_verdicts_share_one_blossom_pass(self, monkeypatch):
        # P4 is not matching covered, so no G - e is searched either.
        passes = count_blossom_passes(monkeypatch)
        assert analyze(P4).nu == 2
        assert passes == [4]

    def test_triangle(self):
        report = analyze(K3)
        assert report.nu == 1
        assert report.allowed == K3.edges
        assert report.disallowed == ()
        assert report.is_matching_covered
        assert not report.is_minimal_matching_covered
        assert not report.has_perfect_matching

    @staticmethod
    def agrees_with_the_oracle(g):
        # The reply the CLI prints for analyze(g), against every field
        # replayed by enumeration and backtracking alone.
        payload, _, _ = cli._analyze(g)
        assert {"graph6": to_graph6(g), **payload} == oracle_analyze_payload(g), to_graph6(g)

    def test_every_labeled_graph_up_to_n5_agrees_with_the_oracle(self):
        graphs = [g for n in range(6) for g in enumerate_labeled_graphs(n)]
        assert len(graphs) == 1100
        for g in graphs:
            self.agrees_with_the_oracle(g)

    def test_seeded_random_graphs_within_the_guard_agree_with_the_oracle(self):
        graphs = [random_graph(7 + i % 6, 0.35, 4000 + i) for i in range(100)]
        assert all(map(within_guard, graphs))
        for g in graphs:
            self.agrees_with_the_oracle(g)

    @pytest.mark.parametrize("g", [K2, P3, K3, P4, C4, K4, STAR3, C6, TWO_K2])
    def test_report_invariants(self, g):
        report = analyze(g)
        assert tuple(sorted(report.allowed + report.disallowed)) == g.edges
        assert not (set(report.allowed) & set(report.disallowed))
        assert report.is_matching_covered == (report.disallowed == ())
        if report.is_minimal_matching_covered:
            assert report.is_matching_covered


class TestRefutationError:
    def test_carries_graph6(self):
        err = RefutationError("some property", C4, "detail")
        assert err.graph6 == "Cl"
        assert "Cl" in str(err)
