"""Matching computation and enumeration, checked against exhaustive backtracking."""

import gc

import pytest

from matchcover import (
    BindingError,
    Edge,
    Graph,
    GuardExceededError,
    Matching,
    allowed_edges_enumerated,
    brute_force_matching_number,
    covered_and_missed,
    enumerate_labeled_graphs,
    enumerate_maximum_matchings,
    has_perfect_matching,
    is_perfect,
    matching_number,
    matchings_containing,
    maximum_matching,
    random_graph,
)
from matchcover import matching
from matchcover.matching import ENUMERATION_EDGE_LIMIT, within_guard
from matchcover.sweep import RANDOM_MODE, SweepConfig, run_sweep

from helpers import (
    C4,
    K2,
    K3,
    K4,
    P3,
    P4,
    TWO_K2,
    complete_graph,
    count_builds,
    path_graph,
    reference_scan,
    star_graph,
)


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, [(u, v) for u in range(a) for v in range(a, a + b)])


def assert_valid_matching(g, f):
    seen = set()
    for e in f.edges:
        assert e in g.edge_set
        assert not seen & set(e)
        seen.update(e)


class TestMaximumMatching:
    @pytest.mark.parametrize(
        "g,size",
        [(C4, 2), (K3, 1), (Graph(3), 0), (P4, 2), (K4, 2), (K2, 1)],
    )
    def test_size_matches_oracle(self, g, size):
        assert brute_force_matching_number(g) == size
        f = maximum_matching(g)
        assert_valid_matching(g, f)
        assert len(f) == size
        assert matching_number(g) == size

    def test_deterministic(self):
        assert maximum_matching(K4) == maximum_matching(K4)

    def test_bound_to_graph(self):
        assert maximum_matching(C4).graph == C4

    def test_blossom_needs_contraction(self):
        # Two triangles joined by a bridge: greedy + bipartite-style search
        # alone underestimates; the blossom step is required for nu = 3.
        g = Graph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)])
        assert matching_number(g) == 3
        assert brute_force_matching_number(g) == 3

    def test_petersen_graph(self):
        g = Graph(
            10,
            [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
             (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
             (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)],
        )
        assert matching_number(g) == 5
        assert brute_force_matching_number(g) == 5


class TestBruteForceGuard:
    def test_guard_exceeded(self):
        g = path_graph(34)  # 33 edges
        with pytest.raises(GuardExceededError):
            brute_force_matching_number(g)
        with pytest.raises(GuardExceededError):
            enumerate_maximum_matchings(g)


    def test_guard_holds_at_exactly_32_edges(self):
        at_guard, above = star_graph(32), star_graph(33)
        assert (within_guard(at_guard), within_guard(above)) == (True, False)
        ms = enumerate_maximum_matchings(at_guard)
        assert (ms.nu, len(ms)) == (1, 32)
        with pytest.raises(GuardExceededError, match="limited to 32 edges, graph has 33"):
            enumerate_maximum_matchings(above)


class TestEnumeration:
    def test_cycle_has_two(self):
        ms = enumerate_maximum_matchings(C4)
        assert ms.nu == 2
        assert [f.edges for f in ms] == [
            (Edge(0, 1), Edge(2, 3)),
            (Edge(0, 3), Edge(1, 2)),
        ]

    def test_triangle_has_three_singletons(self):
        ms = enumerate_maximum_matchings(K3)
        assert ms.nu == 1
        assert [f.edges for f in ms] == [
            (Edge(0, 1),), (Edge(0, 2),), (Edge(1, 2),)
        ]

    def test_edgeless_has_empty_matching(self):
        ms = enumerate_maximum_matchings(Graph(2))
        assert ms.nu == 0
        assert [f.edges for f in ms] == [()]

    def test_allowed_is_the_sorted_union(self):
        assert enumerate_maximum_matchings(P4).allowed == (Edge(0, 1), Edge(2, 3))
        assert enumerate_maximum_matchings(K3).allowed == K3.edges
        assert enumerate_maximum_matchings(Graph(2)).allowed == ()

    def test_members_are_valid_and_sorted(self):
        ms = enumerate_maximum_matchings(K4)
        assert len(ms) == 3
        for f in ms:
            assert_valid_matching(K4, f)
            assert len(f) == ms.nu
        assert list(ms.matchings) == sorted(ms.matchings)


class TestMasks:
    """Members are edge masks; Matching objects are built only for iteration."""

    def test_len_nu_and_allowed_build_no_matching(self, monkeypatch):
        built = count_builds(monkeypatch, Matching)
        ms = enumerate_maximum_matchings(C4)
        assert ms.masks == (0b1001, 0b0110)  # C4.edges: 01, 03, 12, 23
        assert (len(ms), ms.nu, ms.allowed) == (2, 2, C4.edges)
        assert built == []
        assert [f.edges for f in ms] == [(Edge(0, 1), Edge(2, 3)), (Edge(0, 3), Edge(1, 2))]
        assert list(ms) == list(ms.matchings) and len(built) == 2

    def test_oracle_sweep_builds_no_matching(self, monkeypatch):
        built = count_builds(monkeypatch, Matching)
        report = run_sweep(SweepConfig(
            mode=RANDOM_MODE, properties=("oracle-nu", "oracle-allowed"), n=10,
            edge_probability=0.3, sample_count=200, seed=2000,
        ))
        assert report.in_class == {"oracle-nu": 200, "oracle-allowed": 200}
        assert built == []

    def test_the_walk_leaves_no_cyclic_garbage(self):
        graphs = [random_graph(10, 0.3, 2000 + i) for i in range(500)]
        gc.collect()
        gc.disable()
        try:
            for g in graphs:
                ms = enumerate_maximum_matchings(g)
                assert set(ms.allowed) == {e for f in ms for e in f.edges}
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestPrunedScan:
    """The walk cut by exposed vertices against the unpruned reference walk."""

    @staticmethod
    def assert_same_as_reference(g):
        nu, masks = matching._scan_matchings(g)
        raw = [matching._edges_in(g.edges, mask) for mask in masks]
        ref_nu, ref_raw = reference_scan(g)
        assert nu == ref_nu
        assert sorted(raw) == sorted(ref_raw)

    @staticmethod
    def labeled_graphs():
        for n in range(7):
            yield from enumerate_labeled_graphs(n)

    @staticmethod
    def seeded_graphs():
        for n in range(7, 15):
            for seed in range(40):
                g = random_graph(n, 0.3, seed)
                if len(g.edges) <= ENUMERATION_EDGE_LIMIT:
                    yield g

    def test_every_labeled_graph_up_to_six_vertices(self):
        for g in self.labeled_graphs():
            self.assert_same_as_reference(g)

    def test_seeded_graphs_7_to_14(self):
        checked = 0
        for g in self.seeded_graphs():
            self.assert_same_as_reference(g)
            checked += 1
        assert checked >= 200

    def test_members_come_out_sorted_with_no_sort(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the oracle sorted")

        monkeypatch.setattr(matching, "sorted", refuse, raising=False)
        for g in (*self.labeled_graphs(), *self.seeded_graphs()):
            members = [f.edges for f in enumerate_maximum_matchings(g)]
            assert members == sorted(members)

    @pytest.mark.parametrize(
        "g,nu,count",
        [(complete_graph(8), 4, 105), (complete_bipartite(4, 8), 4, 1680)],
        ids=["K8", "K4,8"],
    )
    def test_closed_form_counts(self, g, nu, count):
        ms = enumerate_maximum_matchings(g)
        assert ms.nu == nu
        assert len(ms) == count
        assert len(set(ms.matchings)) == count

    def test_first_leaf_below_the_maximum(self):
        # Pairing 0 with 1 first strands 2 and 3: the first leaf has size 1.
        g = Graph(4, [(0, 1), (1, 2), (0, 3)])
        ms = enumerate_maximum_matchings(g)
        assert ms.nu == 2
        assert [f.edges for f in ms] == [(Edge(0, 3), Edge(1, 2))]

    def test_one_edge_above_the_guard(self):
        at_guard = complete_bipartite(4, 8)
        assert len(at_guard.edges) == ENUMERATION_EDGE_LIMIT
        g = Graph(12, at_guard.edges + ((0, 1),))
        assert len(g.edges) == ENUMERATION_EDGE_LIMIT + 1
        with pytest.raises(GuardExceededError):
            enumerate_maximum_matchings(g)

    @pytest.mark.parametrize("g", [C4, K4, P4], ids=["C4", "K4", "P4"])
    def test_shares_no_code_with_the_blossom_search(self, g, monkeypatch):
        expected = reference_scan(g)

        def refuse(*args):
            raise AssertionError("the oracle called the blossom search")

        monkeypatch.setattr(matching, "_augment_from", refuse)
        monkeypatch.setattr(matching, "_max_matching_mates", refuse)
        ms = enumerate_maximum_matchings(g)
        assert ms.nu == expected[0]
        assert [f.edges for f in ms] == sorted(expected[1])
        assert brute_force_matching_number(g) == expected[0]
        assert allowed_edges_enumerated(g) == ms.allowed


class TestRestriction:
    def test_cycle_edge(self):
        ms = enumerate_maximum_matchings(C4)
        assert [f.edges for f in matchings_containing(ms, (0, 1))] == [
            (Edge(0, 1), Edge(2, 3))
        ]
        assert [f.edges for f in matchings_containing(ms, (1, 2))] == [
            (Edge(0, 3), Edge(1, 2))
        ]

    def test_path_middle_edge_is_in_none(self):
        ms = enumerate_maximum_matchings(P4)
        assert matchings_containing(ms, (1, 2)) == ()

    def test_non_edge_rejected(self):
        ms = enumerate_maximum_matchings(C4)
        with pytest.raises(ValueError):
            matchings_containing(ms, (0, 2))


class TestMatchingValues:
    def test_factory_validates_membership(self):
        with pytest.raises(ValueError):
            Matching.of(P4, [(0, 3)])

    def test_factory_validates_disjointness(self):
        with pytest.raises(ValueError):
            Matching.of(K3, [(0, 1), (0, 2)])

    def test_covered_and_missed_partition(self):
        a, b = covered_and_missed(K3, Matching.of(K3, [(0, 1)]))
        assert a == frozenset({0, 1})
        assert b == frozenset({2})

    def test_perfect_matching_covers_all(self):
        f = Matching.of(C4, [(0, 1), (2, 3)])
        a, b = covered_and_missed(C4, f)
        assert a == frozenset(range(4))
        assert b == frozenset()

    def test_empty_matching_misses_all(self):
        a, b = covered_and_missed(K4, Matching.of(K4, []))
        assert a == frozenset()
        assert b == frozenset(range(4))

    def test_cross_graph_use_rejected(self):
        f = Matching.of(C4, [(0, 1)])
        with pytest.raises(BindingError):
            covered_and_missed(K4, f)
        with pytest.raises(BindingError):
            is_perfect(K4, f)

    def test_is_perfect(self):
        assert is_perfect(C4, Matching.of(C4, [(0, 1), (2, 3)]))
        assert not is_perfect(K3, Matching.of(K3, [(0, 1)]))
        assert is_perfect(Graph(0), Matching.of(Graph(0), []))

    def test_has_perfect_matching(self):
        assert has_perfect_matching(C4)
        assert not has_perfect_matching(K3)
        assert has_perfect_matching(TWO_K2)
        assert has_perfect_matching(Graph(0))
        assert not has_perfect_matching(P3)
