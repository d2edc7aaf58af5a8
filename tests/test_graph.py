"""Graph construction, formats, and metric queries.

The graph6 expectations were decoded by hand from the bit-packing rules
(vertex-count byte n+63, column-order upper-triangle bits, big-endian six
bits per byte, zero padding) and cross-checked against networkx's
nauty-compatible codec, which also backs the exhaustive round-trip test.
"""

import pytest

from matchcover import (
    BindingError,
    Edge,
    EdgeListParseError,
    Graph,
    Graph6ParseError,
    Matching,
    bipartition,
    covered_and_missed,
    delete_edge,
    delete_vertices,
    distance,
    distance_to_set,
    drop_isolated,
    incident_edges,
    is_connected,
    is_perfect,
    parse_edge_list,
    parse_graph6,
    to_dot,
    to_graph6,
)
from matchcover.sweep import enumerate_labeled_graphs, random_graph

from helpers import C4, C6, K2, K3, K4, P3, P4, STAR3, TWO_K2

GRAPH6_TABLE = [
    ("?", Graph(0)),
    ("@", Graph(1)),
    ("A?", Graph(2)),
    ("A_", K2),
    ("Bg", P3),
    ("Bw", K3),
    ("Ch", P4),
    ("Cl", C4),
    ("Cs", STAR3),
    ("C~", K4),
    ("EhEG", C6),
]


class TestGraphConstruction:
    def test_edges_are_canonicalized(self):
        g = Graph(4, [(3, 2), (1, 0)])
        assert g.edges == (Edge(0, 1), Edge(2, 3))

    def test_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 1), (1, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 2)])

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            Graph(-1)

    def test_degree_and_membership_in_either_order(self):
        assert [STAR3.degree(v) for v in range(4)] == [3, 1, 1, 1]
        assert (0, 2) in STAR3 and (2, 0) in STAR3
        assert (1, 2) not in STAR3 and (2, 1) not in STAR3

    def test_equal_graphs_compare_equal(self):
        assert Graph(3, [(0, 1), (1, 2)]) == Graph(3, [(2, 1), (0, 1)])

    @pytest.mark.parametrize("n", range(6))
    def test_adjacency_ascending_from_reversed_edges(self, n):
        for g in enumerate_labeled_graphs(n):
            rebuilt = Graph(n, [(v, u) for u, v in reversed(g.edges)])
            for v in range(n):
                neighbors = sorted(x for e in g.edges for x in e if v in e and x != v)
                assert rebuilt.adjacency[v] == tuple(neighbors)

    def test_matchings_bind_to_equal_graphs(self):
        # An equal but distinct K3 accepts K3's matching; C4 and P3 (another
        # 3-vertex graph with the edge) reject it in both operations.
        twin = Graph(3, [(1, 2), (0, 2), (0, 1)])
        assert twin is not K3 and twin == K3 and hash(twin) == hash(K3)
        f = Matching.of(K3, [(0, 1)])
        assert covered_and_missed(twin, f) == (frozenset({0, 1}), frozenset({2}))
        assert is_perfect(twin, f) is False
        for other in (C4, P3):
            with pytest.raises(BindingError):
                covered_and_missed(other, f)
            with pytest.raises(BindingError):
                is_perfect(other, f)


class TestNormalFormCheck:
    """Input already in normal form is checked in one pass and kept; any
    other input is normalized, and invalid input raises the normalization's
    own error.  The expected messages are those of the full normalization."""

    def test_canonical_tuple_kept_as_given(self):
        edges = (Edge(0, 1), Edge(0, 3), Edge(2, 3))
        assert Graph(4, edges).edges is edges

    @pytest.mark.parametrize(
        "n, edges, expected",
        [
            (4, (Edge(2, 3), Edge(0, 1)), (Edge(0, 1), Edge(2, 3))),
            (3, (Edge(2, 1),), (Edge(1, 2),)),
            (3, ((0, 1), (1, 2)), (Edge(0, 1), Edge(1, 2))),
            (3, [Edge(0, 1), Edge(1, 2)], (Edge(0, 1), Edge(1, 2))),
        ],
        ids=["descending", "reversed-pair", "plain-tuples", "list"],
    )
    def test_other_input_normalized(self, n, edges, expected):
        g = Graph(n, edges)
        assert g.edges == expected
        assert all(type(e) is Edge for e in g.edges)

    @pytest.mark.parametrize(
        "n, edges, message",
        [
            (3, (Edge(0, 1), Edge(1, 3)), "edge (1, 3) out of range for n=3"),
            (3, (Edge(-1, 1),), "edge (-1, 1) out of range for n=3"),
            (3, (Edge(0, 1), Edge(0, 1)), "duplicate edge (0, 1)"),
            (3, (Edge(2, 2),), "loop (2, 2) is not a valid edge"),
            (-1, (), "vertex count must be nonnegative, got -1"),
            (-2, (Edge(0, 1),), "vertex count must be nonnegative, got -2"),
        ],
        ids=["out-of-range", "negative-endpoint", "duplicate", "loop",
             "negative-n", "negative-n-with-edges"],
    )
    def test_invalid_input_same_error(self, n, edges, message):
        with pytest.raises(ValueError) as info:
            Graph(n, edges)
        assert type(info.value) is ValueError
        assert str(info.value) == message


class TestGraph6:
    @pytest.mark.parametrize("code,expected", GRAPH6_TABLE)
    def test_decode(self, code, expected):
        assert parse_graph6(code) == expected

    @pytest.mark.parametrize("code,g", GRAPH6_TABLE)
    def test_encode(self, code, g):
        assert to_graph6(g) == code

    def test_header_prefix_accepted(self):
        assert parse_graph6(">>graph6<<C~") == K4

    def test_trailing_newline_tolerated(self):
        assert parse_graph6("C~\n") == K4

    def test_empty_input_rejected(self):
        with pytest.raises(Graph6ParseError):
            parse_graph6("")

    def test_bad_character_names_offset(self):
        with pytest.raises(Graph6ParseError) as exc:
            parse_graph6("C" + chr(20))
        assert exc.value.offset == 1

    def test_bad_leading_character(self):
        with pytest.raises(Graph6ParseError) as exc:
            parse_graph6(chr(30))
        assert exc.value.offset == 0

    def test_missing_bytes_rejected(self):
        with pytest.raises(Graph6ParseError, match="expected 1 adjacency"):
            parse_graph6("C")

    def test_extra_bytes_rejected(self):
        with pytest.raises(Graph6ParseError):
            parse_graph6("C~~")

    def test_nonzero_padding_rejected(self):
        # n=2 uses one adjacency bit; 'O' carries 010000, so a padding bit is set.
        with pytest.raises(Graph6ParseError, match="padding"):
            parse_graph6("AO")

    def test_large_n_rejected_on_decode(self):
        with pytest.raises(Graph6ParseError, match="n > 62"):
            parse_graph6("~??")

    def test_large_n_rejected_on_encode(self):
        with pytest.raises(ValueError, match="n <= 62"):
            to_graph6(Graph(63))
    @staticmethod
    def reference_graph6(g):
        # Tests every pair in column order, then packs six bits per byte.
        present = set(g.edges)
        bits = [(u, v) in present for v in range(1, g.n) for u in range(v)]
        bits += [False] * (-len(bits) % 6)
        groups = (bits[i:i + 6] for i in range(0, len(bits), 6))
        body = [chr(63 + sum(bit << (5 - k) for k, bit in enumerate(b))) for b in groups]
        return chr(g.n + 63) + "".join(body)

    def test_encode_matches_the_reference_exhaustive_n6(self):
        for n in range(7):
            for g in enumerate_labeled_graphs(n):
                assert to_graph6(g) == self.reference_graph6(g), g.edges

    @pytest.mark.parametrize("n", [7, 8, 11, 12, 13, 20, 31, 47, 61, 62])
    def test_encode_matches_the_reference_seeded(self, n):
        for seed in range(20):
            for p in (0.1, 0.5, 0.9):
                g = random_graph(n, p, seed)
                assert to_graph6(g) == self.reference_graph6(g), (n, p, seed)

    def test_decode_gives_edges_in_normal_form(self, monkeypatch):
        # Lexicographic Edge tuples pass Graph's one-pass check as they are,
        # so the sorting normalization (graph.edge per pair) never runs.
        from matchcover import graph as graph_mod

        codes = [to_graph6(g) for g in (K4, C6, STAR3, TWO_K2)]
        codes += [to_graph6(random_graph(n, 0.5, n)) for n in (7, 20, 62)]

        def refuse(u, v):
            raise AssertionError(f"pair ({u}, {v}) was normalized")

        monkeypatch.setattr(graph_mod, "edge", refuse)
        for code in codes:
            g = parse_graph6(code)
            assert all(type(e) is Edge and e.u < e.v for e in g.edges), code
            assert list(g.edges) == sorted(set(g.edges)), code
            assert to_graph6(g) == code

    def test_round_trip_exhaustive_n6(self):
        for n in range(7):
            for g in enumerate_labeled_graphs(n):
                assert parse_graph6(to_graph6(g)) == g

    def test_cross_check_against_networkx(self):
        nx = pytest.importorskip("networkx")
        for n in range(5):
            for g in enumerate_labeled_graphs(n):
                other = nx.Graph()
                other.add_nodes_from(range(g.n))
                other.add_edges_from(g.edges)
                reference = nx.to_graph6_bytes(other, header=False).decode().strip()
                assert to_graph6(g) == reference
                decoded = nx.from_graph6_bytes(reference.encode())
                assert sorted(decoded.edges()) == [tuple(e) for e in g.edges]


class TestEdgeList:
    def test_single_edge(self):
        assert parse_edge_list("2\n0 1") == K2

    def test_cycle(self):
        assert parse_edge_list("4\n0 1\n1 2\n2 3\n0 3") == C4

    def test_loop_rejected(self):
        with pytest.raises(EdgeListParseError, match="loop"):
            parse_edge_list("3\n0 1\n1 1")

    def test_duplicate_rejected(self):
        with pytest.raises(EdgeListParseError, match="duplicate"):
            parse_edge_list("3\n0 1\n1 0")

    def test_out_of_range_rejected(self):
        with pytest.raises(EdgeListParseError, match="out of range"):
            parse_edge_list("3\n0 3")

    def test_empty_rejected(self):
        with pytest.raises(EdgeListParseError):
            parse_edge_list("")

    def test_bad_header_rejected(self):
        with pytest.raises(EdgeListParseError, match="vertex count"):
            parse_edge_list("x\n0 1")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("-1\n", "line 1: vertex count must be nonnegative"),
            ("3\n0 1\n1 2 0\n", "line 3: expected 'u v', got '1 2 0'"),
            ("3\n\n0 x\n", "line 3: non-integer endpoint in '0 x'"),
        ],
    )
    def test_malformed_lines_rejected(self, text, message):
        with pytest.raises(EdgeListParseError, match=f"^{message}$"):
            parse_edge_list(text)

    def test_blank_lines_ignored(self):
        assert parse_edge_list("\n2\n\n0 1\n\n") == K2


class TestDot:
    def test_highlight_styles_exactly_requested_edges(self):
        text = to_dot(C4, [(0, 1), (2, 3)])
        styled = [line for line in text.splitlines() if "[" in line]
        assert len(styled) == 2
        assert "0 -- 1" in styled[0] and "2 -- 3" in styled[1]

    def test_plain_output_shape(self):
        text = to_dot(K2)
        assert text.startswith("graph {")
        assert "0 -- 1;" in text
        assert text.rstrip().endswith("}")

    def test_isolated_vertices_listed(self):
        assert "  2;" in to_dot(Graph(3, [(0, 1)]))

    def test_non_edge_highlight_rejected(self):
        with pytest.raises(ValueError):
            to_dot(P4, [(0, 3)])


class TestEdits:
    def test_incident_edges_triangle(self):
        assert incident_edges(K3, 0) == (Edge(0, 1), Edge(0, 2))

    def test_incident_edges_path_center(self):
        assert incident_edges(P3, 1) == (Edge(0, 1), Edge(1, 2))

    def test_incident_edges_isolated(self):
        assert incident_edges(Graph(3), 2) == ()

    def test_incident_edges_out_of_range(self):
        with pytest.raises(ValueError):
            incident_edges(K3, 3)

    def test_delete_edge_keeps_vertices(self):
        g = delete_edge(C4, (0, 1))
        assert g.n == 4
        assert g.edges == (Edge(0, 3), Edge(1, 2), Edge(2, 3))

    def test_delete_missing_edge_rejected(self):
        with pytest.raises(ValueError):
            delete_edge(P4, (0, 3))

    def test_delete_then_reinsert_is_identity(self):
        for e in C4.edges:
            g = delete_edge(C4, e)
            assert Graph(g.n, g.edges + (e,)) == C4

    def test_delete_vertices_relabels(self):
        assert delete_vertices(K3, {0}) == K2

    def test_delete_vertices_out_of_range(self):
        with pytest.raises(ValueError):
            delete_vertices(K3, {5})

    def test_drop_isolated(self):
        assert drop_isolated(Graph(3, [(0, 1)])) == K2
        assert drop_isolated(K2) is K2


class TestMetrics:
    def test_path_distance(self):
        assert distance(P4, 0, 3) == 3

    def test_distance_to_self(self):
        assert distance(K4, 2, 2) == 0

    def test_unreachable_distance(self):
        assert distance(TWO_K2, 0, 2) is None

    def test_distance_out_of_range(self):
        with pytest.raises(ValueError):
            distance(P4, 0, 4)

    def test_distance_to_set(self):
        assert distance_to_set(P4, 0, {2, 3}) == 2

    def test_distance_to_set_member(self):
        assert distance_to_set(P4, 2, {1, 2}) == 0

    def test_distance_to_set_unreachable(self):
        assert distance_to_set(TWO_K2, 0, {2, 3}) is None

    def test_distance_to_empty_set(self):
        with pytest.raises(ValueError):
            distance_to_set(P4, 0, set())

    def test_connectivity(self):
        assert is_connected(C4)
        assert not is_connected(TWO_K2)
        assert is_connected(Graph(0))
        assert is_connected(Graph(1))
        assert not is_connected(Graph(2))

    def test_bipartition_cycle(self):
        assert bipartition(C4) == (frozenset({0, 2}), frozenset({1, 3}))

    def test_bipartition_odd_cycle_absent(self):
        assert bipartition(K3) is None

    def test_bipartition_components(self):
        assert bipartition(TWO_K2) == (frozenset({0, 2}), frozenset({1, 3}))

    def test_bipartition_colours_each_component_from_its_lowest_vertex(self):
        assert bipartition(Graph(5, [(0, 2), (1, 3), (3, 4)])) == (
            frozenset({0, 1, 4}),
            frozenset({2, 3}),
        )

    def test_bipartition_odd_cycle_in_a_later_component(self):
        assert bipartition(Graph(6, [(0, 1), (2, 3), (3, 4), (2, 4)])) is None

    def test_bipartition_empty_graph(self):
        assert bipartition(Graph(0)) == (frozenset(), frozenset())
