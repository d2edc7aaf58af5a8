"""Population generation, sweep execution, and report determinism."""

import io
import json
import math
from collections import Counter
from pathlib import Path

import pytest

from matchcover import (
    Graph,
    Matching,
    MatchingSet,
    SweepConfig,
    delete_edge,
    enumerate_labeled_graphs,
    enumerate_maximum_matchings,
    has_perfect_matching,
    ingest_graph6_stream,
    is_matching_covered,
    is_minimal_matching_covered,
    matching_number,
    random_graph,
    run_sweep,
    sweep_graphs,
    to_graph6,
)
from matchcover.graph import isolated_vertices
from matchcover.matching import within_guard
from matchcover.sweep import (
    _CHECKS,
    EXHAUSTIVE_MODE,
    PROPERTY_NAMES,
    RANDOM_MODE,
    RouteDisagreementError,
    SplitMix64,
    StreamParseError,
    _Facts,
    _COVERED,
    _DECIDED,
    _NU,
    _LabeledFacts,
    _covered_walk,
    _labeled_facts,
    _merge_tallies,
    _nu_table,
    _OracleFacts,
    _fact,
    _pair_masks,
    _splitmix64_lanes,
    _sweep_chunk,
    _tally_graphs,
)

from helpers import (
    C4,
    K4,
    SerialPool,
    count_blossom_passes,
    count_builds,
    count_covered_walks,
    count_deletion_kernel_runs,
    count_edge_deletions,
    count_kernel_searches,
    count_scans,
    labeled_graph,
    lex_pairs,
)


class TestLabeledEnumeration:
    @pytest.mark.parametrize("n,count", [(0, 1), (1, 1), (2, 2), (3, 8), (4, 64)])
    def test_population_counts(self, n, count):
        assert sum(1 for _ in enumerate_labeled_graphs(n)) == count

    def test_first_graph_is_edgeless(self):
        graphs = list(enumerate_labeled_graphs(3))
        assert graphs[0] == Graph(3)
        assert graphs[-1] == Graph(3, [(0, 1), (0, 2), (1, 2)])

    def test_all_distinct(self):
        graphs = list(enumerate_labeled_graphs(4))
        assert len(set(graphs)) == 64

    def test_guard(self):
        with pytest.raises(ValueError):
            list(enumerate_labeled_graphs(9))


class TestSplitMix64:
    def test_reference_vectors_seed_zero(self):
        rng = SplitMix64(0)
        assert [rng.next_uint64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_reference_vectors_seed_1234567(self):
        rng = SplitMix64(1234567)
        assert [rng.next_uint64() for _ in range(2)] == [
            6457827717110365317,
            3203168211198807973,
        ]

    @pytest.mark.parametrize("seed", [0, 1234567, 2**64 - 1])
    def test_lanes_hold_the_stream(self, seed):
        # 1891 draws: one per vertex pair at n = 62.
        rng = SplitMix64(seed)
        lanes = _splitmix64_lanes(seed, 1891)
        assert [lanes >> 128 * k & (2**128 - 1) for k in range(1891)] == [
            rng.next_uint64() for _ in range(1891)
        ]

    def test_unit_interval(self):
        rng = SplitMix64(99)
        values = [rng.next_unit() for _ in range(1000)]
        assert all(0.0 <= x < 1.0 for x in values)


class TestRandomGraph:
    def test_extremes(self):
        assert random_graph(5, 0.0, 3).edges == ()
        assert len(random_graph(5, 1.0, 3).edges) == 10

    def test_seed_determinism(self):
        assert random_graph(6, 0.5, 42) == random_graph(6, 0.5, 42)

    def test_different_seeds_differ(self):
        drawn = {random_graph(8, 0.5, seed) for seed in range(16)}
        assert len(drawn) > 1

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
    def test_each_pair_takes_one_next_unit_draw(self, p):
        # The contract: pair k, in lexicographic order, is an edge iff the
        # k-th next_unit() of SplitMix64(seed) is below p.
        for n in range(21):
            for seed in range(50):
                rng = SplitMix64(seed)
                expected = [e for e in lex_pairs(n) if rng.next_unit() < p]
                assert random_graph(n, p, seed) == Graph(n, expected), (n, seed)

    @pytest.mark.parametrize("n", [64, 65, 100])
    def test_past_one_lane_block(self, n):
        # n = 64 has 2016 pairs, one block of draws; n = 65 needs two, and
        # n = 100 takes three without the stored pair table.
        for seed in range(3):
            rng = SplitMix64(seed)
            expected = [e for e in lex_pairs(n) if rng.next_unit() < 0.5]
            assert random_graph(n, 0.5, seed) == Graph(n, expected), (n, seed)

    def test_a_draw_equal_to_p_is_no_edge(self):
        # The one pair of n = 2 is an edge iff the first draw is below p.
        first = SplitMix64(0).next_unit()
        assert random_graph(2, first, 0).edges == ()
        assert random_graph(2, math.nextafter(first, 1.0), 0).edges == ((0, 1),)

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            random_graph(4, 1.5, 0)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            random_graph(-1, 0.5, 0)


class TestIngest:
    def test_two_lines(self):
        graphs = list(ingest_graph6_stream(io.StringIO("A_\nA?\n")))
        assert graphs == [Graph(2, [(0, 1)]), Graph(2)]

    def test_blank_lines_skipped(self):
        graphs = list(ingest_graph6_stream(io.StringIO("\nCl\n\n")))
        assert graphs == [C4]

    def test_strict_mode_names_line(self):
        stream = io.StringIO("A_\n!bad!\nA?\n")
        with pytest.raises(StreamParseError) as exc:
            list(ingest_graph6_stream(stream))
        assert exc.value.line_number == 2

    def test_skip_mode_drops_bad_lines(self):
        stream = io.StringIO("A_\n!bad!\nA?\n")
        graphs = list(ingest_graph6_stream(stream, policy="skip"))
        assert len(graphs) == 2

    def test_empty_stream(self):
        assert list(ingest_graph6_stream(io.StringIO(""))) == []

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            list(ingest_graph6_stream(io.StringIO("A_"), policy="lenient"))

    def test_unknown_policy_raises_on_the_call(self):
        # No next(): the policy is checked before any line is read.
        stream = io.StringIO("A_\n")
        with pytest.raises(ValueError, match="lenient"):
            ingest_graph6_stream(stream, policy="lenient")
        assert stream.tell() == 0


class TestConfigValidation:
    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            SweepConfig(mode="all", properties=("theorem",)).validated()

    def test_unknown_property(self):
        with pytest.raises(ValueError):
            SweepConfig(
                mode=EXHAUSTIVE_MODE, properties=("conjecture",), max_n=3
            ).validated()

    def test_empty_properties(self):
        with pytest.raises(ValueError):
            SweepConfig(mode=EXHAUSTIVE_MODE, properties=(), max_n=3).validated()

    def test_exhaustive_bound(self):
        with pytest.raises(ValueError):
            SweepConfig(
                mode=EXHAUSTIVE_MODE, properties=("theorem",), max_n=9
            ).validated()

    def test_random_options_rejected_in_exhaustive(self):
        with pytest.raises(ValueError):
            SweepConfig(
                mode=EXHAUSTIVE_MODE,
                properties=("theorem",),
                max_n=3,
                sample_count=10,
            ).validated()

    @pytest.mark.parametrize("field", [{"n": 4}, {"seed": 0}, {"edge_probability": 0.5}])
    def test_random_field_rejected_in_exhaustive(self, field):
        with pytest.raises(ValueError, match="random mode only"):
            SweepConfig(
                mode=EXHAUSTIVE_MODE, properties=("theorem",), max_n=3, **field
            ).validated()

    def test_max_n_rejected_in_random(self):
        with pytest.raises(ValueError, match="exhaustive mode only"):
            SweepConfig(
                mode=RANDOM_MODE,
                properties=("oracle-nu",),
                max_n=7,
                n=5,
                edge_probability=0.5,
                sample_count=10,
                seed=0,
            ).validated()

    def test_validated_keeps_every_field(self):
        cfg = SweepConfig(
            mode=RANDOM_MODE,
            properties=("oracle-allowed", "oracle-nu"),
            n=5,
            edge_probability=0.5,
            sample_count=10,
            seed=3,
            jobs=2,
        )
        assert cfg.validated() == SweepConfig(
            mode=RANDOM_MODE,
            properties=("oracle-nu", "oracle-allowed"),
            n=5,
            edge_probability=0.5,
            sample_count=10,
            seed=3,
            jobs=2,
        )

    @pytest.mark.parametrize("n, ok", [(62, True), (63, False)])
    def test_random_n_limited_to_graph6(self, n, ok):
        cfg = SweepConfig(
            mode=RANDOM_MODE,
            properties=("theorem",),
            n=n,
            edge_probability=0.5,
            sample_count=1,
            seed=0,
        )
        if ok:
            assert cfg.validated().n == n
        else:
            with pytest.raises(ValueError, match="n <= 62"):
                cfg.validated()

    def test_random_requires_probability(self):
        with pytest.raises(ValueError):
            SweepConfig(
                mode=RANDOM_MODE,
                properties=("oracle-nu",),
                n=5,
                sample_count=10,
                seed=0,
            ).validated()

    @pytest.mark.parametrize(
        "missing, message",
        [("sample_count", "nonnegative sample_count"), ("seed", "requires a seed")],
    )
    def test_random_requires_sample_count_and_seed(self, missing, message):
        fields = dict(n=5, edge_probability=0.5, sample_count=10, seed=0)
        del fields[missing]
        cfg = SweepConfig(mode=RANDOM_MODE, properties=("oracle-nu",), **fields)
        with pytest.raises(ValueError, match=message):
            cfg.validated()

    def test_bad_probability(self):
        with pytest.raises(ValueError):
            SweepConfig(
                mode=RANDOM_MODE,
                properties=("oracle-nu",),
                n=5,
                edge_probability=1.2,
                sample_count=10,
                seed=0,
            ).validated()

    def test_jobs_positive(self):
        with pytest.raises(ValueError):
            SweepConfig(
                mode=EXHAUSTIVE_MODE, properties=("theorem",), max_n=3, jobs=0
            ).validated()

    def test_properties_reordered_canonically(self):
        cfg = SweepConfig(
            mode=EXHAUSTIVE_MODE,
            properties=("oracle-nu", "theorem", "theorem"),
            max_n=3,
        ).validated()
        assert cfg.properties == ("theorem", "oracle-nu")


class TestPropertyList:
    def test_names_are_the_check_table_and_the_schema_enum(self):
        schema = json.loads(
            (Path(__file__).resolve().parents[1] / "schemas" / "report.json").read_text()
        )
        assert PROPERTY_NAMES == tuple(_CHECKS)
        assert list(PROPERTY_NAMES) == schema["$defs"]["propertyName"]["enum"]


class TestRunSweep:
    def test_exhaustive_theorem_small(self):
        report = run_sweep(
            SweepConfig(mode=EXHAUSTIVE_MODE, properties=("theorem",), max_n=4)
        )
        assert report.population == 76  # 1 + 1 + 2 + 8 + 64
        assert report.failures == {"theorem": 0}
        assert report.first_counterexample is None
        # C4 (3 labelings) and K4 are the only in-class graphs at n <= 4.
        assert report.in_class == {"theorem": 4}
        assert report.passes == {"theorem": 4}

    def test_exhaustive_oracles_small(self):
        report = run_sweep(
            SweepConfig(
                mode=EXHAUSTIVE_MODE,
                properties=("oracle-nu", "oracle-allowed"),
                max_n=4,
            )
        )
        assert report.in_class == {"oracle-nu": 76, "oracle-allowed": 76}
        assert report.total_failures == 0

    def test_random_oracle(self):
        report = run_sweep(
            SweepConfig(
                mode=RANDOM_MODE,
                properties=("oracle-nu",),
                n=10,
                edge_probability=0.3,
                sample_count=100,
                seed=7,
            )
        )
        assert report.population == 100
        assert report.failures == {"oracle-nu": 0}

    def test_parallel_matches_serial(self):
        serial = run_sweep(
            SweepConfig(
                mode=EXHAUSTIVE_MODE,
                properties=("theorem", "lemma1"),
                max_n=5,
                jobs=1,
            )
        )
        parallel = run_sweep(
            SweepConfig(
                mode=EXHAUSTIVE_MODE,
                properties=("theorem", "lemma1"),
                max_n=5,
                jobs=4,
            )
        )
        assert serial.to_payload(include_wall_time=False) == parallel.to_payload(
            include_wall_time=False
        )

    def test_repeat_runs_identical(self):
        cfg = SweepConfig(
            mode=RANDOM_MODE,
            properties=("oracle-allowed",),
            n=8,
            edge_probability=0.4,
            sample_count=50,
            seed=11,
        )
        first = run_sweep(cfg).to_payload(include_wall_time=False)
        second = run_sweep(cfg).to_payload(include_wall_time=False)
        assert first == second

    def test_wall_time_recorded(self):
        report = run_sweep(
            SweepConfig(mode=EXHAUSTIVE_MODE, properties=("theorem",), max_n=2)
        )
        assert report.wall_time >= 0
        assert "wall_time" in report.to_payload()
        assert "wall_time" not in report.to_payload(include_wall_time=False)


class TestSweepGraphs:
    def test_explicit_population(self):
        report = sweep_graphs([C4, K4], ("theorem", "oracle-nu"))
        assert report.population == 2
        assert report.in_class == {"theorem": 2, "oracle-nu": 2}
        assert report.total_failures == 0

    def test_matches_exhaustive_slice(self):
        graphs = list(enumerate_labeled_graphs(4))
        explicit = sweep_graphs(graphs, ("theorem",))
        assert explicit.in_class == {"theorem": 4}

    def test_unknown_property(self):
        with pytest.raises(ValueError):
            sweep_graphs([C4], ("nope",))

    def test_jobs_zero_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            sweep_graphs([C4], ("theorem",), jobs=0)

    def test_parallel_explicit(self):
        graphs = list(enumerate_labeled_graphs(4))
        a = sweep_graphs(graphs, ("oracle-allowed",), jobs=1)
        b = sweep_graphs(graphs, ("oracle-allowed",), jobs=3)
        assert a.to_payload(include_wall_time=False) == b.to_payload(
            include_wall_time=False
        )

    def test_more_than_62_vertices_refused_before_any_work(self, monkeypatch):
        from matchcover import sweep as sweep_mod

        def no_work(*args):
            raise AssertionError("graphs were swept")

        monkeypatch.setattr(sweep_mod, "_tally_graphs", no_work)
        graphs = [C4, Graph(63, [(0, 1)])]
        with pytest.raises(ValueError, match="n <= 62, got n=63"):
            sweep_graphs(graphs, ["oracle-nu"])
        with pytest.raises(ValueError, match="n <= 62, got n=63"):
            sweep_graphs(iter(graphs), ["theorem"], jobs=2)


class TestCounterexampleReporting:
    def test_forced_failure_reports_minimal_graph(self, monkeypatch):
        from matchcover import sweep as sweep_mod

        # Force "theorem" to fail on every in-class graph, and bypass the
        # oracle re-verification so the reporting plumbing can be observed.
        def always_fail(facts):
            in_class = bool(facts.g.edges) and facts.no_isolated
            return (True, False) if in_class else (False, True)

        monkeypatch.setitem(sweep_mod._CHECKS, "theorem", always_fail)
        monkeypatch.setattr(sweep_mod, "_reverify_failure", lambda g, prop: None)

        report = run_sweep(
            SweepConfig(mode=EXHAUSTIVE_MODE, properties=("theorem",), max_n=3)
        )
        assert report.failures["theorem"] == report.in_class["theorem"] > 0
        prop, code = report.first_counterexample
        assert prop == "theorem"
        assert code == "A_"  # K2: the (n, graph6)-minimal graph with an edge

    def test_passes_are_in_class_graphs_less_failures(self, monkeypatch):
        from matchcover import sweep as sweep_mod

        # Graphs with an odd edge count fail; the tally keeps no pass count.
        def odd_fails(facts):
            edges = len(facts.g.edges)
            return (True, edges % 2 == 0) if edges else (False, True)

        monkeypatch.setitem(sweep_mod._CHECKS, "theorem", odd_fails)
        monkeypatch.setattr(sweep_mod, "_reverify_failure", lambda g, prop: None)
        counts, _ = _sweep_chunk((None, list(enumerate_labeled_graphs(4)), ("theorem",)))
        assert {key[0] for key in counts if key != "population"} == {"in_class", "failures"}
        report = sweep_graphs(enumerate_labeled_graphs(4), ("theorem",))
        assert report.in_class == {"theorem": 63}
        assert report.failures == {"theorem": 32}
        assert report.passes == {"theorem": 31}

    def test_reverify_rejects_false_alarm(self):
        from matchcover.sweep import _reverify_failure

        with pytest.raises(RuntimeError, match="disagree"):
            _reverify_failure(C4, "theorem")

    def test_reverify_reruns_the_sweep_check(self, monkeypatch):
        from matchcover import sweep as sweep_mod

        # A check that fails every graph with an edge is confirmed on the
        # oracle route too: the re-check runs the sweep's own check.
        def always_fail(facts):
            return (True, False) if facts.g.edges else (False, True)

        monkeypatch.setitem(sweep_mod._CHECKS, "theorem", always_fail)
        sweep_mod._reverify_failure(C4, "theorem")
        with pytest.raises(RuntimeError, match="disagree"):
            sweep_mod._reverify_failure(Graph(2), "theorem")

    def test_merge_takes_minimal_counterexample(self):
        a = (
            Counter({"population": 5, ("in_class", "theorem"): 2,
                     ("failures", "theorem"): 1}),
            (4, "Cl", "theorem"),
        )
        b = (
            Counter({"population": 5, ("in_class", "theorem"): 1,
                     ("failures", "theorem"): 1}),
            (2, "A_", "theorem"),
        )
        counts, best = _merge_tallies([a, b])
        assert counts["population"] == 10
        assert counts["failures", "theorem"] == 2
        assert best == (2, "A_", "theorem")


class TestOneBuildPerGraph:
    # The n <= 5 theorem sweep reads no_isolated, covered and minimal_covered,
    # every G - e included, off the chunk's nu table.  It builds a Graph only
    # for the 4 in-class graphs, whose perfect matching takes the blossom
    # search, and for the n = 0 graph, whose edge count the check reads.
    CFG = dict(mode=EXHAUSTIVE_MODE, properties=("theorem",), max_n=5)
    BUILT = [(0, 0), (4, 4), (4, 4), (4, 4), (4, 6)]  # (n, edges): C4 three times, K4

    def test_theorem_sweep_builds_each_graph_once(self, monkeypatch):
        built = count_builds(monkeypatch)
        deletions = count_edge_deletions(monkeypatch)
        report = run_sweep(SweepConfig(**self.CFG))
        assert report.population == 1100
        assert [(g.n, len(g.edges)) for g in built] == self.BUILT
        assert len(set(built)) == len(built)
        assert deletions == []

    def test_theorem_sweep_runs_at_most_one_blossom_pass_per_graph(self, monkeypatch):
        passes = count_blossom_passes(monkeypatch)
        kernel_runs = count_deletion_kernel_runs(monkeypatch)
        report = run_sweep(SweepConfig(**self.CFG))
        assert report.in_class == {"theorem": 4}
        assert len(passes) == 4
        assert kernel_runs == []

    @pytest.mark.parametrize("jobs", [1, 2, 4, 8])
    def test_every_chunking_does_the_same_work(self, monkeypatch, jobs):
        from matchcover import sweep as sweep_mod

        # Each chunk fills its own table from mask 0, so none misses.
        monkeypatch.setattr(sweep_mod, "Pool", SerialPool)
        built = count_builds(monkeypatch)
        passes = count_blossom_passes(monkeypatch)
        kernel_runs = count_deletion_kernel_runs(monkeypatch)
        report = run_sweep(SweepConfig(jobs=jobs, **self.CFG))
        assert report.in_class == {"theorem": 4}
        assert [(g.n, len(g.edges)) for g in built] == self.BUILT
        assert len(set(built)) == len(built)
        assert (len(passes), len(kernel_runs)) == (4, 0)


class TestOneEnumerationPerGraph:
    def test_oracle_sweep_scans_each_graph_once(self, monkeypatch):
        scanned = count_scans(monkeypatch)
        report = run_sweep(
            SweepConfig(
                mode=RANDOM_MODE,
                properties=("oracle-nu", "oracle-allowed"),
                n=7,
                edge_probability=0.4,
                sample_count=40,
                seed=3,
            )
        )
        # n = 7 has at most 21 edges, so every graph is within the guard.
        assert report.in_class == {"oracle-nu": 40, "oracle-allowed": 40}
        assert report.total_failures == 0
        assert len(scanned) == 40

    def test_oracle_sweep_runs_one_blossom_pass_per_graph(self, monkeypatch):
        # nu and the allowed-edge kernel share each graph's maximum matching.
        passes = count_blossom_passes(monkeypatch)
        report = run_sweep(
            SweepConfig(
                mode=RANDOM_MODE,
                properties=("oracle-nu", "oracle-allowed"),
                n=7,
                edge_probability=0.4,
                sample_count=40,
                seed=3,
            )
        )
        assert report.in_class == {"oracle-nu": 40, "oracle-allowed": 40}
        assert passes == [7] * 40

    def test_reverify_enumerates_the_graph_once(self, monkeypatch):
        from matchcover import sweep as sweep_mod

        # A fast nu of 0 makes C4 fail the theorem; the oracle re-check then
        # disagrees.  C4 itself is enumerated once, each C4 - e once.
        monkeypatch.setattr(sweep_mod._Facts, "nu", property(lambda facts: 0))
        scanned = count_scans(monkeypatch)
        with pytest.raises(RouteDisagreementError, match="disagree"):
            sweep_graphs([C4], ("theorem",))
        assert scanned.count(C4) == 1
        assert len(scanned) == 1 + len(C4.edges)


class TestKernelSearches:
    # random-oracle's seed-1 graphs: random_graph(10, 0.3, 2000 + i), i < 2000.
    RANDOM = dict(mode=RANDOM_MODE, n=10, edge_probability=0.3, sample_count=2000, seed=2000)

    @staticmethod
    def searches(monkeypatch, *configs: dict) -> list[int]:
        # The kernel searches each sweep runs, one count per config.
        searches, counts = count_kernel_searches(monkeypatch), []
        for cfg in configs:
            searches.clear()
            assert run_sweep(SweepConfig(**cfg)).total_failures == 0
            counts.append(len(searches))
        return counts

    def test_covered_and_allowed_share_one_kernel_run_per_graph(self, monkeypatch):
        # covered stops at the first disallowed edge; allowed resumes there.
        counts = self.searches(
            monkeypatch,
            dict(properties=PROPERTY_NAMES, **self.RANDOM),
            dict(properties=("oracle-allowed",), **self.RANDOM),
            dict(properties=PROPERTY_NAMES[:4], **self.RANDOM),
        )
        assert counts == [15041, 15041, 3342]

    def test_edges_on_alternating_4_cycles_take_no_search(self, monkeypatch):
        # 146,557 and 18,177 searches without the 4-cycle shortcut.
        counts = self.searches(
            monkeypatch,
            dict(mode=EXHAUSTIVE_MODE, properties=("oracle-allowed",), max_n=6),
            dict(properties=("oracle-allowed",), **self.RANDOM),
        )
        assert counts == [95149, 15041]


class TestCoveredWalks:
    # The labeled route walks a mask's set bits at most once per chunk: the
    # 28,264 n <= 6 masks without an isolated vertex, and 819 more in the
    # deletion loop of the 5,329 covered ones (41,681 without the stored
    # verdicts).
    CFG = dict(mode=EXHAUSTIVE_MODE, properties=("theorem",), max_n=6)

    def test_serial_theorem_sweep_walks_29083_masks(self, monkeypatch):
        walks = count_covered_walks(monkeypatch)
        report = run_sweep(SweepConfig(**self.CFG))
        assert report.in_class == {"theorem": 349}
        assert len(walks) == 29083

    @pytest.mark.parametrize("jobs", [1, 2, 4, 8])
    def test_no_chunk_walks_a_mask_twice(self, monkeypatch, jobs):
        from matchcover import sweep as sweep_mod

        monkeypatch.setattr(sweep_mod, "Pool", SerialPool)
        walks = count_covered_walks(monkeypatch)
        report = run_sweep(SweepConfig(jobs=jobs, **self.CFG))
        assert report.in_class == {"theorem": 349}
        assert len({(id(table), mask) for table, mask in walks}) == len(walks) >= 29083


class TestOracleChecksCatchTheFastRoute:
    # Every labeled graph with n <= 4: 1 + 1 + 2 + 8 + 64 = 76, 5 of them edgeless.
    CFG = dict(mode=EXHAUSTIVE_MODE, max_n=4)

    def test_wrong_matching_number_fails_oracle_nu(self, monkeypatch):
        from matchcover import sweep as sweep_mod

        fast = sweep_mod._Facts.nu.func
        monkeypatch.setattr(sweep_mod._Facts, "nu", property(lambda facts: fast(facts) + 1))
        report = run_sweep(SweepConfig(properties=("oracle-nu",), **self.CFG))
        assert report.failures["oracle-nu"] == report.in_class["oracle-nu"] == 76

    def test_missing_allowed_edge_fails_oracle_allowed(self, monkeypatch):
        from matchcover import sweep as sweep_mod

        fast = sweep_mod._Facts.allowed.func
        monkeypatch.setattr(
            sweep_mod._Facts, "allowed", property(lambda facts: fast(facts)[:-1])
        )
        report = run_sweep(SweepConfig(properties=("oracle-allowed",), **self.CFG))
        # Every graph with an edge has an allowed edge to drop.
        assert report.failures["oracle-allowed"] == 76 - 5


class TestRouteEquivalence:
    @pytest.mark.parametrize("prop", ["theorem", "lemma1", "lemma2", "corollary"])
    def test_fast_and_oracle_facts_agree(self, prop):
        # Every labeled graph with n <= 5: 1 + 1 + 2 + 8 + 64 + 1024 = 1100,
        # with the labeled facts sharing one nu table per n, as in a sweep.
        labeled = [
            facts
            for n in range(6)
            for facts in _labeled_facts(n, range(1 << (n * (n - 1) // 2)))
        ]
        assert len(labeled) == 1100
        check = _CHECKS[prop]
        for facts in labeled:
            g = facts.g
            expected = check(_OracleFacts(g))
            assert check(_Facts(g)) == expected, to_graph6(g)
            assert check(facts) == expected, to_graph6(g)


class TestNuTable:
    def test_every_mask_up_to_n6_agrees_with_both_routes(self):
        # 1 + 1 + 2 + 8 + 64 + 1024 + 32768 = 33,868 labeled graphs.
        checked = 0
        for n in range(7):
            stop = 1 << (n * (n - 1) // 2)
            table = _nu_table(n, stop)
            assert len(table) == stop
            for mask in range(stop):
                facts = _LabeledFacts(n, mask, table)
                g = facts.g
                ms = enumerate_maximum_matchings(g)
                assert table[mask] == matching_number(g) == ms.nu, to_graph6(g)
                covered = is_matching_covered(g)
                assert facts.covered == covered == (ms.allowed == g.edges), to_graph6(g)
                assert facts.no_isolated == (not isolated_vertices(g))
                checked += 1
        assert checked == 33868

    def test_seeded_n7_masks_agree_with_the_blossom_route(self):
        table = _nu_table(7, 1 << 21)
        bits = {e: 1 << k for k, e in enumerate(lex_pairs(7))}
        rng = SplitMix64(11)
        for _ in range(2000):
            mask = rng.next_uint64() >> 43  # 21 bits: one coin per vertex pair
            facts = _LabeledFacts(7, mask, table)
            g = facts.g
            # An earlier mask's deletion loop may have stored this mask's verdict.
            assert table[mask] & _NU == matching_number(g), to_graph6(g)
            assert facts.covered == is_matching_covered(g), to_graph6(g)
            for e in g.edges:
                expected = is_matching_covered(delete_edge(g, e))
                assert facts._covered_mask(mask ^ bits[e]) == expected, (to_graph6(g), e)

    @pytest.mark.parametrize("stop", [1, 2, 3, 1000, 1 << 14, (1 << 15) - 1])
    def test_a_chunk_table_is_a_prefix_of_the_whole_table(self, stop):
        assert _nu_table(6, stop) == _nu_table(6, 1 << 15)[:stop]


class TestStoredVerdicts:
    # _covered_mask stores each mask's verdict in bits 4 (decided) and 5
    # (covered) of its table byte; the sweep then reads it instead of walking.
    THEOREM = ("theorem",)
    NIBBLE = bytes(b & _NU for b in range(256))

    @staticmethod
    def expected(n, stop, masks):
        # A fresh table, and per mask a fresh walk on it, checked against the
        # blossom route on a graph built by testing every pair.
        fresh, keep = _nu_table(n, stop), _pair_masks(n)[1]
        verdicts = {}
        for mask in masks:
            walked = _covered_walk(fresh, keep, mask)
            assert walked & _DECIDED
            verdicts[mask] = bool(walked & _COVERED)
            assert verdicts[mask] == is_matching_covered(labeled_graph(n, mask)), (n, mask)
        assert max(fresh, default=0) < _DECIDED  # the walks wrote nothing
        return bytes(fresh), verdicts

    def assert_stored(self, table, fresh, verdicts, every) -> int:
        # Each decided mask holds its expected verdict, every mask is decided
        # if every is set, and every ν nibble is the fresh table's; returns
        # how many of the masks are decided.
        decided = 0
        for mask, covered in verdicts.items():
            byte = table[mask]
            if byte & _DECIDED:
                decided += 1
                assert bool(byte & _COVERED) == covered, mask
            else:
                assert not every and byte == fresh[mask], mask
        assert table.translate(self.NIBBLE) == fresh
        return decided

    def before_and_after(self, population, fresh, verdicts) -> int:
        # The population's chunk swept first, then read; then a second copy
        # read first, then swept: the same verdicts and the same tally.
        masks = [facts.mask for facts in population]
        table = population[0].table
        tally = _tally_graphs(population, self.THEOREM)
        decided = self.assert_stored(table, fresh, verdicts, every=False)
        assert [facts.covered for facts in population] == list(verdicts.values())
        self.assert_stored(table, fresh, verdicts, every=True)

        table = bytearray(fresh)
        population = [_LabeledFacts(population[0].n, mask, table) for mask in masks]
        assert [facts.covered for facts in population] == list(verdicts.values())
        self.assert_stored(table, fresh, verdicts, every=True)
        assert _tally_graphs(population, self.THEOREM) == tally
        self.assert_stored(table, fresh, verdicts, every=True)
        return decided

    def test_every_mask_up_to_n6_before_and_after_its_chunk_is_swept(self):
        decided = 0
        for n in range(7):
            masks = range(1 << (n * (n - 1) // 2))
            fresh, verdicts = self.expected(n, masks.stop, masks)
            decided += self.before_and_after(list(_labeled_facts(n, masks)), fresh, verdicts)
        # The sweep decides the 28,264 masks without an isolated vertex and
        # 819 more in the deletion loop of the covered ones.
        assert decided == 28264 + 819

    def test_seeded_n7_masks_before_and_after_they_are_swept(self):
        # The masks of TestNuTable's n = 7 check, as the facts of one chunk.
        rng = SplitMix64(11)
        masks = list(dict.fromkeys(rng.next_uint64() >> 43 for _ in range(2000)))
        fresh, verdicts = self.expected(7, 1 << 21, masks)
        table = bytearray(fresh)
        population = [_LabeledFacts(7, mask, table) for mask in masks]
        assert self.before_and_after(population, fresh, verdicts) > 0


class TestLabeledMinimalCovered:
    # The labeled facts run the deletion test over the mask's set bits, G - e
    # at the mask without e's bit; the fast and oracle routes walk g.edges of
    # a graph built here by testing every pair.
    @staticmethod
    def agree(n, mask, table):
        g = labeled_graph(n, mask)
        facts = _LabeledFacts(n, mask, table)
        expected = is_minimal_matching_covered(g)
        assert facts.minimal_covered == expected == _OracleFacts(g).minimal_covered, (
            to_graph6(g)
        )
        assert facts.g == g
        return expected

    def test_every_mask_up_to_n6_agrees_with_both_routes(self):
        found = Counter()
        for n in range(7):
            stop = 1 << (n * (n - 1) // 2)
            table = _nu_table(n, stop)
            for mask in range(stop):
                found[n] += self.agree(n, mask, table)
        # The edgeless graphs count: they are vacuously minimal matching covered.
        assert found == {0: 1, 1: 1, 2: 1, 3: 1, 4: 5, 5: 21, 6: 406}

    def test_seeded_n7_masks_agree_with_both_routes(self):
        # The masks of TestNuTable's n = 7 check.
        table = _nu_table(7, 1 << 21)
        rng = SplitMix64(11)
        found = sum(self.agree(7, rng.next_uint64() >> 43, table) for _ in range(2000))
        assert found == 3


class TestLazyFacts:
    def test_each_fact_is_computed_once_per_facts_object(self, monkeypatch):
        from matchcover import sweep as sweep_mod

        calls = []
        # The one blossom pass: C4 = 0-1-2-3-0 perfectly matched by 01 and 23.
        monkeypatch.setattr(
            sweep_mod, "_max_matching_mates", lambda n, adj: calls.append(adj) or [1, 0, 3, 2]
        )
        facts = _Facts(C4)
        assert facts.nu == 2 and calls == [C4.adjacency]
        # perfect reads nu, which is stored by now.
        assert facts.perfect is True and facts.nu == 2 and facts.perfect is True
        assert calls == [C4.adjacency]
        assert _Facts(C4).nu == 2 and calls == [C4.adjacency] * 2

    def test_labeled_graph_is_built_once(self, monkeypatch):
        facts = _LabeledFacts(4, 63, _nu_table(4, 64))
        built = count_builds(monkeypatch)
        assert facts.g is facts.g
        assert facts.g == K4 and len(built) == 1

    def test_oracle_overrides_still_win(self, monkeypatch):
        from matchcover import sweep as sweep_mod

        def fast_route(*args):
            raise AssertionError("the oracle facts ran the fast route")

        monkeypatch.setattr(sweep_mod, "_max_matching_mates", fast_route)
        monkeypatch.setattr(sweep_mod, "_allowed_verdicts", fast_route)
        facts = _OracleFacts(K4)
        assert (facts.nu, facts.covered, facts.perfect) == (2, True, True)
        assert facts.minimal_covered is True

    def test_class_attribute_is_the_descriptor(self):
        for cls in (_Facts, _OracleFacts, _LabeledFacts):
            for name in ("nu", "covered", "allowed", "minimal_covered", "perfect", "ms"):
                assert isinstance(getattr(cls, name), _fact)
        # A route defines only the route members, and the labeled route also
        # its representation; every other fact has its one home in _Facts.
        route = {"nu", "allowed", "covered", "deletions"}
        own = {cls: {name for name in vars(cls) if not name.startswith("__")}
               for cls in (_OracleFacts, _LabeledFacts)}
        assert own[_OracleFacts] == route
        assert own[_LabeledFacts] <= route | {"g", "no_isolated", "_covered_mask"}
        for name in ("minimal_covered", "perfect", "missed", "keys"):
            homes = [cls for cls in (_Facts, _OracleFacts, _LabeledFacts) if name in vars(cls)]
            assert homes == [_Facts], name

    # The package's other lazy attributes use the same descriptor.
    PACKAGE_FACTS = pytest.mark.parametrize(
        "owner,name,make",
        [
            (Graph, "adjacency", lambda: Graph(4, C4.edges)),
            (Graph, "edge_set", lambda: Graph(4, C4.edges)),
            (MatchingSet, "allowed", lambda: enumerate_maximum_matchings(C4)),
        ],
        ids=["adjacency", "edge_set", "allowed"],
    )

    @PACKAGE_FACTS
    def test_package_attribute_is_computed_once_per_object(self, monkeypatch, owner, name, make):
        descriptor, calls = owner.__dict__[name], []
        original = descriptor.func
        monkeypatch.setattr(descriptor, "func", lambda obj: calls.append(obj) or original(obj))
        obj = make()
        assert getattr(obj, name) is getattr(obj, name)
        assert len(calls) == 1 and calls[0] is obj
        getattr(make(), name)
        assert len(calls) == 2

    @PACKAGE_FACTS
    def test_package_attribute_class_access_is_the_descriptor(self, owner, name, make):
        descriptor = getattr(owner, name)
        assert isinstance(descriptor, _fact) and descriptor is owner.__dict__[name]
        assert descriptor.func.__name__ == name
        assert getattr(make(), name) == descriptor.func(make())


class TestLemma1ReadsMembership:
    def test_lemma1_sweep_measures_no_distances(self, monkeypatch):
        from matchcover import cover
        from matchcover import graph as graph_mod

        def no_bfs(*args):
            raise AssertionError("a distance was measured")

        for module in (graph_mod, cover):
            monkeypatch.setattr(module, "distance_to_set", no_bfs)
        report = run_sweep(
            SweepConfig(mode=EXHAUSTIVE_MODE, properties=("lemma1",), max_n=5)
        )
        assert report.population == 1100
        assert report.in_class == report.passes == {"lemma1": 517}
        assert report.first_counterexample is None


class TestLemmaFactsReadMasks:
    # missed (D(G)) and keys (per edge, the maximum matchings through it) are
    # read off the enumeration's edge masks; the references read Matchings.
    @staticmethod
    def agree(facts):
        g = facts.g
        ms = list(enumerate_maximum_matchings(g))
        everyone = frozenset(range(g.n))
        missed = frozenset().union(*(everyone - f.covered_vertices() for f in ms))
        keys = [{i for i, f in enumerate(ms) if e in f} for e in g.edges]
        assert facts.missed == missed, to_graph6(g)
        through = [{i for i in range(len(ms)) if key >> i & 1} for key in facts.keys]
        assert through == keys, to_graph6(g)

    def test_every_labeled_graph_up_to_n5(self):
        labeled = [
            facts
            for n in range(6)
            for facts in _labeled_facts(n, range(1 << (n * (n - 1) // 2)))
        ]
        assert len(labeled) == 1100
        for facts in labeled:
            self.agree(facts)

    def test_seeded_random_graphs_within_the_guard(self):
        graphs = [random_graph(7 + i % 6, 0.35, 4000 + i) for i in range(100)]
        assert all(map(within_guard, graphs))
        for g in graphs:
            self.agree(_Facts(g))

    def test_all_six_sweep_builds_no_matching(self, monkeypatch):
        built = count_builds(monkeypatch, Matching)
        report = run_sweep(
            SweepConfig(mode=EXHAUSTIVE_MODE, properties=PROPERTY_NAMES, max_n=5)
        )
        assert report.population == 1100 and report.total_failures == 0
        assert built == []


class TestInterpretationGap:
    def test_literal_minimal_covered_without_perfect_matching_has_isolated_vertices(self):
        # Under the literal definition, graphs with isolated vertices can be
        # minimal matching covered yet have no perfect matching (e.g. C4 plus
        # an isolated vertex).  Restricting to the isolated-vertex-free class,
        # as the theorem property does, removes every such graph.
        gap = []
        for n in range(6):
            for g in enumerate_labeled_graphs(n):
                if not g.edges or not is_minimal_matching_covered(g):
                    continue
                if not has_perfect_matching(g):
                    gap.append(to_graph6(g))
                    assert any(not g.adjacency[v] for v in range(g.n))
        assert gap  # the discrepancy between the two readings is real
