"""CLI behavior: payloads, exit codes, schema conformance, byte stability."""

import io
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from matchcover import Graph, cli, parse_graph6, sweep_graphs, to_dot, to_graph6

from helpers import C4, C6, count_scans, cycle_graph

REPO_ROOT = Path(__file__).resolve().parents[1]
SCHEMA = json.loads((REPO_ROOT / "schemas" / "report.json").read_text())


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_and_validate(stdout: str) -> dict:
    payload = json.loads(stdout)
    jsonschema.validate(payload, SCHEMA)
    return payload


def test_published_schema_is_itself_valid():
    jsonschema.Draft202012Validator.check_schema(SCHEMA)


class TestAnalyze:
    def test_complete_four(self, capsys):
        code, out, _ = run_cli(capsys, ["analyze", "--graph6", "C~"])
        assert code == 0
        payload = parse_and_validate(out)
        assert payload["minimal_matching_covered"] is True
        assert payload["perfect_matching"] is True
        assert payload["nu"] == 2

    def test_cycle_from_edge_file(self, capsys, tmp_path):
        path = tmp_path / "c4.txt"
        path.write_text("4\n0 1\n1 2\n2 3\n0 3\n")
        code, out, _ = run_cli(capsys, ["analyze", "--edges", str(path)])
        assert code == 0
        payload = parse_and_validate(out)
        assert payload["graph6"] == "Cl"
        assert payload["matching_covered"] is True
        assert payload["minimal_matching_covered"] is True

    def test_graph6_on_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("Ch\n"))
        code, out, _ = run_cli(capsys, ["analyze"])
        assert code == 0
        assert parse_and_validate(out)["disallowed"] == [[1, 2]]

    def test_edge_list_on_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("2\n0 1\n"))
        code, out, _ = run_cli(capsys, ["analyze"])
        assert code == 0
        assert parse_and_validate(out)["graph6"] == "A_"

    def test_malformed_code_exits_2(self, capsys):
        code, out, err = run_cli(capsys, ["analyze", "--graph6", "!nope!"])
        assert code == 2
        assert out == ""
        assert "error" in err

    def test_missing_edge_file_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, ["analyze", "--edges", str(tmp_path / "absent.txt")]
        )
        assert code == 2
        assert err

    def test_byte_identical_across_runs(self, capsys):
        _, first, _ = run_cli(capsys, ["analyze", "--graph6", "Cl"])
        _, second, _ = run_cli(capsys, ["analyze", "--graph6", "Cl"])
        assert first == second

    def test_dot_highlights_disallowed(self, capsys, tmp_path):
        dot = tmp_path / "p4.dot"
        code, _, _ = run_cli(
            capsys, ["analyze", "--graph6", "Ch", "--dot", str(dot)]
        )
        assert code == 0
        text = dot.read_text()
        styled = [line for line in text.splitlines() if "[" in line]
        assert len(styled) == 1 and "1 -- 2" in styled[0]


class TestCore:
    def test_path(self, capsys):
        code, out, _ = run_cli(capsys, ["core", "--graph6", "Ch"])
        assert code == 0
        payload = parse_and_validate(out)
        assert payload["core_graph6"] == "C`"
        assert payload["removed"] == [[1, 2]]

    def test_cycle_unchanged(self, capsys):
        _, out, _ = run_cli(capsys, ["core", "--graph6", "Cl"])
        payload = parse_and_validate(out)
        assert payload["core_graph6"] == "Cl"
        assert payload["removed"] == []

    def test_edgeless_unchanged(self, capsys):
        _, out, _ = run_cli(capsys, ["core", "--graph6", "A?"])
        payload = parse_and_validate(out)
        assert payload["core_graph6"] == "A?"

    def test_dot_highlights_removed(self, capsys, tmp_path):
        dot = tmp_path / "p4.dot"
        code, _, _ = run_cli(capsys, ["core", "--graph6", "Ch", "--dot", str(dot)])
        assert code == 0
        # The input P4 is drawn, with its one removed edge highlighted.
        assert dot.read_text() == to_dot(parse_graph6("Ch"), [(1, 2)])


class TestMinimize:
    def test_triangle(self, capsys):
        code, out, _ = run_cli(capsys, ["minimize", "--graph6", "Bw"])
        assert code == 0
        payload = parse_and_validate(out)
        assert payload["result_graph6"] == "?"
        assert len(payload["trace"]) == 3

    def test_cycle_empty_trace(self, capsys):
        _, out, _ = run_cli(capsys, ["minimize", "--graph6", "Cl"])
        payload = parse_and_validate(out)
        assert payload["result_graph6"] == "Cl"
        assert payload["trace"] == []

    def test_uncovered_input_exits_2(self, capsys):
        code, out, err = run_cli(capsys, ["minimize", "--graph6", "Ch"])
        assert code == 2
        assert out == ""
        assert "matching covered" in err

    def test_dot_draws_result_without_highlight(self, capsys, tmp_path):
        # K_{2,3} less one edge, plus an isolated vertex: minimizing drops
        # the isolated vertex and then one edge, which leaves a C4.
        dot = tmp_path / "m.dot"
        code, out, _ = run_cli(
            capsys, ["minimize", "--graph6", "EUo?", "--dot", str(dot)]
        )
        assert code == 0
        assert parse_and_validate(out)["result_graph6"] == "C]"
        assert dot.read_text() == to_dot(parse_graph6("C]"))


class TestWitness:
    def test_cycle(self, capsys):
        code, out, _ = run_cli(capsys, ["witness", "--graph6", "Cl"])
        assert code == 0
        payload = parse_and_validate(out)
        assert payload["pair"] == [[2, 3], [0, 1]]
        assert payload["shared_matchings"] == [[[0, 1], [2, 3]]]

    def test_complete_four_valid_pair(self, capsys):
        _, out, _ = run_cli(capsys, ["witness", "--graph6", "C~"])
        payload = parse_and_validate(out)
        assert len(payload["sequence"]) <= 7
        assert payload["pair"][0] != payload["pair"][1]

    def test_path_exits_2(self, capsys):
        code, _, err = run_cli(capsys, ["witness", "--graph6", "Ch"])
        assert code == 2
        assert err

    def test_dot_highlights_pair(self, capsys, tmp_path):
        dot = tmp_path / "w.dot"
        run_cli(capsys, ["witness", "--graph6", "Cl", "--dot", str(dot)])
        styled = [line for line in dot.read_text().splitlines() if "[" in line]
        assert len(styled) == 2

    def test_scans_its_graph_once(self, capsys, monkeypatch):
        scanned = count_scans(monkeypatch)
        code, _, _ = run_cli(capsys, ["witness", "--graph6", to_graph6(C6)])
        assert code == 0
        assert scanned.count(C6) == 1

    def test_guard_exceeded_exits_2(self, capsys):
        # C34 is minimal matching covered with 34 edges, over the 32-edge
        # enumeration guard; that is a limit, not a refutation.
        code, out, err = run_cli(
            capsys, ["witness", "--graph6", to_graph6(cycle_graph(34))]
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "32 edges" in err


    def test_refuted_pair_exits_1(self, capsys, monkeypatch):
        from matchcover import cover

        # Two disjoint 4-cycles: each edge lies in two of the four maximum
        # matchings.  The planted fault reverses the matchings through the
        # pair's first edge, which the steps' set inclusion ignores and the
        # final equal-set check does not.
        g = Graph(8, [*C4.edges, *((u + 4, v + 4) for u, v in C4.edges)])
        first = cover.theorem_witness_sequence(g).pair[0]
        real = cover.matchings_containing
        monkeypatch.setattr(
            cover, "matchings_containing",
            lambda ms, e: real(ms, e)[::-1] if e == first else real(ms, e),
        )
        code, out, err = run_cli(capsys, ["witness", "--graph6", to_graph6(g)])
        assert (code, out) == (1, "")
        assert err.startswith(f"refuted: refutation of equal-matching-set pair on graph {to_graph6(g)}")


@pytest.mark.parametrize("command", ["analyze", "core", "minimize", "witness"])
def test_unwritable_dot_exits_2_after_the_reply(capsys, tmp_path, command):
    dot = tmp_path / "absent" / "g.dot"
    code, out, err = run_cli(capsys, [command, "--graph6", "Cl", "--dot", str(dot)])
    assert code == 2
    assert parse_and_validate(out)["graph6"] == "Cl"
    assert err.startswith("error:")


class TestInputLimits:
    C64_EDGE_LIST = "64\n" + "".join(f"{u} {v}\n" for u, v in cycle_graph(64).edges)

    @pytest.mark.parametrize("command", ["analyze", "core", "minimize", "witness"])
    def test_more_than_62_vertices_exits_2_when_loaded(
        self, capsys, tmp_path, monkeypatch, command
    ):
        path = tmp_path / "c64.txt"
        path.write_text(self.C64_EDGE_LIST)
        # Any analysis after loading would fail on the missing module.
        monkeypatch.setattr(cli, "cover", None)
        code, out, err = run_cli(capsys, [command, "--edges", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "n <= 62" in err

    @pytest.mark.parametrize("command", ["analyze", "core", "minimize", "witness"])
    def test_two_graph_sources_exit_2(self, capsys, tmp_path, monkeypatch, command):
        path = tmp_path / "c4.txt"
        path.write_text("4\n0 1\n1 2\n2 3\n0 3\n")
        # Any analysis after loading would fail on the missing module.
        monkeypatch.setattr(cli, "cover", None)
        code, out, err = run_cli(capsys, [command, "--graph6", "Cl", "--edges", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "--graph6" in err and "--edges" in err

    def test_more_than_62_vertices_on_stdin_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(self.C64_EDGE_LIST))
        monkeypatch.setattr(cli, "cover", None)
        code, out, err = run_cli(capsys, ["analyze"])
        assert code == 2
        assert out == ""
        assert "n <= 62, got n=64" in err

    def test_every_refusal_gives_the_one_graph6_message(self, capsys, monkeypatch):
        message = "graph6 is limited to n <= 62, got n=63"
        monkeypatch.setattr(sys, "stdin", io.StringIO("63\n0 1\n"))
        assert run_cli(capsys, ["analyze"]) == (2, "", f"error: {message}\n")
        random_argv = ["sweep", "--random", "--n", "63", "--p", "0.5", "--samples", "1",
                       "--properties", "theorem", "--jobs", "1"]
        assert run_cli(capsys, random_argv) == (2, "", f"error: {message}\n")
        for refuse in (lambda: sweep_graphs([Graph(63)], ["theorem"]),
                       lambda: to_graph6(Graph(63))):
            with pytest.raises(ValueError) as raised:
                refuse()
            assert str(raised.value) == message


class TestSweep:
    def test_jobs_default_follows_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert cli.build_parser().parse_args(["sweep", "--exhaustive"]).jobs == 3

    @pytest.mark.parametrize("cpus, jobs", [(5, 5), (None, 1)])
    def test_jobs_default_without_affinity(self, monkeypatch, cpus, jobs):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert cli.build_parser().parse_args(["sweep", "--exhaustive"]).jobs == jobs

    def test_guard_error_is_the_same_at_every_jobs(self, capsys):
        # Sample 1 (36 edges) is the first graph whose lemma1 check exceeds
        # the oracle's guard; at two jobs the second chunk opens with sample
        # 25, LFhS]AknfC?D~R (37 edges), and may fail first.
        argv = ["sweep", "--random", "--n", "13", "--p", "0.4", "--samples", "200",
                "--seed", "1", "--properties", "lemma1", "--jobs"]
        runs = {jobs: run_cli(capsys, argv + [jobs]) for jobs in ("1", "2", "4")}
        assert runs["1"] == (2, "", "error: lemma1 on LBFMadtwq_Pt[X: exhaustive search "
                                    "limited to 32 edges, graph has 36\n")
        assert runs["2"] == runs["4"] == runs["1"]

    def test_exhaustive_theorem(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["sweep", "--exhaustive", "--max-n", "4",
             "--properties", "theorem", "--jobs", "1"],
        )
        assert code == 0
        payload = parse_and_validate(out)
        assert payload["population"] == 76
        assert payload["failures"] == {"theorem": 0}
        assert payload["first_counterexample"] is None

    def test_exhaustive_oracles(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["sweep", "--exhaustive", "--max-n", "4",
             "--properties", "oracle-nu,oracle-allowed", "--jobs", "1"],
        )
        assert code == 0
        payload = parse_and_validate(out)
        assert payload["passes"]["oracle-nu"] == 76

    def test_random_oracle(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["sweep", "--random", "--n", "10", "--p", "0.3", "--samples", "50",
             "--seed", "1", "--properties", "oracle-nu", "--jobs", "1"],
        )
        assert code == 0
        payload = parse_and_validate(out)
        assert payload["population"] == 50

    def test_random_more_than_62_vertices_exits_2(self, capsys, monkeypatch):
        from matchcover import sweep as sweep_mod

        def no_work(*args):
            raise AssertionError("a graph was drawn")

        monkeypatch.setattr(sweep_mod, "random_graph", no_work)
        code, out, err = run_cli(
            capsys,
            ["sweep", "--random", "--n", "63", "--p", "0.5", "--samples", "1",
             "--properties", "theorem", "--jobs", "1"],
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "n <= 62" in err

    def test_ingest(self, capsys, tmp_path):
        path = tmp_path / "pop.g6"
        path.write_text("Cl\nC~\n")
        code, out, _ = run_cli(
            capsys,
            ["sweep", "--ingest", str(path), "--properties", "theorem",
             "--jobs", "1"],
        )
        assert code == 0
        payload = parse_and_validate(out)
        assert payload["population"] == 2
        assert payload["in_class"] == {"theorem": 2}

    def test_ingest_bad_line_exits_2(self, capsys, tmp_path):
        path = tmp_path / "pop.g6"
        path.write_text("Cl\n!bad!\n")
        code, _, err = run_cli(
            capsys, ["sweep", "--ingest", str(path), "--properties", "theorem"]
        )
        assert code == 2
        assert "line 2" in err

    def test_ingest_with_exhaustive_exits_2(self, capsys, tmp_path):
        path = tmp_path / "pop.g6"
        path.write_text("Cl\n")
        code, out, err = run_cli(
            capsys,
            ["sweep", "--ingest", str(path), "--exhaustive", "--properties", "theorem"],
        )
        assert (code, out) == (2, "")
        assert err == "error: --ingest cannot be combined with --exhaustive/--random\n"

    # 2K2, then K9: 36 edges, over the 32-edge enumeration guard.
    GUARD_STREAM = "C`\nH~~~~~~\n"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("prop", ["lemma1", "lemma2"])
    def test_lemma_above_the_guard_names_property_and_graph(
        self, capsys, tmp_path, prop, jobs
    ):
        path = tmp_path / "pop.g6"
        path.write_text(self.GUARD_STREAM)
        code, out, err = run_cli(
            capsys, ["sweep", "--ingest", str(path), "--properties", prop, "--jobs", jobs]
        )
        assert (code, out) == (2, "")
        assert err == (
            f"error: {prop} on H~~~~~~: exhaustive search limited to 32 edges, graph has 36\n"
        )

    @pytest.mark.parametrize("prop", ["oracle-nu", "oracle-allowed"])
    def test_oracles_leave_graphs_above_the_guard_out_of_class(self, capsys, tmp_path, prop):
        path = tmp_path / "pop.g6"
        path.write_text(self.GUARD_STREAM)
        code, out, _ = run_cli(
            capsys, ["sweep", "--ingest", str(path), "--properties", prop, "--jobs", "1"]
        )
        assert code == 0
        payload = parse_and_validate(out)
        assert (payload["population"], payload["in_class"]) == (2, {prop: 1})
        assert payload["failures"] == {prop: 0}

    def test_ingest_jobs_zero_exits_2(self, capsys, tmp_path):
        path = tmp_path / "pop.g6"
        path.write_text("Cl\n")
        code, out, err = run_cli(
            capsys,
            ["sweep", "--ingest", str(path), "--properties", "theorem",
             "--jobs", "0"],
        )
        assert code == 2
        assert out == ""
        assert "jobs" in err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--random", "--n", "4", "--p", "0.5", "--samples", "3",
             "--max-n", "7"],
            ["--exhaustive", "--max-n", "2", "--p", ".3", "--samples", "9"],
            ["--exhaustive", "--max-n", "2", "--n", "4"],
            ["--exhaustive", "--max-n", "2", "--seed", "0"],
            ["--ingest", "POP", "--max-n", "3"],
            ["--ingest", "POP", "--seed", "0"],
            ["--ingest", "POP", "--n", "4", "--p", "0.5", "--samples", "3"],
        ],
    )
    def test_flags_of_another_mode_exit_2(self, capsys, tmp_path, flags):
        path = tmp_path / "pop.g6"
        path.write_text("Cl\n")
        argv = ["sweep"] + [str(path) if f == "POP" else f for f in flags]
        code, out, err = run_cli(
            capsys, argv + ["--properties", "theorem", "--jobs", "1"]
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_random_seed_defaults_to_zero(self, capsys):
        argv = ["sweep", "--random", "--n", "6", "--p", "0.5", "--samples", "20",
                "--properties", "oracle-nu", "--jobs", "1"]
        payloads = []
        for extra in ([], ["--seed", "0"]):
            code, out, _ = run_cli(capsys, argv + extra)
            assert code == 0
            payload = json.loads(out)
            del payload["wall_time"]
            payloads.append(payload)
        assert payloads[0] == payloads[1]

    def test_mode_required(self, capsys):
        code, _, err = run_cli(capsys, ["sweep", "--properties", "theorem"])
        assert code == 2
        assert "exhaustive" in err

    def test_both_modes_rejected(self, capsys):
        code, _, _ = run_cli(
            capsys,
            ["sweep", "--exhaustive", "--random", "--max-n", "2",
             "--properties", "theorem"],
        )
        assert code == 2

    def test_unknown_property_exits_2(self, capsys):
        code, _, _ = run_cli(
            capsys,
            ["sweep", "--exhaustive", "--max-n", "2", "--properties", "zorn"],
        )
        assert code == 2

    def test_forced_counterexample_exits_1(self, capsys, monkeypatch):
        from matchcover import sweep as sweep_mod

        def always_fail(facts):
            return False if facts.g.edges and facts.no_isolated else None

        monkeypatch.setitem(sweep_mod._CHECKS, "theorem", always_fail)
        monkeypatch.setattr(sweep_mod, "_reverify_failure", lambda g, prop: None)
        code, out, err = run_cli(
            capsys,
            ["sweep", "--exhaustive", "--max-n", "3",
             "--properties", "theorem", "--jobs", "1"],
        )
        assert code == 1
        payload = parse_and_validate(out)
        assert payload["first_counterexample"] == {
            "property": "theorem",
            "graph6": "A_",
        }
        assert "counterexample" in err


class TestInternalErrors:
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_route_disagreement_exits_3(self, capsys, monkeypatch, jobs):
        from matchcover import cover

        if jobs != "1" and multiprocessing.get_start_method() != "fork":
            pytest.skip("the patch reaches workers only through fork")
        # A wrong fast nu makes the oracle re-verification disagree.
        monkeypatch.setattr(cover._Facts, "nu", property(lambda facts: 0))
        code, out, err = run_cli(
            capsys,
            ["sweep", "--exhaustive", "--max-n", "4",
             "--properties", "theorem", "--jobs", jobs],
        )
        assert code == 3
        assert out == ""
        assert "internal error:" in err
        assert "RouteDisagreementError" in err  # the traceback follows

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_planted_nu_table_fault_exits_3(self, capsys, monkeypatch, jobs):
        from matchcover import sweep as sweep_mod

        if jobs != "1" and multiprocessing.get_start_method() != "fork":
            pytest.skip("the patch reaches workers only through fork")
        built = sweep_mod._nu_table

        # With the three paths on three vertices (masks 3, 5 and 6) read as
        # nu 0, they read as not covered, so K3 (mask 7), which has no
        # perfect matching, reads as minimal matching covered.
        def planted(n, stop):
            table = built(n, stop)
            for mask in (3, 5, 6):
                if n == 3 and mask < stop:
                    table[mask] = 0
            return table

        monkeypatch.setattr(sweep_mod, "_nu_table", planted)
        code, out, err = run_cli(
            capsys,
            ["sweep", "--exhaustive", "--max-n", "4",
             "--properties", "theorem", "--jobs", jobs],
        )
        assert code == 3
        assert out == ""
        assert "RouteDisagreementError" in err
        assert "graph Bw" in err  # K3

    def test_any_escaping_exception_exits_3(self, capsys, monkeypatch):
        def broken(g):
            raise ZeroDivisionError("division by zero")

        monkeypatch.setattr(cli.cover, "analyze", broken)
        code, out, err = run_cli(capsys, ["analyze", "--graph6", "Cl"])
        assert code == 3
        assert out == ""
        assert "internal error: division by zero" in err
        assert "Traceback" in err


class TestEntryPoints:
    def test_module_invocation_matches_inprocess(self, capsys):
        _, expected, _ = run_cli(capsys, ["analyze", "--graph6", "Cl"])
        result = subprocess.run(
            [sys.executable, "-m", "matchcover.cli", "analyze", "--graph6", "Cl"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout == expected

    def test_import_loads_no_hashlib(self):
        # Matchings bind to their Graph, so nothing in the package hashes.
        code = "import sys, matchcover.cli; print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))"
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n"

    def test_import_loads_no_multiprocessing(self):
        # Only a parallel sweep imports it, when it starts its Pool.
        code = "import sys, matchcover.cli; print('multiprocessing' in sys.modules)"
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "False\n"

    def test_runtime_imports_only_the_standard_library(self):
        # The test extras are installed here, so only a fresh interpreter
        # shows a stray runtime dependency.
        code = (
            "import sys; before = set(sys.modules); import matchcover.cli; "
            "print(*sorted({m.split('.')[0] for m in set(sys.modules) - before}))"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        loaded = set(result.stdout.split())
        assert "matchcover" in loaded
        assert loaded - set(sys.stdlib_module_names) == {"matchcover"}

    def test_console_script(self, capsys):
        import shutil

        exe = shutil.which("matchcover")
        if exe is None:
            pytest.skip("console script not on PATH")
        result = subprocess.run(
            [exe, "analyze", "--graph6", "C~"], capture_output=True, text=True
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["nu"] == 2
