"""Planted faults that the sweep must catch.

Each row of ``FAULTS`` patches one name with a faulty version of it and
sweeps the labeled graphs with n <= 5 and a seeded random sample with
``oracle-nu`` and ``oracle-allowed``.  A caught fault shows in the sweep
payload as failures of the expected property and as its first
counterexample; the exit code such a sweep should have is not decided here.

Each row of ``LABELED_FAULTS`` plants a fault in the labeled route's ν
table, which only ``theorem`` reads.  It is caught when the oracle
re-verification of the false failure disagrees: the sweep raises
``RouteDisagreementError`` and the CLI exits 3.
"""

import multiprocessing
from unittest import mock

import pytest

from matchcover import cli, matching, sweep
from matchcover.sweep import (
    EXHAUSTIVE_MODE,
    RANDOM_MODE,
    RouteDisagreementError,
    SweepConfig,
    run_sweep,
)

ORACLE_PROPERTIES = ("oracle-nu", "oracle-allowed")


def nu_one_too_high():
    scan = matching._scan_matchings

    def faulty(g):
        nu, masks = scan(g)
        return nu + 1, masks

    return mock.patch.object(matching, "_scan_matchings", faulty)


def drop_matchings_through_one_allowed_edge():
    scan = matching._scan_matchings

    def faulty(g):
        nu, masks = scan(g)
        union = 0
        for mask in masks:
            union |= mask
        lowest = union & -union
        return nu, tuple(mask for mask in masks if not mask & lowest)

    return mock.patch.object(matching, "_scan_matchings", faulty)


def flip_one_verdict():
    verdicts = sweep._allowed_verdicts

    def faulty(*args):
        # The first verdict flipped, the others as they come.
        stream = verdicts(*args)
        for ok in stream:
            yield not ok
            yield from stream

    return mock.patch.object(sweep, "_allowed_verdicts", faulty)


class _LooksPerfect(list):
    # A mate list on which "-1 in mate" is false, so the kernel takes its
    # matching for perfect and never runs the search from mate(v).
    def __contains__(self, value):
        return False


def no_second_search():
    verdicts = sweep._allowed_verdicts

    def faulty(n, adj, mate, edges):
        return verdicts(n, adj, _LooksPerfect(mate), edges)

    return mock.patch.object(sweep, "_allowed_verdicts", faulty)


def free_one_matched_pair():
    mates = sweep._max_matching_mates

    def faulty(n, adj):
        mate = mates(n, adj)
        matched = [v for v in range(n) if mate[v] >= 0]
        if matched:
            v = matched[0]
            mate[mate[v]] = mate[v] = -1
        return mate

    return mock.patch.object(sweep, "_max_matching_mates", faulty)


# Each fault and the property that catches it.
FAULTS = {
    "nu-one-too-high": (nu_one_too_high, "oracle-nu"),
    "drop-matchings-through-an-allowed-edge": (
        drop_matchings_through_one_allowed_edge, "oracle-allowed"),
    "flip-one-verdict": (flip_one_verdict, "oracle-allowed"),
    "no-second-search": (no_second_search, "oracle-allowed"),
    "free-one-matched-pair": (free_one_matched_pair, "oracle-nu"),
}


def on_the_three_paths(change):
    # Applies change(table, mask) to the n = 3 table bytes of the three
    # paths on three vertices (masks 3, 5 and 6) in every chunk's table.
    # Read as not covered, they make K3 (mask 7), which has no perfect
    # matching, read as minimal matching covered.
    built = sweep._nu_table

    def planted(n, stop):
        table = built(n, stop)
        for mask in (3, 5, 6):
            if n == 3 and mask < stop:
                change(table, mask)
        return table

    return mock.patch.object(sweep, "_nu_table", planted)


def three_paths_read_nu_0():
    return on_the_three_paths(lambda table, mask: table.__setitem__(mask, 0))


def three_paths_decided_not_covered():
    # The verdict bits say "decided" and not "covered"; ν is left right.
    def mark(table, mask):
        table[mask] |= sweep._DECIDED

    return on_the_three_paths(mark)


# Each labeled-route fault; both end in a disagreement on K3 (graph6 Bw).
LABELED_FAULTS = {
    "three-paths-read-nu-0": three_paths_read_nu_0,
    "three-paths-decided-not-covered": three_paths_decided_not_covered,
}

JOBS = pytest.mark.parametrize("jobs", [1, 2])


def skip_unless_forked(jobs: int) -> None:
    if jobs != 1 and multiprocessing.get_start_method() != "fork":
        pytest.skip("the patch reaches workers only through fork")


def exhaustive(max_n: int, properties=ORACLE_PROPERTIES, jobs: int = 1) -> dict:
    cfg = SweepConfig(mode=EXHAUSTIVE_MODE, properties=properties, max_n=max_n, jobs=jobs)
    return run_sweep(cfg).to_payload(include_wall_time=False)


def random_sample(samples: int, properties=ORACLE_PROPERTIES) -> dict:
    cfg = SweepConfig(mode=RANDOM_MODE, properties=properties, n=10,
                      edge_probability=0.3, sample_count=samples, seed=2000)
    return run_sweep(cfg).to_payload(include_wall_time=False)


def assert_caught(payload: dict, prop: str) -> None:
    assert payload["failures"][prop] > 0
    assert payload["first_counterexample"]["property"] == prop


@pytest.mark.parametrize("name", FAULTS)
def test_exhaustive_sweep_catches_the_fault(name):
    plant, prop = FAULTS[name]
    with plant():
        assert_caught(exhaustive(5), prop)


@pytest.mark.parametrize("name", FAULTS)
def test_random_sweep_catches_the_fault(name):
    plant, prop = FAULTS[name]
    with plant():
        assert_caught(random_sample(200), prop)


def test_sweeps_pass_without_a_fault():
    for payload in (exhaustive(5), random_sample(200)):
        assert payload["failures"] == {prop: 0 for prop in ORACLE_PROPERTIES}
        assert payload["first_counterexample"] is None


def test_no_second_search_fails_on_the_same_graphs_with_the_4_cycle_shortcut():
    # The kernel's alternating 4-cycle shortcut decides only edges that the
    # first search decides too, so as many graphs need the second search as
    # without it.
    with no_second_search():
        assert exhaustive(6, ("oracle-allowed",))["failures"] == {"oracle-allowed": 1301}
        assert random_sample(2000, ("oracle-allowed",))["failures"] == {"oracle-allowed": 373}


@JOBS
@pytest.mark.parametrize("name", LABELED_FAULTS)
def test_theorem_sweep_stops_on_the_planted_table(name, jobs):
    skip_unless_forked(jobs)
    with LABELED_FAULTS[name](), pytest.raises(RouteDisagreementError, match="graph Bw$"):
        exhaustive(4, ("theorem",), jobs)


@JOBS
@pytest.mark.parametrize("name", LABELED_FAULTS)
def test_cli_exits_3_on_the_planted_table(name, jobs, capsys):
    skip_unless_forked(jobs)
    argv = ["sweep", "--exhaustive", "--max-n", "4", "--properties", "theorem",
            "--jobs", str(jobs)]
    with LABELED_FAULTS[name]():
        code = cli.main(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert "RouteDisagreementError" in err and "graph Bw" in err
