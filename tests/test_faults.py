"""Planted faults that the oracle properties must catch.

Each row patches one name with a faulty version of it and sweeps the
labeled graphs with n <= 5 and a seeded random sample with
``oracle-nu`` and ``oracle-allowed``.  A caught fault shows in the sweep
payload as failures of the expected property and as its first
counterexample; the exit code a faulty sweep should have is not decided here.
"""

from unittest import mock

import pytest

from matchcover import matching, sweep
from matchcover.sweep import EXHAUSTIVE_MODE, RANDOM_MODE, SweepConfig, run_sweep

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


def exhaustive(max_n: int, properties=ORACLE_PROPERTIES) -> dict:
    cfg = SweepConfig(mode=EXHAUSTIVE_MODE, properties=properties, max_n=max_n)
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
