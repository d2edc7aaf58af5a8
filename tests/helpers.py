"""Fixture graphs, probes and reference routes shared across the test modules."""

from unittest import mock

from matchcover import (
    Edge,
    Graph,
    brute_force_matching_number,
    cover,
    delete_edge,
    enumerate_maximum_matchings,
    matching,
    matchings_containing,
    sweep,
    to_graph6,
)
from matchcover.graph import _fact


# The ν field of a labeled ν-table byte (bits 0-3); bit 5 is sweep._COVERED.
NU = 0x0F


def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])


def star_graph(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


K2 = complete_graph(2)
P3 = path_graph(3)
K3 = complete_graph(3)
P4 = path_graph(4)
C4 = cycle_graph(4)
K4 = complete_graph(4)
STAR3 = star_graph(3)
C6 = cycle_graph(6)
TWO_K2 = Graph(4, [(0, 1), (2, 3)])


def reference_scan(g: Graph) -> tuple[int, list[tuple[Edge, ...]]]:
    """``(nu, maximum matchings)`` from a walk over every matching, unpruned.

    The reference that the oracle's pruned walk must agree with.
    """
    n = g.n
    adj = g.adjacency
    used = bytearray(n)
    chosen: list[Edge] = []
    best_size = -1
    best: list[tuple[Edge, ...]] = []

    def extend(v: int) -> None:
        nonlocal best_size, best
        while v < n and used[v]:
            v += 1
        if v == n:
            size = len(chosen)
            if size > best_size:
                best_size = size
                best = [tuple(chosen)]
            elif size == best_size:
                best.append(tuple(chosen))
            return
        extend(v + 1)
        used[v] = 1
        for w in adj[v]:
            if w > v and not used[w]:
                used[w] = 1
                chosen.append(Edge(v, w))
                extend(v + 1)
                chosen.pop()
                used[w] = 0
        used[v] = 0

    extend(0)
    return best_size, best


def count_scans(monkeypatch) -> list[Graph]:
    """Record every graph the enumeration oracle scans from now on."""
    scanned: list[Graph] = []
    original = matching._scan_matchings

    def counting(g, *args, **kwargs):
        scanned.append(g)
        return original(g, *args, **kwargs)

    monkeypatch.setattr(matching, "_scan_matchings", counting)
    return scanned


def count_builds(monkeypatch, cls: type = Graph) -> list:
    """Record every ``cls`` (by default a Graph) constructed from now on."""
    built: list = []
    original = cls.__init__

    def counting(self, *args, **kwargs):
        original(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(cls, "__init__", counting)
    return built


def count_edge_deletions(monkeypatch) -> list[tuple[Graph, tuple[int, int]]]:
    """Record every ``delete_edge`` call made through cover from now on."""
    calls: list[tuple[Graph, tuple[int, int]]] = []
    original = cover.delete_edge

    def counting(g, e):
        calls.append((g, e))
        return original(g, e)

    monkeypatch.setattr(cover, "delete_edge", counting)
    return calls


def count_blossom_passes(monkeypatch) -> list[int]:
    """Record the vertex count of every blossom maximum-matching pass made
    through matching or cover from now on."""
    passes: list[int] = []
    original = matching._max_matching_mates

    def counting(n, adj):
        passes.append(n)
        return original(n, adj)

    for module in (matching, cover):
        monkeypatch.setattr(module, "_max_matching_mates", counting)
    return passes


def count_deletion_kernel_runs(monkeypatch) -> list[tuple[Graph, Edge]]:
    """Record every run of the kernel on ``G - e`` (``cover._verdicts_without``)."""
    runs: list[tuple[Graph, Edge]] = []
    original = cover._verdicts_without

    def counting(g, e):
        runs.append((g, e))
        return original(g, e)

    monkeypatch.setattr(cover, "_verdicts_without", counting)
    return runs


def count_kernel_searches(monkeypatch) -> list[int]:
    """Record the root of every single-root search that the allowed-edge
    kernel runs for a facts object (``cover._Facts._verdicts``) from now on;
    the blossom pass and the kernel runs of the ``G - e`` deletion loop, which
    call the same ``cover._allowed_verdicts``, are not counted."""
    roots: list[int] = []
    in_kernel: list[bool] = []
    augment, verdicts = matching._augment_from, cover._allowed_verdicts
    facts_verdicts = cover._Facts._verdicts.func

    def counting_augment(root, *args):
        if in_kernel:
            roots.append(root)
        return augment(root, *args)

    def counting_verdicts(*args):
        stream = verdicts(*args)
        while True:
            in_kernel.append(True)
            try:
                ok = next(stream, None)
            finally:
                in_kernel.pop()
            if ok is None:
                return
            yield ok

    def _verdicts(facts):
        # Named as the fact it replaces, which _fact stores under this name.
        with mock.patch.object(cover, "_allowed_verdicts", counting_verdicts):
            return facts_verdicts(facts)

    monkeypatch.setattr(matching, "_augment_from", counting_augment)
    monkeypatch.setattr(cover._Facts, "_verdicts", _fact(_verdicts))
    return roots


def count_table_builds(monkeypatch) -> list[tuple[int, int, bytearray]]:
    """Record ``(n, stop, table)`` for every labeled ν table the sweep builds
    (``sweep._nu_table``) from now on."""
    builds: list[tuple[int, int, bytearray]] = []
    original = sweep._nu_table

    def counting(n, stop):
        builds.append((n, stop, original(n, stop)))
        return builds[-1][2]

    monkeypatch.setattr(sweep, "_nu_table", counting)
    return builds


class SerialPool:
    """Stands in for ``multiprocessing.Pool``: runs a sweep's chunks in order,
    in this process, so the sweep's chunking can be probed in-process."""

    def __init__(self, processes: int):
        self.processes = processes

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, func, items):
        return [func(item) for item in items]


class ReversedPool(SerialPool):
    """A ``SerialPool`` whose chunks finish last first, as when a later chunk
    is quicker.  ``map`` runs every chunk, then raises the first failure to
    finish, as ``multiprocessing.Pool.map`` does, or returns the results in
    chunk order."""

    def map(self, func, items):
        results = {}
        failures = []
        for index, item in reversed(list(enumerate(items))):
            try:
                results[index] = func(item)
            except Exception as exc:
                failures.append(exc)
        if failures:
            raise failures[0]
        return [results[index] for index in sorted(results)]


class WorkerFailurePool(SerialPool):
    """A ``SerialPool`` whose ``map`` runs no chunk and raises ``MemoryError``,
    as a pool does when a failure happens in its worker processes alone."""

    def map(self, func, items):
        raise MemoryError("planted in the pool's workers")


def loop_nu_table(n: int, stop: int) -> bytearray:
    """ν of every labeled graph on ``n`` vertices with edge mask below
    ``stop``, one byte per mask, by the top-pair recurrence in a loop.

    A maximum matching of mask m either avoids m's top pair, bit t, or takes
    it with pairs that share no endpoint with it:
    ``nu[m] = max(nu[m - t], 1 + nu[m & keep[t]])``, both below m.
    """
    nu = bytearray(stop)
    for top, keep in sweep._pair_masks(n)[1].items():
        for m in range(top, min(2 * top, stop)):
            avoid, take = nu[m - top], nu[m & keep] + 1
            nu[m] = avoid if avoid > take else take
    return nu


def covered_walk(table, n: int, mask: int) -> bool:
    """Whether mask's graph is matching covered, by the nu-difference test
    over its set bits on ``table``'s ν nibbles: the pair of bit b is allowed
    iff ``nu[mask & keep[b]] == nu[mask] - 1``."""
    keep = sweep._pair_masks(n)[1]
    less = (table[mask] & NU) - 1
    rest = mask
    while rest:
        low = rest & -rest
        if table[mask & keep[low]] & NU != less:
            return False
        rest ^= low
    return True


def lex_pairs(n: int) -> list[Edge]:
    """The vertex pairs on ``n`` vertices in lexicographic order; bit k of an
    edge mask stands for pair k."""
    return [Edge(u, v) for u in range(n) for v in range(u + 1, n)]


def labeled_graph(n: int, mask: int) -> Graph:
    """The labeled graph with edge mask ``mask``, built by testing every pair."""
    return Graph(n, [e for k, e in enumerate(lex_pairs(n)) if mask >> k & 1])


class SplitMix64:
    """The scalar splitmix64 stream, the reference for the random graphs'
    lane-packed draws (``sweep._splitmix64_lanes``).

    State advances by the golden-gamma constant 0x9E3779B97F4A7C15; outputs
    are finalized with the standard 30/27/31 xor-shift-multiply chain
    (multipliers 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB).
    """

    MASK64 = (1 << 64) - 1

    def __init__(self, seed: int):
        self._state = seed & self.MASK64

    def next_uint64(self) -> int:
        self._state = z = (self._state + 0x9E3779B97F4A7C15) & self.MASK64
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & self.MASK64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & self.MASK64
        return z ^ (z >> 31)

    def next_unit(self) -> float:
        # 53-bit mantissa in [0, 1).
        return (self.next_uint64() >> 11) * (2.0**-53)


def shared_matching_set(g: Graph, ws: cover.WitnessSequence) -> tuple:
    """The common set of maximum matchings through both edges of the pair."""
    return matchings_containing(enumerate_maximum_matchings(g), ws.pair[1])


# Oracle-only replays: every fact from enumeration and backtracking alone.


def min_scan_lemma1_witness(g: Graph, e: tuple[int, int]):
    """The first maximum matching, in enumeration order, with the least
    :func:`cover.mu` for ``e`` over all of them, or ``None`` if no missed
    vertex is reachable from ``e``: a reference scan that reads every one."""
    best, best_mu = None, None
    for f in enumerate_maximum_matchings(g):
        value = cover.mu(g, e, f)
        if value is not None and (best_mu is None or value < best_mu):
            best, best_mu = f, value
    return best


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
