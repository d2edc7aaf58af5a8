"""Fixture graphs and probes shared across the test modules."""

from matchcover import Edge, Graph, cover, matching, sweep


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
    """Record every ``delete_edge`` call made through cover or sweep from now on."""
    calls: list[tuple[Graph, tuple[int, int]]] = []
    original = cover.delete_edge

    def counting(g, e):
        calls.append((g, e))
        return original(g, e)

    for module in (cover, sweep):
        monkeypatch.setattr(module, "delete_edge", counting)
    return calls


def count_blossom_passes(monkeypatch) -> list[int]:
    """Record the vertex count of every blossom maximum-matching pass made
    through matching, cover or sweep from now on."""
    passes: list[int] = []
    original = matching._max_matching_mates

    def counting(n, adj):
        passes.append(n)
        return original(n, adj)

    for module in (matching, cover, sweep):
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
    kernel runs through ``sweep._allowed_verdicts`` from now on; the blossom
    pass and the kernel runs of the ``G - e`` deletion loop are not counted."""
    roots: list[int] = []
    in_kernel: list[bool] = []
    augment, verdicts = matching._augment_from, sweep._allowed_verdicts

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

    monkeypatch.setattr(matching, "_augment_from", counting_augment)
    monkeypatch.setattr(sweep, "_allowed_verdicts", counting_verdicts)
    return roots


def count_covered_walks(monkeypatch) -> list[tuple[bytearray, int]]:
    """Record ``(table, mask)`` for every walk of a mask's set bits that the
    labeled facts run (``sweep._covered_walk``) from now on; each table is
    kept, so ``id(table)`` names one chunk's table."""
    walks: list[tuple[bytearray, int]] = []
    original = sweep._covered_walk

    def counting(table, keep, mask):
        walks.append((table, mask))
        return original(table, keep, mask)

    monkeypatch.setattr(sweep, "_covered_walk", counting)
    return walks


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


def lex_pairs(n: int) -> list[Edge]:
    """The vertex pairs on ``n`` vertices in lexicographic order; bit k of an
    edge mask stands for pair k."""
    return [Edge(u, v) for u in range(n) for v in range(u + 1, n)]


def labeled_graph(n: int, mask: int) -> Graph:
    """The labeled graph with edge mask ``mask``, built by testing every pair."""
    return Graph(n, [e for k, e in enumerate(lex_pairs(n)) if mask >> k & 1])
