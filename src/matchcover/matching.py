"""Maximum matchings: blossom search, an exhaustive oracle, and full enumeration.

The fast path is the classic augmenting-path search with blossom contraction,
exact on general graphs (bipartite-only methods would fail on K3, K4, and the
other odd-structure graphs this library centers on).  The oracle is one
backtracking enumeration of all maximum matchings, the independent route the
fast path is checked against: its :class:`MatchingSet` carries both the
matching number and the allowed edges (their union).  The walk pairs before
it leaves a vertex exposed and cuts a branch once it has left more vertices
exposed than the best matching found so far leaves; that bound counts
vertices only and takes nothing from the blossom search.  The walk runs on
ints: the undecided vertices are one bitmask over the vertices, and each
matching is one edge mask, bit k standing for ``g.edges[k]``.

Everything is deterministic: vertices and neighbors are scanned in increasing
order, so repeated runs and parallel schedules produce identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Iterable, Iterator, Sequence

from .graph import Edge, Graph, _fact, edge

# Even pruned, the backtracking walk over matchings is exponential in the
# edge count; fail loudly beyond desk scale.
ENUMERATION_EDGE_LIMIT = 32


class GuardExceededError(RuntimeError):
    """The graph is too large for an exhaustive routine."""


class BindingError(ValueError):
    """A matching was used with a graph it is not bound to."""


@dataclass(frozen=True, order=True)
class Matching:
    """A set of pairwise vertex-disjoint edges, bound to its graph.

    Ordering, equality and hashing read the sorted edge tuple alone, so
    matchings sort lexicographically.  Operations given a graph not equal to
    ``graph``, the one the matching was computed on, raise :class:`BindingError`.
    """

    edges: tuple[Edge, ...]
    graph: Graph = field(compare=False, repr=False)

    @classmethod
    def of(cls, g: Graph, edges: Iterable[tuple[int, int]]) -> "Matching":
        normalized = tuple(sorted(edge(u, v) for u, v in edges))
        seen: set[int] = set()
        for e in normalized:
            if e not in g.edge_set:
                raise ValueError(f"({e.u}, {e.v}) is not an edge of the bound graph")
            if e.u in seen or e.v in seen:
                raise ValueError(f"edges share vertex at ({e.u}, {e.v})")
            seen.update(e)
        return cls(normalized, g)

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self):
        return iter(self.edges)

    def __contains__(self, e) -> bool:
        u, v = e
        return (min(u, v), max(u, v)) in self.edges

    def covered_vertices(self) -> frozenset[int]:
        return frozenset(v for e in self.edges for v in e)


@dataclass(frozen=True)
class MatchingSet:
    """All maximum matchings of a graph, in lexicographic order.

    ``nu`` is the common cardinality.  Built by exhaustive enumeration, so it
    is the definitional object the fast predicates are validated against.
    Members are edge masks (bit k for ``graph.edges[k]``), which ``len`` and
    ``allowed`` read; ``matchings`` and iteration build them once, in order,
    as :class:`Matching` objects bound to ``graph``.
    """

    graph: Graph
    nu: int
    masks: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self):
        return iter(self.matchings)

    @_fact
    def matchings(self) -> tuple[Matching, ...]:
        return tuple(Matching(_edges_in(self.graph.edges, m), self.graph) for m in self.masks)

    @_fact
    def allowed(self) -> tuple[Edge, ...]:
        """The allowed edges, sorted: the union of all the maximum matchings."""
        return _edges_in(self.graph.edges, reduce(int.__or__, self.masks, 0))


def _edges_in(edges: tuple[Edge, ...], mask: int) -> tuple[Edge, ...]:
    # The edges whose bits are set in mask, in index order, which is sorted.
    return tuple(edges[k] for k in range(mask.bit_length()) if mask >> k & 1)


def _check_binding(g: Graph, f: Matching) -> None:
    if f.graph != g:
        raise BindingError("matching is bound to a different graph")


# ---------------------------------------------------------------------------
# Blossom algorithm (augmenting-path search with blossom contraction)
# ---------------------------------------------------------------------------


def _blossom_base(a: int, b: int, mate: list[int], parent: list[int],
                  base: list[int]) -> int:
    # Common ancestor of a and b in the alternating forest, by base vertex.
    marked = set()
    x = a
    while True:
        x = base[x]
        marked.add(x)
        if mate[x] < 0:
            break
        x = parent[mate[x]]
    x = b
    while True:
        x = base[x]
        if x in marked:
            return x
        x = parent[mate[x]]


def _mark_blossom_path(v: int, stem: int, child: int, mate: list[int],
                       parent: list[int], base: list[int],
                       in_blossom: list[bool]) -> None:
    while base[v] != stem:
        in_blossom[base[v]] = True
        in_blossom[base[mate[v]]] = True
        parent[v] = child
        child = mate[v]
        v = parent[mate[v]]


def _augment_from(root: int, n: int, adj: Sequence[Sequence[int]],
                  mate: list[int]) -> bool:
    parent = [-1] * n
    base = list(range(n))
    seen = [False] * n
    seen[root] = True
    # The queue grows while the loop walks it: the same order as a deque.
    queue = [root]
    for v in queue:
        bv, mv = base[v], mate[v]
        for to in adj[v]:
            if bv == base[to] or mv == to:
                continue
            if to == root or (mate[to] >= 0 and parent[mate[to]] >= 0):
                # Odd cycle through two even-level vertices: contract it.
                stem = _blossom_base(v, to, mate, parent, base)
                in_blossom = [False] * n
                _mark_blossom_path(v, stem, to, mate, parent, base, in_blossom)
                _mark_blossom_path(to, stem, v, mate, parent, base, in_blossom)
                for i in range(n):
                    if in_blossom[base[i]]:
                        base[i] = stem
                        if not seen[i]:
                            seen[i] = True
                            queue.append(i)
                bv = base[v]
            elif parent[to] < 0:
                parent[to] = v
                if mate[to] < 0:
                    # Augmenting path found: flip matched/unmatched edges.
                    u = to
                    while u >= 0:
                        pv = parent[u]
                        next_u = mate[pv]
                        mate[u] = pv
                        mate[pv] = u
                        u = next_u
                    return True
                seen[mate[to]] = True
                queue.append(mate[to])
    return False


def _max_matching_mates(n: int, adj: Sequence[Sequence[int]]) -> list[int]:
    mate = [-1] * n
    # Greedy seed: pair each vertex with its smallest free neighbor.
    for v in range(n):
        if mate[v] < 0:
            for to in adj[v]:
                if mate[to] < 0:
                    mate[v] = to
                    mate[to] = v
                    break
    for v in range(n):
        if mate[v] < 0:
            _augment_from(v, n, adj, mate)
    return mate


def _matching_size(mate: list[int]) -> int:
    return (len(mate) - mate.count(-1)) // 2


def maximum_matching(g: Graph) -> Matching:
    """One maximum-cardinality matching, deterministic for a fixed graph."""
    mate = _max_matching_mates(g.n, g.adjacency)
    edges = tuple(Edge(v, mate[v]) for v in range(g.n) if v < mate[v])
    return Matching(edges, g)


def matching_number(g: Graph) -> int:
    """The maximum matching cardinality, via the blossom search."""
    return _matching_size(_max_matching_mates(g.n, g.adjacency))


def allowed_verdicts(g: Graph, edges: Iterable[Edge]) -> Iterator[bool]:
    """Lazily, for each of ``edges`` (edges of ``g``), whether some maximum
    matching contains it.

    One maximum matching M decides every edge.  An edge of M is allowed, as
    is one with an endpoint M leaves uncovered (swap it in) or with adjacent
    mates (swap the alternating 4-cycle).  Otherwise uv is allowed iff M
    without its edges at u and v has an augmenting path in ``G - u - v``.
    Such a path ends at mate(u) or mate(v), or it would augment M too, so at
    most two single-root searches decide the edge, and one when M is perfect.
    """
    n, adj = g.n, g.adjacency
    return _allowed_verdicts(n, adj, _max_matching_mates(n, adj), edges)


def _allowed_verdicts(n: int, adj: Sequence[Sequence[int]], mate: list[int],
                      edges: Iterable[Edge]) -> Iterator[bool]:
    # The per-edge loop of allowed_verdicts, given the mates of a maximum
    # matching M (-1 where M leaves a vertex exposed).  When the search from
    # a = mate(u) fails, a path from b = mate(v) must end at a vertex M leaves
    # exposed in G (one ending at a would have been found from a), so that
    # second search runs only if M is not perfect.
    exposed = -1 in mate
    # Pairing u and v with a sentinel vertex n that has no neighbors makes
    # them dead ends for the unchanged search, which then runs in G - u - v.
    adj = (*adj, ())
    for u, v in edges:
        a, b = mate[u], mate[v]
        if a == v or a < 0 or b < 0 or b in adj[a]:
            yield True
            continue
        trial = mate + [-1]
        trial[u] = trial[v] = n
        trial[a] = trial[b] = -1
        yield (_augment_from(a, n + 1, adj, trial)
               or exposed and _augment_from(b, n + 1, adj, trial))


# ---------------------------------------------------------------------------
# Exhaustive oracle and enumeration
# ---------------------------------------------------------------------------


def _scan_matchings(g: Graph) -> tuple[int, tuple[int, ...]]:
    # ν and the maximum matchings' edge masks, in lexicographic order.  Per
    # vertex bit: its (higher neighbor bit, edge bit) pairs, in edge order.
    higher: dict[int, list[tuple[int, int]]] = {1 << v: [] for v in range(g.n)}
    for k, (u, v) in enumerate(g.edges):
        higher[1 << u].append((1 << v, 1 << k))
    best: list[int] = []
    fewest = _walk((1 << g.n) - 1, 0, 0, g.n, higher, best)
    return (g.n - fewest) // 2, tuple(best)


def _walk(free: int, exposed: int, chosen: int, fewest: int, higher: dict, best: list) -> int:
    # Pair the lowest undecided vertex with each free higher neighbor, then
    # leave it exposed: leaves come in lexicographic order.  A matching of
    # size s leaves n - 2s vertices exposed; `fewest` is the fewest at a leaf
    # so far (n at the start), returned updated, and best holds the leaves
    # that tie it.  Exposing only while fewer are exposed cuts only branches
    # that end below the best size, and keeps ties.
    while free:
        low = free & -free
        free ^= low
        for w, e in higher[low]:
            if free & w:
                fewest = _walk(free ^ w, exposed, chosen | e, fewest, higher, best)
        if exposed >= fewest:
            return fewest
        exposed += 1
    if exposed < fewest:
        best.clear()
    elif exposed > fewest:
        return fewest
    best.append(chosen)
    return exposed


def within_guard(g: Graph) -> bool:
    """Whether the exhaustive routines accept ``g``: at most ENUMERATION_EDGE_LIMIT edges."""
    return len(g.edges) <= ENUMERATION_EDGE_LIMIT


def brute_force_matching_number(g: Graph) -> int:
    """Maximum matching cardinality by exhaustive enumeration (the oracle)."""
    return enumerate_maximum_matchings(g).nu


def enumerate_maximum_matchings(g: Graph) -> MatchingSet:
    """All maximum matchings, in lexicographic order; the empty one if edgeless."""
    if not within_guard(g):
        raise GuardExceededError(
            f"exhaustive search limited to {ENUMERATION_EDGE_LIMIT} edges, "
            f"graph has {len(g.edges)}"
        )
    return MatchingSet(g, *_scan_matchings(g))


def matchings_containing(ms: MatchingSet, e: tuple[int, int]) -> tuple[Matching, ...]:
    """The members of the set that contain ``e`` (possibly none)."""
    e = edge(*e)
    if e not in ms.graph.edge_set:
        raise ValueError(f"({e.u}, {e.v}) is not an edge of the bound graph")
    return tuple(f for f in ms.matchings if e in f)


# ---------------------------------------------------------------------------
# Matching-level predicates
# ---------------------------------------------------------------------------


def covered_and_missed(g: Graph, f: Matching) -> tuple[frozenset[int], frozenset[int]]:
    """Partition of the vertices into those covered and those missed by ``f``."""
    _check_binding(g, f)
    covered = f.covered_vertices()
    missed = frozenset(v for v in range(g.n) if v not in covered)
    return covered, missed


def is_perfect(g: Graph, f: Matching) -> bool:
    """True when ``f`` covers every vertex (vacuously true for n = 0)."""
    _check_binding(g, f)
    return _covers_all(g.n, len(f.edges))


def has_perfect_matching(g: Graph) -> bool:
    """True when the maximum matching covers all vertices (n even, nu = n/2)."""
    return _covers_all(g.n, matching_number(g))


def _covers_all(n: int, size: int) -> bool:
    # A matching of `size` edges is perfect on n vertices; this forces n even.
    return 2 * size == n
