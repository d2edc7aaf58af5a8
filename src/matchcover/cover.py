"""Allowed edges, the core subgraph, covered predicates, and proof-replay witnesses.

An edge is *allowed* when some maximum matching contains it.  The *core
subgraph* keeps exactly the allowed edges (vertex set unchanged); a graph is
*matching covered* when it equals its core, and *minimal matching covered*
when additionally deleting any single edge destroys that property.

Two routes compute allowed-ness and are kept deliberately independent:

* the fast path decides every edge from one blossom maximum matching plus at
  most two single-root augmenting searches per edge, one when that matching
  is perfect (see :func:`matching._allowed_verdicts`), which scales past the
  enumeration guard;
* the oracle path reads them off one enumeration of all maximum matchings
  (:attr:`matching.MatchingSet.allowed`, their union).

This module owns the per-graph facts of both routes: :class:`_Facts` (the
fast route) and :class:`_OracleFacts` (enumeration only).  The predicates,
:func:`analyze` and the witnesses read one ``_Facts`` per graph, as the
sweep's checks do, so ν, the allowed edges, "matching covered", the G - e
loop, "minimal matching covered" and "has a perfect matching" are each
defined once.  :func:`is_allowed`, :func:`minimize_with_trace` (which keeps
each rejection's proof) and :func:`_dominated_edge` (behind the dominated
edge and the witness sequence) run the kernel themselves.

The witness operations replay the constructive arguments behind the covered
predicates: a maximum matching that misses an endpoint of any given edge, a
dominated edge whose maximum matchings all contain the deleted one, and the
edge sequence whose first repetition exhibits two distinct edges with
identical maximum-matching sets.  The sequence enumerates its graph once and
checks every step against that one set.  All existential choices are
resolved lexicographically so outputs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, tee
from typing import Iterator, NamedTuple

from .graph import (
    Edge,
    Graph,
    _edge_of,
    _fact,
    bipartition,
    delete_edge,
    distance_to_set,
    drop_isolated,
    edge,
    is_connected,
    isolated_vertices,
    to_graph6,
)
from .matching import (
    Matching,
    MatchingSet,
    covered_and_missed,
    enumerate_maximum_matchings,
    matchings_containing,
    within_guard,
    _allowed_verdicts,
    _augment_from,
    _covers_all,
    _matching_size,
    _max_matching_mates,
)


class RefutationError(Exception):
    """A verified mathematical property failed on a concrete graph.

    Raised only after the failure is confirmed by enumeration; carries the
    offending graph in graph6 form.  Distinct from operational errors so
    callers can tell "the property is false" from "the tool was misused".
    """

    def __init__(self, claim: str, g: Graph, detail: str = ""):
        self.claim = claim
        self.graph6 = to_graph6(g)
        message = f"refutation of {claim} on graph {self.graph6}"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)


@dataclass(frozen=True)
class CoverReport:
    """Full allowed-edge analysis of one graph."""

    nu: int
    allowed: tuple[Edge, ...]
    disallowed: tuple[Edge, ...]
    is_matching_covered: bool
    is_minimal_matching_covered: bool
    has_perfect_matching: bool


@dataclass(frozen=True)
class WitnessSequence:
    """Edge sequence whose first repetition yields a pair with equal matching sets.

    ``edges[repeat_i] == edges[repeat_j]`` is the first repetition, and
    ``pair == (edges[repeat_j - 1], edges[repeat_j])`` are two distinct edges
    whose sets of containing maximum matchings coincide.
    """

    edges: tuple[Edge, ...]
    repeat_i: int
    repeat_j: int
    pair: tuple[Edge, Edge]

    def __post_init__(self):
        if not 0 <= self.repeat_i < self.repeat_j < len(self.edges):
            raise ValueError("repetition indices out of order")
        if self.edges[self.repeat_i] != self.edges[self.repeat_j]:
            raise ValueError("claimed repetition indices hold different edges")
        if self.pair != (self.edges[self.repeat_j - 1], self.edges[self.repeat_j]):
            raise ValueError("pair must be the last step of the sequence")
        if self.pair[0] == self.pair[1]:
            raise ValueError("pair edges must be distinct")


class DeletionStep(NamedTuple):
    """One minimization step: the edge deleted and the vertices dropped after it.

    Vertex labels refer to the graph as it was at that step (minimization
    relabels after every drop).
    """

    edge: Edge
    dropped: tuple[int, ...]


class _Facts:
    """Lazily computed per-graph facts shared across property checks.

    A route supplies ``nu``, ``allowed``, ``covered`` and ``deletions()``
    (per edge of ``g.edges``, whether G - e is matching covered); every
    other fact is defined here once.  ``missed`` (D(G)) and ``keys`` read
    ``ms``, the one enumeration that every route shares.  This class is the
    fast route: one blossom maximum matching (``mate``) gives ν and feeds the
    allowed-edge kernel, which also decides each G - e.
    """

    def __init__(self, g: Graph):
        self.g = g

    @_fact
    def mate(self) -> list[int]:
        return _max_matching_mates(self.g.n, self.g.adjacency)

    @_fact
    def nu(self) -> int:
        return _matching_size(self.mate)

    @_fact
    def _verdicts(self) -> tuple[Iterator[bool], Iterator[bool]]:
        # One kernel run per graph, teed: allowed resumes where covered stopped.
        g = self.g
        return tee(_allowed_verdicts(g.n, g.adjacency, self.mate, g.edges))

    @_fact
    def covered(self) -> bool:
        return all(self._verdicts[0])

    @_fact
    def allowed(self) -> tuple[Edge, ...]:
        return tuple(compress(self.g.edges, self._verdicts[1]))

    def deletions(self) -> Iterator[bool]:
        return (_covered_without(self.g, e) for e in self.g.edges)

    @_fact
    def minimal_covered(self) -> bool:
        return self.covered and not any(self.deletions())

    @_fact
    def perfect(self) -> bool:
        return _covers_all(self.g.n, self.nu)

    @_fact
    def connected(self) -> bool:
        return is_connected(self.g)

    @_fact
    def no_isolated(self) -> bool:
        return not isolated_vertices(self.g)

    @_fact
    def ms(self) -> MatchingSet:
        return enumerate_maximum_matchings(self.g)

    @_fact
    def parts(self):
        return bipartition(self.g)

    @_fact
    def missed(self) -> frozenset[int]:
        # D(G), the vertices some maximum matching misses: v is missed by a
        # mask of ms that shares no bit with the mask of v's edges.
        g, masks = self.g, self.ms.masks
        at = (sum(1 << k for k, e in enumerate(g.edges) if v in e) for v in range(g.n))
        return frozenset(v for v, edges in enumerate(at) if not all(m & edges for m in masks))

    @_fact
    def keys(self) -> tuple[int, ...]:
        # Per edge, the maximum matchings through it: bit i for ms.masks[i].
        masks = self.ms.masks
        return tuple(sum(1 << i for i, m in enumerate(masks) if m >> k & 1)
                     for k in range(len(self.g.edges)))


class _OracleFacts(_Facts):
    """The enumeration route: ν and the allowed edges read off ``ms`` only."""

    @_fact
    def nu(self) -> int:
        return self.ms.nu

    @_fact
    def covered(self) -> bool:
        return self.allowed == self.g.edges

    @_fact
    def allowed(self) -> tuple[Edge, ...]:
        return self.ms.allowed

    def deletions(self) -> Iterator[bool]:
        return (_OracleFacts(delete_edge(self.g, e)).covered for e in self.g.edges)


def is_allowed(g: Graph, e: tuple[int, int]) -> bool:
    """True when some maximum matching contains ``e``.

    Decided from one blossom maximum matching and at most two single-root
    augmenting searches in ``G - u - v`` (one when that matching is perfect);
    no enumeration.
    """
    e = _edge_of(g, e)
    n, adj = g.n, g.adjacency
    return next(_allowed_verdicts(n, adj, _max_matching_mates(n, adj), (e,)))


def allowed_edges(g: Graph) -> tuple[Edge, ...]:
    """All allowed edges, sorted (fast path)."""
    return _Facts(g).allowed


def allowed_edges_enumerated(g: Graph) -> tuple[Edge, ...]:
    """All allowed edges via the enumeration oracle: the union of all
    maximum matchings."""
    return enumerate_maximum_matchings(g).allowed


def core_subgraph(g: Graph) -> Graph:
    """The graph restricted to its allowed edges; the vertex set is kept."""
    return Graph(g.n, allowed_edges(g))


def is_matching_covered(g: Graph) -> bool:
    """True when every edge is allowed; vacuously true for edgeless graphs."""
    return _Facts(g).covered


def is_minimal_matching_covered(g: Graph) -> bool:
    """True when the graph is matching covered and no single edge deletion is.

    The deletion test keeps the vertex set intact: the comparison is between
    ``G - e`` and its own core as graphs on the same vertices.
    """
    return _Facts(g).minimal_covered


def _verdicts_without(g: Graph, e: Edge) -> tuple[tuple[Edge, ...], Iterator[bool], list[int]]:
    # Edges and lazy verdicts of G - e without building it, and the mates of
    # the maximum matching of G - e that the verdicts read.
    adj = _adjacency_without(g, e)
    edges = tuple(x for x in g.edges if x != e)
    mate = _max_matching_mates(g.n, adj)
    return edges, _allowed_verdicts(g.n, adj, mate, edges), mate


def _adjacency_without(g: Graph, e: Edge) -> list[tuple[int, ...]]:
    adj = list(g.adjacency)
    adj[e.u] = tuple(x for x in adj[e.u] if x != e.v)
    adj[e.v] = tuple(x for x in adj[e.v] if x != e.u)
    return adj


def _covered_without(g: Graph, e: Edge) -> bool:
    return all(_verdicts_without(g, e)[1])


def _still_rejected(g: Graph, e: Edge, f: Edge, mate: list[int], d: Edge) -> bool:
    # Whether f stays not allowed in g - e, for g = G - d and mate a maximum
    # matching of G - e, repaired in place when it held d (as in
    # _allowed_verdicts, the search from v can help only if mate was not perfect).
    u, v = d
    if mate[u] != v:
        return d != f
    exposed = -1 in mate
    mate[u] = mate[v] = -1
    adj = _adjacency_without(g, e)
    return _augment_from(u, g.n, adj, mate) or exposed and _augment_from(v, g.n, adj, mate)


def minimize(g: Graph) -> Graph:
    """Greedily delete edges while the graph stays matching covered.

    Isolated vertices of the input are shed first, then the procedure
    repeatedly deletes the lexicographically smallest edge whose removal
    leaves a matching covered graph, dropping any vertices the deletion
    isolates, until no deletion survives.  The result is minimal matching
    covered (possibly the n = 0 graph), free of isolated vertices, and has
    a perfect matching.
    """
    result, _, _ = minimize_with_trace(g)
    return result


def minimize_with_trace(
    g: Graph,
) -> tuple[Graph, tuple[int, ...], tuple[DeletionStep, ...]]:
    """Like :func:`minimize`, also reporting the input's shed isolated
    vertices and each deletion step.

    A rejected edge e keeps f, an edge not allowed in ``G - e``, and M, a
    maximum matching of ``G - e``, and is skipped while they prove it.  After
    deleting d != f, if M (d not in M) or M - d augmented from an end of d is
    maximum in ``G - d - e``, its maximum matchings are ones of ``G - e``, so
    none holds f.  Otherwise the scan tests e again, as when vertices drop.
    """
    if not is_matching_covered(g):
        raise ValueError("minimize requires a matching covered graph")
    initial = isolated_vertices(g)
    g = drop_isolated(g)
    trace: list[DeletionStep] = []
    kept: dict[Edge, tuple[Edge, list[int]]] = {}
    while True:
        for e in g.edges:
            if e not in kept:
                edges, verdicts, mate = _verdicts_without(g, e)
                if (f := next(compress(edges, (not ok for ok in verdicts)), None)) is None:
                    break
                kept[e] = f, mate
        else:
            return g, initial, tuple(trace)
        smaller = delete_edge(g, e)
        dropped = isolated_vertices(smaller)
        trace.append(DeletionStep(e, dropped))
        kept = {} if dropped else {
            x: r for x, r in kept.items() if _still_rejected(smaller, x, *r, e)
        }
        g = drop_isolated(smaller)


def mu(g: Graph, e: tuple[int, int], f: Matching) -> int | None:
    """Distance from the nearer endpoint of ``e`` to the vertices missed by ``f``.

    Zero exactly when ``f`` misses an endpoint of ``e``.  Undefined (an
    error) when ``f`` is perfect; ``None`` when no missed vertex is
    reachable from either endpoint.
    """
    e = _edge_of(g, e)
    _, missed = covered_and_missed(g, f)
    if not missed:
        raise ValueError("matching is perfect; no missed vertices to measure")
    du = distance_to_set(g, e.u, missed)
    if du == 0:
        return 0
    dv = distance_to_set(g, e.v, missed)
    finite = [d for d in (du, dv) if d is not None]
    return min(finite) if finite else None


def lemma1_witness(g: Graph, e: tuple[int, int]) -> Matching:
    """A maximum matching missing an endpoint of ``e``.

    Returns the first enumerated maximum matching (in lexicographic order)
    whose endpoint-to-missed-vertices distance :func:`mu` is 0, i.e. that
    misses ``u`` or ``v``; for a connected matching covered graph without a
    perfect matching one exists.  If none does, the property is refuted:
    :class:`RefutationError` names the minimum distance over all of them.
    """
    e = edge(*e)
    facts = _Facts(g)
    _require(facts.connected, "graph must be connected")
    _require(facts.covered, "graph must be matching covered")
    _require(not facts.perfect, "graph must not have a perfect matching")
    _edge_of(g, e)
    for f in facts.ms:
        if mu(g, e, f) == 0:
            return f
    distances = [d for d in (mu(g, e, f) for f in facts.ms) if d is not None]
    raise RefutationError(
        "endpoint-missing property",
        g,
        f"min distance for edge ({e.u}, {e.v}) is {min(distances, default=None)}, expected 0",
    )


def find_dominated_edge(g: Graph, e: tuple[int, int]) -> Edge:
    """The smallest edge that becomes disallowed when ``e`` is deleted.

    Requires a matching covered graph whose deletion ``G - e`` is no longer
    matching covered.  Every maximum matching containing the returned edge
    also contains ``e``; that inclusion is asserted by enumeration whenever
    the graph is within the enumeration guard.
    """
    e = edge(*e)
    facts = _Facts(g)
    _require(facts.covered, "graph must be matching covered")
    _edge_of(g, e)
    return _dominated_edge(g, e, facts.ms if within_guard(g) else None)


def _dominated_edge(g: Graph, e: Edge, ms: MatchingSet | None) -> Edge:
    # The fast candidate, checked for inclusion against ``ms`` when given.
    edges, verdicts, _ = _verdicts_without(g, e)
    dominated = next((cand for cand, ok in zip(edges, verdicts) if not ok), None)
    if dominated is None:
        raise ValueError(
            f"deleting ({e.u}, {e.v}) leaves a matching covered graph; "
            "no dominated edge need exist"
        )
    if ms is not None:
        inner = set(matchings_containing(ms, dominated))
        outer = set(matchings_containing(ms, e))
        if not inner <= outer:
            raise RefutationError(
                "dominated-edge inclusion",
                g,
                f"matchings through ({dominated.u}, {dominated.v}) are not "
                f"a subset of those through ({e.u}, {e.v})",
            )
    return dominated


def theorem_witness_sequence(g: Graph) -> WitnessSequence:
    """Iterate dominated edges from the smallest edge until one repeats.

    Requires a minimal matching covered graph with at least one edge.  The
    step before the first repetition gives two distinct edges whose maximum-
    matching sets coincide.  One enumeration of the graph asserts every
    step's inclusion and the final equality; a violation raises
    :class:`RefutationError`.
    """
    return _witness_with_set(g)[0]


def _witness_with_set(g: Graph) -> tuple[WitnessSequence, MatchingSet]:
    # The sequence and the one enumeration it was checked against.
    _require(g.edges != (), "graph must have at least one edge")
    facts = _Facts(g)
    _require(facts.minimal_covered, "graph must be minimal matching covered")
    ms = facts.ms
    sequence: list[Edge] = [g.edges[0]]
    positions: dict[Edge, int] = {g.edges[0]: 0}
    # Pigeonhole: a repeat must occur within |E| + 1 entries.
    while len(sequence) <= len(g.edges) + 1:
        nxt = _dominated_edge(g, sequence[-1], ms)
        sequence.append(nxt)
        if nxt in positions:
            repeat_i, repeat_j = positions[nxt], len(sequence) - 1
            pair = (sequence[-2], sequence[-1])
            if matchings_containing(ms, pair[0]) != matchings_containing(ms, pair[1]):
                raise RefutationError(
                    "equal-matching-set pair",
                    g,
                    f"sets through ({pair[0].u}, {pair[0].v}) and "
                    f"({pair[1].u}, {pair[1].v}) differ",
                )
            return WitnessSequence(tuple(sequence), repeat_i, repeat_j, pair), ms
        positions[nxt] = len(sequence) - 1
    raise AssertionError("no repetition within the pigeonhole bound")


def analyze(g: Graph) -> CoverReport:
    """Compute the full allowed-edge report for one graph."""
    facts = _Facts(g)
    allowed = frozenset(facts.allowed)
    return CoverReport(
        nu=facts.nu,
        allowed=facts.allowed,
        disallowed=tuple(e for e in g.edges if e not in allowed),
        is_matching_covered=facts.covered,
        is_minimal_matching_covered=facts.minimal_covered,
        has_perfect_matching=facts.perfect,
    )


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)
