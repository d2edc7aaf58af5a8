"""Simple undirected graphs in canonical form, with text formats and metric queries.

Vertices are the integers ``0..n-1``.  Edges are unordered pairs stored as
``(u, v)`` with ``u < v``, kept strictly sorted and duplicate-free, so two
equal graphs compare equal componentwise.  Loops and parallel edges are
rejected at construction time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, NamedTuple

GRAPH6_HEADER = ">>graph6<<"

# graph6 single-byte vertex counts stop at 62; longer forms are not supported.
GRAPH6_MAX_N = 62


class ParseError(ValueError):
    """Input text does not describe a valid graph."""


class Graph6ParseError(ParseError):
    """Malformed graph6 text.  ``offset`` is the 0-based byte position, if known."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class EdgeListParseError(ParseError):
    """Malformed edge-list text."""


class Edge(NamedTuple):
    u: int
    v: int


def edge(u: int, v: int) -> Edge:
    """Edge with endpoints in increasing order; loops are rejected."""
    if u == v:
        raise ValueError(f"loop ({u}, {v}) is not a valid edge")
    return Edge(u, v) if u < v else Edge(v, u)


def _is_normal_form(edges: tuple, n: int) -> bool:
    # One pass: Edges, each in range with u < v, strictly ascending.
    prev = ()
    for e in edges:
        if type(e) is not Edge or not (prev < e and 0 <= e[0] < e[1] < n):
            return False
        prev = e
    return True


class _fact:
    """The package's lazy attribute.  The first read stores the value in the
    instance ``__dict__``, which then shadows this non-data descriptor; unlike
    the standard library's cached property on Python 3.11, no lock is taken."""

    def __init__(self, func):
        self.func, self.name = func, func.__name__

    def __get__(self, obj, cls=None):
        return self if obj is None else obj.__dict__.setdefault(self.name, self.func(obj))


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on vertices ``0..n-1``.

    ``edges`` is normalized at construction: pairs are reordered to ``u < v``
    and sorted (a sorted ``Edge`` tuple is only checked); loops, duplicates
    and out-of-range endpoints raise ``ValueError``.  The ``n = 0`` graph is
    valid (and counts as connected and bipartite).  Equality and hashing read
    ``n`` and ``edges`` alone, so a matching binds to every equal graph.
    """

    n: int
    edges: tuple[Edge, ...] = ()

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {self.n}")
        if type(self.edges) is tuple and _is_normal_form(self.edges, self.n):
            return
        normalized = tuple(sorted(edge(u, v) for u, v in self.edges))
        for i, (u, v) in enumerate(normalized):
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={self.n}")
            if i > 0 and normalized[i - 1] == (u, v):
                raise ValueError(f"duplicate edge ({u}, {v})")
        object.__setattr__(self, "edges", normalized)

    @_fact
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Neighbor lists, each sorted ascending."""
        # Sorted edges give every (u, x) with u < x before any (x, v), so
        # each list is built in ascending order.
        neighbors: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            neighbors[u].append(v)
            neighbors[v].append(u)
        return tuple(map(tuple, neighbors))

    @_fact
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    def degree(self, u: int) -> int:
        return len(self.adjacency[u])

    def __contains__(self, e) -> bool:
        u, v = e
        return (min(u, v), max(u, v)) in self.edge_set


def _g6_shift(u: int, v: int, nbytes: int) -> int:
    # The adjacency bits read as one integer, first bit highest: pair (u, v)
    # is bit v(v - 1)/2 + u of the column-order stream x(0,1), x(0,2),
    # x(1,2), x(0,3), ..., padded to nbytes six-bit bytes.
    return 6 * nbytes - 1 - v * (v - 1) // 2 - u


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line (an optional ``>>graph6<<`` prefix is accepted).

    The format: byte ``n + 63`` encodes the vertex count for ``n <= 62``
    (longer forms are rejected), followed by the upper-triangle adjacency
    bits in column order, packed big-endian six bits per byte, each byte
    offset by 63; padding bits must be zero.
    """
    s = text.rstrip("\r\n")
    base = 0
    if s.startswith(GRAPH6_HEADER):
        base = len(GRAPH6_HEADER)
        s = s[base:]
    if not s:
        raise Graph6ParseError("empty graph6 text")
    first = ord(s[0])
    if not 63 <= first <= 126:
        raise Graph6ParseError(f"invalid graph6 character {s[0]!r}", base)
    if first == 126:
        raise Graph6ParseError(
            "multi-byte vertex counts (n > 62) are not supported", base
        )
    n = first - 63
    nbits = n * (n - 1) // 2
    nbytes = -(-nbits // 6)
    body = s[1:]
    if len(body) != nbytes:
        raise Graph6ParseError(
            f"expected {nbytes} adjacency bytes for n={n}, got {len(body)}",
            base + 1 + min(len(body), nbytes),
        )
    bits = 0
    for i, ch in enumerate(body):
        c = ord(ch)
        if not 63 <= c <= 126:
            raise Graph6ParseError(f"invalid graph6 character {ch!r}", base + 1 + i)
        bits = bits << 6 | c - 63
    if bits & ((1 << 6 * nbytes - nbits) - 1):
        raise Graph6ParseError("trailing padding bits nonzero", base + nbytes)
    # Lexicographic Edges, which Graph keeps after its one-pass check.
    return Graph(n, tuple(Edge(u, v) for u in range(n) for v in range(u + 1, n)
                          if bits >> _g6_shift(u, v, nbytes) & 1))


def check_graph6_size(n: int) -> None:
    """The one n <= 62 check of every input and output path: ``ValueError`` above it."""
    if n > GRAPH6_MAX_N:
        raise ValueError(f"graph6 is limited to n <= {GRAPH6_MAX_N}, got n={n}")


def to_graph6(g: Graph) -> str:
    """Encode a graph as one graph6 line (no header, no newline)."""
    n = g.n
    check_graph6_size(n)
    nbytes = -(-(n * (n - 1) // 2) // 6)
    bits = 0
    for u, v in g.edges:
        bits |= 1 << _g6_shift(u, v, nbytes)
    body = (chr((bits >> shift & 63) + 63) for shift in range(6 * nbytes - 6, -1, -6))
    return chr(n + 63) + "".join(body)


def parse_edge_list(text: str) -> Graph:
    """Parse ``n`` on the first line followed by one ``u v`` pair per line.

    Blank lines are ignored.  Loops, duplicate edges, and endpoints outside
    ``0..n-1`` are rejected.
    """
    lines = [(i + 1, line.strip()) for i, line in enumerate(text.splitlines())]
    lines = [(no, line) for no, line in lines if line]
    if not lines:
        raise EdgeListParseError("empty edge-list text")
    no, header = lines[0]
    try:
        n = int(header)
    except ValueError:
        raise EdgeListParseError(f"line {no}: expected vertex count, got {header!r}")
    if n < 0:
        raise EdgeListParseError(f"line {no}: vertex count must be nonnegative")
    edges: list[Edge] = []
    seen: set[Edge] = set()
    for no, line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListParseError(f"line {no}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError(f"line {no}: non-integer endpoint in {line!r}")
        if u == v:
            raise EdgeListParseError(f"line {no}: loop ({u}, {v})")
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeListParseError(f"line {no}: endpoint out of range for n={n}")
        e = edge(u, v)
        if e in seen:
            raise EdgeListParseError(f"line {no}: duplicate edge ({e.u}, {e.v})")
        seen.add(e)
        edges.append(e)
    return Graph(n, tuple(edges))


def to_dot(g: Graph, highlight: Iterable[tuple[int, int]] = ()) -> str:
    """Render an undirected DOT document; highlighted edges are styled distinctly.

    Every highlighted pair must be an edge of the graph.
    """
    marked: set[Edge] = set()
    for u, v in highlight:
        e = edge(u, v)
        if e not in g.edge_set:
            raise ValueError(f"highlighted pair ({e.u}, {e.v}) is not an edge")
        marked.add(e)
    lines = ["graph {"]
    for v in range(g.n):
        lines.append(f"  {v};")
    for e in g.edges:
        if e in marked:
            lines.append(f"  {e.u} -- {e.v} [color=red, penwidth=2.0];")
        else:
            lines.append(f"  {e.u} -- {e.v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def incident_edges(g: Graph, u: int) -> tuple[Edge, ...]:
    """All edges containing ``u``, sorted."""
    if not 0 <= u < g.n:
        raise ValueError(f"vertex {u} out of range for n={g.n}")
    return tuple(e for e in g.edges if u in e)


def _edge_of(g: Graph, e: tuple[int, int]) -> Edge:
    e = edge(*e)
    if e not in g.edge_set:
        raise ValueError(f"({e.u}, {e.v}) is not an edge of the graph")
    return e


def delete_edge(g: Graph, e: tuple[int, int]) -> Graph:
    """Remove one edge; the vertex set is preserved."""
    e = _edge_of(g, e)
    return Graph(g.n, tuple(x for x in g.edges if x != e))


def delete_vertices(g: Graph, drop: Iterable[int]) -> Graph:
    """Remove vertices and their incident edges.

    Remaining vertices are relabeled to ``0..n-|drop|-1`` by increasing
    original index.
    """
    dropped = set(drop)
    bad = [v for v in dropped if not 0 <= v < g.n]
    if bad:
        raise ValueError(f"vertices {sorted(bad)} out of range for n={g.n}")
    relabel = {}
    for v in range(g.n):
        if v not in dropped:
            relabel[v] = len(relabel)
    edges = tuple(
        Edge(relabel[u], relabel[v])
        for u, v in g.edges
        if u not in dropped and v not in dropped
    )
    return Graph(len(relabel), edges)


def isolated_vertices(g: Graph) -> tuple[int, ...]:
    """The degree-0 vertices, ascending."""
    return tuple(v for v in range(g.n) if not g.adjacency[v])


def drop_isolated(g: Graph) -> Graph:
    """Remove degree-0 vertices, relabeling the rest by increasing index."""
    isolated = isolated_vertices(g)
    return delete_vertices(g, isolated) if isolated else g


def _bfs_distances(g: Graph, source: int) -> list[int]:
    dist = [-1] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        x = queue.popleft()
        for y in g.adjacency[x]:
            if dist[y] < 0:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def distance(g: Graph, u: int, v: int) -> int | None:
    """Shortest-path length between ``u`` and ``v``; ``None`` when unreachable."""
    for x in (u, v):
        if not 0 <= x < g.n:
            raise ValueError(f"vertex {x} out of range for n={g.n}")
    if u == v:
        return 0
    d = _bfs_distances(g, u)[v]
    return None if d < 0 else d


def distance_to_set(g: Graph, w: int, targets: Iterable[int]) -> int | None:
    """Minimum BFS distance from ``w`` to a nonempty vertex set; ``None`` if none reachable."""
    targets = set(targets)
    if not targets:
        raise ValueError("target set must be nonempty")
    bad = [v for v in targets if not 0 <= v < g.n]
    if bad:
        raise ValueError(f"vertices {sorted(bad)} out of range for n={g.n}")
    if not 0 <= w < g.n:
        raise ValueError(f"vertex {w} out of range for n={g.n}")
    if w in targets:
        return 0
    dist = _bfs_distances(g, w)
    reachable = [dist[v] for v in targets if dist[v] >= 0]
    return min(reachable) if reachable else None


def is_connected(g: Graph) -> bool:
    """True when a single component covers every vertex; the n = 0 graph counts."""
    if g.n == 0:
        return True
    return _bfs_distances(g, 0).count(-1) == 0


def bipartition(g: Graph) -> tuple[frozenset[int], frozenset[int]] | None:
    """A 2-coloring ``(U, W)`` with every edge crossing, or ``None`` on an odd cycle.

    ``U`` holds each component's lowest vertex and those at even distance from it.
    """
    color = [-1] * g.n
    for root in range(g.n):
        if color[root] < 0:
            for v, d in enumerate(_bfs_distances(g, root)):
                if d >= 0:
                    color[v] = d & 1
    if any(color[u] == color[v] for u, v in g.edges):
        return None
    u = frozenset(v for v in range(g.n) if not color[v])
    return u, frozenset(range(g.n)) - u
