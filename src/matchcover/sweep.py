"""Graph populations and falsification sweeps over matching-cover properties.

A sweep walks a population of graphs (exhaustive over all labeled simple
graphs up to a size bound, a seeded random family, or an ingested graph6
stream), evaluates each requested property on the graphs satisfying its
hypothesis class, and tallies passes and failures.  A population yields
one facts object per graph, from one of three routes that supply only ν,
the allowed edges, "matching covered" and the G - e deletion test: the
fast route (random and ingested graphs), the oracle route (re-verification)
and, for labeled graphs, a per-chunk table of ν per edge mask read over the
mask's set bits, with no blossom search and no ``Graph``.  Every chunk of
work returns one keyed ``Counter`` tally, and one merge sums them.
The first counterexample is minimal under ``(n, graph6)`` ordering no matter
how the work is scheduled, and any failure detected by the fast predicates
is re-verified against the enumeration oracle before it is reported.

Properties:

* ``theorem``    — minimal matching covered graphs (no isolated vertices, at
  least one edge) have a perfect matching;
* ``lemma1``     — in a connected matching covered graph without a perfect
  matching, every edge has a maximum matching missing one of its endpoints
  (the distance minimum over all maximum matchings is zero);
* ``lemma2``     — in the same class, distinct edges have distinct sets of
  containing maximum matchings;
* ``corollary``  — in a connected bipartite matching covered graph, if any
  vertex of a part is missed by some maximum matching then every vertex of
  that part is;
* ``oracle-nu``  — the blossom matching number equals the backtracking one;
* ``oracle-allowed`` — the two allowed-edge routes agree on every edge.
"""

from __future__ import annotations

import dataclasses
import math
import time
from collections import Counter
from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import compress, tee
from typing import IO, Iterable, Iterator, Sequence

from .cover import _covered_without
from .graph import (
    GRAPH6_MAX_N,
    Edge,
    Graph,
    ParseError,
    _fact,
    bipartition,
    check_graph6_size,
    delete_edge,
    is_connected,
    isolated_vertices,
    parse_graph6,
    to_graph6,
)
from .matching import (
    GuardExceededError,
    MatchingSet,
    _allowed_verdicts,
    _covers_all,
    _matching_size,
    _max_matching_mates,
    enumerate_maximum_matchings,
    within_guard,
)

EXHAUSTIVE_MODE = "exhaustive-labeled"
RANDOM_MODE = "random"

# The exhaustive population is 2^(n choose 2) labeled graphs per n.
MAX_EXHAUSTIVE_N = 8


class StreamParseError(ParseError):
    """A graph6 stream line failed to parse; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class RouteDisagreementError(RuntimeError):
    """The fast route and the enumeration oracle disagree: the tool is broken.

    Takes only its message, so it pickles back from sweep workers intact.
    """


_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1
# Draws per lane int: one block holds every vertex pair up to n = 64.
_LANE_BLOCK = 2048


@lru_cache(maxsize=8)
def _lanes(count: int) -> tuple[int, int, int]:
    # Lane k of an int is its bits 128k to 128k + 127.  Per lane: 1, the
    # 64-bit mask, and k + 1 (how often the state has advanced at draw k).
    one = (1).to_bytes(16, "little")
    ones = int.from_bytes(one * count, "little")
    steps = b"".join((k + 1).to_bytes(16, "little") for k in range(count))
    return ones, ones * _MASK64, int.from_bytes(steps, "little")


def _splitmix64_lanes(seed: int, count: int) -> int:
    """The first ``count`` splitmix64 outputs for ``seed``, output k in lane
    k (bits 128k to 128k + 63) of one int.

    Each step acts on every lane at once and on each lane alone: a 64-bit
    lane times a 64-bit multiplier stays within its 128 bits, and a right
    shift moves a lane's low bits only into the upper half of the lane below,
    which the mask clears.
    """
    ones, low, steps = _lanes(count)
    z = ((seed & _MASK64) * ones + _GAMMA * steps) & low
    z = ((z ^ (z >> 30)) & low) * 0xBF58476D1CE4E5B9 & low
    z = ((z ^ (z >> 27)) & low) * 0x94D049BB133111EB & low
    return (z ^ (z >> 31)) & low


class SplitMix64:
    """Portable 64-bit generator (splitmix64), part of the seeding contract.

    State advances by the golden-gamma constant 0x9E3779B97F4A7C15; outputs
    are finalized with the standard 30/27/31 xor-shift-multiply chain
    (multipliers 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB).  Identical seeds
    produce identical streams on every platform.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_uint64(self) -> int:
        z = _splitmix64_lanes(self._state, 1)
        self._state = (self._state + _GAMMA) & _MASK64
        return z

    def next_unit(self) -> float:
        # 53-bit mantissa in [0, 1).
        return (self.next_uint64() >> 11) * (2.0**-53)


def _draws_below(seed: int, count: int, limit: int) -> bytes:
    # Byte k is 1 if output k of seed's splitmix64 stream is below limit
    # (at most 2^64), else 0.  Per lane, 2^64 + limit - 1 - z lies in
    # [0, 2^65) and reaches 2^64 iff z < limit, so its bit 64 is the answer.
    flags = []
    for start in range(0, count, _LANE_BLOCK):
        lanes = min(_LANE_BLOCK, count - start)
        ones = _lanes(lanes)[0]
        z = _splitmix64_lanes(seed + start * _GAMMA, lanes)
        below = ((((1 << 64) + limit - 1) * ones - z) >> 64) & ones
        flags.append(below.to_bytes(16 * lanes, "little")[::16])
    return b"".join(flags)


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Independent coin flips per vertex pair, in lexicographic pair order.

    Pair k is an edge iff the k-th draw's unit value, ``next_unit()``, is
    below ``p``.  Identical ``(n, p, seed)`` produce the identical graph on
    every platform.
    """
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")
    # (z >> 11) * 2^-53 < p holds iff the integer z >> 11 is below p * 2^53
    # (exact: a power-of-two scaling), i.e. iff z < ceil(p * 2^53) << 11.
    below = _draws_below(seed, n * (n - 1) // 2, math.ceil(p * 2.0**53) << 11)
    # The pair table is kept for the sizes a sweep draws; larger n walks
    # the pairs once without storing them.
    pairs = _lex_pairs(n) if n <= GRAPH6_MAX_N else _pairs_in_order(n)
    return Graph(n, tuple(compress(pairs, below)))


def _pairs_in_order(n: int) -> Iterator[Edge]:
    # The vertex pairs on n vertices in lexicographic order.
    return (Edge(u, v) for u in range(n) for v in range(u + 1, n))


@cache
def _lex_pairs(n: int) -> tuple[Edge, ...]:
    return tuple(_pairs_in_order(n))


@cache
def _pair_edges(n: int) -> dict[int, Edge]:
    # Each vertex pair by its bit in an edge mask on n vertices, in lexicographic order.
    return {1 << k: e for k, e in enumerate(_lex_pairs(n))}


@cache
def _pair_masks(n: int) -> tuple[tuple[int, ...], dict[int, int]]:
    # Per vertex, the mask of its pairs; per pair's bit, the complement of the
    # pairs at its endpoints, which keeps exactly the pairs sharing no endpoint.
    pairs = _pair_edges(n).items()
    at = tuple(sum(bit for bit, e in pairs if v in e) for v in range(n))
    return at, {bit: ~(at[u] | at[v]) for bit, (u, v) in pairs}


def _set_bits(mask: int) -> Iterator[int]:
    # The set bits of mask, lowest first.
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


# The fields of a ν-table byte (see _nu_table): ν <= 4 for n <= MAX_EXHAUSTIVE_N.
_NU, _DECIDED, _COVERED = 0x0F, 0x10, 0x20


def _nu_table(n: int, stop: int) -> bytearray:
    """The matching number of every labeled graph on ``n`` vertices with edge
    mask below ``stop``, one byte per mask.

    ν is bits 0-3 of a mask's byte.  Bits 4 and 5 are built clear and belong
    to :meth:`_LabeledFacts._covered_mask`, the only writer after this
    function: bit 4 once the mask's covered verdict is decided, bit 5 when
    that verdict is "covered".  Read ν as ``byte & _NU``.

    A maximum matching of mask m either avoids m's top pair, bit t, or takes
    it with pairs that share no endpoint with it:
    ``nu[m] = max(nu[m - t], 1 + nu[m & keep[t]])``, both below m.
    """
    nu = bytearray(stop)
    for top, keep in _pair_masks(n)[1].items():
        for m in range(top, min(2 * top, stop)):
            avoid, take = nu[m - top], nu[m & keep] + 1
            nu[m] = avoid if avoid > take else take
    return nu


def _graph_from_mask(n: int, mask: int) -> Graph:
    return Graph(n, tuple(map(_pair_edges(n).__getitem__, _set_bits(mask))))


def enumerate_labeled_graphs(n: int) -> Iterator[Graph]:
    """All labeled simple graphs on ``0..n-1`` in edge-bitmask order.

    Bit ``k`` of the mask is the ``k``-th vertex pair in lexicographic
    order; masks ascend from 0.
    """
    if not 0 <= n <= MAX_EXHAUSTIVE_N:
        raise ValueError(
            f"exhaustive enumeration supports 0 <= n <= {MAX_EXHAUSTIVE_N}, got {n}"
        )
    for mask in range(1 << (n * (n - 1) // 2)):
        yield _graph_from_mask(n, mask)


def ingest_graph6_stream(
    reader: IO[str] | Iterable[str], *, policy: str = "strict"
) -> Iterator[Graph]:
    """Lazily parse newline-delimited graph6 lines, in input order.

    Blank lines are skipped.  ``policy="strict"`` raises
    :class:`StreamParseError` naming the offending line; ``policy="skip"``
    drops malformed lines; any other policy raises ``ValueError`` on the call.
    """
    if policy not in ("strict", "skip"):
        raise ValueError(f"unknown policy {policy!r}")

    def parsed() -> Iterator[Graph]:
        for line_number, line in enumerate(reader, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                yield parse_graph6(stripped)
            except ParseError as exc:
                if policy == "strict":
                    raise StreamParseError(line_number, str(exc)) from exc

    return parsed()


# ---------------------------------------------------------------------------
# Property evaluation
# ---------------------------------------------------------------------------


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


def _covered_walk(table: bytearray, keep: dict[int, int], mask: int) -> int:
    # The verdict bits of mask by the nu-difference test over its set bits:
    # the pair of bit b is allowed iff nu[mask & keep[b]] == nu[mask] - 1.
    # The labeled sweep's hot loop, so _set_bits is written out inline.
    less = (table[mask] & _NU) - 1
    rest = mask
    while rest:
        low = rest & -rest
        if table[mask & keep[low]] & _NU != less:
            return _DECIDED
        rest ^= low
    return _DECIDED | _COVERED


class _LabeledFacts(_Facts):
    """The labeled graph on ``n`` vertices with edge mask ``mask``, read off
    ``table``, the chunk's :func:`_nu_table` for this n.

    ``covered`` is the nu-difference test over the mask's set bits, and
    ``deletions()`` runs it for each G - e at ``mask ^ b``, with no ``Graph``.
    ``_covered_mask`` stores each verdict in bits 4 and 5 of that mask's
    table byte (ν keeps bits 0-3), so the chunk walks a mask at most once and
    later reads, by ``covered`` or by another graph's ``deletions()``, take
    the stored verdict.  ``no_isolated`` is read from the vertices' pair
    masks when the object is made.  ``g`` is built only when a check reads
    it; ``nu`` and ``allowed`` stay the fast route's, which ``oracle-nu`` and
    ``oracle-allowed`` check.
    """

    def __init__(self, n: int, mask: int, table: bytearray):
        self.n = n
        self.mask = mask
        self.table = table
        self.no_isolated = all(map(mask.__and__, _pair_masks(n)[0]))

    @_fact
    def g(self) -> Graph:
        return _graph_from_mask(self.n, self.mask)

    def _covered_mask(self, mask: int) -> bool:
        table = self.table
        byte = table[mask]
        if byte < _DECIDED:
            byte |= _covered_walk(table, _pair_masks(self.n)[1], mask)
            table[mask] = byte
        return byte >= _COVERED

    @_fact
    def covered(self) -> bool:
        return self._covered_mask(self.mask)

    def deletions(self) -> Iterator[bool]:
        mask = self.mask
        return (self._covered_mask(mask ^ b) for b in _set_bits(mask))


def _check_theorem(facts: _Facts) -> tuple[bool, bool]:
    # covered first: it rejects most graphs without the minimal-covered fact.
    in_class = (facts.no_isolated and facts.covered and facts.minimal_covered
                and bool(facts.g.edges))
    if not in_class:
        return False, True
    return True, facts.perfect


def _check_lemma1(facts: _Facts) -> tuple[bool, bool]:
    in_class = facts.connected and facts.covered and not facts.perfect
    if not in_class:
        return False, True
    # The minimum distance over the maximum matchings is 0 iff one of them
    # misses an endpoint, i.e. an endpoint is missed by some matching.
    missed = facts.missed
    return True, all(e.u in missed or e.v in missed for e in facts.g.edges)


def _check_lemma2(facts: _Facts) -> tuple[bool, bool]:
    in_class = facts.connected and facts.covered and not facts.perfect
    if not in_class:
        return False, True
    return True, len(set(facts.keys)) == len(facts.keys)


def _check_corollary(facts: _Facts) -> tuple[bool, bool]:
    in_class = facts.connected and facts.covered and facts.parts is not None
    if not in_class:
        return False, True
    missed = facts.missed
    # The bipartition is an unordered pair, so the implication is checked
    # on both parts.
    return True, all(part <= missed for part in facts.parts if part & missed)


def _check_oracle_nu(facts: _Facts) -> tuple[bool, bool]:
    if not within_guard(facts.g):
        return False, True
    return True, facts.nu == facts.ms.nu


def _check_oracle_allowed(facts: _Facts) -> tuple[bool, bool]:
    if not within_guard(facts.g):
        return False, True
    return True, facts.allowed == facts.ms.allowed


_CHECKS = {
    "theorem": _check_theorem,
    "lemma1": _check_lemma1,
    "lemma2": _check_lemma2,
    "corollary": _check_corollary,
    "oracle-nu": _check_oracle_nu,
    "oracle-allowed": _check_oracle_allowed,
}

PROPERTY_NAMES = tuple(_CHECKS)


def _reverify_failure(g: Graph, prop: str) -> None:
    """Confirm a failure on the oracle route before it is reported.

    The same check is rerun from scratch on :class:`_OracleFacts`, whose
    route members come from enumeration alone.  ``missed`` and ``keys`` come
    from the one enumeration on every route, so for the lemmas only the
    class is checked again.  A disagreement means the tool itself is broken
    and raises :class:`RouteDisagreementError`, not a counterexample.
    """
    if prop in ("oracle-nu", "oracle-allowed"):
        return  # these properties *are* route comparisons
    in_class, passed = _CHECKS[prop](_OracleFacts(g))
    if not in_class or passed:
        raise RouteDisagreementError(
            f"fast path and enumeration oracle disagree on property "
            f"{prop!r} for graph {to_graph6(g)}"
        )


# ---------------------------------------------------------------------------
# Sweep configuration, tallies, and execution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepConfig:
    """Population and property selection for one sweep.

    Exhaustive mode walks all labeled simple graphs with ``0 <= n <=
    max_n``; random mode draws ``sample_count`` graphs on ``n <= 62`` vertices
    with edge probability ``edge_probability``, sample ``i`` seeded with
    ``seed + i``.
    """

    mode: str
    properties: tuple[str, ...]
    max_n: int | None = None
    n: int | None = None
    edge_probability: float | None = None
    sample_count: int | None = None
    seed: int | None = None
    jobs: int = 1

    def validated(self) -> "SweepConfig":
        """This config with canonically ordered properties; ``ValueError`` on
        a missing, out-of-range or other-mode field."""
        if self.mode not in (EXHAUSTIVE_MODE, RANDOM_MODE):
            raise ValueError(f"unknown sweep mode {self.mode!r}")
        ordered = _checked_selection(self.properties, self.jobs)
        if self.mode == EXHAUSTIVE_MODE:
            if self.max_n is None or not 0 <= self.max_n <= MAX_EXHAUSTIVE_N:
                raise ValueError(
                    f"exhaustive mode requires 0 <= max_n <= {MAX_EXHAUSTIVE_N}"
                )
            random_only = (self.n, self.edge_probability, self.sample_count, self.seed)
            if any(value is not None for value in random_only):
                raise ValueError(
                    "n/edge_probability/sample_count/seed apply to random mode only"
                )
        else:
            if self.max_n is not None:
                raise ValueError("max_n applies to exhaustive mode only")
            if self.n is None or self.n < 0:
                raise ValueError(f"random mode requires 0 <= n <= {GRAPH6_MAX_N}")
            check_graph6_size(self.n)  # counterexamples are reported in graph6
            if self.edge_probability is None or not 0 <= self.edge_probability <= 1:
                raise ValueError("random mode requires edge_probability in [0, 1]")
            if self.sample_count is None or self.sample_count < 0:
                raise ValueError("random mode requires a nonnegative sample_count")
            if self.seed is None:
                raise ValueError("random mode requires a seed")
        return dataclasses.replace(self, properties=ordered)


@dataclass(frozen=True)
class SweepReport:
    """Outcome of a sweep: tallies per property and the minimal counterexample.

    ``first_counterexample`` is ``None`` exactly when no property failed;
    otherwise it is the failing ``(property, graph6)`` pair minimal under
    ``(n, graph6, property)`` ordering, independent of worker count and
    scheduling.  ``wall_time`` is elapsed seconds and is the only field that
    varies between runs.
    """

    population: int
    in_class: dict[str, int]
    passes: dict[str, int]
    failures: dict[str, int]
    first_counterexample: tuple[str, str] | None
    wall_time: float

    @property
    def total_failures(self) -> int:
        return sum(self.failures.values())

    def to_payload(self, include_wall_time: bool = True) -> dict:
        counterexample = None
        if self.first_counterexample is not None:
            prop, code = self.first_counterexample
            counterexample = {"property": prop, "graph6": code}
        payload = {
            "population": self.population,
            "in_class": dict(self.in_class),
            "passes": dict(self.passes),
            "failures": dict(self.failures),
            "first_counterexample": counterexample,
        }
        if include_wall_time:
            payload["wall_time"] = self.wall_time
        return payload


# A tally: counts keyed by "population" and by (kind, property), kind
# "in_class" or "failures" (every other in-class graph passed), with the
# minimal counterexample key (n, graph6, property) or None.  Absent keys read 0.
_Tally = tuple[Counter, tuple[int, str, str] | None]


def _tally_graphs(population: Iterable[_Facts], properties: Sequence[str]) -> _Tally:
    counts: Counter = Counter()
    best = None
    for facts in population:
        counts["population"] += 1
        for prop in properties:
            try:
                member, passed = _CHECKS[prop](facts)
            except GuardExceededError as exc:
                raise GuardExceededError(f"{prop} on {to_graph6(facts.g)}: {exc}") from exc
            if not member:
                continue
            counts["in_class", prop] += 1
            if passed:
                continue
            g = facts.g
            _reverify_failure(g, prop)
            counts["failures", prop] += 1
            key = (g.n, to_graph6(g), prop)
            if best is None or key < best:
                best = key
    return counts, best


def _merge_tallies(parts: Sequence[_Tally]) -> _Tally:
    counts = sum((part_counts for part_counts, _ in parts), Counter())
    return counts, min((best for _, best in parts if best is not None), default=None)


def _exhaustive_sizes(max_n: int) -> list[tuple[int, int]]:
    return [(n, 1 << (n * (n - 1) // 2)) for n in range(max_n + 1)]


def _population_size(cfg: SweepConfig) -> int:
    if cfg.mode == EXHAUSTIVE_MODE:
        return sum(count for _, count in _exhaustive_sizes(cfg.max_n))
    return cfg.sample_count


def _labeled_facts(n: int, masks: range) -> Iterator[_LabeledFacts]:
    # One ν table per n and chunk, from mask 0 to the chunk's stop.
    table = _nu_table(n, masks.stop)
    for mask in masks:
        yield _LabeledFacts(n, mask, table)


def _facts_for_range(cfg: SweepConfig, lo: int, hi: int) -> Iterator[_Facts]:
    if cfg.mode == EXHAUSTIVE_MODE:
        offset = 0
        for n, count in _exhaustive_sizes(cfg.max_n):
            masks = range(max(lo - offset, 0), min(hi - offset, count))
            if masks:
                yield from _labeled_facts(n, masks)
            offset += count
    else:
        for i in range(lo, hi):
            yield _Facts(random_graph(cfg.n, cfg.edge_probability, cfg.seed + i))


def _sweep_chunk(
    args: tuple[SweepConfig | None, Sequence, tuple[str, ...]]
) -> _Tally:
    # A configured population travels as an index range, an explicit one as graphs.
    cfg, items, properties = args
    if cfg is None:
        population = map(_Facts, items)
    else:
        population = _facts_for_range(cfg, items.start, items.stop)
    return _tally_graphs(population, properties)


def Pool(processes: int):
    """A ``multiprocessing.Pool``, imported when a parallel sweep starts one.

    Importing ``multiprocessing`` loads ``pickle``, ``socket`` and more, which
    no serial sweep or single-graph command needs.
    """
    from multiprocessing import Pool as pool

    return pool(processes)


def _checked_selection(properties: Sequence[str], jobs: int) -> tuple[str, ...]:
    """The properties in canonical order, once they and ``jobs`` are checked."""
    if not properties:
        raise ValueError("at least one property is required")
    unknown = [p for p in properties if p not in PROPERTY_NAMES]
    if unknown:
        raise ValueError(f"unknown properties {unknown}")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    return tuple(p for p in PROPERTY_NAMES if p in set(properties))


def _sweep(
    cfg: SweepConfig | None, items: Sequence, properties: Sequence[str], jobs: int
) -> SweepReport:
    """Sweep ``items``, which index ``cfg``'s population, or are the graphs
    themselves when ``cfg`` is ``None``; both public sweeps end here."""
    properties = _checked_selection(properties, jobs)
    start = time.perf_counter()
    total = len(items)
    if jobs == 1 or total < 2:
        parts = [_sweep_chunk((cfg, items, properties))]
    else:
        step = -(-total // min(total, jobs * 4))  # at most 4 chunks per worker
        chunks = [(cfg, items[lo:lo + step], properties) for lo in range(0, total, step)]
        with Pool(processes=jobs) as pool:
            parts = pool.map(_sweep_chunk, chunks)
    counts, best = _merge_tallies(parts)
    return SweepReport(
        population=counts["population"],
        in_class={p: counts["in_class", p] for p in properties},
        passes={p: counts["in_class", p] - counts["failures", p] for p in properties},
        failures={p: counts["failures", p] for p in properties},
        first_counterexample=None if best is None else (best[2], best[1]),
        wall_time=time.perf_counter() - start,
    )


def run_sweep(cfg: SweepConfig) -> SweepReport:
    """Evaluate the configured properties over the configured population.

    Work is partitioned by graph index ranges; the tallies and the minimal
    counterexample are identical no matter how many workers run them.
    """
    cfg = cfg.validated()
    return _sweep(cfg, range(_population_size(cfg)), cfg.properties, cfg.jobs)


def sweep_graphs(
    graphs: Iterable[Graph], properties: Sequence[str], jobs: int = 1
) -> SweepReport:
    """Sweep explicit graphs, e.g. an ingested graph6 stream; all need n <= 62."""
    graphs = tuple(graphs)
    check_graph6_size(max((g.n for g in graphs), default=0))
    return _sweep(None, graphs, properties, jobs)
