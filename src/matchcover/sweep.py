"""Graph populations and falsification sweeps over matching-cover properties.

A sweep walks a population of graphs (exhaustive over all labeled simple
graphs up to a size bound, a seeded random family, or an ingested graph6
stream), evaluates each requested property on the graphs satisfying its
hypothesis class, and tallies passes and failures.  A population yields
one facts object per graph, from one of three routes that supply only ν,
the allowed edges, "matching covered" and the G - e deletion test.  The
fast route (random and ingested graphs) and the oracle route
(re-verification) live in :mod:`matchcover.cover`, beside the single-graph
commands; this module keeps only the labeled route: a per-chunk table of ν
and the "matching covered" verdict per edge mask, built by int lane
arithmetic and checked against a second recurrence, with no blossom search
and no ``Graph``.  Every chunk of work returns one keyed ``Counter`` tally,
and one merge sums them.  The first counterexample is minimal under
``(n, graph6, property)`` ordering no matter how the work is scheduled, and
any failure detected by the fast predicates is re-verified against the
enumeration oracle before it is reported.  An error that stops a sweep is
the one a serial run raises, traceback included, at any worker count: a
parallel sweep whose chunks fail is settled by running it serially.

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
from itertools import compress
from typing import IO, Iterable, Iterator, Sequence

from .cover import _Facts, _OracleFacts
from .graph import (
    GRAPH6_MAX_N,
    Edge,
    Graph,
    ParseError,
    _fact,
    check_graph6_size,
    parse_graph6,
    to_graph6,
)
from .matching import GuardExceededError, within_guard

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

    Pair k is an edge iff the unit value ``(z >> 11) * 2**-53`` of the k-th
    splitmix64 output z for ``seed`` is below ``p``.  Identical ``(n, p,
    seed)`` produce the identical graph on every platform.
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


# Bit 5 of a ν-table byte: the mask's graph is matching covered (see _nu_table).
_COVERED = 0x20
# Masks per block of the table build's lane arithmetic: each step packs at
# most this many one-byte lanes into one int.
_BLOCK = 1 << 16


def _nu_table(n: int, stop: int) -> bytearray:
    """The matching number of every labeled graph on ``n`` vertices with edge
    mask below ``stop``, one byte per mask, and its "matching covered" verdict.

    ν is bits 0-3 of a mask's byte (ν <= 4 for n <= MAX_EXHAUSTIVE_N), read
    as ``byte & 0x0F``.  Bit 5 (``_COVERED``) is set when the mask's graph is
    matching covered; it is written once, here, and the table is not written
    after this function returns.  Bit 4 is free.

    The build is three steps, each on blocks of the table's bytes packed as
    the lanes of one int (SIMD within a register: Fisher & Dietz, LCPC
    1998): :func:`_fill_nu`, :func:`_check_nu`, which raises
    :class:`RouteDisagreementError` on any entry the fill got wrong, and
    :func:`_mark_covered`.
    """
    nu = _fill_nu(n, stop)
    _check_nu(n, nu)
    _mark_covered(n, nu)
    return nu


def _byte_lanes(pattern: bytes, size: int) -> int:
    # pattern repeated over size byte lanes, as one int; len(pattern) divides size.
    return int.from_bytes(pattern * (size // len(pattern)), "little")


def _gather(nu: bytearray, base: int, size: int, keep: int) -> bytes | bytearray:
    """``nu[base + (r & keep)]`` for each r below ``size``, a power of two;
    ``base`` has no bit below ``size``.

    From the top bit of r down: a run of bits outside ``keep`` repeats the
    lanes below it, a run inside splits them into one part per value of the
    run, and low bits all inside ``keep`` are one slice.  A slice past the
    end of ``nu`` comes back short; that shifts only lanes above it, which
    belong to masks past the end too.
    """
    if not ~keep & (size - 1):
        return nu[base:base + size]
    part = size >> 1
    if keep & part:
        while keep & part >> 1:
            part >>= 1
        return b"".join([_gather(nu, base + i, part, keep) for i in range(0, size, part)])
    while part > 1 and not keep & part >> 1:
        part >>= 1
    return _gather(nu, base, part, keep) * (size // part)


def _equal_lanes(x: int, y: int, high: int) -> int:
    # 1 in each byte lane where x equals y, else 0, for lanes with
    # x <= y < 0x80; high holds 0x80 in every lane.  0x80 + x - y borrows
    # from no other lane, and keeps bit 7 exactly when x == y.
    return ((x + high - y) & high) >> 7


def _fill_nu(n: int, stop: int) -> bytearray:
    """ν of every mask below ``stop``, by the top-pair identity.

    A maximum matching of top + r, with top the mask's top pair bit and
    r below it, either avoids that pair or takes it with a matching of
    ``r & keep[top]``, the pairs sharing no endpoint with it; as
    ``nu[r & keep] <= nu[r]``, ``nu[top + r] = nu[r] + [nu[r & keep] == nu[r]]``.
    Each block of r below top is a few int operations on its lanes.
    """
    nu = bytearray(stop)
    for top, keep in _pair_masks(n)[1].items():
        if top >= stop:
            break
        size = min(top, _BLOCK)
        high = _byte_lanes(b"\x80", size)
        for lo in range(0, min(top, stop - top), size):
            old = int.from_bytes(nu[lo:lo + size], "little")
            taken = int.from_bytes(_gather(nu, lo & keep, size, keep), "little")
            new = old + _equal_lanes(taken, old, high)
            end = min(top + lo + size, stop)
            nu[top + lo:end] = new.to_bytes(size, "little")[:end - top - lo]
    return nu


def _low_halves(half: int, size: int) -> int:
    # 0xFF in each of the size byte lanes whose index has bit half clear.
    return int.from_bytes((b"\xff" * half + bytes(half)) * (size // (2 * half)), "little")


@cache
def _max_of_nibbles() -> bytes:
    # A translation of each byte a * 16 + c of two ν values to max(a, c + 1).
    return bytes(max(b >> 4, (b & 0x0F) + 1) for b in range(256))


def _check_nu(n: int, nu: bytearray) -> None:
    """Raise :class:`RouteDisagreementError`, naming ``n`` and the lowest
    mask it fails at, unless every entry of ``nu`` (bare ν, as
    :func:`_fill_nu` leaves it) obeys the lowest-pair recurrence
    ``nu[m] = max(nu[m - low], 1 + nu[m & keep[low]])`` and mask 0 holds 0.

    The test at m reads only masks below m, so a single wrong entry always
    fails its own test.  It shares no code with the fill but
    :func:`_pair_masks`: the masks whose lowest pair is ``low`` are
    ``low + q * step`` with ``step = 2 * low``, one strided slice of the
    table, and ``(q * step) & keep`` is q with its bits in ``drop`` cleared,
    times ``step``.
    """
    stop = len(nu)
    worst = 0 if any(nu[:1]) else stop  # mask 0 has no lowest pair
    translate = _max_of_nibbles()
    low_halves = cache(_low_halves)  # this build's lane masks
    for low, keep in _pair_masks(n)[1].items():
        step = low << 1
        drop = ~keep // step
        count = -(-(stop - low) // step)
        size = min(_BLOCK, 1 << max(count - 1, 0).bit_length())
        for q in range(0, count, size):
            source = q & ~drop
            rest = int.from_bytes(nu[source * step:(source + size) * step:step], "little")
            half = 1
            while half < size:
                if drop & half:
                    rest &= low_halves(half, size)
                    rest |= rest << 8 * half
                half <<= 1
            without = int.from_bytes(nu[q * step:(q + size) * step:step], "little")
            expected = (without << 4 | rest).to_bytes(size, "little").translate(translate)
            entries = nu[low + q * step:(q + size) * step:step]
            if expected[:len(entries)] != entries:
                wrong = next(i for i, byte in enumerate(entries) if byte != expected[i])
                worst = min(worst, low + (q + wrong) * step)
                break
    if worst < stop:
        raise RouteDisagreementError(
            f"the nu table on {n} vertices breaks the lowest-pair recurrence "
            f"at mask {worst}"
        )


def _mark_covered(n: int, nu: bytearray) -> None:
    """Set bit 5 of every mask of ``nu`` whose graph is matching covered.

    The pair of bit b in m is allowed iff ``nu[m & keep[b]] == nu[m] - 1``;
    as the checked table has ``nu[m & keep[b]] <= nu[m] - 1``, lane
    ``0x7E + nu[m] - nu[m & keep[b]]`` keeps bit 7 exactly when the pair is
    not allowed, and borrows from no other lane.  A block of masks is one
    lane pass per pair.  Blocks run from the top down, so every read below
    a block still sees bare ν.
    """
    stop = len(nu)
    size = min(_BLOCK, 1 << max(stop - 1, 0).bit_length())
    high, margins = _byte_lanes(b"\x80", size), _byte_lanes(b"\x7e", size)
    # Per pair, 0x80 in each lane of a block whose mask holds the pair: the
    # lanes whose index has its bit or, for a bit at or above the block size,
    # every lane of a block whose base has it.
    pairs = [(bit, keep, _byte_lanes(bytes(bit) + b"\x80" * bit, size) if bit < size else high)
             for bit, keep in _pair_masks(n)[1].items()]
    for lo in reversed(range(0, stop, size)):
        nus = int.from_bytes(nu[lo:lo + size], "little")
        margin = nus + margins
        refuted = 0
        for bit, keep, held in pairs:
            if bit < size or lo & bit:
                less = int.from_bytes(_gather(nu, lo & keep, size, keep), "little")
                refuted |= (margin - less) & held
        end = min(lo + size, stop)
        nu[lo:end] = (nus | (high ^ refuted) >> 2).to_bytes(size, "little")[:end - lo]


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


def ingest_graph6_stream(reader: IO[str] | Iterable[str]) -> Iterator[Graph]:
    """Lazily parse newline-delimited graph6 lines, in input order.

    Blank lines are skipped; any other line that does not parse (n > 62
    included) raises :class:`StreamParseError` naming its line number.
    """
    for line_number, line in enumerate(reader, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            yield parse_graph6(stripped)
        except ParseError as exc:
            raise StreamParseError(line_number, str(exc)) from exc


# ---------------------------------------------------------------------------
# Property evaluation
# ---------------------------------------------------------------------------


class _LabeledFacts(_Facts):
    """The labeled graph on ``n`` vertices with edge mask ``mask``, read off
    ``table``, the chunk's :func:`_nu_table` for this n.

    ``covered`` reads bit 5 of the mask's table byte, which the table build
    sets for every matching covered mask, and ``deletions()`` reads it for
    each G - e at ``mask ^ b``, with no ``Graph``; ν is bits 0-3 and bit 4 is
    free.  ``no_isolated`` is read from the vertices' pair masks when the
    object is made.  ``g`` is built only when a check reads it; ``nu`` and
    ``allowed`` stay the fast route's, which ``oracle-nu`` and
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

    @_fact
    def covered(self) -> bool:
        return self.table[self.mask] >= _COVERED

    def deletions(self) -> Iterator[bool]:
        table, mask = self.table, self.mask
        return (table[mask ^ b] >= _COVERED for b in _set_bits(mask))


def _check_theorem(facts: _Facts) -> bool | None:
    # covered first: it rejects most graphs without the minimal-covered fact.
    if not (facts.no_isolated and facts.covered and facts.minimal_covered
            and facts.g.edges):
        return None
    return facts.perfect


def _check_lemma1(facts: _Facts) -> bool | None:
    if not (facts.connected and facts.covered and not facts.perfect):
        return None
    # The minimum distance over the maximum matchings is 0 iff one of them
    # misses an endpoint, i.e. an endpoint is missed by some matching.
    missed = facts.missed
    return all(e.u in missed or e.v in missed for e in facts.g.edges)


def _check_lemma2(facts: _Facts) -> bool | None:
    if not (facts.connected and facts.covered and not facts.perfect):
        return None
    return len(set(facts.keys)) == len(facts.keys)


def _check_corollary(facts: _Facts) -> bool | None:
    if not (facts.connected and facts.covered and facts.parts is not None):
        return None
    missed = facts.missed
    # The bipartition is an unordered pair, so the implication is checked
    # on both parts.
    return all(part <= missed for part in facts.parts if part & missed)


def _check_oracle_nu(facts: _Facts) -> bool | None:
    if not within_guard(facts.g):
        return None
    return facts.nu == facts.ms.nu


def _check_oracle_allowed(facts: _Facts) -> bool | None:
    if not within_guard(facts.g):
        return None
    return facts.allowed == facts.ms.allowed


# A check returns None outside its property's hypothesis class, else its verdict.
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
    class is checked again.  Any answer but ``False`` means the tool itself
    is broken and raises :class:`RouteDisagreementError`, not a counterexample.
    """
    if prop in ("oracle-nu", "oracle-allowed"):
        return  # these properties *are* route comparisons
    if _CHECKS[prop](_OracleFacts(g)) is not False:
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
                verdict = _CHECKS[prop](facts)
            except GuardExceededError as exc:
                raise GuardExceededError(f"{prop} on {to_graph6(facts.g)}: {exc}") from exc
            if verdict is None:
                continue
            counts["in_class", prop] += 1
            if verdict:
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
    themselves when ``cfg`` is ``None``; both public sweeps end here.

    A pool starts at most one worker per chunk, and raises at once if it
    cannot start.  Its ``map`` raises whichever chunk's failure arrives first,
    so a sweep whose chunks fail is run again serially: that raises the error
    a serial run meets first, with its traceback, or else the pool's error.
    """
    properties = _checked_selection(properties, jobs)
    start = time.perf_counter()
    total = len(items)
    parts = failure = None
    if jobs > 1 and total > 1:
        step = -(-total // min(total, jobs * 4))  # at most 4 chunks per worker
        chunks = [(cfg, items[lo:lo + step], properties) for lo in range(0, total, step)]
        with Pool(processes=min(jobs, len(chunks))) as pool:
            try:
                parts = pool.map(_sweep_chunk, chunks)
            except Exception as exc:
                failure = exc
    if parts is None:  # a serial sweep, or a parallel one that failed
        parts = [_sweep_chunk((cfg, items, properties))]
    if failure is not None:  # failed only in the workers
        raise failure
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
