"""r-uniform hypergraphs with colex-canonical edge storage.

Vertex labels are 1-based. Edges are sorted tuples, stored in colex order, so
iteration and file output are deterministic. All types are immutable after
construction; every operation here is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable

from .colex import RSet, _colex_key, rset
from .errors import ParseError, ResourceLimitError

CLIQUE_SEARCH_MAX_VERTICES = 20
#: Search nodes `maximal_cliques` may visit before it falls back.
CLIQUE_NODE_BUDGET = 200_000


@dataclass(frozen=True)
class RUniformHypergraph:
    """A set of r-element edges over the vertex set {1, ..., n}."""

    r: int
    n: int
    edges: tuple[RSet, ...]

    def __post_init__(self):
        if self.r < 2:
            raise ValueError(f"uniformity must be >= 2, got {self.r}")
        if self.n < self.r:
            raise ValueError(f"need n >= r, got n = {self.n}, r = {self.r}")
        canon = []
        for e in self.edges:
            s = rset(e)
            if len(s) != self.r:
                raise ValueError(f"edge {s} has size {len(s)}, expected {self.r}")
            if s[-1] > self.n:
                raise ValueError(f"edge {s} exceeds vertex count n = {self.n}")
            canon.append(s)
        if len(set(canon)) != len(canon):
            raise ValueError("duplicate edges")
        object.__setattr__(self, "edges", tuple(sorted(canon, key=_colex_key)))

    @cached_property
    def edge_set(self) -> frozenset[RSet]:
        return frozenset(self.edges)

    @property
    def m(self) -> int:
        return len(self.edges)


def hypergraph(r: int, edges: Iterable[Iterable[int]], n: int | None = None) -> RUniformHypergraph:
    """Build a hypergraph from edges; n defaults to the largest vertex used.

    The constructor checks each edge once; inferring n checks them once more.
    """
    if n is None:
        edges = [rset(e) for e in edges]
        n = max([r, *(e[-1] for e in edges)])
    return RUniformHypergraph(r, n, tuple(edges))


def complete_graph(t: int, r: int) -> RUniformHypergraph:
    """All C(t, r) r-subsets of {1, ..., t}."""
    if r < 2 or t < r:
        raise ValueError(f"need t >= r >= 2, got t = {t}, r = {r}")
    return RUniformHypergraph(r, t, tuple(combinations(range(1, t + 1), r)))


def colex_graph(r: int, m: int) -> RUniformHypergraph:
    """The first m r-sets in colex order; n is the largest vertex appearing."""
    if r < 2:
        raise ValueError(f"uniformity must be >= 2, got {r}")
    if m < 1:
        raise ValueError(f"edge count must be >= 1, got {m}")
    from .colex import colex_unrank

    edges = tuple(colex_unrank(k, r) for k in range(1, m + 1))
    n = max(e[-1] for e in edges)
    return RUniformHypergraph(r, n, edges)


def link(
    g: RUniformHypergraph,
    pinned: Iterable[int],
    complemented: bool = False,
    difference_against: int | None = None,
) -> frozenset[tuple[int, ...]]:
    """Member sets completing the pinned vertices into edges.

    For pinned {i} the members are the (r-1)-sets A with A + {i} an edge
    (the paper's E_i); for pinned {i, j} the (r-2)-sets B with B + {i, j} an
    edge (E_ij). `complemented` swaps edges for non-edges; difference_against
    = j (with a single pinned vertex i) selects the members A completing i
    into an edge while A + {j} is a non-edge (E_i minus E_j).
    """
    pins = frozenset(pinned)
    if len(pins) not in (1, 2):
        raise ValueError(f"pinned set must have 1 or 2 vertices, got {sorted(pins)}")
    for v in pins:
        if not 1 <= v <= g.n:
            raise IndexError(f"pinned vertex {v} outside [1, {g.n}]")
    if difference_against is not None:
        if len(pins) != 1:
            raise ValueError("difference_against requires exactly one pinned vertex")
        if complemented:
            raise ValueError("difference_against cannot be combined with complemented")
        if not 1 <= difference_against <= g.n:
            raise IndexError(f"vertex {difference_against} outside [1, {g.n}]")
        if difference_against in pins:
            raise ValueError("difference_against must differ from the pinned vertex")

    excluded = set(pins)
    if difference_against is not None:
        excluded.add(difference_against)
    size = g.r - len(pins)
    others = [v for v in range(1, g.n + 1) if v not in excluded]
    members = []
    for combo in combinations(others, size):
        is_edge = tuple(sorted((*combo, *pins))) in g.edge_set
        if difference_against is not None:
            if is_edge and tuple(sorted(combo + (difference_against,))) not in g.edge_set:
                members.append(combo)
        elif is_edge != complemented:
            members.append(combo)
    return frozenset(members)


def descendants(a: Iterable[int]) -> frozenset[RSet]:
    """Sets dominated coordinatewise by a with strictly smaller sum."""
    sa = rset(a)
    r = len(sa)
    out: list[RSet] = []

    def extend(pos: int, prev: int, acc: list[int]):
        if pos == r:
            out.append(tuple(acc))
            return
        for v in range(prev + 1, sa[pos] + 1):
            acc.append(v)
            extend(pos + 1, v, acc)
            acc.pop()

    extend(0, 0, [])
    return frozenset(out) - {sa}


def _direct_descendants(a: RSet) -> list[RSet]:
    out = []
    for s in range(len(a)):
        v = a[s] - 1
        if v >= 1 and (s == 0 or v > a[s - 1]):
            out.append(a[:s] + (v,) + a[s + 1 :])
    return out


def is_left_compressed(g: RUniformHypergraph) -> bool:
    """True iff every descendant of every edge is an edge.

    Checking direct descendants suffices: they are the covers of the
    dominance order, so closure under them is closure under all of it.
    """
    return all(
        d in g.edge_set for e in g.edges for d in _direct_descendants(e)
    )


def left_compress(g: RUniformHypergraph) -> RUniformHypergraph:
    """Push edges down the dominance order until the edge set is a down-set.

    Repeatedly replaces the colex-largest edge that has a missing descendant
    by its colex-smallest missing descendant. Edge count is preserved and the
    result is left-compressed; already-compressed graphs come back unchanged.
    """
    if is_left_compressed(g):
        return g
    edges = set(g.edges)
    while True:
        offender = None
        for e in sorted(edges, key=_colex_key, reverse=True):
            missing = [d for d in descendants(e) if d not in edges]
            if missing:
                offender = e
                replacement = min(missing, key=_colex_key)
                break
        if offender is None:
            break
        edges.remove(offender)
        edges.add(replacement)
    return RUniformHypergraph(g.r, g.n, tuple(edges))


def _extends_clique(g: RUniformHypergraph, clique: tuple[int, ...], v: int) -> bool:
    if len(clique) < g.r - 1:
        return True
    return all(
        tuple(sorted(sub + (v,))) in g.edge_set for sub in combinations(clique, g.r - 1)
    )


def max_clique_order(g: RUniformHypergraph) -> int:
    """Order of the largest vertex set inducing a complete sub-hypergraph.

    Returns r - 1 for edgeless graphs. Exhaustive search with a size-bound
    prune; refuses graphs beyond CLIQUE_SEARCH_MAX_VERTICES.
    """
    if g.n > CLIQUE_SEARCH_MAX_VERTICES:
        raise ResourceLimitError(
            f"clique search budget is {CLIQUE_SEARCH_MAX_VERTICES} vertices, "
            f"graph has {g.n}"
        )
    if g.m == 0:
        return g.r - 1
    return len(_max_clique_witness(g))


def _max_clique_witness(g: RUniformHypergraph) -> tuple[int, ...]:
    """One maximum clique, found by ordered DFS with a cardinality prune."""
    active = sorted({v for e in g.edges for v in e})
    best: tuple[int, ...] = g.edges[0]

    def extend(clique: list[int], cands: list[int]):
        nonlocal best
        if len(clique) > len(best):
            best = tuple(clique)
        for i, v in enumerate(cands):
            if len(clique) + len(cands) - i <= len(best):
                return
            if _extends_clique(g, tuple(clique), v):
                clique.append(v)
                extend(clique, cands[i + 1 :])
                clique.pop()

    extend([], active)
    return best


def maximal_cliques(
    g: RUniformHypergraph, cap: int | None = None
) -> list[tuple[int, ...]]:
    """Inclusion-maximal cliques of order >= r, largest first.

    Falls back to the single maximum-clique witness when the clique DFS would
    exceed CLIQUE_NODE_BUDGET (very dense graphs). Order is deterministic.
    """
    if g.m == 0:
        return []
    active = sorted({v for e in g.edges for v in e})
    found: list[tuple[int, ...]] = []
    nodes = 0

    def extend(clique: list[int], cands: list[int]):
        nonlocal nodes
        nodes += 1
        if nodes > CLIQUE_NODE_BUDGET:
            raise ResourceLimitError("clique enumeration node budget exceeded")
        extended = False
        for i, v in enumerate(cands):
            if _extends_clique(g, tuple(clique), v):
                extended = True
                clique.append(v)
                extend(clique, cands[i + 1 :])
                clique.pop()
        if not extended and len(clique) >= g.r:
            c = tuple(clique)
            if not any(_extends_clique(g, c, v) for v in active if v not in clique):
                found.append(c)

    try:
        extend([], active)
    except ResourceLimitError:
        found = [_max_clique_witness(g)]
    found.sort(key=lambda c: (-len(c), c))
    if cap is not None:
        found = found[:cap]
    return found


# --- text format -----------------------------------------------------------
#
# Line 1: "r n m". Then m lines of r ascending vertex labels. Lines starting
# with '#' are comments. Canonical output: colex-sorted edges, single spaces,
# trailing newline.


def parse_hypergraph(text: str) -> RUniformHypergraph:
    header: tuple[int, int, int] | None = None
    edges: list[RSet] = []
    seen: set[RSet] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            values = [int(p) for p in parts]
        except ValueError:
            raise ParseError(lineno, f"expected integers, got {line!r}") from None
        if header is None:
            if len(values) != 3:
                raise ParseError(lineno, "header must be three integers: r n m")
            r, n, m = values
            if r < 2 or n < r or m < 0:
                raise ParseError(lineno, f"invalid header r={r} n={n} m={m}")
            header = (r, n, m)
            continue
        r, n, m = header
        if len(values) != r:
            raise ParseError(lineno, f"expected {r} vertices, got {len(values)}")
        if any(v < 1 or v > n for v in values):
            raise ParseError(lineno, f"vertex out of range [1, {n}]: {line!r}")
        if any(a >= b for a, b in zip(values, values[1:])):
            raise ParseError(lineno, f"vertices must be strictly ascending: {line!r}")
        e = tuple(values)
        if e in seen:
            raise ParseError(lineno, f"duplicate edge: {line!r}")
        seen.add(e)
        edges.append(e)
    if header is None:
        raise ParseError(1, "empty input")
    r, n, m = header
    if len(edges) != m:
        raise ParseError(1, f"header declares {m} edges, found {len(edges)}")
    return RUniformHypergraph(r, n, tuple(edges))


def format_hypergraph(g: RUniformHypergraph) -> str:
    lines = [f"{g.r} {g.n} {g.m}"]
    lines.extend(" ".join(str(v) for v in e) for e in g.edges)
    return "\n".join(lines) + "\n"
