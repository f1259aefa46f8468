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

from .colex import MAX_TABLE_SETS, RSet, _colex_key, colex_sets, rset
from .errors import ParseError, ResourceLimitError

CLIQUE_SEARCH_MAX_VERTICES = 20
#: Search nodes `maximal_cliques` may visit before it falls back.
CLIQUE_NODE_BUDGET = 200_000


@dataclass(frozen=True)
class RUniformHypergraph:
    """A set of r-element edges over the vertex set {1, ..., n}.

    Unchecked: the caller gives n >= r >= 2 and distinct sorted r-sets inside
    [n], in colex order. `hypergraph` and `parse_hypergraph` check outside input.
    """

    r: int
    n: int
    edges: tuple[RSet, ...]

    @cached_property
    def edge_set(self) -> frozenset[RSet]:
        return frozenset(self.edges)

    @property
    def m(self) -> int:
        return len(self.edges)


def hypergraph(r: int, edges: Iterable[Iterable[int]], n: int | None = None) -> RUniformHypergraph:
    """Check edges, each through `rset` once, and sort them into colex order.

    n defaults to the largest vertex used.
    """
    canon = sorted((rset(e) for e in edges), key=_colex_key)
    if n is None:
        n = max([r, *(e[-1] for e in canon)])
    if r < 2 or n < r:
        raise ValueError(f"need n >= r >= 2, got n = {n}, r = {r}")
    for s in canon:
        if len(s) != r:
            raise ValueError(f"edge {s} has size {len(s)}, expected {r}")
        if s[-1] > n:
            raise ValueError(f"edge {s} exceeds vertex count n = {n}")
    if len(set(canon)) != len(canon):
        raise ValueError("duplicate edges")
    return RUniformHypergraph(r, n, tuple(canon))


def complete_graph(t: int, r: int) -> RUniformHypergraph:
    """All C(t, r) r-subsets of {1, ..., t}."""
    if r < 2 or t < r:
        raise ValueError(f"need t >= r >= 2, got t = {t}, r = {r}")
    return RUniformHypergraph(r, t, tuple(colex_sets(t, r)))


def colex_graph(r: int, m: int) -> RUniformHypergraph:
    """The first m r-sets in colex order; n is the largest vertex appearing."""
    if r < 2:
        raise ValueError(f"uniformity must be >= 2, got {r}")
    if m < 1:
        raise ValueError(f"edge count must be >= 1, got {m}")
    if m > MAX_TABLE_SETS:  # before colex_unrank, whose search grows with m
        raise ResourceLimitError(
            f"colex prefix limit exceeded: {m} edges > MAX_TABLE_SETS = {MAX_TABLE_SETS}"
        )
    from .colex import colex_unrank

    n = colex_unrank(m, r)[-1]
    return RUniformHypergraph(r, n, tuple(colex_sets(n, r)[:m]))


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

    members = {tuple(v for v in e if v not in pins) for e in g.edges if pins.issubset(e)}
    if complemented:
        others = [v for v in range(1, g.n + 1) if v not in pins]
        return frozenset(combinations(others, g.r - len(pins))) - members
    if difference_against is not None:
        j = difference_against
        members = {a for a in members if j not in a and tuple(sorted((*a, j))) not in g.edge_set}
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

    Replaces the colex-largest edge that has a missing descendant by its
    colex-smallest missing descendant until none is left; edge count is
    preserved, and already-compressed graphs come back unchanged. One pass
    down the original edges from the colex top does it. A closed edge, one
    with every descendant, stays closed: a replaced edge has a missing
    descendant, so it is no closed edge's descendant. A replacement is
    closed, so it is never replaced: its descendants lie below the replaced
    edge and colex before the replacement, so they are edges.
    """
    edges, closed = set(g.edges), set()
    for e in g.edges:  # colex order: each direct descendant comes first
        if all(d in closed for d in _direct_descendants(e)):
            closed.add(e)
    if len(closed) == g.m:
        return g
    for e in reversed(g.edges):
        missing = [] if e in closed else [d for d in descendants(e) if d not in edges]
        if missing:
            d = min(missing, key=_colex_key)
            edges.remove(e)
            edges.add(d)
    return RUniformHypergraph(g.r, g.n, tuple(sorted(edges, key=_colex_key)))


def _clique_links(g: RUniformHypergraph) -> dict[tuple[int, ...], set[int]]:
    """Each (r-1)-subset of an edge, mapped to the vertices completing it to an edge."""
    links: dict[tuple[int, ...], set[int]] = {}
    for e in g.edges:
        for i in range(g.r):
            links.setdefault(e[:i] + e[i + 1 :], set()).add(e[i])
    return links


def _extenders(links: dict, r: int, clique: list[int], active: set[int]) -> set[int]:
    """The vertices that complete each (r-1)-subset of the ascending `clique`
    to an edge, by `_clique_links`; `active` while it has fewer than r-1."""
    if len(clique) < r - 1:
        return active
    return set.intersection(*(links.get(s, set()) for s in combinations(clique, r - 1)))


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
    active = {v for e in g.edges for v in e}
    links = _clique_links(g)
    best: tuple[int, ...] = g.edges[0]

    def extend(clique: list[int], cands: list[int]):
        nonlocal best
        if len(clique) > len(best):
            best = tuple(clique)
        if len(clique) + len(cands) <= len(best):
            return
        ext = _extenders(links, g.r, clique, active)
        for i, v in enumerate(cands):
            if len(clique) + len(cands) - i <= len(best):
                return
            if v in ext:
                clique.append(v)
                extend(clique, cands[i + 1 :])
                clique.pop()

    extend([], sorted(active))
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
    active = {v for e in g.edges for v in e}
    links = _clique_links(g)
    found: list[tuple[int, ...]] = []
    nodes = 0

    def extend(clique: list[int], cands: list[int]):
        nonlocal nodes
        nodes += 1
        if nodes > CLIQUE_NODE_BUDGET:
            raise ResourceLimitError("clique enumeration node budget exceeded")
        ext = _extenders(links, g.r, clique, active)
        extended = False
        for i, v in enumerate(cands):
            if v in ext:
                extended = True
                clique.append(v)
                extend(clique, cands[i + 1 :])
                clique.pop()
        # no vertex extends a maximal clique; one of order >= r - 1 has no
        # extenders inside it
        if not extended and len(clique) >= g.r and not ext:
            found.append(tuple(clique))

    try:
        extend([], sorted(active))
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
    return RUniformHypergraph(r, n, tuple(sorted(edges, key=_colex_key)))


def format_hypergraph(g: RUniformHypergraph) -> str:
    lines = [f"{g.r} {g.n} {g.m}"]
    lines.extend(" ".join(str(v) for v in e) for e in g.edges)
    return "\n".join(lines) + "\n"
