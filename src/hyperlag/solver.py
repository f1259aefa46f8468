"""Maximize the edge-monomial polynomial of a hypergraph over the simplex.

The objective for a graph G and weights x is the sum over edges of the
product of the member weights; its maximum over the probability simplex is
computed by a multiplicative growth update

    x_i  <-  x_i * d_i(x) / (r * value(x)),

where d_i is the link value at vertex i (the partial derivative). For a
homogeneous polynomial with non-negative coefficients this update never
decreases the objective and preserves the simplex exactly, so no projection
step is needed. Restart trials are independent; they are executed batched and
reduced to the earliest KKT point within 1e-15 of the best value (`solve`), so
the report for a fixed seed does not depend on scheduling.

The link values come from one matrix per graph, built from its shadow, the
(r-2)-sets inside an edge: a row for each, holding 1/(r-1) at each ordered
pair that completes it to an edge (`_link_matrix`). One kernel,
`_pair_links`, multiplies each weighting's products over the shadow sets by
it: the pair-link matrices L x^(r-2) are Newton's Jacobian up to r-1, and
one more contraction with x gives the link values d; the objective is
x . d / r.

First-order optimality at a weighting with minimal support means every
supported vertex sees the same link value, equal to r times the objective,
and no unsupported vertex sees more; `kkt_residual` measures the deviation.

Growth steps converge only like 1/k toward an optimum on a degenerate face,
where a vertex's weight shrinks while its link value ties r times the
objective (a clique plus extra edges through one of its vertices). So every
row takes `FIRST_ROUND_STEPS` growth steps, and the rows still moving then get
Newton's method on the KKT equations of their faces, as stacked solves in
which each row keeps its own face (`_face_newton`). Where the shrinking
weight's zero is the optimum, the face system is singular there, and Newton
too converges only linearly, halving that weight each step (Decker, Keller
and Kelley 1983); so a weight it keeps halving leaves the face, as does one
below `FACE_RATIO` of its row's largest. A row Newton finishes is done; the
rows still moving that it does not finish grow on to `GROWTH_STEPS` in all
and get a second Newton solve. The support is cut only then, since after
the first round an optimum's weight can still sit below `SUPPORT_THRESHOLD`:
any row neither solve finishes has its support cut and then takes one more
growth pass of at most `MAX_GROWTH_STEPS` steps.

Let K be 1 + the largest second-highest vertex of an edge, so no edge holds
two vertices >= K. If each edge A + v with v > K has A + K as an edge too,
then d_v <= d_K at every weighting, and no edge holds both v and K, so
moving v's weight onto K never lowers the value: lambda(g) = lambda(g[K]),
the core g[K] keeping the edges inside [K]. The core's report, padded with
zeros, is g's (`SolveReport`). A left-compressed g always passes: its edge
A + v dominates A + K.

A 2-graph on at most `CLIQUE_SEARCH_MAX_VERTICES` vertices takes no ascent:
its value is (1/2)(1 - 1/omega), omega its clique order (Motzkin-Straus 1965),
at the uniform weighting on a maximum clique, [omega] if g is left-compressed.
A clique vertex sees (omega-1)/omega there, and a vertex off it no more.

Two more kinds of graph take no ascent of their own. A complete graph,
m = C(n, r), takes the uniform weighting, by symmetry, as an edgeless one
does: its value is C(n, r)/n^r. A cone, an r-graph with r >= 3 whose
smallest vertex v lies in every edge, is solved through its link, the
(r-1)-graph of the edges with v removed and the labels above v shifted down
by one. With x_v = s the value is at most s (1-s)^(r-1) lambda(link), so
lambda(g) = ((r-1)^(r-1)/r^r) lambda(link), at x_v = 1/r and (1 - 1/r) times
the link's weighting elsewhere; at r = 3 that is (2/27)(1 - 1/omega(link)).
There every vertex sees r times the value if the link's weighting is a KKT
point. A 2-graph star is no cone here, since its link would be 1-uniform.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import comb
from operator import itemgetter
from typing import Sequence

import numpy as np
from numpy.random import default_rng  # loads numpy.random now, not in the first multistart

from .errors import ResourceLimitError
from .hypergraph import (
    CLIQUE_SEARCH_MAX_VERTICES,
    RUniformHypergraph,
    _max_clique_witness,
    is_left_compressed,
    max_clique_order,
    maximal_cliques,
)

SIMPLEX_TOLERANCE = 1e-12
#: A trial stops once one growth step gains less than this.
STEP_GAIN_FLOOR = 1e-14
#: A solve is converged when its KKT residual is at most this.
KKT_TOLERANCE = 1e-12
#: Growth steps of the first round, after which the rows still moving get
#: their first face-Newton solve.
FIRST_ROUND_STEPS = 30
#: Growth steps a row Newton does not finish takes, over both rounds, before
#: the support cut; the second round's rows get a second Newton solve.
GROWTH_STEPS = 200
#: Most growth steps of one ascent after the support cut, so a row takes at
#: most `GROWTH_STEPS` + `MAX_GROWTH_STEPS` in all. A safety stop that no
#: claim check reaches.
MAX_GROWTH_STEPS = 50_000
#: A row's face: the weights above this fraction of its largest weight.
FACE_RATIO = 1e-4
#: Weights at or below this are off the support.
SUPPORT_THRESHOLD = 1e-9
#: Most entries a start batch's gradient or a chunk of face-Newton systems
#: holds, 8 MB of float64, and most n^r for a link matrix (`_link_matrix`).
MAX_LINK_ENTRIES = 1_000_000
#: A graph's pair links, as `_link_matrix` builds them: (shadow sets, block).
Links = tuple[np.ndarray, np.ndarray]
#: Most reports `solve` keeps, dropping the least recently used first.
SOLVE_MEMO_SIZE = 4096


@dataclass(frozen=True)
class SolverConfig:
    """Multistart size, and the seed of one generator for every Dirichlet start.

    Clique starts run on graphs with at most `CLIQUE_SEARCH_MAX_VERTICES`
    vertices. 2-graphs that small take no trial, nor do complete graphs and
    r = 3 cones on one vertex more, whose links are such 2-graphs; all of
    them ignore both fields.
    """

    restarts: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class SolveReport:
    """Best certified value found, with the weighting behind it.

    `weighting` is the support-minimized (and, for left-compressed inputs,
    sorted) optimum; `raw_weighting` is the same trial before support
    minimization. `converged` means a KKT residual of at most
    `KKT_TOLERANCE`. `iterations` counts the winning trial's growth steps,
    over both rounds and the pass after the support cut; Newton iterations
    are not counted, so a trial the first Newton solve finishes reports
    `FIRST_ROUND_STEPS`. `pairs_covered` records whether
    every pair of supported vertices lies in a common edge, a necessary
    condition at minimal-support optima. A graph solved in closed form
    reports `iterations` 0 and `restarts_used` 1, save a cone (module
    docstring), whose `iterations` and `restarts_used` are its link's.

    For a g solved on its core g[K], the report is the core's, both
    weightings padded with zeros to n, and it holds for g: for v > K each A
    with A + v an edge lies in [K-1] and A + K is an edge too, so v's link
    value is at most K's. So g's residual is the core's, save that a
    supported K's own gap can count twice, so at most double it. Every pair
    of [K] in an edge of g is in an edge of g[K], the edge itself or its
    copy through K, so `pairs_covered` is g's as well.
    """

    value: float
    weighting: tuple[float, ...]
    raw_weighting: tuple[float, ...]
    support: tuple[int, ...]
    kkt_residual: float
    iterations: int
    restarts_used: int
    converged: bool
    pairs_covered: bool


def _edge_index(g: RUniformHypergraph) -> np.ndarray:
    return np.asarray(g.edges, dtype=np.int64).reshape(g.m, g.r) - 1


def _link_matrix(g: RUniformHypergraph) -> Links:
    """The pair links of g's shadow: (sets, block).

    The shadow is every (r-2)-set inside an edge, and `sets` holds its
    0-based labels, shape (r-2, s), one column per set in lexicographic
    order. `block` has a row per set and n^2 columns: row S and column
    (i, j), read as a base-n number, hold 1/(r-1) when S + {i, j} is an
    edge, which is the link tensor (1/(r-1)! per ordering) summed over the
    (r-2)! orderings of S. At r <= 3 every (r-2)-set gets a row, the empty
    set at r = 2 and each vertex at r = 3, so `block` is the link tensor
    as an (n^(r-2), n^2) matrix. Raises ResourceLimitError when n^r passes
    `MAX_LINK_ENTRIES`, before allocating: the block has at most n^r
    entries, and each index array that fills it, m r (r-1) keys, at most
    n^r too.
    """
    n, r = g.n, g.r
    if n**r > MAX_LINK_ENTRIES:
        raise ResourceLimitError(
            f"link matrix limit exceeded: n^r = {n}^{r} = {n**r} entries"
            f" > MAX_LINK_ENTRIES = {MAX_LINK_ENTRIES}"
        )
    # each edge's labels in every order that ends in an ordered pair (i, j),
    # as a base-n number: the key of the other r-2, then i, then j
    keys = _edge_index(g) @ n ** _pair_orders(r)
    if r <= 3:  # every (r-2)-set is a row, so a key is its entry's flat index
        sets = np.arange(n ** (r - 2))
    else:
        # rows for the shadow's sets only, found by marking their keys (not
        # by np.unique, which imports numpy.ma on its first call)
        rest, pair = np.divmod(keys, n * n)
        shadow = np.zeros(n ** (r - 2), dtype=bool)
        shadow[rest] = True
        sets, keys = np.flatnonzero(shadow), (np.cumsum(shadow)[rest] - 1) * (n * n) + pair
    block = np.zeros((sets.size, n * n))
    block.ravel()[keys] = 1.0 / (r - 1)
    return sets // n ** np.arange(r - 3, -1, -1)[:, None] % n, block


@lru_cache(maxsize=None)
def _pair_orders(r: int) -> np.ndarray:
    """Base-n place exponents, (r, r(r-1)): column (a, b) reads an edge's
    labels at the positions other than a and b in ascending order, then at
    a, then at b."""
    orders = [(*(k for k in range(r) if k not in p), *p) for p in permutations(range(r), 2)]
    exponents = (r - 1 - np.argsort(orders, axis=1)).T
    exponents.flags.writeable = False  # shared by every call through the cache
    return exponents


def _as_weights(g: RUniformHypergraph, x: Sequence[float]) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.shape != (g.n,):
        raise ValueError(f"weighting length {arr.shape} does not match n = {g.n}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("weighting contains non-finite entries")
    return arr


def _check_feasible(x: np.ndarray):
    if np.any(x < 0):
        raise ValueError(f"negative weight: min = {x.min()}")
    total = float(x.sum())
    if not abs(total - 1.0) <= SIMPLEX_TOLERANCE:  # a nan sum fails too
        raise ValueError(f"weights sum to {total!r}, not 1")


def evaluate(g: RUniformHypergraph, x: Sequence[float]) -> float:
    """Sum over edges of the product of member weights."""
    arr = _as_weights(g, x)
    return float(arr[_edge_index(g)].prod(axis=1).sum())


def evaluate_exact(g: RUniformHypergraph, weights: Sequence) -> Fraction:
    """Exact rational evaluation; weights may be Fractions, ints, or strings."""
    w = [Fraction(v) for v in weights]
    if len(w) != g.n:
        raise ValueError(f"weighting length {len(w)} does not match n = {g.n}")
    total = Fraction(0)
    for e in g.edges:
        p = Fraction(1)
        for v in e:
            p *= w[v - 1]
        total += p
    return total


def _batch_grad(L: Links, r: int, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Link values at every vertex and objective values, per batch row.

    At r >= 3 the pair links `_pair_links` builds are contracted once more
    with the row itself. Stopping one degree short keeps the weight
    products at one per shadow set and row.
    """
    n = X.shape[1]
    grad = X @ L[1].reshape(n, n) if r == 2 else np.einsum("bk,bkv->bv", X, _pair_links(L, r, X))
    return grad, np.einsum("bv,bv->b", X, grad) / r


def _pair_links(L: Links, r: int, Y: np.ndarray) -> np.ndarray:
    """The pair-link matrices of the rows of Y, broadcasting to (B, n, n):
    the 2-graph's adjacency at r = 2, else each row's weight products over
    the shadow sets, times the block of `_link_matrix`."""
    sets, block = L
    B, n = Y.shape
    if r == 2:
        return block.reshape(1, n, n)
    P = Y if r == 3 else Y[:, sets].prod(axis=1)  # at r = 3 the rows are the vertices
    return (P @ block).reshape(B, n, n)


def _ascend(
    L: Links, r: int, X0: np.ndarray, max_steps: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run growth updates on each row until its gain drops below the floor.

    Returns the rows, their values, their link values and their step counts.
    Link values carry over from one step to the next, so a step is one
    kernel call; a row leaves the batch when it stops.
    """
    X = X0.copy()
    grad, vals = _batch_grad(L, r, X)
    iters = np.zeros(X.shape[0], dtype=np.int64)
    rows = np.flatnonzero(vals > 0.0)
    Xa, ga, va = X[rows], grad[rows], vals[rows]
    step = 0
    while rows.size and step < max_steps:
        step += 1
        Xa = Xa * ga
        Xa /= Xa.sum(axis=1, keepdims=True)
        ga, newv = _batch_grad(L, r, Xa)
        moving = (newv - va) >= STEP_GAIN_FLOOR
        va = newv
        if not moving.all():
            stop = ~moving
            out = rows[stop]
            X[out], grad[out], vals[out], iters[out] = Xa[stop], ga[stop], va[stop], step
            rows, Xa, ga, va = rows[moving], Xa[moving], ga[moving], va[moving]
    X[rows], grad[rows], vals[rows], iters[rows] = Xa, ga, va, step
    return X, vals, grad, iters


def kkt_residual(g: RUniformHypergraph, x: Sequence[float]) -> float:
    """Deviation from first-order optimality.

    Largest gap between a supported vertex's link value and r times the
    objective, plus any excess link value at unsupported vertices, summed
    over the edge list in O(m r), so for any n.
    """
    arr = _as_weights(g, x)
    _check_feasible(arr)
    eidx = _edge_index(g)
    w, cols = arr[eidx], np.arange(g.r)
    others = np.stack([w[:, cols != j].prod(axis=1) for j in cols], axis=1)
    grad = np.bincount(eidx.ravel(), others.ravel(), minlength=g.n)
    val = np.array([arr @ grad / g.r])
    return float(_kkt_rows(arr[None, :], grad[None, :], val, g.r)[0])


def _kkt_rows(X: np.ndarray, grad: np.ndarray, vals: np.ndarray, r: int) -> np.ndarray:
    target = (r * vals)[:, None]
    dev = grad - target
    on_support = X > SUPPORT_THRESHOLD
    sup = np.where(on_support, np.abs(dev), 0.0).max(axis=1)
    off = np.where(~on_support, dev, 0.0).max(axis=1, initial=0.0)
    return sup + np.maximum(off, 0.0)


def _value_kkt(L: Links, r: int, x: np.ndarray) -> tuple[float, float]:
    """Objective value and KKT residual of one weighting."""
    grad, val = _batch_grad(L, r, x[None, :])
    return float(val[0]), float(_kkt_rows(x[None, :], grad, val, r)[0])


def sorted_polish(L: Links, r: int, x: Sequence[float]) -> np.ndarray:
    """Reassign weights in non-increasing label order, then re-converge.

    L is the graph's pair links (`_link_matrix`), the ones its trials ran
    on, and r its uniformity.
    Meant for left-compressed graphs, the only ones `solve` polishes. There
    the descending reassignment never decreases the objective, some optimal
    weighting is non-increasing, and a growth step keeps a non-increasing
    weighting non-increasing, since x_i >= x_j and i < j give
    x_i * d_i >= x_j * d_j for the link values d. So one round canonicalizes
    the output.
    """
    arr = np.asarray(x, dtype=np.float64)
    _check_feasible(arr)
    return _ascend(L, r, np.sort(arr)[None, ::-1], MAX_GROWTH_STEPS)[0][0]


def _solve_rows(K: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Solutions of the systems K[i] x = b[i], zero for a singular K[i], and
    the indices of the singular ones.

    One singular system fails a stacked solve, so then each is solved alone.
    """
    try:
        return np.linalg.solve(K, b[:, :, None])[:, :, 0], []
    except np.linalg.LinAlgError:
        x, singular = np.zeros_like(b), []
    for i in range(len(K)):
        try:
            x[i] = np.linalg.solve(K[i], b[i])
        except np.linalg.LinAlgError:
            singular.append(i)
    return x, singular


def _face_newton(L: Links, r: int, X0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """KKT points on the faces of the rows of `X0`, by Newton's method.

    Returns (Y, accepted): Y holds each accepted row's point and every other
    row of X0 as it was. Each row solves d_F(x) = mu, sum(x_F) = 1 on its
    face F (the weights above `FACE_RATIO` of its largest), whose Jacobian
    in x_F is the pair-link matrix H = (r-1) L x^(r-2). A face shrinks, and
    Newton restarts from the row's x0 on the smaller face, when

    - an iterate has a weight below the face ratio, which goes;
    - a step has halved a weight on three iterations running, which goes;
    - a step drives a weight to zero or below (the weight that fell most,
      as a ratio, goes);
    - the system is singular (the smallest weight goes).

    The first two act before the others. They drop early a weight that would
    otherwise go later, by one of the last two rules or below the face ratio
    once the row converges, so they save iterations. That the row then ends
    where it would have is measured, not guaranteed, as the restart takes a
    new path: no claim check's report moves, and BENCH_28.json counts the
    replayed rows that do. A row is rejected after 40 iterations on one
    face. A point is accepted only if its KKT residual is at most
    `KKT_TOLERANCE` and its value is at least its x0's, less 1e-15.

    The rows still iterating are solved as one stack of (n+1) x (n+1)
    systems, so each row keeps its own face, multiplier and iteration
    count.
    """
    B, n = X0.shape
    Y, done = X0.copy(), np.zeros(B, dtype=bool)
    rows, x0 = np.arange(B), X0
    f = x0 > FACE_RATIO * x0.max(axis=1, keepdims=True)
    y = np.where(f, x0, 0.0)
    y /= y.sum(axis=1, keepdims=True)
    # a row new to its face has mu = nan, set from its first iterate there
    mu, its, fresh = np.full(B, np.nan), np.zeros(B, dtype=np.int64), True
    # iterations running on which Newton's step halved each weight
    halved = np.zeros((B, n), dtype=np.int64)
    # the bordered systems, kept across iterations: each iteration refills
    # the face blocks, and a row's border and the identity rows that pin its
    # weights off the face change only with its face
    eye = np.eye(n)
    K = np.zeros((B, n + 1, n + 1))
    K[:, :n, :n], K[:, n, :n] = eye, f
    K[:, :n, n] = -K[:, n, :n]
    block = f[:, :, None] & f[:, None, :]
    while rows.size:
        M = _pair_links(L, r, y)
        d = (M @ y[:, :, None])[:, :, 0]
        if fresh:
            new_face = np.isnan(mu)
            mu[new_face] = (y[new_face, None, :] @ d[new_face, :, None])[:, 0, 0]
            fresh = False
        # minus the residual: link values off mu on the face, and the weight sum off 1
        rhs = np.concatenate(
            (np.where(f, mu[:, None] - d, 0.0), 1.0 - y.sum(axis=1, keepdims=True)), axis=1
        )
        conv = np.abs(rhs).max(axis=1) <= 1e-15
        np.copyto(K[:, :n, :n], (r - 1) * M, where=block)
        step, singular = _solve_rows(K, rhs)
        new = np.where(f, y + step[:, :n], 0.0)
        # where the face system is singular at a weight's zero, Newton only
        # halves that weight each step. A weight within 2% of half its last
        # value on three iterations running goes. Fewer is too soon: a weight
        # halved once can be on its way to a nonzero optimum, and a row that
        # drops a weight halved twice can fail on the smaller face
        halved = np.where(f & (np.abs(new - y / 2) < 0.02 * y), halved + 1, 0)
        low = f & (y < FACE_RATIO * y.max(axis=1, keepdims=True))
        drop = low | (halved >= 3)
        stop = conv | drop.any(axis=1) | ((new <= 0.0) & f).any(axis=1)
        stop[singular] = True
        leave = []
        if stop.any():
            # a converged row with no face weight below the face ratio is done
            accept = conv & ~low.any(axis=1)
            Y[rows[accept]] = y[accept] / y[accept].sum(axis=1, keepdims=True)
            done[rows[accept]] = True
            leave = np.flatnonzero(accept).tolist()
            for i in np.flatnonzero(stop & ~accept):
                if drop[i].any():
                    f[i] &= ~drop[i]
                else:
                    face = np.flatnonzero(f[i])
                    worst = y[i, face] if i in singular else new[i, face] / y[i, face]
                    f[i, face[np.argmin(worst)]] = False
                if not f[i].any():
                    leave.append(i)
                    continue
                # restart from x0 on the smaller face; the update below leaves
                # its mu nan and its count 0
                new[i] = np.where(f[i], x0[i], 0.0)
                new[i] /= new[i].sum()
                step[i, n], mu[i], its[i], halved[i], fresh = 0.0, np.nan, -1, 0, True
                block[i] = f[i, :, None] & f[i]
                K[i, :n, :n], K[i, n, :n] = eye, f[i]
                K[i, :n, n] = -K[i, n, :n]
        y, mu, its = new, mu + step[:, n], its + 1
        if leave or its.max() >= 40:
            keep = its < 40
            keep[leave] = False
            rows, x0, y, f, mu, its, halved, K, block = (
                a[keep] for a in (rows, x0, y, f, mu, its, halved, K, block)
            )

    fin = np.flatnonzero(done)
    if fin.size:
        x = Y[fin]
        grad, val = _batch_grad(L, r, np.concatenate([X0[fin], x]))
        k = fin.size
        ok = (_kkt_rows(x, grad[k:], val[k:], r) <= KKT_TOLERANCE) & (val[k:] >= val[:k] - 1e-15)
        done[fin], Y[fin[~ok]] = ok, X0[fin[~ok]]
    return Y, done


def _pairs_covered(g: RUniformHypergraph, support: Sequence[int]) -> bool:
    pairs = {p for e in g.edges for p in combinations(e, 2)}
    return all(p in pairs for p in combinations(sorted(support), 2))


def _starts(g: RUniformHypergraph, config: SolverConfig) -> np.ndarray:
    n = g.n
    rows = [np.full(n, 1.0 / n)]
    if n <= CLIQUE_SEARCH_MAX_VERTICES and config.restarts >= 2:
        for clique in maximal_cliques(g, cap=config.restarts - 1):
            w = np.zeros(n)
            w[np.asarray(clique) - 1] = 1.0 / len(clique)
            rows.append(w)
    rng = default_rng(config.seed)
    rows.extend(rng.dirichlet(np.ones(n), size=config.restarts - len(rows)))
    return np.asarray(rows)


def solve(g: RUniformHypergraph, config: SolverConfig | None = None) -> SolveReport:
    """Best value over a deterministic multistart schedule.

    Trial list: the uniform weighting, then a uniform weighting on each
    maximal clique (when n <= CLIQUE_SEARCH_MAX_VERTICES), then flat-Dirichlet
    draws from one generator seeded by `config.seed`, `restarts` trials in
    total. Each trial takes `FIRST_ROUND_STEPS` growth steps. The trials
    still moving then get one stacked Newton solve, each on its own face; a
    trial whose KKT point is accepted is done. The others still moving take
    the rest of `GROWTH_STEPS` and, if still moving, a second stacked Newton
    solve. Every trial neither solve finished gets its support minimized and
    runs growth updates to the gain floor or `MAX_GROWTH_STEPS`. The winner
    is the earliest trial whose KKT residual is at most `KKT_TOLERANCE` and
    whose value is within 1e-15 of the best, so an ulp of Newton overshoot
    does not outrank an exact optimum; when no trial qualifies, the best
    value wins, with ties broken toward the earlier trial. If the winner's
    KKT residual is above `KKT_TOLERANCE`, it gets one more Newton solve, as
    a one-row stack, before the sorted polish.

    A g with K < n whose vertices past K link inside K's is solved as its
    core g[K] (module docstring) and padded to n, so the entry limits below
    bind on K. A 2-graph with edges and n <= CLIQUE_SEARCH_MAX_VERTICES and
    a complete graph run no trial: each reports its closed form (module
    docstring), whatever the config. A cone at r >= 3 runs only its link's
    solve, through the memo, and lifts the link's report. None of these
    builds a start batch of its own, so the start-batch limit below does not
    refuse them.

    Reports are memoized on the solved graph and the config (None meaning
    `SolverConfig()`), at most `SOLVE_MEMO_SIZE` of them: a repeat call
    returns the same frozen report, or pads it anew. Errors are not
    memoized. Raises ResourceLimitError, before building the trials, when
    their gradient or, at r >= 5, n^(r-2) products per trial, as many as
    the shadow can have, would pass `MAX_LINK_ENTRIES` entries; the Newton
    solve runs in chunks that fit it.
    """
    cfg = config or SolverConfig()
    k = max(map(itemgetter(-2), g.edges), default=g.n - 1) + 1
    if k == g.n:
        return _solve(g, cfg)
    # colex order sorts the edges by their top label, so those with top label
    # k and then those past it end the list
    at = bisect_left(g.edges, k, key=itemgetter(-1))
    past = bisect_right(g.edges, k, lo=at, key=itemgetter(-1))
    link_k = {e[:-1] for e in g.edges[at:past]}
    if not all(e[:-1] in link_k for e in g.edges[past:]):
        return _solve(g, cfg)
    rep = _solve(RUniformHypergraph(g.r, k, g.edges[:past]), cfg)
    pad = (0.0,) * (g.n - k)
    return replace(rep, weighting=rep.weighting + pad, raw_weighting=rep.raw_weighting + pad)


def _report(g: RUniformHypergraph, x, raw, value, kkt, iterations=0, restarts=1) -> SolveReport:
    """The report at weighting x; the defaults are a fixed weighting's, which no trial found."""
    support = tuple(int(i) + 1 for i in np.flatnonzero(x > SUPPORT_THRESHOLD))
    return SolveReport(
        value=value,
        weighting=tuple(float(v) for v in x),
        raw_weighting=tuple(float(v) for v in raw),
        support=support,
        kkt_residual=kkt,
        iterations=iterations,
        restarts_used=restarts,
        converged=kkt <= KKT_TOLERANCE,
        pairs_covered=_pairs_covered(g, support),
    )


@lru_cache(maxsize=SOLVE_MEMO_SIZE)
def _solve(g: RUniformHypergraph, cfg: SolverConfig) -> SolveReport:
    n = g.n
    L = _link_matrix(g)  # first, so that the entry limit holds for closed forms too
    if g.m in (0, comb(n, g.r)):  # edgeless or complete
        x = np.full(n, 1.0 / n)
        return _report(g, x, x, *_value_kkt(L, g.r, x))
    if g.r == 2 and n <= CLIQUE_SEARCH_MAX_VERTICES:
        clique, x = _max_clique_witness(g), np.zeros(n)
        x[np.asarray(clique) - 1] = 1.0 / len(clique)
        return _report(g, x, x, *_value_kkt(L, g.r, x))
    apex = g.r >= 3 and min(set(g.edges[0]).intersection(*g.edges[1:]), default=0)
    if apex:
        # dropping the apex keeps the colex order of sets that all hold it
        edges = tuple(tuple(u - (u > apex) for u in e if u != apex) for e in g.edges)
        rep = solve(RUniformHypergraph(g.r - 1, n - 1, edges), cfg)
        x, raw = (
            np.insert((1.0 - 1.0 / g.r) * np.asarray(w), apex - 1, 1.0 / g.r)
            for w in (rep.weighting, rep.raw_weighting)
        )
        return _report(g, x, raw, *_value_kkt(L, g.r, x), rep.iterations, rep.restarts_used)
    return _multistart(g, L, cfg)


def _multistart(g: RUniformHypergraph, L: Links, cfg: SolverConfig) -> SolveReport:
    """`solve`'s trials, Newton solves and polish on g itself, which has an edge."""
    n = g.n
    # the largest array of the batch: at r <= 4 what `_batch_grad` returns,
    # the link values at r = 2 and the pair links above, at r >= 5 the
    # shadow products of `_pair_links`, at most n^(r-2) per row
    k = max(min(g.r - 1, 2), g.r - 2)
    if cfg.restarts * n**k > MAX_LINK_ENTRIES:
        raise ResourceLimitError(
            f"start batch limit exceeded: restarts * n^{k} = {cfg.restarts} * {n}^{k}"
            f" = {cfg.restarts * n**k} entries > MAX_LINK_ENTRIES = {MAX_LINK_ENTRIES}"
        )
    X0 = _starts(g, cfg)

    # two growth rounds; after each, the rows still moving get stacked
    # face-Newton solves, in chunks that fit the entry limit, and only the
    # rows Newton does not finish grow on
    X1, it1 = X0.copy(), np.zeros(X0.shape[0], dtype=np.int64)
    done = np.zeros(X0.shape[0], dtype=bool)
    grow = np.arange(X0.shape[0])
    chunk = max(1, MAX_LINK_ENTRIES // max((n + 1) ** 2, n ** (g.r - 2)))
    for steps in (FIRST_ROUND_STEPS, GROWTH_STEPS - FIRST_ROUND_STEPS):
        if not grow.size:
            break
        X1[grow], _, _, its = _ascend(L, g.r, X1[grow], steps)
        it1[grow] += its
        stuck = grow[its == steps]
        for i in range(0, stuck.size, chunk):
            rows = stuck[i : i + chunk]
            X1[rows], done[rows] = _face_newton(L, g.r, X1[rows])
        grow = stuck[~done[stuck]]

    # support minimization: the rows Newton did not finish take one more pass
    X2 = np.where(X1 > SUPPORT_THRESHOLD, X1, 0.0)
    X2 /= X2.sum(axis=1, keepdims=True)
    grad, v2, it2 = np.empty_like(X2), np.empty(len(X2)), np.zeros_like(it1)
    left = ~done
    grad[done], v2[done] = _batch_grad(L, g.r, X2[done])
    X2[left], v2[left], grad[left], it2[left] = _ascend(
        L, g.r, X2[left], MAX_GROWTH_STEPS
    )
    kkt = _kkt_rows(X2, grad, v2, g.r)

    # the earliest KKT point within rounding of the best value wins, so an
    # ulp of Newton overshoot does not outrank an exact optimum
    tied = np.flatnonzero((kkt <= KKT_TOLERANCE) & (v2 >= v2.max() - 1e-15))
    best = int(tied[0]) if tied.size else int(np.argmax(v2))
    best_x = X2[best]
    best_val = float(v2[best])
    best_kkt = float(kkt[best])

    if best_kkt > KKT_TOLERANCE:
        y, ok = _face_newton(L, g.r, best_x[None, :])
        if ok[0]:
            best_x = y[0]
            best_val, best_kkt = _value_kkt(L, g.r, best_x)

    if is_left_compressed(g):
        # descending reassignment never lowers the value for this class, and
        # multiplicative updates keep exact zeros, so adoption is loss-free
        y = sorted_polish(L, g.r, best_x)
        vy, ky = _value_kkt(L, g.r, y)
        if vy >= best_val - 1e-12:
            best_x, best_val, best_kkt = y, vy, ky

    return _report(
        g, best_x, X1[best], best_val, best_kkt, int(it1[best] + it2[best]), X0.shape[0]
    )


solve.cache_info = _solve.cache_info
solve.cache_clear = _solve.cache_clear


def complete_lagrangian(t: int, r: int) -> float:
    """Value of the complete r-graph on t vertices: C(t, r) / t^r."""
    return float(complete_lagrangian_exact(t, r))


def complete_lagrangian_exact(t: int, r: int) -> Fraction:
    if r < 2 or t < r:
        raise ValueError(f"need t >= r >= 2, got t = {t}, r = {r}")
    return Fraction(comb(t, r), t**r)


def motzkin_straus_value(g: RUniformHypergraph) -> float:
    """Closed-form value for 2-graphs: (1/2)(1 - 1/t), t the max clique order."""
    if g.r != 2:
        raise ValueError(f"closed form applies to 2-graphs only, got r = {g.r}")
    t = max_clique_order(g)
    return 0.5 * (1.0 - 1.0 / t)
