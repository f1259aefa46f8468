"""Maximize the edge-monomial polynomial of a hypergraph over the simplex.

The objective for a graph G and weights x is the sum over edges of the
product of the member weights; its maximum over the probability simplex is
computed by a multiplicative growth update

    x_i  <-  x_i * d_i(x) / (r * value(x)),

where d_i is the link value at vertex i (the partial derivative). For a
homogeneous polynomial with non-negative coefficients this update never
decreases the objective and preserves the simplex exactly, so no projection
step is needed. Restart trials are independent; they are executed batched and
reduced by value with ties broken on restart index, so the report for a fixed
seed does not depend on scheduling.

The link values come from one dense matrix per graph: the link tensor, with
a 1/(r-1)! entry for each ordering of each edge, as an (n^(r-1), n) matrix.
One step is one kernel call: an outer power of the weights times that
matrix gives every link value, and the objective is x . d / r.

First-order optimality at a weighting with minimal support means every
supported vertex sees the same link value, equal to r times the objective,
and no unsupported vertex sees more; `kkt_residual` measures the deviation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import comb, factorial
from typing import Iterable, Sequence

import numpy as np

from .errors import ResourceLimitError
from .hypergraph import (
    CLIQUE_SEARCH_MAX_VERTICES,
    RUniformHypergraph,
    is_left_compressed,
    max_clique_order,
    maximal_cliques,
)

SIMPLEX_TOLERANCE = 1e-12
#: A trial stops once one growth step gains less than this.
STEP_GAIN_FLOOR = 1e-14
#: A solve is converged when its KKT residual is at most this.
KKT_TOLERANCE = 1e-8
#: Weights at or below this are off the support.
SUPPORT_THRESHOLD = 1e-9
#: Most entries (n^r) a graph's link matrix may hold, 8 MB of float64.
MAX_LINK_ENTRIES = 1_000_000
#: Most reports `solve` keeps, dropping the least recently used first.
SOLVE_MEMO_SIZE = 4096


@dataclass(frozen=True)
class SolverConfig:
    """Multistart size, per-trial step cap and seed of the Dirichlet starts.

    Clique starts run, and 2-graphs are checked against Motzkin-Straus, on
    graphs with at most `CLIQUE_SEARCH_MAX_VERTICES` vertices.
    """

    restarts: int = 64
    max_iterations: int = 50_000
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class SolveReport:
    """Best certified value found, with the weighting behind it.

    `weighting` is the support-minimized (and, for left-compressed inputs,
    sorted) optimum; `raw_weighting` is the same trial before support
    minimization. `pairs_covered` records whether every pair of supported
    vertices lies in a common edge, a necessary condition at minimal-support
    optima.
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


# Enough for one solve (ascent, polish, KKT check) to build its matrix once;
# four matrices at the entry limit hold 32 MB.
@lru_cache(maxsize=4)
def _link_matrix(g: RUniformHypergraph) -> np.ndarray:
    """The link tensor as an (n^(r-1), n) matrix, divided by (r-1)!.

    Row (i_1, ..., i_{r-1}), an ordered tuple read as a base-n number, and
    column v hold 1/(r-1)! when {i_1, ..., i_{r-1}, v} is an edge. Raises
    ResourceLimitError past `MAX_LINK_ENTRIES`, before allocating.
    """
    n, r = g.n, g.r
    if n**r > MAX_LINK_ENTRIES:
        raise ResourceLimitError(
            f"link matrix limit exceeded: n^r = {n}^{r} = {n**r} entries"
            f" > MAX_LINK_ENTRIES = {MAX_LINK_ENTRIES}"
        )
    T = np.zeros(n**r)
    place = n ** np.arange(r - 1, -1, -1)
    eidx = _edge_index(g)
    for perm in permutations(range(r)):
        T[eidx[:, perm] @ place] = 1.0 / factorial(r - 1)
    L = T.reshape(n ** (r - 1), n)
    L.setflags(write=False)
    return L


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
    if abs(total - 1.0) > SIMPLEX_TOLERANCE:
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


def link_value(
    g: RUniformHypergraph, sets: Iterable[Sequence[int]], x: Sequence[float]
) -> float:
    """Sum over the member sets (as from `link`) of the product of their weights."""
    arr = _as_weights(g, x)
    total = 0.0
    for s in sets:
        p = 1.0
        for v in s:
            if not 1 <= v <= g.n:
                raise IndexError(f"vertex {v} outside [1, {g.n}]")
            p *= arr[v - 1]
        total += p
    return total


def _batch_grad(L: np.ndarray, r: int, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Link values at every vertex and objective values, per batch row.

    One matmul contracts the outer power of degree d = max(1, r-2) of each
    row with the link tensor viewed as (n^d, n^(r-d)); an index left over
    (r >= 3) is contracted with the row itself. Stopping one degree short
    keeps the outer power at n^(r-2) entries per row; at r = 4 the one-stage
    form, with n^3 entries per row, was two to three times slower.
    """
    B, n = X.shape
    d = max(1, r - 2)
    P = X
    for _ in range(d - 1):
        P = (P[:, :, None] * X[:, None, :]).reshape(B, -1)
    grad = P @ L.reshape(n**d, -1)
    if d < r - 1:
        grad = np.einsum("bk,bkv->bv", X, grad.reshape(B, n, n))
    return grad, np.einsum("bv,bv->b", X, grad) / r


def _ascend(
    L: np.ndarray, r: int, X0: np.ndarray, max_iterations: int
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
    while rows.size and step < max_iterations:
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
    objective, plus any excess link value at unsupported vertices.
    """
    arr = _as_weights(g, x)
    _check_feasible(arr)
    grad, val = _batch_grad(_link_matrix(g), g.r, arr[None, :])
    return float(_kkt_rows(arr[None, :], grad, val, g.r)[0])


def _kkt_rows(X: np.ndarray, grad: np.ndarray, vals: np.ndarray, r: int) -> np.ndarray:
    target = (r * vals)[:, None]
    dev = grad - target
    on_support = X > SUPPORT_THRESHOLD
    sup = np.where(on_support, np.abs(dev), 0.0).max(axis=1)
    off = np.where(~on_support, dev, 0.0).max(axis=1, initial=0.0)
    return sup + np.maximum(off, 0.0)


def sorted_polish(
    g: RUniformHypergraph, x: Sequence[float], config: SolverConfig | None = None
) -> np.ndarray:
    """Reassign weights in non-increasing label order, then re-converge.

    For a left-compressed graph the descending reassignment never decreases
    the objective, and some optimal weighting is non-increasing, so iterating
    sort-then-polish canonicalizes the output. Repeats until stable.

    `solve` polishes only left-compressed graphs, where one round is enough:
    a growth step keeps a non-increasing weighting non-increasing, since
    x_i >= x_j and i < j give x_i * d_i >= x_j * d_j for the link values d
    (all 536 polishes of the claim battery took one round, the worst order
    violation 2.8e-17). On a graph that is not left-compressed a round can
    leave the order (289 of 300 random ones on at most 8 vertices needed
    more), so the loop stays.
    """
    cfg = config or SolverConfig()
    arr = _as_weights(g, x)
    _check_feasible(arr)
    L = _link_matrix(g)
    for _ in range(16):
        arr = np.sort(arr)[::-1].copy()
        arr = _ascend(L, g.r, arr[None, :], cfg.max_iterations)[0][0]
        if np.all(arr[:-1] >= arr[1:] - 1e-12):
            break
    return arr


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
    while len(rows) < config.restarts:
        rng = np.random.default_rng((config.seed, len(rows)))
        rows.append(rng.dirichlet(np.ones(n)))
    return np.asarray(rows)


def solve(g: RUniformHypergraph, config: SolverConfig | None = None) -> SolveReport:
    """Best value over a deterministic multistart schedule.

    Trial list: the uniform weighting, then a uniform weighting on each
    maximal clique (when n <= CLIQUE_SEARCH_MAX_VERTICES), then seeded flat-Dirichlet
    draws, `restarts` trials in total. Each trial runs growth updates to the
    gain floor, gets its support minimized, and is re-polished; the best value
    wins with ties broken toward the earlier trial.

    Reports are memoized on the graph and the config (None meaning
    `SolverConfig()`), at most `SOLVE_MEMO_SIZE` of them: a repeat call
    returns the same frozen report. Errors are not memoized.
    """
    return _solve(g, config or SolverConfig())


@lru_cache(maxsize=SOLVE_MEMO_SIZE)
def _solve(g: RUniformHypergraph, cfg: SolverConfig) -> SolveReport:
    n = g.n
    L = _link_matrix(g)  # first, so that the entry limit holds for edgeless graphs too
    if g.m == 0:
        uniform = tuple([1.0 / n] * n)
        return SolveReport(
            value=0.0,
            weighting=uniform,
            raw_weighting=uniform,
            support=tuple(range(1, n + 1)),
            kkt_residual=0.0,
            iterations=0,
            restarts_used=1,
            converged=True,
            pairs_covered=(n == 1),
        )

    X0 = _starts(g, cfg)
    X1, _, _, it1 = _ascend(L, g.r, X0, cfg.max_iterations)

    Xm = np.where(X1 > SUPPORT_THRESHOLD, X1, 0.0)
    Xm /= Xm.sum(axis=1, keepdims=True)
    X2, v2, grad, it2 = _ascend(L, g.r, Xm, cfg.max_iterations)
    kkt = _kkt_rows(X2, grad, v2, g.r)

    best = int(np.argmax(v2))
    best_x = X2[best]
    best_val = float(v2[best])
    best_kkt = float(kkt[best])
    iterations = int(it1[best] + it2[best])

    if is_left_compressed(g):
        # descending reassignment never lowers the value for this class, and
        # multiplicative updates keep exact zeros, so adoption is loss-free
        y = sorted_polish(g, best_x, cfg)
        gy, vy = _batch_grad(L, g.r, y[None, :])
        if vy[0] >= best_val - 1e-12:
            best_x = y
            best_val = float(vy[0])
            best_kkt = float(_kkt_rows(y[None, :], gy, vy, g.r)[0])

    converged = best_kkt <= KKT_TOLERANCE
    if g.r == 2 and n <= CLIQUE_SEARCH_MAX_VERTICES:
        expected = motzkin_straus_value(g)
        if abs(best_val - expected) > 1e-7:
            converged = False

    support = tuple(int(i) + 1 for i in np.flatnonzero(best_x > SUPPORT_THRESHOLD))
    return SolveReport(
        value=best_val,
        weighting=tuple(float(v) for v in best_x),
        raw_weighting=tuple(float(v) for v in X1[best]),
        support=support,
        kkt_residual=best_kkt,
        iterations=iterations,
        restarts_used=X0.shape[0],
        converged=converged,
        pairs_covered=_pairs_covered(g, support),
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
