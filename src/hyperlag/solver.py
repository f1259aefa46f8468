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

Growth steps converge only like 1/k toward an optimum on a degenerate face,
where a vertex's weight shrinks while its link value ties r times the
objective (a clique plus extra edges through one of its vertices). So every
row takes `GROWTH_STEPS` growth steps, and a row still moving then gets
Newton's method on the KKT equations of its face (`_face_newton`). A row
Newton finishes is done; any other row has its support cut and then takes
one more growth pass of at most `MAX_GROWTH_STEPS` steps.
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
KKT_TOLERANCE = 1e-12
#: Growth steps every row takes before its face-Newton solve.
GROWTH_STEPS = 200
#: Most growth steps of one ascent after the support cut, so a row takes at
#: most `GROWTH_STEPS` + `MAX_GROWTH_STEPS` in all. A safety stop that no
#: claim check reaches.
MAX_GROWTH_STEPS = 50_000
#: A row's face: the weights above this fraction of its largest weight.
FACE_RATIO = 1e-4
#: Weights at or below this are off the support.
SUPPORT_THRESHOLD = 1e-9
#: Most entries (n^r) a graph's link matrix may hold, 8 MB of float64.
MAX_LINK_ENTRIES = 1_000_000
#: Most reports `solve` keeps, dropping the least recently used first.
SOLVE_MEMO_SIZE = 4096


@dataclass(frozen=True)
class SolverConfig:
    """Multistart size and seed of the Dirichlet starts.

    Clique starts run, and 2-graphs are checked against Motzkin-Straus, on
    graphs with at most `CLIQUE_SEARCH_MAX_VERTICES` vertices.
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
    `KKT_TOLERANCE`. `iterations` counts the winning trial's growth steps;
    Newton iterations are not counted. `pairs_covered` records whether
    every pair of supported vertices lies in a common edge, a necessary
    condition at minimal-support optima.
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
    for k in range(2, d + 1):
        P = (P[:, :, None] * X[:, None, :]).reshape(B, n**k)
    grad = P @ L.reshape(n**d, -1)
    if d < r - 1:
        grad = np.einsum("bk,bkv->bv", X, grad.reshape(B, n, n))
    return grad, np.einsum("bv,bv->b", X, grad) / r


def _ascend(
    L: np.ndarray, r: int, X0: np.ndarray, max_steps: int
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
    objective, plus any excess link value at unsupported vertices.
    """
    arr = _as_weights(g, x)
    _check_feasible(arr)
    return _value_kkt(_link_matrix(g), g.r, arr)[1]


def _kkt_rows(X: np.ndarray, grad: np.ndarray, vals: np.ndarray, r: int) -> np.ndarray:
    target = (r * vals)[:, None]
    dev = grad - target
    on_support = X > SUPPORT_THRESHOLD
    sup = np.where(on_support, np.abs(dev), 0.0).max(axis=1)
    off = np.where(~on_support, dev, 0.0).max(axis=1, initial=0.0)
    return sup + np.maximum(off, 0.0)


def _value_kkt(L: np.ndarray, r: int, x: np.ndarray) -> tuple[float, float]:
    """Objective value and KKT residual of one weighting."""
    grad, val = _batch_grad(L, r, x[None, :])
    return float(val[0]), float(_kkt_rows(x[None, :], grad, val, r)[0])


def sorted_polish(g: RUniformHypergraph, x: Sequence[float]) -> np.ndarray:
    """Reassign weights in non-increasing label order, then re-converge.

    Meant for left-compressed graphs, the only ones `solve` polishes. There
    the descending reassignment never decreases the objective, some optimal
    weighting is non-increasing, and a growth step keeps a non-increasing
    weighting non-increasing, since x_i >= x_j and i < j give
    x_i * d_i >= x_j * d_j for the link values d. So one round canonicalizes
    the output.
    """
    arr = _as_weights(g, x)
    _check_feasible(arr)
    arr = np.sort(arr)[::-1].copy()
    return _ascend(_link_matrix(g), g.r, arr[None, :], MAX_GROWTH_STEPS)[0][0]


def _face_newton(L: np.ndarray, r: int, x0: np.ndarray) -> np.ndarray | None:
    """A KKT point on the face of `x0`, by Newton's method, or None.

    Solves d_F(x) = mu, sum(x_F) = 1 on the face F (the weights above
    `FACE_RATIO` of the largest), whose Jacobian in x_F is the pair-link
    matrix H = (r-1) L x^(r-2). The face shrinks when a step drives a weight
    to zero or below (the weight that fell most, as a ratio, goes; Newton
    restarts from x0 on the smaller face), when the system is singular (the
    smallest weight goes) and when a converged weight is below the face
    ratio. The point is accepted only if its KKT residual is at most
    `KKT_TOLERANCE` and its value is at least x0's, less 1e-15.
    """
    n = x0.size
    face = np.flatnonzero(x0 > FACE_RATIO * x0.max())
    while face.size:
        k = face.size
        x = np.zeros(n)
        y = x0[face] / x0[face].sum()
        K = np.zeros((k + 1, k + 1))
        K[:k, k], K[k, :k] = -1.0, 1.0
        res = np.empty(k + 1)
        mu = None
        for _ in range(40):
            x[face] = y
            M = L.reshape(n, -1)
            for _ in range(r - 2):
                M = (x @ M).reshape(n, -1)
            MF = M[face]
            d = MF @ x
            mu = float(y @ d) if mu is None else mu
            res[:k], res[k] = d - mu, y.sum() - 1.0
            if np.abs(res).max() <= 1e-15:
                drop = np.flatnonzero(y < FACE_RATIO * y.max())
                break
            K[:k, :k] = (r - 1) * MF[:, face]
            try:
                step = np.linalg.solve(K, -res)
            except np.linalg.LinAlgError:
                drop = np.argmin(y)
                break
            new = y + step[:k]
            if new.min() <= 0.0:
                drop = np.argmin(new / y)
                break
            y, mu = new, mu + step[k]
        else:
            return None
        if not np.size(drop):
            break
        face = np.delete(face, drop)
    else:
        return None
    x /= x.sum()
    grad, val = _batch_grad(L, r, np.stack([x0, x]))
    if _kkt_rows(x[None, :], grad[1:], val[1:], r)[0] > KKT_TOLERANCE:
        return None
    return x if val[1] >= val[0] - 1e-15 else None


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
    draws, `restarts` trials in total. Each trial takes `GROWTH_STEPS`
    growth steps. A trial still moving then gets a Newton solve on its face;
    if Newton's KKT point is accepted, the trial is done. Every other trial
    gets its support minimized and runs growth updates to the gain floor or
    `MAX_GROWTH_STEPS`. The best value wins, with ties broken toward the
    earlier trial. If the winner's KKT residual is above
    `KKT_TOLERANCE`, it gets one more Newton solve before the sorted polish.

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
            pairs_covered=False,
        )

    X0 = _starts(g, cfg)
    X1, _, _, it1 = _ascend(L, g.r, X0, GROWTH_STEPS)

    # rows still moving get a face-Newton solve; an accepted row is done
    done = np.zeros(X1.shape[0], dtype=bool)
    for i in np.flatnonzero(it1 == GROWTH_STEPS):
        y = _face_newton(L, g.r, X1[i])
        if y is not None:
            X1[i], done[i] = y, True

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

    best = int(np.argmax(v2))
    best_x = X2[best]
    best_val = float(v2[best])
    best_kkt = float(kkt[best])
    iterations = int(it1[best] + it2[best])

    if best_kkt > KKT_TOLERANCE:
        y = _face_newton(L, g.r, best_x)
        if y is not None:
            best_x = y
            best_val, best_kkt = _value_kkt(L, g.r, y)

    if is_left_compressed(g):
        # descending reassignment never lowers the value for this class, and
        # multiplicative updates keep exact zeros, so adoption is loss-free
        y = sorted_polish(g, best_x)
        vy, ky = _value_kkt(L, g.r, y)
        if vy >= best_val - 1e-12:
            best_x, best_val, best_kkt = y, vy, ky

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
