"""Desk-scale verification sweeps over left-compressed hypergraphs.

Left-compressed edge sets are exactly the down-sets of the coordinatewise
dominance order on r-sets, so enumeration walks ideals of that poset: edges
are added in increasing colex rank, and a set may be added only once all of
its direct descendants are present. Each down-set is produced exactly once.

Each claim of the paper is one `ClaimSpec` row of `CLAIMS`. `run_claim`
checks any row through one driver, `_sweep`: every instance verdict comes
from the row's relation, a key of `_RELATIONS`, and the report's scope is
the row's. The solver certifies lower bounds only, so strict-inequality
claims can be falsified but never fully confirmed: a `pass` means no
counterexample was found among the enumerated left-compressed graphs,
`fail` carries a witness, values inside the equality tolerance or not
converged come back `inconclusive`, and so does a check that finds no
instances at all.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Callable, Iterable, Iterator

from .colex import MAX_TABLE_SETS, colex_rank, colex_sets, colex_unrank
from .errors import ResourceLimitError
from .hypergraph import (
    RUniformHypergraph,
    _direct_descendants,
    colex_graph,
    format_hypergraph,
    hypergraph,  # not called here; kept because bench/spans.py wraps this attribute
)
from .solver import (
    SolverConfig,
    complete_lagrangian,
    complete_lagrangian_exact,
    solve,
)

#: Solver settings for enumeration sweeps. Only the restarts differ from
#: `SolverConfig()`: strict-inequality checks need only certified lower bounds,
#: so 16 restarts in place of 64 keep full sweeps fast without weakening any
#: pass/fail decision. The seed picks which starts are drawn, not what they
#: cost, so it keeps its default.
HARNESS_SOLVER = SolverConfig(restarts=16)

#: Values within this of the reference are neither above nor below it.
EQUALITY_TOLERANCE = 1e-6

#: Most graphs `enumerate_left_compressed` yields for one call. A sweep keeps
#: one `InstanceRow` per graph, so this bounds the rows each edge count adds.
MAX_GRAPHS = 1_000_000


@dataclass(frozen=True)
class Witness:
    hypergraph: str
    value: float
    reference: float
    margin: float


@dataclass(frozen=True)
class InstanceRow:
    m: int
    edge_hash: str
    value: float
    reference: float
    margin: float
    verdict: str


@dataclass(frozen=True)
class VerificationReport:
    claim_id: str
    parameters: dict
    verdict: str
    instances_checked: int
    witnesses: tuple[Witness, ...]
    runtime_seconds: float
    rows: tuple[InstanceRow, ...] = field(default=(), repr=False)
    scope: str = ""


def enumerate_left_compressed(
    r: int,
    m: int,
    n: int,
    *,
    seed_prefix: int = 0,
    forbidden_ranks: Iterable[int] = (),
) -> Iterator[RUniformHypergraph]:
    """Yield every left-compressed r-graph with m edges on vertices <= n.

    seed_prefix forces the first `seed_prefix` colex ranks into every graph
    (they always form a down-set); forbidden_ranks excludes specific colex
    ranks, which also excludes all of their ancestors. Raises
    ResourceLimitError when the rank tables would hold more than
    `MAX_TABLE_SETS` r-sets or more than `MAX_GRAPHS` graphs come out.
    """
    if r < 2:
        raise ValueError(f"uniformity must be >= 2, got {r}")
    if m < 1:
        raise ValueError(f"edge count must be >= 1, got {m}")
    if comb(n, r) < m:
        raise ValueError(f"C({n}, {r}) < {m}: no such graphs")
    if not 0 <= seed_prefix <= m:
        raise ValueError(f"seed_prefix {seed_prefix} outside [0, {m}]")
    forbidden = frozenset(forbidden_ranks)
    if any(f <= seed_prefix for f in forbidden):
        raise ValueError("forbidden rank inside the seeded prefix")
    # A graph using a vertex v above the prefix's top vertex contains
    # {1..r-1, w} for every w in (top, v]. None of those is in the prefix, so
    # v - top <= m - seed_prefix; with no prefix, top = r - 1.
    top = colex_unrank(seed_prefix, r)[-1] if seed_prefix else r - 1
    elements = colex_sets(min(n, top + m - seed_prefix), r)
    N = len(elements)
    rank_of = {e: k for k, e in enumerate(elements, start=1)}
    dd = [()] + [
        tuple(rank_of[d] for d in _direct_descendants(e)) for e in elements
    ]
    da: list[list[int]] = [[] for _ in range(N + 1)]
    for a in range(1, N + 1):
        for d in dd[a]:
            da[d].append(a)

    present = bytearray(N + 1)
    current: list[tuple[int, ...]] = []
    for k in range(1, seed_prefix + 1):
        present[k] = 1
        current.append(elements[k - 1])

    addable0 = [
        e
        for e in range(seed_prefix + 1, N + 1)
        if e not in forbidden and all(d <= seed_prefix for d in dd[e])
    ]
    yielded = 0

    def walk(addable: list[int], size: int) -> Iterator[RUniformHypergraph]:
        nonlocal yielded
        if size == m:
            yielded += 1
            if yielded > MAX_GRAPHS:
                raise ResourceLimitError(
                    f"graph limit exceeded: more than MAX_GRAPHS = {MAX_GRAPHS} graphs"
                )
            # ranks only grow along a walk, so `current` is in colex order
            yield RUniformHypergraph(r, current[-1][-1], tuple(current))
            return
        need = m - size
        for i, e in enumerate(addable):
            if N - e < need - 1:
                break
            present[e] = 1
            current.append(elements[e - 1])
            unlocked = [
                a
                for a in da[e]
                if a not in forbidden and all(present[d] for d in dd[a])
            ]
            yield from walk(sorted(addable[i + 1 :] + unlocked), size + 1)
            present[e] = 0
            current.pop()

    yield from walk(addable0, seed_prefix)


def lc_max_clique_order(g: RUniformHypergraph) -> int:
    """Max clique order of a left-compressed graph via its staircase edges.

    A left-compressed graph contains a clique of order s iff it contains the
    edge {s-r+1, ..., s}, so the maximum order is read off directly.
    """
    best = g.r - 1
    for s in range(g.r, g.n + 1):
        if tuple(range(s - g.r + 1, s + 1)) in g.edge_set:
            best = s
    return best


def _edge_hash(text: str) -> str:  # of a graph's `format_hypergraph` text
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _float_verdict(holds: Callable[[float, float], bool]) -> Callable[..., str]:
    """A float relation's rule: a value above the reference by more than
    `EQUALITY_TOLERANCE` fails; otherwise it passes only when it is converged
    and `holds(value, ref)`, and anything else is inconclusive."""

    def judge(value: float, ref: float, converged: bool) -> str:
        if value > ref + EQUALITY_TOLERANCE:
            return "fail"
        return "pass" if converged and holds(value, ref) else "inconclusive"

    return judge


_verdict_eq = _float_verdict(lambda value, ref: abs(value - ref) <= EQUALITY_TOLERANCE)


def _verdict_gt(value: Fraction, ref: Fraction, converged: bool) -> str:
    """Exact: any positive margin is the strict inequality itself."""
    return "pass" if value > ref else "fail"


#: Instance verdict from (value, reference, converged); `gt` takes Fractions.
_RELATIONS: dict[str, Callable[..., str]] = {
    "eq": _verdict_eq,
    "lt": _float_verdict(lambda value, ref: value < ref - EQUALITY_TOLERANCE),
    "le": _float_verdict(lambda value, ref: value <= ref + EQUALITY_TOLERANCE),
    "gt": _verdict_gt,
}

_SCOPE_ENUM = (
    "left-compressed graphs only: pass means no left-compressed counterexample"
)
_MAX_WITNESSES = 20
#: Passing margins this close to a group's largest are tied with it, since
#: an `eq` claim's margins are rounding noise around 0.
_WITNESS_TIE = 1e-12


def _sweep(
    claim_id: str,
    parameters: dict,
    groups: Iterable[Iterable[RUniformHypergraph]],
    reference: float,
    measure: Callable[[RUniformHypergraph], tuple[float, str]],
    scope: str,
) -> VerificationReport:
    """Measure every graph of every group against the reference and fold.

    `measure` gives each graph its value and its instance verdict.
    Witnesses are chosen per group: its first 20 instances that do not pass,
    or, when every instance of the group passes, the earliest one whose
    margin is within `_WITNESS_TIE` of the group's largest, so that noise in
    the last bits of the values does not pick the witness. A sweep with no
    instances at all is inconclusive, never a pass.

    Each graph is formatted once, for its row's hash and for a witness. Of
    the passing graphs only the texts of the possible witnesses are kept:
    those whose margin is above every earlier one and within `_WITNESS_TIE`
    of the largest so far. A later graph with a margin no larger than an
    earlier one's could be the witness only if that earlier one is too far
    below the top, and then so is it.
    """
    t0 = time.perf_counter()
    rows: list[InstanceRow] = []
    witnesses: list[Witness] = []
    for graphs in groups:
        found: list[Witness] = []
        # possible witnesses, margins rising; the first is the witness so far
        passed: list[tuple[float, str, float]] = []
        for g in graphs:
            value, verdict = measure(g)
            margin = value - reference
            text = format_hypergraph(g)
            rows.append(InstanceRow(g.m, _edge_hash(text), value, reference, margin, verdict))
            if verdict != "pass":
                if len(found) < _MAX_WITNESSES:
                    found.append(Witness(text, value, reference, margin))
            elif not passed or margin > passed[-1][0]:
                passed = [p for p in passed if p[0] >= margin - _WITNESS_TIE]
                passed.append((margin, text, value))
        if not found and passed:
            margin, text, value = passed[0]
            found.append(Witness(text, value, reference, margin))
        witnesses.extend(found)
    verdicts = {row.verdict for row in rows}
    if not rows:
        overall = "inconclusive"
        scope = f"vacuous: no instances in range; {scope}"
    elif "fail" in verdicts:
        overall = "fail"
    elif "inconclusive" in verdicts:
        overall = "inconclusive"
    else:
        overall = "pass"
    return VerificationReport(
        claim_id=claim_id,
        parameters=parameters,
        verdict=overall,
        instances_checked=len(rows),
        witnesses=tuple(witnesses[:_MAX_WITNESSES]),
        runtime_seconds=time.perf_counter() - t0,
        rows=tuple(rows),
        scope=scope,
    )


def _default_m_values(lo: int, hi: int, r: int, t: int) -> list[int]:
    """Default sweep: exhaustive for 3-graphs up to t = 7, sampled at t = 8,
    endpoints only for every other uniformity."""
    if hi < lo:
        return []
    if r == 3:
        if t <= 7:
            return list(range(lo, hi + 1))
        if t == 8:
            step = max(1, (hi - lo) // 4)
            return sorted({lo, hi, *range(lo, hi + 1, step)})
        raise ResourceLimitError(
            f"default enumeration budget covers t <= 8 for 3-graphs, got t = {t}; "
            "pass explicit m values"
        )
    return sorted({lo, hi})


# --- claim table and sweep --------------------------------------------------


@dataclass(frozen=True)
class ClaimSpec:
    """One claim of the paper, as data.

    Every claim reads: for clique order t and each edge count m in
    `m_range(t, r)`, the Lagrangian of each instance relates by `relation`
    to the value of the complete r-graph on t - 1 vertices. By default the
    instances are the left-compressed r-graphs with m edges on
    `n_for(t, r, m)` vertices that hold the first `seed_prefix(t, r)` colex
    ranks, avoid the ranks in `forbidden(t, r)` and satisfy `keep(g, t, m)`.
    `instances` names the two rows that check something else: every colex
    prefix of the range, or one explicit weighting in exact arithmetic.
    """

    description: str
    relation: str  # a key of _RELATIONS, which gives each instance its verdict
    m_range: Callable[[int, int], tuple[int, int]]
    r: int = 3  # the uniformity; only a default when r_min is set
    r_min: int | None = None
    min_t_over_r: int = 2  # the claim needs t >= r + min_t_over_r
    instances: str = "left-compressed"  # or "colex-prefixes", "split-weighting"
    seed_prefix: Callable[[int, int], int] = lambda t, r: 0
    forbidden: Callable[[int, int], tuple[int, ...]] = lambda t, r: ()
    n_for: Callable[[int, int, int], int] = lambda t, r, m: m + r - 1
    keep: Callable[[RUniformHypergraph, int, int], bool] | None = None
    scope: str = _SCOPE_ENUM


def _stable_range(t: int, r: int) -> tuple[int, int]:
    """Edge counts where the colex prefix has the complete-graph value."""
    lo = comb(t - 1, r)
    return lo, lo + comb(t - 2, r - 1)


def _clique(t: int, r: int) -> int:
    """The complete graph on t - 1 vertices is the first C(t-1, r) colex ranks."""
    return comb(t - 1, r)


def _no_clique(t: int, r: int) -> tuple[int, ...]:
    """Without the last edge of the complete graph on t - 1 vertices, no
    left-compressed graph contains that clique."""
    return (comb(t - 1, r),)


def _pair_link_at_most_3(g: RUniformHypergraph, t: int, m: int) -> bool:
    return sum(1 for e in g.edges if t - 1 in e and t in e) <= 3


def _within_6_of_colex(g: RUniformHypergraph, t: int, m: int) -> bool:
    # g and the colex prefix both have m edges, so their symmetric difference
    # is twice the number of edges of g ranked past m.
    return 2 * sum(1 for e in g.edges if colex_rank(e) > m) <= 6


CLAIMS: dict[str, ClaimSpec] = {
    "lemma-2.2": ClaimSpec(
        "colex prefixes across the stable range match the complete-graph value",
        "eq",
        _stable_range,
        r_min=2,
        min_t_over_r=1,
        instances="colex-prefixes",
        scope="colex-prefix graphs",
    ),
    "sharpness": ClaimSpec(
        "one edge past the stable range, the split weighting exceeds it (exact rationals)",
        "gt",
        lambda t, r: (_stable_range(t, r)[1] + 1,) * 2,
        r_min=2,
        instances="split-weighting",
        scope="explicit weighting, exact arithmetic",
    ),
    "conjecture-2.1": ClaimSpec(
        "clique-bearing graphs in range attain the complete-graph value",
        "eq",
        _stable_range,
        r_min=2,
        min_t_over_r=1,
        seed_prefix=_clique,
    ),
    "conjecture-2.2": ClaimSpec(
        "clique-free graphs in range stay strictly below",
        "lt",
        _stable_range,
        r_min=2,
        min_t_over_r=1,
        forbidden=_no_clique,
    ),
    "theorem-3.1": ClaimSpec(
        "near-complete block without the full block stays strictly below (t >= 6)",
        "lt",
        _stable_range,
        min_t_over_r=3,
        seed_prefix=lambda t, r: _clique(t, r) - 1,
        forbidden=_no_clique,
    ),
    "theorem-4.1": ClaimSpec(
        "maximum clique two smaller stays strictly below (restricted range)",
        "lt",
        lambda t, r: (
            comb(t - 1, 3),
            (2 * (comb(t - 1, 3) + comb(t - 2, 2)) - (t - 2)) // 2,
        ),
        seed_prefix=lambda t, r: comb(t - 2, 3),
        forbidden=_no_clique,
    ),
    "theorem-4.2": ClaimSpec(
        "clique two smaller on t vertices stays at or below (r >= 4)",
        "le",
        lambda t, r: (
            comb(t - 1, r),
            comb(t - 1, r) + comb(t - 2, r - 1) - 2 ** (r - 2) * (comb(t - 2, r - 2) - 1),
        ),
        r=4,
        r_min=4,
        seed_prefix=lambda t, r: comb(t - 2, r),
        n_for=lambda t, r, m: t,
    ),
    "theorem-4.3": ClaimSpec(
        "4-graphs with the larger clique attain equality (narrow range)",
        "eq",
        lambda t, r: (comb(t - 1, 4), comb(t - 1, 4) + comb((t - 2) // 2, 3)),
        r=4,
        seed_prefix=_clique,
    ),
    "theorem-5.1": ClaimSpec(
        "colex prefix is value-maximal among equal-size graphs (restricted range)",
        "le",
        lambda t, r: (comb(t - 1, 3), comb(t - 1, 3) + comb(t - 2, 2) - (t - 4)),
        scope=_SCOPE_ENUM
        + "; reference is the complete-graph value, which lemma-2.2 gives the"
        " colex prefix throughout this range",
    ),
    "corollary-3.1": ClaimSpec(
        "on [t], no larger clique, pair link at the last two vertices <= 3: strictly below",
        "lt",
        _stable_range,
        forbidden=_no_clique,
        n_for=lambda t, r, m: t,
        keep=_pair_link_at_most_3,
    ),
    "corollary-3.2": ClaimSpec(
        "on [t], no larger clique, edge set within 6 of the colex prefix: strictly below",
        "lt",
        _stable_range,
        forbidden=_no_clique,
        n_for=lambda t, r, m: t,
        keep=_within_6_of_colex,
    ),
}


def _left_compressed_instances(
    spec: ClaimSpec, t: int, r: int, m: int
) -> Iterator[RUniformHypergraph]:
    graphs = enumerate_left_compressed(
        r,
        m,
        spec.n_for(t, r, m),
        seed_prefix=spec.seed_prefix(t, r),
        forbidden_ranks=spec.forbidden(t, r),
    )
    if spec.keep is None:
        return graphs
    return (g for g in graphs if spec.keep(g, t, m))


def run_claim(
    claim_id: str,
    t: int | None = None,
    r: int | None = None,
    m: int | None = None,
    config: SolverConfig | None = None,
) -> VerificationReport:
    """Check the claim `claim_id` of `CLAIMS` at clique order t.

    Sweeps the claim's default edge counts when m is None. Each edge count m
    enumerates the claim's graphs with `enumerate_left_compressed`.
    `config` defaults to `HARNESS_SOLVER`. Raises ValueError for an unknown
    claim, a missing t, a t, r or m the claim's row rules out and a `config`
    for a row that solves nothing (sharpness); ResourceLimitError when the
    default sweep does not cover t, a colex prefix would have more than
    `MAX_TABLE_SETS` edges, or an edge count needs more than `MAX_TABLE_SETS`
    r-sets or yields more than `MAX_GRAPHS` graphs.
    """
    spec = CLAIMS.get(claim_id)
    if spec is None:
        known = ", ".join(sorted(CLAIMS))
        raise ValueError(f"unknown claim {claim_id!r}; known claims: {known}")
    if t is None:
        raise ValueError(f"claim {claim_id} requires --t")
    if r is None:
        r = spec.r
    elif spec.r_min is None and r != spec.r:
        raise ValueError(f"claim {claim_id} is about {spec.r}-graphs, got r = {r}")
    elif spec.r_min is not None and r < spec.r_min:
        raise ValueError(f"claim {claim_id} needs r >= {spec.r_min}, got r = {r}")
    if t < r + spec.min_t_over_r:
        raise ValueError(
            f"claim {claim_id} needs t >= {r + spec.min_t_over_r}, got t = {t}"
        )
    lo, hi = spec.m_range(t, r)
    if spec.instances != "left-compressed" and hi > MAX_TABLE_SETS:
        raise ResourceLimitError(
            f"colex prefix limit exceeded: {hi} edges > MAX_TABLE_SETS = {MAX_TABLE_SETS}"
        )
    if m is not None:
        if spec.instances != "left-compressed":
            raise ValueError(f"claim {claim_id} does not take --m")
        if not lo <= m <= hi:
            raise ValueError(f"m = {m} outside claim range [{lo}, {hi}]")
    if config is not None and spec.instances == "split-weighting":
        raise ValueError(f"claim {claim_id} solves nothing; drop --restarts and --seed")
    judge = _RELATIONS[spec.relation]
    reference = complete_lagrangian(t - 1, r)
    cfg = config or HARNESS_SOLVER

    def measure(g: RUniformHypergraph) -> tuple[float, str]:
        if spec.instances == "split-weighting":
            # vertices t-1 and t split one weight 1/(t-1) of K_{t-1}^r, whose
            # edges through t-1 each have a twin through t; only the last
            # edge {1, ..., r-2, t-1, t} adds: (1/(t-1))^(r-2) (1/(2(t-1)))^2
            exact = complete_lagrangian_exact(t - 1, r)
            value = exact + Fraction(1, 4 * (t - 1) ** r)
            return float(value), judge(value, exact, True)
        rep = solve(g, cfg)
        return rep.value, judge(rep.value, reference, rep.converged)

    if spec.instances == "split-weighting":
        parameters = {"r": r, "t": t, "m": lo}
        groups = [[colex_graph(r, lo)]]
    elif spec.instances == "colex-prefixes":
        parameters = {"r": r, "t": t, "m_min": lo, "m_max": hi}
        groups = [(colex_graph(r, k) for k in range(lo, hi + 1))]
    else:
        ms = [m] if m is not None else _default_m_values(lo, hi, r, t)
        parameters = {"r": r, "t": t, "m_values": ms}
        groups = (_left_compressed_instances(spec, t, r, k) for k in ms)
    return _sweep(claim_id, parameters, groups, reference, measure, spec.scope)


# --- serialization -----------------------------------------------------------


def report_to_json(report: VerificationReport) -> str:
    # runtime_seconds is deliberately left out so identical invocations with
    # identical seeds produce byte-identical output.
    rows_margins = [row.margin for row in report.rows]
    margins = (
        {
            "min": min(rows_margins),
            "max": max(rows_margins),
            "mean": sum(rows_margins) / len(rows_margins),
        }
        if rows_margins
        else None
    )
    doc = {
        "claim_id": report.claim_id,
        "parameters": report.parameters,
        "scope": report.scope,
        "verdict": report.verdict,
        "instances_checked": report.instances_checked,
        "margins": margins,
        "witnesses": [
            {
                "hypergraph": w.hypergraph,
                "value": w.value,
                "reference": w.reference,
                "margin": w.margin,
            }
            for w in report.witnesses
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def report_to_csv(report: VerificationReport) -> str:
    lines = ["m,edge_hash,value,reference,margin,verdict"]
    for row in report.rows:
        lines.append(
            f"{row.m},{row.edge_hash},{row.value!r},{row.reference!r},"
            f"{row.margin!r},{row.verdict}"
        )
    return "\n".join(lines) + "\n"


def report_to_text(report: VerificationReport) -> str:
    lines = [
        f"claim      {report.claim_id}",
        f"parameters {report.parameters}",
        f"scope      {report.scope}",
        f"verdict    {report.verdict}",
        f"instances  {report.instances_checked}",
        f"runtime    {report.runtime_seconds:.3f}s",
    ]
    if report.rows:
        margins = [row.margin for row in report.rows]
        lines.append(
            f"margins    min {min(margins):.15g}  max {max(margins):.15g}"
        )
    for w in report.witnesses[:5]:
        lines.append(
            f"witness    value {w.value:.15g}  reference {w.reference:.15g}  "
            f"margin {w.margin:.15g}"
        )
    return "\n".join(lines) + "\n"
