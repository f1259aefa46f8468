"""Acceptance criteria, one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines. The sweep
criteria use the harness solver settings (fewer restarts, capped iterations):
they only consume certified lower bounds, so this changes runtime, not
verdicts. Criteria 1-4 run the solver at its stock configuration.
"""

from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np

from hyperlag import (
    SolverConfig,
    colex_graph,
    colex_rank,
    colex_unrank,
    complete_graph,
    complete_lagrangian,
    complete_lagrangian_exact,
    enumerate_left_compressed,
    evaluate,
    evaluate_exact,
    hypergraph,
    is_left_compressed,
    left_compress,
    motzkin_straus_value,
    run_claim,
    solve,
)
from hyperlag.solver import KKT_TOLERANCE
from ascent import ascent_step

FAST = SolverConfig(restarts=8)

#: solve reports produced anywhere in this module, for the converged-KKT check
REPORTS = []


def _solve(g, config=None):
    rep = solve(g, config)
    REPORTS.append(rep)
    return rep


def _report(name, ok, detail=""):
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"{name} failed {suffix}"


def _random_2_graph(rng):
    n = int(rng.integers(2, 9))
    p = float(rng.uniform(0.1, 0.95))
    edges = [e for e in combinations(range(1, n + 1), 2) if rng.random() < p]
    return hypergraph(2, edges, n=n)


def criterion_1_corpus():
    """200 random 2-graphs, then K_2 to K_10."""
    rng = np.random.default_rng(20260808)
    return [_random_2_graph(rng) for _ in range(200)] + [complete_graph(t, 2) for t in range(2, 11)]


def test_criterion_1_motzkin_straus_exactness():
    corpus = criterion_1_corpus()
    worst = 0.0
    for g in corpus:
        gap = abs(_solve(g).value - motzkin_straus_value(g))
        worst = max(worst, gap)
    _report(
        "criterion-1 closed form for 2-graphs",
        worst <= 1e-7,
        f"{len(corpus)} graphs, worst gap {worst:.2e}",
    )


def test_criterion_2_complete_graph_closed_form():
    worst = 0.0
    for r in (2, 3, 4):
        for t in range(r, 10):
            gap = abs(_solve(complete_graph(t, r)).value - complete_lagrangian(t, r))
            worst = max(worst, gap)
    rational_ok = all(
        complete_lagrangian_exact(t - 1, 4)
        == Fraction((t - 2) * (t - 3) * (t - 4), 24 * (t - 1) ** 3)
        for t in range(5, 11)
    )
    _report(
        "criterion-2 complete-graph closed form",
        worst <= 1e-7 and rational_ok,
        f"worst gap {worst:.2e}, quartic rational identity {rational_ok}",
    )


def test_criterion_3_colex_prefix_range_sweep():
    worst = 0.0
    checked = 0
    for r, t in ((3, 5), (3, 6), (3, 7), (4, 7)):
        ref = complete_lagrangian(t - 1, r)
        lo = comb(t - 1, r)
        hi = lo + comb(t - 2, r - 1)
        for m in range(lo, hi + 1):
            gap = abs(_solve(colex_graph(r, m)).value - ref)
            worst = max(worst, gap)
            checked += 1
    _report(
        "criterion-3 colex prefix value range",
        worst <= 1e-6,
        f"{checked} prefixes, worst gap {worst:.2e}",
    )


def test_criterion_4_sharpness_weighting():
    ok = True
    details = []
    for t in (6, 7, 8):
        m = comb(t - 1, 3) + comb(t - 2, 2) + 1
        g = colex_graph(3, m)
        weights = [Fraction(1, t - 1)] * (t - 2) + [Fraction(1, 2 * (t - 1))] * 2
        value = float(evaluate_exact(g, weights))
        margin = value - complete_lagrangian(t - 1, 3)
        ok &= margin > 1e-4
        details.append(f"t={t} margin {margin:.2e}")
        if t == 6:
            ok &= abs(value - 0.082) <= 1e-12
            # independent float path must agree
            ok &= abs(evaluate(g, [float(w) for w in weights]) - 0.082) <= 1e-12
    _report("criterion-4 sharpness weighting", ok, "; ".join(details))


def test_criterion_5_clique_free_range_sweep():
    failures = 0
    bad_margin = 0
    checked = 0
    for t in (5, 6):
        lo = comb(t - 1, 3)
        hi = lo + comb(t - 2, 2)
        for m in range(lo, hi + 1):
            rep = run_claim("conjecture-2.2", t=t, r=3, m=m)
            checked += rep.instances_checked
            failures += sum(1 for row in rep.rows if row.verdict == "fail")
            bad_margin += sum(
                1 for row in rep.rows if not row.value < row.reference - 1e-6
            )
    _report(
        "criterion-5 clique-free strict inequality",
        failures == 0 and bad_margin == 0,
        f"{checked} left-compressed instances, {failures} fails",
    )


def test_criterion_6_near_clique_sweep_t6():
    rep = run_claim("theorem-3.1", t=6)
    strict = all(row.value < 0.08 - 1e-6 for row in rep.rows)
    _report(
        "criterion-6 near-complete block strict inequality (t=6)",
        rep.verdict == "pass" and strict,
        f"{rep.instances_checked} instances",
    )


def test_criterion_7_colex_prefix_is_maximal():
    ok = True
    checked = 0
    for t in (5, 6):
        rep = run_claim("theorem-5.1", t=t)
        ok &= rep.verdict == "pass"
        ok &= all(row.value <= row.reference + 1e-6 for row in rep.rows)
        checked += rep.instances_checked
    _report(
        "criterion-7 colex prefix maximal among equal-size graphs",
        ok,
        f"{checked} left-compressed instances",
    )


def test_criterion_8_property_suites():
    rng = np.random.default_rng(8)
    problems = []

    # growth-step monotonicity: 1000 random trajectories
    violations = 0
    for _ in range(1000):
        r = int(rng.integers(2, 4))
        n = int(rng.integers(r, 8))
        pool = list(combinations(range(1, n + 1), r))
        take = int(rng.integers(1, len(pool) + 1))
        idx = rng.choice(len(pool), size=take, replace=False)
        g = hypergraph(r, [pool[i] for i in sorted(idx)], n=n)
        x = rng.dirichlet(np.ones(n))
        v = evaluate(g, x)
        if v <= 0:
            continue
        for _ in range(12):
            x = ascent_step(g, x)
            v2 = evaluate(g, x)
            if v2 < v - 1e-14:
                violations += 1
                break
            v = v2
    if violations:
        problems.append(f"growth monotonicity: {violations}")

    # subgraph monotonicity: 500 random pairs
    bad_pairs = 0
    for _ in range(500):
        r = int(rng.integers(2, 4))
        n = int(rng.integers(r, 8))
        pool = list(combinations(range(1, n + 1), r))
        take = int(rng.integers(1, len(pool) + 1))
        idx = sorted(rng.choice(len(pool), size=take, replace=False))
        g = hypergraph(r, [pool[i] for i in idx], n=n)
        inner = int(rng.integers(1, take + 1))
        sub = sorted(rng.choice(idx, size=inner, replace=False))
        h = hypergraph(r, [pool[i] for i in sub], n=n)
        if _solve(h, FAST).value > _solve(g, FAST).value + 1e-7:
            bad_pairs += 1
    if bad_pairs:
        problems.append(f"subgraph monotonicity: {bad_pairs}")

    # colex bijection, exhaustive up to C(12, r)
    for r in (2, 3, 4):
        if any(
            colex_rank(colex_unrank(k, r)) != k for k in range(1, comb(12, r) + 1)
        ):
            problems.append(f"colex bijection r={r}")

    # left_compress on 500 random graphs
    compress_bad = 0
    for _ in range(500):
        r = int(rng.integers(2, 4))
        n = int(rng.integers(r, 8))
        pool = list(combinations(range(1, n + 1), r))
        take = int(rng.integers(1, min(len(pool), 12) + 1))
        idx = sorted(rng.choice(len(pool), size=take, replace=False))
        g = hypergraph(r, [pool[i] for i in idx], n=n)
        out = left_compress(g)
        if (
            out.m != g.m
            or not is_left_compressed(out)
            or left_compress(out) is not out
        ):
            compress_bad += 1
    if compress_bad:
        problems.append(f"left_compress: {compress_bad}")

    # KKT residual at every converged report seen in this module
    loose = [r for r in REPORTS if r.converged and r.kkt_residual > KKT_TOLERANCE]
    if loose:
        problems.append(f"converged reports with loose KKT: {len(loose)}")

    # sorted optimum on left-compressed instances
    unsorted_count = 0
    for m in (4, 6, 8, 10):
        for g in enumerate_left_compressed(3, m, m + 2):
            w = _solve(g, FAST).weighting
            if not all(w[i] >= w[i + 1] - 1e-7 for i in range(len(w) - 1)):
                unsorted_count += 1
    if unsorted_count:
        problems.append(f"sorted optimum: {unsorted_count}")

    # enumeration count agreement with the brute-force filter
    for r in (2, 3):
        pool = list(combinations(range(1, 6), r))
        for m in range(1, 6):
            brute = sum(
                1
                for sub in combinations(pool, m)
                if is_left_compressed(hypergraph(r, sub, n=5))
            )
            mine = sum(1 for _ in enumerate_left_compressed(r, m, 5))
            if brute != mine:
                problems.append(f"enumeration count r={r} m={m}")

    _report(
        "criterion-8 property suites",
        not problems,
        "; ".join(problems) if problems else "all seven suites clean",
    )
