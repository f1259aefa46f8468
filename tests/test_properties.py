"""Property suites: order-theoretic invariants and solver guarantees."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hyperlag import (
    Budget,
    SolverConfig,
    colex_compare,
    colex_rank,
    colex_unrank,
    complete_lagrangian,
    descendants,
    enumerate_left_compressed,
    evaluate,
    growth_step,
    hypergraph,
    is_left_compressed,
    kkt_residual,
    left_compress,
    link,
    link_value,
    motzkin_straus_value,
    solve,
)

FAST = SolverConfig(restarts=8, max_iterations=2000)


@st.composite
def rsets(draw, max_r=4, max_vertex=9):
    r = draw(st.integers(2, max_r))
    return tuple(
        sorted(draw(st.sets(st.integers(1, max_vertex), min_size=r, max_size=r)))
    )


@st.composite
def graphs(draw, max_n=7, rs=(2, 3)):
    r = draw(st.sampled_from(rs))
    n = draw(st.integers(r, max_n))
    pool = list(combinations(range(1, n + 1), r))
    edges = draw(st.sets(st.sampled_from(pool), min_size=1, max_size=len(pool)))
    return hypergraph(r, sorted(edges), n=n)


@st.composite
def weighted_graphs(draw):
    g = draw(graphs())
    raw = draw(
        st.lists(
            st.floats(0.05, 1.0, allow_nan=False), min_size=g.n, max_size=g.n
        )
    )
    x = np.asarray(raw)
    return g, x / x.sum()


@given(st.integers(1, 5000), st.integers(2, 5))
def test_colex_rank_unrank_roundtrip(rank, r):
    assert colex_rank(colex_unrank(rank, r)) == rank


@given(rsets(), rsets())
def test_colex_compare_total_order(a, b):
    if len(a) != len(b):
        return
    cmp = colex_compare(a, b)
    assert cmp == -colex_compare(b, a)
    ra, rb = colex_rank(a), colex_rank(b)
    assert cmp == (ra > rb) - (ra < rb)


@given(rsets(max_r=3, max_vertex=7))
def test_descendant_relation_is_strict_partial_order(a):
    desc = descendants(a)
    assert a not in desc
    for b in desc:
        assert colex_compare(b, a) == -1
        for c in descendants(b):
            assert c in desc
    for b in descendants(a, direct_only=True):
        assert sum(a) - sum(b) == 1


@given(graphs())
def test_left_compress_contract(g):
    out = left_compress(g)
    assert out.m == g.m
    assert is_left_compressed(out)
    assert left_compress(out) is out


@given(graphs())
def test_left_compressed_iff_difference_links_empty(g):
    expected = all(
        not link(g, {j}, difference_against=i)
        for i in range(1, g.n + 1)
        for j in range(i + 1, g.n + 1)
    )
    assert is_left_compressed(g) == expected


@given(weighted_graphs())
@settings(max_examples=40, deadline=None)
def test_growth_step_monotone(gx):
    g, x = gx
    if evaluate(g, x) <= 0:
        return
    v = evaluate(g, x)
    for _ in range(25):
        x = growth_step(g, x)
        v2 = evaluate(g, x)
        assert v2 >= v - 1e-14
        v = v2


@given(weighted_graphs())
@settings(max_examples=25, deadline=None)
def test_fixed_point_implies_first_order_optimality(gx):
    g, x = gx
    if evaluate(g, x) <= 0:
        return
    for _ in range(4000):
        x2 = growth_step(g, x)
        if np.max(np.abs(x2 - x)) < 1e-14:
            break
        x = x2
    if np.max(np.abs(growth_step(g, x) - x)) < 1e-14 and np.all(x > 1e-9):
        assert kkt_residual(g, x) <= 1e-10


@given(graphs(max_n=6))
@settings(max_examples=20, deadline=None)
def test_subgraph_monotonicity(g):
    rng = np.random.default_rng(colex_rank(g.edges[0]) + g.m)
    k = int(rng.integers(1, g.m + 1))
    sub_edges = [g.edges[i] for i in sorted(rng.choice(g.m, size=k, replace=False))]
    h = hypergraph(g.r, sub_edges, n=g.n)
    assert solve(h, FAST).value <= solve(g, FAST).value + 1e-7


@given(graphs(max_n=7, rs=(2,)))
@settings(max_examples=20, deadline=None)
def test_solver_matches_2_graph_closed_form(g):
    assert solve(g, FAST).value == pytest.approx(
        motzkin_straus_value(g), abs=1e-7
    )


@pytest.mark.parametrize("m", [4, 6, 9, 11, 13])
def test_sorted_optimum_on_left_compressed(m):
    budget = Budget(max_vertices=m + 2)
    for g in enumerate_left_compressed(3, m, m + 2, budget):
        w = solve(g, FAST).weighting
        assert all(w[i] >= w[i + 1] - 1e-7 for i in range(len(w) - 1))


@pytest.mark.parametrize("m", [4, 6, 9, 11])
def test_difference_identity_at_optima(m):
    # At an optimum with support {1..k} of a left-compressed graph, the
    # weight gap between supported i < j is the difference-link value over
    # the pair-link value.
    budget = Budget(max_vertices=m + 2)
    for g in enumerate_left_compressed(3, m, m + 2, budget):
        rep = solve(g, FAST)
        if not rep.converged:
            continue
        support = rep.support
        if support != tuple(range(1, len(support) + 1)):
            continue
        x = rep.weighting
        for i, j in combinations(support, 2):
            lhs = (x[i - 1] - x[j - 1]) * link_value(
                g, link(g, {i, j}), x
            )
            rhs = link_value(g, link(g, {i}, difference_against=j), x)
            assert abs(lhs - rhs) <= 1e-6


@pytest.mark.parametrize("m", [5, 8, 12])
def test_clique_lower_bound(m):
    from hyperlag import colex_graph, max_clique_order

    graph = colex_graph(3, m)
    s = max_clique_order(graph)
    assert solve(graph, FAST).value >= complete_lagrangian(s, 3) - 1e-9
