"""Property suites: order-theoretic invariants and solver guarantees."""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hyperlag import (
    SolverConfig,
    colex_rank,
    colex_unrank,
    complete_graph,
    complete_lagrangian,
    enumerate_left_compressed,
    evaluate,
    hypergraph,
    is_left_compressed,
    kkt_residual,
    left_compress,
    link,
    motzkin_straus_value,
    solve,
)
from hyperlag.hypergraph import _direct_descendants
from hyperlag.solver import _batch_grad, _link_matrix, _pair_links
from ascent import ascent_step
from test_hypergraph import brute_descendants

FAST = SolverConfig(restarts=8)


def link_value(sets, x):  # the member sets' weight products, summed
    return sum(math.prod(x[v - 1] for v in s) for s in sets)


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


def colex_compare(a, b):
    """-1, 0 or 1 as a precedes, equals or follows b: the larger element of
    the symmetric difference lies in the later set."""
    return 0 if a == b else -1 if max(set(a) ^ set(b)) in b else 1


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
    desc = brute_descendants(a)
    assert a not in desc
    for b in desc:
        assert colex_rank(b) < colex_rank(a)
        for c in brute_descendants(b):
            assert c in desc
    for b in _direct_descendants(a):
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


@st.composite
def labelled_graphs(draw):
    """Graphs with r = 2..5 (edgeless ones too) and isolated vertices at
    random labels."""
    r = draw(st.integers(2, 5))
    used = draw(st.integers(r, r + 3))
    n = used + draw(st.integers(0, 2))
    pool = list(combinations(range(1, used + 1), r))
    edges = draw(st.sets(st.sampled_from(pool), max_size=len(pool)))
    label = [0] + draw(st.permutations(range(1, n + 1)))
    return hypergraph(r, [[label[v] for v in e] for e in edges], n=n)


def link_by_scan(g, pins, complemented=False, difference_against=None):
    """`link` by testing every (r - |pins|)-subset of the other vertices."""
    j = difference_against
    others = [v for v in range(1, g.n + 1) if v not in pins and v != j]
    members = set()
    for combo in combinations(others, g.r - len(pins)):
        is_edge = tuple(sorted((*combo, *pins))) in g.edge_set
        if j is not None:
            if is_edge and tuple(sorted((*combo, j))) not in g.edge_set:
                members.add(combo)
        elif is_edge != complemented:
            members.add(combo)
    return frozenset(members)


@given(graphs(max_n=9, rs=(2, 3, 4)))
@settings(max_examples=40, deadline=None)
def test_link_matches_subset_scan(g):
    vertices = range(1, g.n + 1)
    for pins in [*combinations(vertices, 1), *combinations(vertices, 2)]:
        for complemented in (False, True):
            assert link(g, pins, complemented) == link_by_scan(g, pins, complemented)
        for j in vertices:
            if len(pins) == 1 and j not in pins:
                got = link(g, pins, difference_against=j)
                assert got == link_by_scan(g, pins, difference_against=j)


@given(labelled_graphs(), st.sampled_from([1, 16]), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_kernel_matches_link_identities(g, batch, seed):
    # d_i(x) is the value of the link of i, the objective is the edge sum, and
    # (r-1) L x^(r-2) holds the value of the link of {i, j} off the diagonal
    X = np.random.default_rng(seed).dirichlet(np.ones(g.n), size=batch)
    grad, vals = _batch_grad(_link_matrix(g), g.r, X)
    pair = np.broadcast_to(_pair_links(_link_matrix(g), g.r, X), (batch, g.n, g.n))
    vertices = range(1, g.n + 1)
    for x, d, v, h in zip(X, grad, vals, pair):
        links = [link_value(link(g, [i]), x) for i in vertices]
        np.testing.assert_allclose(d, links, rtol=1e-12, atol=0)
        np.testing.assert_allclose(v, evaluate(g, x), rtol=1e-12, atol=0)
        pairs = [
            [link_value(link(g, [i, j]), x) if i != j else 0.0 for j in vertices]
            for i in vertices
        ]
        np.testing.assert_allclose((g.r - 1) * h, pairs, rtol=1e-12, atol=0)
    # the uniform weighting of a complete graph is a first-order optimum
    assert kkt_residual(complete_graph(g.n, g.r), np.full(g.n, 1 / g.n)) <= 1e-14


@given(weighted_graphs())
@settings(max_examples=40, deadline=None)
def test_growth_step_monotone(gx):
    g, x = gx
    if evaluate(g, x) <= 0:
        return
    v = evaluate(g, x)
    for _ in range(25):
        x = ascent_step(g, x)
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
        x2 = ascent_step(g, x)
        if np.max(np.abs(x2 - x)) < 1e-14:
            break
        x = x2
    if np.max(np.abs(ascent_step(g, x) - x)) < 1e-14 and np.all(x > 1e-9):
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
    for g in enumerate_left_compressed(3, m, m + 2):
        w = solve(g, FAST).weighting
        assert all(w[i] >= w[i + 1] - 1e-7 for i in range(len(w) - 1))


@pytest.mark.parametrize("m", [4, 6, 9, 11])
def test_difference_identity_at_optima(m):
    # At an optimum with support {1..k} of a left-compressed graph, the
    # weight gap between supported i < j is the difference-link value over
    # the pair-link value.
    for g in enumerate_left_compressed(3, m, m + 2):
        rep = solve(g, FAST)
        if not rep.converged:
            continue
        support = rep.support
        if support != tuple(range(1, len(support) + 1)):
            continue
        x = rep.weighting
        for i, j in combinations(support, 2):
            lhs = (x[i - 1] - x[j - 1]) * link_value(link(g, {i, j}), x)
            rhs = link_value(link(g, {i}, difference_against=j), x)
            assert abs(lhs - rhs) <= 1e-6


@pytest.mark.parametrize("m", [5, 8, 12])
def test_clique_lower_bound(m):
    from hyperlag import colex_graph, max_clique_order

    graph = colex_graph(3, m)
    s = max_clique_order(graph)
    assert solve(graph, FAST).value >= complete_lagrangian(s, 3) - 1e-9
