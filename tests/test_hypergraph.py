import random
import sys
from itertools import combinations
from math import comb

import pytest

import hyperlag.colex
import hyperlag.solver
from hyperlag import (
    ParseError,
    ResourceLimitError,
    SolverConfig,
    colex_graph,
    colex_unrank,
    complete_graph,
    descendants,
    enumerate_left_compressed,
    format_hypergraph,
    hypergraph,
    is_left_compressed,
    left_compress,
    link,
    max_clique_order,
    maximal_cliques,
    motzkin_straus_value,
    parse_hypergraph,
    solve,
)
from hyperlag.hypergraph import _direct_descendants


def brute_descendants(a, direct_only=False):
    """Independent oracle: scan every candidate set dominated coordinatewise."""
    r = len(a)
    out = set()
    for cand in combinations(range(1, max(a) + 1), r):
        if cand != a and all(c <= v for c, v in zip(cand, a)):
            if not direct_only or sum(a) - sum(cand) == 1:
                out.add(cand)
    return out


def brute_max_clique(g):
    verts = range(1, g.n + 1)
    best = g.r - 1
    for k in range(g.r, g.n + 1):
        for sub in combinations(verts, k):
            if all(e in g.edge_set for e in combinations(sub, g.r)):
                best = max(best, k)
    return best


def brute_maximal_cliques(g):
    """Every clique of order >= r that no one vertex extends, largest first."""
    verts = range(1, g.n + 1)
    cliques = {
        sub
        for k in range(g.r, g.n + 1)
        for sub in combinations(verts, k)
        if all(e in g.edge_set for e in combinations(sub, g.r))
    }
    maximal = [
        c for c in cliques
        if not any(tuple(sorted(c + (v,))) in cliques for v in verts if v not in c)
    ]
    return sorted(maximal, key=lambda c: (-len(c), c))


class TestConstructors:
    def test_complete_graph(self):
        tri = complete_graph(3, 2)
        assert tri.edges == ((1, 2), (1, 3), (2, 3))
        assert complete_graph(4, 3).edges == (
            (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4),
        )
        assert complete_graph(5, 3).m == 10

    def test_complete_graph_rejects_t_below_r(self):
        with pytest.raises(ValueError):
            complete_graph(2, 3)

    def test_colex_graph(self):
        g = colex_graph(3, 4)
        assert g.edges == ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))
        assert g.n == 4
        assert colex_graph(3, 10) == complete_graph(5, 3)
        assert colex_graph(2, 1).edges == ((1, 2),)
        assert colex_graph(2, 1).n == 2

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_colex_graph_is_the_first_m_ranks(self, r):
        for m in [*range(1, 40), 83, 126, 127, 300]:
            g = colex_graph(r, m)
            assert g.edges == tuple(colex_unrank(k, r) for k in range(1, m + 1))
            assert g.n == g.edges[-1][-1]

    def test_colex_prefix_equals_complete(self):
        for r in (2, 3, 4):
            for t in range(r, 11):
                assert colex_graph(r, comb(t, r)) == complete_graph(t, r)

    def test_edges_stored_in_colex_order(self):
        g = hypergraph(3, [(2, 3, 4), (1, 2, 3), (1, 2, 5)])
        assert g.edges == ((1, 2, 3), (2, 3, 4), (1, 2, 5))

    def test_duplicate_edges_rejected(self):
        with pytest.raises(ValueError):
            hypergraph(2, [(1, 2), (2, 1)])

    def test_edge_beyond_n_rejected(self):
        with pytest.raises(ValueError):
            hypergraph(2, [(1, 5)], n=4)


class TestOneCheckPerEdge:
    """Each edge from outside passes through `rset` once; the library's own graphs never."""

    @pytest.fixture
    def rset_calls(self, monkeypatch):
        calls = []
        # `hyperlag.hypergraph` is the function; the module is in sys.modules
        for module in (sys.modules["hyperlag.hypergraph"], hyperlag.colex):
            original = module.rset

            def counted(elements, original=original):
                calls.append(elements)
                return original(elements)

            monkeypatch.setattr(module, "rset", counted)
        return calls

    def test_enumeration(self, rset_calls):
        graphs = sum(1 for _ in enumerate_left_compressed(3, 10, 8))
        assert graphs > 1
        assert rset_calls == []

    def test_given_and_inferred_n(self, rset_calls):
        edges = [(2, 3, 4), (1, 2, 3), (1, 2, 5)]
        assert hypergraph(3, edges, n=6).edges == ((1, 2, 3), (2, 3, 4), (1, 2, 5))
        assert len(rset_calls) == 3
        rset_calls.clear()
        assert hypergraph(3, edges).n == 5
        assert len(rset_calls) == 3

    @pytest.mark.parametrize(
        "edges",
        [
            [(0, 1, 2)],
            [(1, 1, 2)],
            [(1, 2)],
            [(1, 2, 7)],
            [(1, 2, 3), (3, 2, 1)],
            [(1, 2, 3.0)],
        ],
        ids=["label-0", "repeated-label", "wrong-size", "above-n", "duplicate", "non-int"],
    )
    def test_given_n_still_checks(self, edges):
        with pytest.raises(ValueError):
            hypergraph(3, edges, n=6)


class TestBuildersEmitCheckedGraphs:
    """The constructor checks nothing, so each builder must emit what
    `hypergraph` would: distinct canonical edges inside [n], in colex order."""

    @staticmethod
    def assert_checked(g):
        assert g == hypergraph(g.r, g.edges, n=g.n)

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_enumeration(self, r):
        for m in range(1, 11):
            for g in enumerate_left_compressed(r, m, 8):
                self.assert_checked(g)
        for g in enumerate_left_compressed(r, 10, 8, seed_prefix=r + 1):
            self.assert_checked(g)

    def test_colex_and_complete_graphs(self):
        for r in (2, 3, 4):
            for m in range(1, 60):
                self.assert_checked(colex_graph(r, m))
            for t in range(r, 9):
                self.assert_checked(complete_graph(t, r))

    @staticmethod
    def random_graph(rng, min_edges):
        r = rng.choice((2, 3, 4))
        n = rng.randint(r + 1, 8)
        pool = list(combinations(range(1, n + 1), r))
        return hypergraph(r, rng.sample(pool, rng.randint(min_edges, min(12, len(pool)))), n=n)

    def test_left_compress(self):
        rng = random.Random(11)
        for _ in range(200):
            self.assert_checked(left_compress(self.random_graph(rng, 1)))

    def test_parse_shuffled_lines(self):
        rng = random.Random(5)
        for _ in range(50):
            header, *body = format_hypergraph(self.random_graph(rng, 0)).splitlines()
            shuffled = rng.sample(body, len(body))
            g = parse_hypergraph("\n".join([header, *shuffled]) + "\n")
            self.assert_checked(g)
            assert format_hypergraph(g).splitlines() == [header, *body]

    def test_solve_cores(self, monkeypatch):
        cores = []
        original = hyperlag.solver._solve

        def recording(g, cfg):
            cores.append(g)
            return original(g, cfg)

        monkeypatch.setattr(hyperlag.solver, "_solve", recording)
        for g in enumerate_left_compressed(3, 8, 8):
            solve(g, SolverConfig(restarts=2))
        assert any(c.n < 8 for c in cores)
        for c in cores:
            self.assert_checked(c)


class TestLinks:
    def test_single_pin(self):
        tri = complete_graph(3, 2)
        assert link(tri, {1}) == frozenset({(2,), (3,)})

    def test_pair_pin(self):
        g = hypergraph(3, [(1, 2, 3), (1, 2, 4)])
        assert link(g, {1, 2}) == frozenset({(3,), (4,)})

    def test_difference(self):
        g = hypergraph(3, [(1, 2, 3)], n=4)
        assert link(g, {1}, difference_against=4) == frozenset({(2, 3)})

    def test_complemented(self):
        g = hypergraph(3, [(1, 2, 3)], n=4)
        assert link(g, {1}, complemented=True) == frozenset({(2, 4), (3, 4)})

    def test_pinned_members_excluded(self):
        g = complete_graph(5, 3)
        for v in range(1, 6):
            assert all(v not in s for s in link(g, {v}))

    def test_out_of_range_pin(self):
        with pytest.raises(IndexError):
            link(complete_graph(3, 2), {7})

    def test_minus_needs_single_pin(self):
        g = complete_graph(4, 3)
        with pytest.raises(ValueError):
            link(g, {1, 2}, difference_against=3)
        with pytest.raises(ValueError):
            link(g, {1}, complemented=True, difference_against=3)


class TestDescendants:
    def test_direct_examples(self):
        assert set(_direct_descendants((2, 3, 4))) == {(1, 3, 4)}
        assert set(_direct_descendants((2, 3, 5))) == {(1, 3, 5), (2, 3, 4)}
        assert descendants((1, 2, 3)) == frozenset()

    @pytest.mark.parametrize(
        "a", [(2, 3, 4), (1, 4, 6), (3, 5, 6), (2, 4), (1, 3, 5, 7)]
    )
    def test_against_brute_force(self, a):
        assert descendants(a) == brute_descendants(a)
        assert set(_direct_descendants(a)) == brute_descendants(a, True)


class TestCompression:
    def test_is_left_compressed_examples(self):
        assert is_left_compressed(colex_graph(3, 7))
        assert not is_left_compressed(hypergraph(3, [(1, 2, 4)]))
        assert is_left_compressed(complete_graph(5, 3))

    def test_colex_prefixes_are_left_compressed(self):
        for m in range(1, 25):
            assert is_left_compressed(colex_graph(3, m))

    def test_left_compress_single_edge(self):
        g = left_compress(hypergraph(3, [(1, 2, 4)]))
        assert g.edges == ((1, 2, 3),)

    def test_left_compress_fixpoint(self):
        g = colex_graph(3, 7)
        assert left_compress(g) is g

    def test_left_compress_traced_case(self):
        g = left_compress(hypergraph(3, [(1, 3, 4), (2, 3, 4)]))
        assert set(g.edges) == {(1, 2, 3), (1, 2, 4)}

    def test_left_compress_invariants(self):
        import random

        rng = random.Random(7)
        pool = list(combinations(range(1, 7), 3))
        for _ in range(40):
            edges = rng.sample(pool, rng.randint(1, 10))
            g = hypergraph(3, edges, n=6)
            out = left_compress(g)
            assert out.m == g.m
            assert is_left_compressed(out)
            assert left_compress(out) is out

    def test_one_pass_matches_the_restart_from_the_top_loop(self):
        def restarting(g):
            # the reference: after each replacement, search again from the colex top
            edges = set(g.edges)
            while True:
                for e in sorted(edges, key=lambda s: s[::-1], reverse=True):
                    missing = [d for d in descendants(e) if d not in edges]
                    if missing:
                        edges.remove(e)
                        edges.add(min(missing, key=lambda s: s[::-1]))
                        break
                else:
                    return hypergraph(g.r, edges, n=g.n)

        import random

        rng = random.Random(23)
        moved = 0
        for _ in range(1000):
            r = rng.choice((2, 3, 4))
            n = rng.randint(r, 9)
            pool = list(combinations(range(1, n + 1), r))
            g = hypergraph(r, rng.sample(pool, rng.randint(1, min(30, len(pool)))), n=n)
            out = left_compress(g)
            assert out == restarting(g)
            moved += out != g
        assert moved > 500


class TestCliques:
    def test_examples(self):
        assert max_clique_order(complete_graph(5, 3)) == 5
        minus_one = hypergraph(3, complete_graph(5, 3).edges[:-1], n=5)
        assert max_clique_order(minus_one) == 4
        assert max_clique_order(colex_graph(3, 16)) == 5

    def test_edgeless(self):
        g = hypergraph(3, [], n=4)
        assert max_clique_order(g) == 2

    def test_budget(self):
        g = hypergraph(2, [(1, 2)], n=21)
        with pytest.raises(ResourceLimitError):
            max_clique_order(g)

    @pytest.mark.parametrize("seed", range(6))
    def test_against_brute_force(self, seed):
        import random

        rng = random.Random(seed)
        n = rng.randint(3, 7)
        r = rng.choice([2, 3])
        if n < r:
            n = r
        pool = list(combinations(range(1, n + 1), r))
        edges = rng.sample(pool, rng.randint(0, len(pool)))
        g = hypergraph(r, edges, n=n)
        assert max_clique_order(g) == brute_max_clique(g)

    def test_complete_graphs(self):
        for r in (2, 3, 4):
            for t in range(r, 11):
                assert max_clique_order(complete_graph(t, r)) == t

    def test_maximal_cliques_triangle_plus_pendant(self):
        g = hypergraph(2, [(1, 2), (1, 3), (2, 3), (3, 4)])
        assert maximal_cliques(g) == [(1, 2, 3), (3, 4)]

    @pytest.mark.parametrize("seed", range(30))
    def test_maximal_cliques_against_brute_force(self, seed):
        import random

        rng = random.Random(seed)
        r = 2 + seed % 3
        n = rng.randint(r + 2, 8)
        density = rng.uniform(0.3, 1.0)
        edges = [e for e in combinations(range(1, n + 1), r) if rng.random() < density]
        g = hypergraph(r, edges, n=n)
        expected = brute_maximal_cliques(g)
        for cap in (None, 1, 3):
            assert maximal_cliques(g, cap=cap) == expected[:cap]
        if g.m:
            assert max_clique_order(g) == len(maximal_cliques(g)[0])

    def test_maximal_cliques_past_node_budget_fall_back_to_maximum(self, monkeypatch):
        # `hyperlag.hypergraph` is the constructor, so patch the module itself
        monkeypatch.setattr(sys.modules["hyperlag.hypergraph"], "CLIQUE_NODE_BUDGET", 5)
        g = hypergraph(2, [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5)])
        assert maximal_cliques(g) == [(1, 2, 3)]
        solve.cache_clear()
        try:
            assert solve(g).value == pytest.approx(motzkin_straus_value(g), abs=1e-12)
        finally:
            solve.cache_clear()


class TestTextFormat:
    def test_round_trip(self):
        g = colex_graph(3, 7)
        assert parse_hypergraph(format_hypergraph(g)) == g

    def test_canonical_bytes(self):
        text = format_hypergraph(colex_graph(3, 4))
        assert text == "3 4 4\n1 2 3\n1 2 4\n1 3 4\n2 3 4\n"
        assert format_hypergraph(parse_hypergraph(text)) == text

    def test_comments_and_blank_lines(self):
        g = parse_hypergraph("# a comment\n2 3 2\n\n1 2\n# another\n1 3\n")
        assert g.edges == ((1, 2), (1, 3))

    def test_duplicate_edge_reports_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_hypergraph("2 3 2\n1 2\n1 2\n")

    def test_non_ascending_rejected(self):
        with pytest.raises(ParseError, match="ascending"):
            parse_hypergraph("2 3 1\n2 1\n")

    def test_count_mismatch(self):
        with pytest.raises(ParseError, match="declares 3"):
            parse_hypergraph("2 3 3\n1 2\n")

    def test_vertex_out_of_range(self):
        with pytest.raises(ParseError, match="range"):
            parse_hypergraph("2 3 1\n1 4\n")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_hypergraph("# nothing\n")
