import math
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest

from hyperlag import (
    CLAIMS,
    ResourceLimitError,
    SolveReport,
    SolverConfig,
    colex_graph,
    complete_graph,
    complete_lagrangian,
    complete_lagrangian_exact,
    enumerate_left_compressed,
    evaluate,
    evaluate_exact,
    format_hypergraph,
    hypergraph,
    is_left_compressed,
    kkt_residual,
    left_compress,
    link,
    max_clique_order,
    maximal_cliques,
    motzkin_straus_value,
    report_to_csv,
    report_to_json,
    run_claim,
    solve,
)
import hyperlag.solver
from hyperlag.hypergraph import _max_clique_witness
from hyperlag.solver import _pairs_covered, sorted_polish
from hyperlag.harness import (
    HARNESS_SOLVER,
    _edge_hash,
    _left_compressed_instances,
    _verdict_eq,
)
from ascent import ascent_step
from test_acceptance import criterion_1_corpus

TRIANGLE = complete_graph(3, 2)
# K4^3 plus three edges through vertex 1: its optimum, the clique's 1/16,
# sits on a degenerate face, so most of its trials still move after the
# growth steps
SLOW = hypergraph(3, [
    (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4), (1, 2, 5), (1, 3, 5), (1, 4, 5),
])


class TestEvaluate:
    def test_single_edge(self):
        g = hypergraph(3, [(1, 2, 3)])
        assert evaluate(g, [1 / 3] * 3) == pytest.approx(1 / 27, abs=1e-15)

    def test_triangle_uniform(self):
        assert evaluate(TRIANGLE, [1 / 3] * 3) == pytest.approx(1 / 3, abs=1e-15)

    def test_sharp_weighting(self):
        g = colex_graph(3, 17)
        assert g.n == 6
        x = [0.2, 0.2, 0.2, 0.2, 0.1, 0.1]
        assert evaluate(g, x) == pytest.approx(0.082, abs=1e-15)
        exact = evaluate_exact(
            g, [Fraction(1, 5)] * 4 + [Fraction(1, 10)] * 2
        )
        assert exact == Fraction(41, 500)

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_edgeless(self, r):
        assert evaluate(hypergraph(r, [], n=4), [0.25] * 4) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(TRIANGLE, [0.5, 0.5])

    def test_exact_matches_float_on_random_rationals(self):
        g = colex_graph(3, 11)
        assert g.n == 6
        w = [Fraction(1, 6), Fraction(1, 6), Fraction(1, 4), Fraction(1, 4),
             Fraction(1, 12), Fraction(1, 12)]
        assert sum(w) == 1
        assert evaluate(g, [float(v) for v in w]) == pytest.approx(
            float(evaluate_exact(g, w)), abs=1e-14
        )


def link_value(sets, x):  # the member sets' weight products, summed
    return sum(math.prod(x[v - 1] for v in s) for s in sets)


class TestLinkValue:
    def test_vertex_link(self):
        view = link(TRIANGLE, {1})
        assert link_value(view, [1 / 3] * 3) == pytest.approx(2 / 3)

    def test_pair_link(self):
        g = hypergraph(3, [(1, 2, 3)])
        view = link(g, {1, 2})
        assert link_value(view, [1 / 3] * 3) == pytest.approx(1 / 3)

    def test_edgeless(self):
        g = hypergraph(2, [], n=3)
        assert link_value(link(g, {1}), [1 / 3] * 3) == 0.0

    def test_pair_link_of_2_graph_counts_membership(self):
        # degree-zero monomials: the empty product counts the edge itself
        view = link(TRIANGLE, {1, 2})
        assert link_value(view, [1 / 3] * 3) == 1.0


class TestLinkMatrix:
    @staticmethod
    def per_permutation(g):
        # the reference: the dense link tensor, one scatter for each ordering
        # of the edges' vertices
        n, r = g.n, g.r
        T = np.zeros(n**r)
        place = n ** np.arange(r - 1, -1, -1)
        eidx = hyperlag.solver._edge_index(g)
        for perm in permutations(range(r)):
            T[eidx[:, perm] @ place] = 1.0 / math.factorial(r - 1)
        return T.reshape(n ** (r - 1), n)

    @classmethod
    def shadow_rows(cls, g):
        """The shadow's (r-2)-sets, every one at r <= 3, and the tensor's rows
        at them, as (n^(r-2), n^2), times (r-2)!: the (r-2)! orderings of a
        set hold equal rows, which the shadow block sums."""
        n, r = g.n, g.r
        if r <= 3:
            sets = [c for c in combinations(range(1, n + 1), r - 2)]
        else:
            sets = sorted({s for e in g.edges for s in combinations(e, r - 2)})
        T = cls.per_permutation(g).reshape(n ** (r - 2), n * n)
        keys = [sum((v - 1) * n ** (r - 3 - k) for k, v in enumerate(s)) for s in sets]
        return sets, T[keys] * math.factorial(r - 2)

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_one_scatter_matches_the_per_permutation_loop(self, r):
        # the shadow block is the dense tensor's shadow rows times (r-2)!,
        # exactly; at r = 3 it is the tensor itself, reshaped
        import random

        rng = random.Random(r)
        for _ in range(30):
            n = rng.randint(r, 8)
            pool = list(combinations(range(1, n + 1), r))
            g = hypergraph(r, rng.sample(pool, rng.randint(0, min(30, len(pool)))), n=n)
            labels, block = hyperlag.solver._link_matrix(g)
            sets, rows = self.shadow_rows(g)
            assert labels.shape == (r - 2, len(sets))
            assert [tuple(int(v) + 1 for v in c) for c in labels.T] == sets
            assert np.array_equal(block, rows)
            if r == 3:
                assert np.array_equal(block, self.per_permutation(g).reshape(n, n * n))

    def test_a_complete_graph_scatters_within_the_entry_limit(self, monkeypatch):
        # K_40^3 at a limit of 40^3 entries: the block holds all of them, and
        # the edge labels and shadow keys that fill it stay within two more
        import tracemalloc

        g = complete_graph(40, 3)
        monkeypatch.setattr(hyperlag.solver, "MAX_LINK_ENTRIES", 40**3)
        tracemalloc.start()
        try:
            _, block = hyperlag.solver._link_matrix(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(block, self.shadow_rows(g)[1])
        assert peak < 3 * block.nbytes


class TestGrowthStep:
    def test_symmetric_fixed_point(self):
        out = ascent_step(TRIANGLE, [1 / 3] * 3)
        assert np.allclose(out, [1 / 3] * 3, atol=1e-15)

    def test_hand_computed_step(self):
        out = ascent_step(TRIANGLE, [0.5, 0.3, 0.2])
        lam = 0.5 * 0.3 + 0.5 * 0.2 + 0.3 * 0.2
        expect = np.array([0.5 * 0.5, 0.3 * 0.7, 0.2 * 0.8]) / (2 * lam)
        assert np.allclose(out, expect, atol=1e-15)

    def test_single_edge_jumps_to_optimum(self):
        g = hypergraph(2, [(1, 2)])
        out = ascent_step(g, [0.9, 0.1])
        assert np.allclose(out, [0.5, 0.5], atol=1e-15)

    def test_monotone_on_random_trajectories(self):
        rng = np.random.default_rng(3)
        g = colex_graph(3, 8)
        for _ in range(20):
            x = rng.dirichlet(np.ones(g.n))
            v = evaluate(g, x)
            for _ in range(30):
                x = ascent_step(g, x)
                v2 = evaluate(g, x)
                assert v2 >= v - 1e-14
                v = v2


def counting(monkeypatch, name):
    """Replace `hyperlag.solver.<name>` by a wrapper; returns its call list."""
    fn = getattr(hyperlag.solver, name)
    calls = []

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(hyperlag.solver, name, counted)
    return calls


class TestOneKernelCallPerStep:
    def calls_and_steps(self, monkeypatch, g, X0, max_iterations):
        calls = counting(monkeypatch, "_batch_grad")
        L = hyperlag.solver._link_matrix(g)
        iters = hyperlag.solver._ascend(L, g.r, X0, max_iterations)[3]
        return len(calls), int(iters.max())

    def test_to_the_gain_floor(self, monkeypatch):
        g = colex_graph(3, 10)
        X0 = np.random.default_rng(5).dirichlet(np.ones(g.n), size=8)
        calls, steps = self.calls_and_steps(monkeypatch, g, X0, 50_000)
        assert steps < 50_000
        assert calls == steps + 1

    def test_to_the_step_cap(self, monkeypatch):
        g = colex_graph(3, 10)
        X0 = np.random.default_rng(5).dirichlet(np.ones(g.n), size=8)
        assert self.calls_and_steps(monkeypatch, g, X0, 7) == (8, 7)

    def test_no_separate_value_call(self):
        assert not hasattr(hyperlag.solver, "_batch_value")

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_empty_batch(self, r):
        g = complete_graph(r + 1, r)
        L = hyperlag.solver._link_matrix(g)
        grad, vals = hyperlag.solver._batch_grad(L, r, np.empty((0, g.n)))
        assert (grad.shape, vals.shape) == ((0, g.n), (0,))
        out = hyperlag.solver._ascend(L, r, np.empty((0, g.n)), 5)
        assert [a.shape for a in out] == [(0, g.n), (0,), (0, g.n), (0,)]


class TestSolveMemo:
    CFG = SolverConfig(restarts=4)

    @pytest.fixture(autouse=True)
    def short_cap_and_empty_memo(self, monkeypatch):
        # the memo keys on the config, not on the step cap, so no report
        # solved at this cap may outlive the test
        monkeypatch.setattr(hyperlag.solver, "MAX_GROWTH_STEPS", hyperlag.solver.GROWTH_STEPS)
        solve.cache_clear()
        yield
        solve.cache_clear()

    def test_repeat_is_the_same_report_and_runs_no_kernel(self, monkeypatch):
        g = colex_graph(3, 10)
        first = solve(g, self.CFG)
        calls = counting(monkeypatch, "_batch_grad")
        assert solve(g, self.CFG) is first
        assert calls == []
        assert solve.cache_info().hits == 1

    def test_equal_graphs_and_default_config_share_an_entry(self):
        g = colex_graph(3, 10)
        twin = hypergraph(3, reversed(g.edges), n=g.n)
        assert twin is not g
        first = solve(g)
        assert solve(twin) is first
        assert solve(g, SolverConfig()) is first
        info = solve.cache_info()
        assert (info.hits, info.misses, info.currsize) == (2, 1, 1)

    def test_any_other_setting_misses_and_isolated_vertices_hit_the_core(self):
        g = colex_graph(3, 10)
        base = solve(g, self.CFG)
        others = [
            solve(g, replace(self.CFG, seed=1)),
            solve(g, replace(self.CFG, restarts=5)),
        ]
        assert all(rep is not base for rep in others)
        # g is the core of g plus an isolated vertex, which pads g's report
        padded = solve(hypergraph(3, g.edges, n=g.n + 1), self.CFG)
        assert padded.weighting == base.weighting + (0.0,)
        assert padded.value == base.value
        info = solve.cache_info()
        assert (info.hits, info.misses) == (1, 3)

    def test_errors_are_not_memoized(self):
        # {1, 2, n} has no copy {1, 2, 3} through K = 3, so solved on all n vertices
        n = round(hyperlag.solver.MAX_LINK_ENTRIES ** (1 / 3)) + 1
        g = hypergraph(3, [(1, 2, n)], n=n)
        for _ in range(2):
            with pytest.raises(ResourceLimitError, match="MAX_LINK_ENTRIES"):
                solve(g)
        assert solve.cache_info().currsize == 0

    def test_overlapping_claims_reuse_solves_exactly(self, monkeypatch):
        def rendered(reports):
            return [(report_to_json(rep), report_to_csv(rep)) for rep in reports]

        first = run_claim("corollary-3.1", t=6, m=10)
        ascents = counting(monkeypatch, "_ascend")
        second = run_claim("corollary-3.2", t=6, m=10)
        assert second.instances_checked > 0
        assert ascents == []
        monkeypatch.undo()
        fresh = []
        for variant in ("3.1", "3.2"):
            solve.cache_clear()
            fresh.append(run_claim(f"corollary-{variant}", t=6, m=10))
        assert rendered([first, second]) == rendered(fresh)


class TestStartSchedule:
    # maximal cliques {1, 2, 3, 4}, {1, 2, 5} and {3, 4, 6}; {3, 4, 5} is
    # missing, so solved on all six vertices
    G = hypergraph(3, list(complete_graph(4, 3).edges) + [(1, 2, 5), (3, 4, 6)], n=6)

    @pytest.mark.parametrize("cfg", [SolverConfig(), HARNESS_SOLVER, SolverConfig(seed=7)])
    def test_one_generator_draws_every_dirichlet_row(self, monkeypatch, cfg):
        default_rng, real_starts = np.random.default_rng, hyperlag.solver._starts
        built, starts = [], []

        def counted_rng(*args):
            built.append(args)
            return default_rng(*args)

        def recorded_starts(g, config):
            starts.append(real_starts(g, config))
            return starts[-1]

        monkeypatch.setattr(hyperlag.solver, "default_rng", counted_rng)
        monkeypatch.setattr(hyperlag.solver, "_starts", recorded_starts)
        solve.cache_clear()
        try:
            solve(self.G, cfg)
        finally:
            solve.cache_clear()
        assert built == [(cfg.seed,)]
        [rows] = starts
        n = self.G.n
        head = [np.full(n, 1.0 / n)]
        for clique in maximal_cliques(self.G, cap=cfg.restarts - 1):
            w = np.zeros(n)
            w[np.asarray(clique) - 1] = 1.0 / len(clique)
            head.append(w)
        assert len(head) == 4
        draws = default_rng(cfg.seed).dirichlet(np.ones(n), size=cfg.restarts - 4)
        np.testing.assert_array_equal(rows, np.vstack([head, draws]))
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_start_batch_past_entry_limit_refused_before_building(self, monkeypatch, r):
        # the limit at the link matrix's n^r entries; a row's gradient holds
        # n^min(r-1, 2) of them, and at r >= 5 its outer power n^(r-2); a
        # 2-graph takes trials only past 20 vertices. Kn^r minus one edge, as
        # a complete graph takes no trials, nor does one on r + 1 vertices,
        # where every other r-graph is a cone
        n = {2: 21, 3: 5}.get(r, r + 2)
        g = hypergraph(r, complete_graph(n, r).edges[1:], n=n)
        most = n**r // n ** max(min(r - 1, 2), r - 2)
        monkeypatch.setattr(hyperlag.solver, "MAX_LINK_ENTRIES", n**r)
        solve.cache_clear()
        try:
            assert solve(g, SolverConfig(restarts=most)).restarts_used == most
            starts = counting(monkeypatch, "_starts")
            with pytest.raises(ResourceLimitError, match="start batch limit exceeded"):
                solve(g, SolverConfig(restarts=most + 1))
            assert starts == []
        finally:
            solve.cache_clear()


def claim_graphs(claim, t):
    """Every left-compressed graph a claim's default sweep at t enumerates."""
    spec = CLAIMS[claim]
    lo, hi = spec.m_range(t, spec.r)
    return [g for m in range(lo, hi + 1) for g in _left_compressed_instances(spec, t, spec.r, m)]


def core_order(g):
    """K: the largest k >= r with {1, ..., r-2, k-1, k} an edge."""
    head = tuple(range(1, g.r - 1))
    return max(k for k in range(g.r, g.n + 1) if head + (k - 1, k) in g.edge_set)


def solved_graph(monkeypatch, g):
    """The graph `solve` hands to `_solve` for g, which solves nothing here."""
    seen = []

    def record(h, cfg):
        seen.append(h)
        return SolveReport(0.0, (), (), (), 0.0, 0, 0, True, True)

    with monkeypatch.context() as m:
        m.setattr(hyperlag.solver, "_solve", record)
        solve(g)
    return seen[0]


class TestCoreReduction:
    @pytest.mark.parametrize("t", [5, 6])
    def test_core_solve_is_the_uncut_solve_padded(self, t):
        claims = ["conjecture-2.2", "theorem-5.1", "conjecture-2.1"]
        for g in (g for claim in claims for g in claim_graphs(claim, t)):
            k = core_order(g)
            rep = solve(g, HARNESS_SOLVER)
            uncut = hyperlag.solver._solve(g, HARNESS_SOLVER)
            assert rep.value == pytest.approx(uncut.value, abs=1e-12)
            assert not any(rep.weighting[k:])
            assert kkt_residual(g, rep.weighting) <= hyperlag.solver.KKT_TOLERANCE
            # the padded report's residual is the core's, up to rounding
            assert abs(kkt_residual(g, rep.weighting) - rep.kkt_residual) <= 1e-15
            assert rep.pairs_covered
            assert rep.pairs_covered == _pairs_covered(g, rep.support)

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_vertices_past_the_core_link_inside_its_last_vertex(self, monkeypatch, r):
        # no edge holds two vertices >= K, so each v > K has its link inside
        # [K-1] and inside K's, and sees no more than K at a padded weighting;
        # `solve` cuts a left-compressed graph at the staircase K
        past = 0
        for g in (g for m in range(1, 11) for g in enumerate_left_compressed(r, m, 9)):
            k = core_order(g)
            assert all(e[-2] < k for e in g.edges)
            assert solved_graph(monkeypatch, g).n == k
            for v in range(k + 1, g.n + 1):
                members = link(g, [v])
                assert members <= link(g, [k])
                past += bool(members)
        assert past > 0

    def test_one_start_batch_per_distinct_core(self, monkeypatch):
        graphs = claim_graphs("conjecture-2.2", 6)
        cores = {tuple(e for e in g.edges if e[-1] <= core_order(g)) for g in graphs}
        # complete cores and cones take their closed forms, with no start batch;
        # a core's last edge holds its largest vertex K
        searched = [
            c for c in cores
            if len(c) < math.comb(c[-1][-1], 3) and not set(c[0]).intersection(*c[1:])
        ]
        solve.cache_clear()
        starts = counting(monkeypatch, "_starts")
        try:
            run_claim("conjecture-2.2", t=6)
        finally:
            solve.cache_clear()
        assert len(starts) == len(searched) < len(cores) < len(graphs)

    def test_a_graph_that_is_not_left_compressed_is_cut_too(self):
        # 125 has its copy 123 through K = 3, so 5 moves its weight onto 3
        g = hypergraph(3, [(1, 2, 3), (1, 2, 5)], n=5)
        assert not is_left_compressed(g)
        rep = solve(g)
        assert rep.weighting == rep.raw_weighting == (1 / 3,) * 3 + (0.0, 0.0)
        assert rep.support == (1, 2, 3)
        assert rep.converged and rep.pairs_covered

    def test_a_vertex_past_k_outside_its_link_keeps_the_whole_graph(self, monkeypatch):
        # K = 4, and 235's (2, 3) is not in K's link {(1, 2)}
        g = hypergraph(3, [(1, 2, 3), (1, 2, 4), (2, 3, 5)], n=5)
        assert solved_graph(monkeypatch, g) is g

    def test_the_polish_gate_is_the_only_compression_check(self, monkeypatch):
        solve.cache_clear()
        checks = counting(monkeypatch, "is_left_compressed")
        runs = counting(monkeypatch, "_multistart")
        try:
            run_claim("theorem-4.1", t=6)
        finally:
            solve.cache_clear()
        assert len(checks) == len(runs) > 0


class TestKKT:
    def test_complete_graph_uniform(self):
        assert kkt_residual(TRIANGLE, [1 / 3] * 3) == pytest.approx(0.0, abs=1e-15)

    def test_single_edge_optimum(self):
        g = hypergraph(2, [(1, 2)])
        assert kkt_residual(g, [0.5, 0.5]) == 0.0

    def test_single_edge_skewed(self):
        g = hypergraph(2, [(1, 2)])
        assert kkt_residual(g, [0.9, 0.1]) == pytest.approx(0.72, abs=1e-15)

    def test_any_size_from_the_edge_list(self):
        # 2000^3 link-matrix entries, past MAX_LINK_ENTRIES; the edge list is one edge
        g = hypergraph(3, [(1, 2, 3)], n=2000)
        assert kkt_residual(g, [1 / 3] * 3 + [0.0] * 1997) <= 1e-15

    def test_off_support_violation_counts(self):
        # (0.5, 0.5, 0) on the triangle: supported links match, but the
        # unsupported vertex sees 1.0 against a target of 0.5.
        res = kkt_residual(TRIANGLE, [0.5, 0.5, 0.0])
        assert res == pytest.approx(0.5, abs=1e-15)


class TestFaceNewton:
    # K4^3 plus six edges through vertex 1: the optimum is the clique's 1/16,
    # and vertices 5 and 6 (twins) see link value 3/16, tying 3 * 1/16
    DENSE = hypergraph(3, [
        (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4), (1, 2, 5),
        (1, 3, 5), (1, 4, 5), (1, 2, 6), (1, 3, 6), (1, 4, 6),
    ])

    @pytest.fixture(autouse=True)
    def empty_memo(self):
        solve.cache_clear()
        yield
        solve.cache_clear()

    def growth_steps(self, monkeypatch):
        """Wrap `_ascend`; returns a list that collects each call's step total."""
        ascend = hyperlag.solver._ascend
        steps = []

        def counted(*args):
            out = ascend(*args)
            steps.append(int(out[3].sum()))
            return out

        monkeypatch.setattr(hyperlag.solver, "_ascend", counted)
        return steps

    def test_no_row_runs_to_the_cap(self, monkeypatch):
        steps = self.growth_steps(monkeypatch)
        rep = solve(self.DENSE, HARNESS_SOLVER)
        assert rep.value == 0.0625
        assert rep.support == (1, 2, 3, 4)
        assert rep.kkt_residual <= hyperlag.solver.KKT_TOLERANCE
        assert rep.converged
        # with growth steps only, 9 of the 16 rows run to the 50,000-step cap,
        # over 600,000 steps in all
        assert sum(steps) < 10_000

    def test_rejected_rows_fall_back_to_growth(self, monkeypatch):
        monkeypatch.setattr(
            hyperlag.solver, "_face_newton", lambda L, r, X: (X, np.zeros(len(X), dtype=bool))
        )
        monkeypatch.setattr(hyperlag.solver, "MAX_GROWTH_STEPS", 1000)
        steps = self.growth_steps(monkeypatch)
        rep = solve(self.DENSE, HARNESS_SOLVER)
        # the tail rows run on to the step cap after the support cut, 14,409
        # steps in all; the K4 clique start still wins
        assert sum(steps) > 10 * hyperlag.solver.MAX_GROWTH_STEPS
        assert rep.value == 0.0625

    def test_one_growth_pass_after_newton(self, monkeypatch):
        # the first round (Newton finishes every row still moving after it,
        # so no second round runs), the one pass after the support cut and
        # the polish
        assert is_left_compressed(self.DENSE)
        ascents = counting(monkeypatch, "_ascend")
        solve(self.DENSE, HARNESS_SOLVER)
        assert len(ascents) == 3

    def test_off_face_check_rejects_a_triangle(self):
        # on face {1, 2, 5} the KKT point is the start itself, but vertex 3
        # sees x1 x2 + x1 x5 = 2/9, above 3 * 1/27
        L = hyperlag.solver._link_matrix(self.DENSE)
        x = np.array([[1, 1, 0, 0, 1, 0]]) / 3
        y, accepted = hyperlag.solver._face_newton(L, 3, x)
        assert accepted.tolist() == [False]
        assert np.array_equal(y, x)

    def test_uniform_row_reaches_the_clique_through_face_drops(self):
        L = hyperlag.solver._link_matrix(self.DENSE)
        uniform = np.full((1, 6), 1 / 6)
        x = hyperlag.solver._ascend(L, 3, uniform, hyperlag.solver.GROWTH_STEPS)[0][0]
        # all six weights are on the starting face; the twins make it singular
        assert x.min() > hyperlag.solver.FACE_RATIO * x.max()
        y, accepted = hyperlag.solver._face_newton(L, 3, x[None, :])
        assert accepted.tolist() == [True]
        assert np.flatnonzero(y[0]).tolist() == [0, 1, 2, 3]
        assert np.allclose(y[0], [0.25] * 4 + [0.0] * 2, rtol=0, atol=1e-15)

    def stuck_rows(self, g):
        """The rows of `g`'s harness start batch still moving after the growth steps."""
        L = hyperlag.solver._link_matrix(g)
        X0 = hyperlag.solver._starts(g, HARNESS_SOLVER)
        X1, _, _, its = hyperlag.solver._ascend(L, g.r, X0, hyperlag.solver.GROWTH_STEPS)
        return X1[its == hyperlag.solver.GROWTH_STEPS]

    def test_stacked_rows_match_their_one_row_solves(self):
        # the slow graph's rows, padded with a zero weight at vertex 6, keep
        # their faces in DENSE, whose edges at 6 they do not see
        L = hyperlag.solver._link_matrix(self.DENSE)
        uniform = hyperlag.solver._ascend(
            L, 3, np.full((1, 6), 1 / 6), hyperlag.solver.GROWTH_STEPS
        )[0]
        slow = self.stuck_rows(SLOW)
        X = np.vstack([
            np.array([[1, 1, 0, 0, 1, 0]]) / 3,
            uniform,
            np.hstack([slow, np.zeros((len(slow), 1))]),
        ])
        Y, accepted = hyperlag.solver._face_newton(L, 3, X)
        assert accepted[:2].tolist() == [False, True]
        for x, y, ok in zip(X, Y, accepted):
            y1, ok1 = hyperlag.solver._face_newton(L, 3, x[None, :])
            assert ok == ok1[0]
            assert np.allclose(y, y1[0], rtol=0, atol=1e-15)

    def test_a_singular_system_does_not_fail_the_stack(self, monkeypatch):
        # a star, whose leaves are twins: the uniform row's system is exactly
        # singular, while the row on the edge {1, 2} is already a KKT point
        g = hypergraph(2, [(1, 2), (1, 3)])
        L = hyperlag.solver._link_matrix(g)
        X = np.array([[1 / 3] * 3, [0.5, 0.5, 0.0]])
        solve_rows, singular = hyperlag.solver._solve_rows, []

        def recorded(K, b):
            x, sing = solve_rows(K, b)
            singular.append((len(K), sing))
            return x, sing

        monkeypatch.setattr(hyperlag.solver, "_solve_rows", recorded)
        Y, accepted = hyperlag.solver._face_newton(L, 2, X)
        assert singular[0] == (2, [0])
        assert accepted.tolist() == [False, True]
        assert np.array_equal(Y, X)

    def test_one_newton_call_for_every_stuck_row(self, monkeypatch):
        assert len(self.stuck_rows(SLOW)) >= 11
        calls = counting(monkeypatch, "_face_newton")
        rep = solve(SLOW, HARNESS_SOLVER)
        assert rep.value == 0.0625
        # one call on the stuck rows, and at most one on the winner
        assert len(calls) <= 2
        assert len(calls[0][2]) == len(self.stuck_rows(SLOW))

    def test_a_weight_newton_keeps_halving_leaves_the_face(self, monkeypatch):
        # vertex 5 ties 3 * 1/16 at the optimum, so each face system holding
        # it is singular where its weight is 0, and Newton only halves that
        # weight: waiting for the residual took 27 stacked solves
        L = hyperlag.solver._link_matrix(SLOW)
        X0 = hyperlag.solver._starts(SLOW, HARNESS_SOLVER)
        steps = hyperlag.solver.FIRST_ROUND_STEPS
        X1, _, _, its = hyperlag.solver._ascend(L, 3, X0, steps)
        stuck = X1[its == steps]
        assert len(stuck) == 12
        calls = counting(monkeypatch, "_solve_rows")
        Y, accepted = hyperlag.solver._face_newton(L, 3, stuck)
        assert len(calls) <= 10
        assert accepted.all()
        assert np.abs(Y - [0.25, 0.25, 0.25, 0.25, 0.0]).max() <= 1e-15

    def test_a_weight_halved_twice_on_its_way_to_the_optimum_stays(self):
        # a conjecture-2.2 core at t=7, whose optimum puts 0.0018 on each of
        # the twins 6 and 7; Newton can halve those weights on the way there,
        # and a rule that dropped a weight halved once would end on (1..5)
        # at 0.07328497889525842
        edges = (
            "123 124 134 234 125 135 235 145 245 126 136 236 146"
            " 156 127 137 237 147 157 167 128 138 148 158 168 178"
        )
        g = hypergraph(3, [tuple(map(int, e)) for e in edges.split()])
        rep = solve(g, HARNESS_SOLVER)
        assert rep.value == 0.07328498496379258
        assert rep.support == (1, 2, 3, 4, 5, 6, 7)
        assert [round(w, 4) for w in rep.weighting[5:7]] == [0.0018, 0.0018]

    def test_a_row_newton_halves_twice_is_still_accepted(self):
        # a row still moving after FIRST_ROUND_STEPS in a solve of this graph
        # under SolverConfig(seed=12). Newton halves vertex 7's weight twice
        # early on; a rule that dropped it then would restart the row on a
        # face without 7 and reject it there
        edges = (
            "124 125 126 127 134 138 145 148 156 157 178 234 236 238 245"
            " 248 258 267 278 346 348 367 368 378 456 458 467 478 578 678"
        )
        g = hypergraph(3, [tuple(map(int, e)) for e in edges.split()])
        row = [
            0.14330637949550717, 0.20169973100868896, 0.0006775213150312082,
            0.24044816055167284, 0.20116421372034138, 1.1337863855895227e-05,
            0.03606088785476681, 0.17663176819013576,
        ]
        L = hyperlag.solver._link_matrix(g)
        Y, accepted = hyperlag.solver._face_newton(L, 3, np.array([row]))
        assert accepted.all()
        assert np.flatnonzero(Y[0]).tolist() == [0, 1, 2, 3, 7]
        assert abs(evaluate(g, Y[0]) - 0.0672759937243498) <= 1e-15

    def test_newton_stacks_fit_the_entry_limit(self, monkeypatch):
        # the slow graph's start batch needs 16 * 5^2 = 400 entries, and its
        # 12 stuck rows would stack 12 * 6^2 = 432 entries of Newton systems
        assert len(self.stuck_rows(SLOW)) == 12
        full = solve(SLOW, HARNESS_SOLVER)
        solve.cache_clear()
        monkeypatch.setattr(hyperlag.solver, "MAX_LINK_ENTRIES", 400)
        solve_rows, sizes = hyperlag.solver._solve_rows, []

        def recorded(K, b):
            sizes.append(K.size)
            return solve_rows(K, b)

        monkeypatch.setattr(hyperlag.solver, "_solve_rows", recorded)
        rep = solve(SLOW, HARNESS_SOLVER)
        assert 0 < max(sizes) <= 400
        assert (rep.value, rep.converged) == (full.value, full.converged)

    def test_r4_solve_whose_every_row_newton_finishes(self):
        # K5^4 plus four edges through 1 and 6: vertex 6 sees 4/125, tying
        # 4 * 1/125, so the one row is still moving after the first round
        edges = list(combinations(range(1, 6), 4))
        edges += [(1, 2, 3, 6), (1, 2, 4, 6), (1, 3, 4, 6), (1, 2, 5, 6)]
        rep = solve(hypergraph(4, edges), SolverConfig(restarts=1))
        assert rep.iterations == hyperlag.solver.FIRST_ROUND_STEPS
        assert rep.value == pytest.approx(1 / 125, abs=1e-15)
        assert rep.support == (1, 2, 3, 4, 5)
        assert rep.converged

    def test_a_weight_low_after_the_first_round_is_not_cut(self, monkeypatch):
        # at step 30 a weight of the optimum is 4.5e-10, under the support
        # threshold: cut then, its row would take over 10,000 more steps
        edges = (
            "1356 1456 2347 3467 1238 1248 2458 1268 1368 2468 3468"
            " 2349 1259 1369 2369 3469 2479 4679 1289 1489 1689 3789"
        )
        g = hypergraph(4, [tuple(map(int, e)) for e in edges.split()], n=9)
        steps = self.growth_steps(monkeypatch)
        rep = solve(g, SolverConfig(seed=3))
        assert sum(steps) < 3_000
        assert abs(rep.value - 0.005965300615971135) <= 1e-15
        assert rep.converged

    def test_an_exact_kkt_point_beats_an_ulp_of_overshoot(self):
        # Newton points can sit an ulp above the exact clique optimum; the
        # earliest KKT point within 1e-15 of the best wins
        rep = solve(self.DENSE, HARNESS_SOLVER)
        assert rep.value == 0.0625
        assert rep.raw_weighting == (0.25, 0.25, 0.25, 0.25, 0.0, 0.0)

    def test_theorem_4_3_edge_case_converges_and_passes(self):
        # the graph of `verify theorem-4.3 --t 12 --m 340` whose value sits
        # 1.2e-15 below the reference, so its pass rests on `converged`
        spec = CLAIMS["theorem-4.3"]
        (g,) = (
            g for g in _left_compressed_instances(spec, 12, 4, 340)
            if _edge_hash(format_hypergraph(g)) == "6edecbd35264"
        )
        rep = solve(g, HARNESS_SOLVER)
        assert rep.converged
        assert rep.kkt_residual <= hyperlag.solver.KKT_TOLERANCE
        ref = complete_lagrangian(11, 4)
        assert _verdict_eq(rep.value, ref, rep.converged) == "pass"


class TestSolve:
    def test_complete_2_graph(self):
        assert solve(complete_graph(4, 2)).value == pytest.approx(0.375, abs=1e-9)

    def test_complete_3_graph(self):
        assert solve(complete_graph(5, 3)).value == pytest.approx(0.08, abs=1e-9)

    def test_edgeless(self):
        rep = solve(hypergraph(2, [], n=4))
        assert rep.value == 0.0
        assert rep.converged

    def test_edgeless_past_entry_limit_refused(self):
        # 200^3 = 8e6 link entries: refused before two 200-entry weightings
        with pytest.raises(ResourceLimitError, match="MAX_LINK_ENTRIES"):
            solve(hypergraph(3, [], n=200))

    def test_report_consistency(self):
        g = colex_graph(3, 9)  # K5^3 minus 345, neither complete nor a cone
        rep = solve(g)
        assert rep.value == pytest.approx(evaluate(g, rep.weighting), abs=1e-12)
        assert rep.converged
        assert rep.kkt_residual <= hyperlag.solver.KKT_TOLERANCE
        assert all(rep.weighting[i - 1] > 1e-9 for i in rep.support)
        assert rep.pairs_covered
        assert rep.restarts_used == SolverConfig().restarts

    def test_deterministic(self):
        g = colex_graph(3, 13)
        first = solve(g)
        solve.cache_clear()
        again = solve(g)
        assert again is not first
        assert again == first

    def test_seed_changes_raw_trials_not_value(self):
        g = colex_graph(3, 5)
        a = solve(g, SolverConfig(seed=0))
        b = solve(g, SolverConfig(seed=99))
        assert a.value == pytest.approx(b.value, abs=1e-9)

    def test_clique_lower_bound(self):
        g = hypergraph(3, list(complete_graph(4, 3).edges) + [(1, 2, 5), (1, 2, 6)], n=6)
        rep = solve(g)
        assert rep.value >= complete_lagrangian(4, 3) - 1e-9

    def test_sorted_output_for_left_compressed(self):
        rep = solve(colex_graph(3, 11))
        w = rep.weighting
        assert all(w[i] >= w[i + 1] - 1e-7 for i in range(len(w) - 1))


class TestSortedPolish:
    def test_sorts_and_keeps_value(self):
        g = colex_graph(3, 11)
        rep = solve(g)
        shuffled = list(rep.weighting)[::-1]
        L = hyperlag.solver._link_matrix(g)
        out = sorted_polish(L, g.r, shuffled)
        assert all(out[i] >= out[i + 1] - 1e-9 for i in range(len(out) - 1))
        assert evaluate(g, out) >= rep.value - 1e-9
        for bad in (shuffled[:-1] + [shuffled[-1] + 0.5], [math.nan] * g.n):
            with pytest.raises(ValueError, match="weights sum to"):
                sorted_polish(L, g.r, bad)

    def test_a_solve_builds_its_link_matrix_once(self, monkeypatch):
        # the polish takes the matrix the trials ran on
        g = colex_graph(3, 9)
        solve.cache_clear()
        built = counting(monkeypatch, "_link_matrix")
        polished = counting(monkeypatch, "sorted_polish")
        try:
            solve(g)
        finally:
            solve.cache_clear()
        assert len(built) == len(polished) == 1
        # at r = 3 each vertex is a row of the shadow block
        assert polished[0][0][1].shape == (g.n, g.n ** 2)

    def test_one_round_keeps_order_and_value(self, monkeypatch):
        # a growth step keeps sorted weights sorted on a left-compressed graph
        # and never lowers the value, so the property holds at any step cap;
        # the cap stops the starts that crawl toward a degenerate face (some
        # take the full 50,000 steps)
        monkeypatch.setattr(hyperlag.solver, "MAX_GROWTH_STEPS", 1000)
        rng = np.random.default_rng(0)
        for r in (2, 3, 4):
            for m in range(1, 11):
                for g in enumerate_left_compressed(r, m, 9):
                    L = hyperlag.solver._link_matrix(g)
                    for x in rng.dirichlet(np.ones(g.n), size=3):
                        out = sorted_polish(L, g.r, x)
                        assert np.all(out[:-1] >= out[1:] - 1e-12)
                        start = np.sort(x)[::-1]
                        assert evaluate(g, out) >= evaluate(g, start) - 1e-15


class TestClosedForms:
    def test_complete_lagrangian_values(self):
        assert complete_lagrangian(3, 2) == pytest.approx(1 / 3, abs=1e-16)
        assert complete_lagrangian(5, 4) == pytest.approx(0.008, abs=1e-16)
        assert complete_lagrangian(4, 3) == pytest.approx(0.0625, abs=1e-16)

    def test_agrees_with_2_graph_closed_form(self):
        for t in range(2, 12):
            assert complete_lagrangian_exact(t, 2) == Fraction(t - 1, 2 * t)

    def test_4_graph_cubic_identity(self):
        # C(t-1, 4) / (t-1)^4 == (t-2)(t-3)(t-4) / (24 (t-1)^3) as rationals
        for t in range(5, 12):
            assert complete_lagrangian_exact(t - 1, 4) == Fraction(
                (t - 2) * (t - 3) * (t - 4), 24 * (t - 1) ** 3
            )

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            complete_lagrangian(2, 3)

    @pytest.fixture
    def starts(self, monkeypatch):
        """Empty the memo and record `_starts` calls."""
        solve.cache_clear()
        yield counting(monkeypatch, "_starts")
        solve.cache_clear()

    def test_complete_graph_takes_the_uniform_weighting(self, starts):
        for r in range(2, 6):
            for t in range(r, 9):
                rep = solve(complete_graph(t, r))
                assert rep.weighting == rep.raw_weighting == (1 / t,) * t
                assert abs(rep.value - complete_lagrangian(t, r)) <= 1e-16
                assert rep.converged
                assert (rep.iterations, rep.restarts_used) == (0, 1)
        assert starts == []

    def test_3_cone_is_motzkin_straus_on_its_link(self, starts):
        # lambda = (1/3)(2/3)^2 (1/2)(1 - 1/omega), at apex weight 1/3
        for g, apex, link_graph in random_cones(300, seed=27):
            rep = solve(g)
            omega = max_clique_order(link_graph)
            assert abs(rep.value - 2 / 27 * (1 - 1 / omega)) <= 1e-16
            assert rep.weighting[apex - 1] == 1 / 3
            assert rep.converged
        assert starts == []

    def test_4_cone_reports_its_links_multistart(self, starts):
        link_graph = colex_graph(3, 9)  # K5^3 minus 345: neither complete nor a cone
        g = cone(3, link_graph)
        rep, link_rep = solve(g), solve(link_graph)
        assert [h for h, _ in starts] == [link_graph]
        assert link_rep.restarts_used == SolverConfig().restarts
        assert (rep.iterations, rep.restarts_used) == (link_rep.iterations, link_rep.restarts_used)
        assert abs(rep.value - 27 / 256 * link_rep.value) <= 1e-16
        assert rep.weighting[2] == 0.25
        assert rep.converged

    def test_2_graph_star_takes_the_ascent(self, starts):
        # past 20 vertices a 2-graph star takes trials, not a 1-uniform link
        g = hypergraph(2, [(v, 21) for v in range(1, 31) if v != 21], n=30)
        rep = solve(g)
        assert len(starts) == 1
        assert abs(rep.value - 0.25) <= 1e-12
        assert rep.converged

    def test_the_ascent_reaches_the_closed_forms(self):
        graphs = [
            (complete_graph(t, r), complete_lagrangian(t, r))
            for r in range(3, 6) for t in range(r, 8)
        ]
        graphs += [
            (g, 2 / 27 * (1 - 1 / max_clique_order(link_graph)))
            for g, _, link_graph in random_cones(100, seed=28)
        ]
        for g, value in graphs:
            L = hyperlag.solver._link_matrix(g)
            rep = hyperlag.solver._multistart(g, L, SolverConfig())
            assert abs(rep.value - value) <= 1e-12
            assert rep.converged


def cone(apex, link_graph):
    """The (r+1)-graph whose edges are the link's edges plus `apex`, the
    link's labels from `apex` up shifted up by one."""
    edges = [
        tuple(sorted((apex, *(u + (u >= apex) for u in e)))) for e in link_graph.edges
    ]
    return hypergraph(link_graph.r + 1, edges, n=link_graph.n + 1)


def random_cones(count, seed):
    """(cone, apex, link) for random 3-cones: a 2-graph link with an edge on
    2 to 11 vertices, with its apex at a random label. The apex returned is
    the smallest vertex in every edge, which a star link adds to."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        k, density = int(rng.integers(2, 12)), rng.random()
        pairs = [p for p in combinations(range(1, k + 1), 2) if rng.random() < density]
        if pairs:
            link_graph = hypergraph(2, pairs, n=k)
            g = cone(int(rng.integers(1, k + 2)), link_graph)
            out.append((g, min(set(g.edges[0]).intersection(*g.edges)), link_graph))
    return out


class TestMotzkinStraus:
    def test_triangle(self):
        assert motzkin_straus_value(TRIANGLE) == pytest.approx(1 / 3, abs=1e-15)

    def test_path(self):
        g = hypergraph(2, [(1, 2), (2, 3)])
        assert motzkin_straus_value(g) == pytest.approx(0.25, abs=1e-15)

    def test_k6_minus_perfect_matching(self):
        matching = {(1, 2), (3, 4), (5, 6)}
        edges = [e for e in complete_graph(6, 2).edges if e not in matching]
        g = hypergraph(2, edges, n=6)
        assert motzkin_straus_value(g) == pytest.approx(1 / 3, abs=1e-15)

    def test_rejects_hypergraphs(self):
        with pytest.raises(ValueError):
            motzkin_straus_value(complete_graph(4, 3))

    def test_solver_matches_closed_form(self):
        for m in (3, 5, 8, 12):
            g = colex_graph(2, m)
            assert solve(g).value == pytest.approx(
                motzkin_straus_value(g), abs=1e-7
            )


class TestTwoGraphClosedForm:
    def test_the_ascent_reaches_the_closed_form(self):
        # the growth-and-Newton path, which 2-graphs past 20 vertices take
        checked = 0
        for g in (g for g in criterion_1_corpus() if g.m):
            L = hyperlag.solver._link_matrix(g)
            rep = hyperlag.solver._multistart(g, L, SolverConfig())
            assert abs(rep.value - motzkin_straus_value(g)) <= 1e-7
            assert rep.converged
            checked += 1
        assert checked > 180

    def test_report_is_uniform_on_a_maximum_clique(self):
        compressed = 0
        for g in (g for g in criterion_1_corpus() if g.m):
            for h in (g, left_compress(g)):
                rep = solve(h)
                clique = _max_clique_witness(h)
                assert len(clique) == max_clique_order(h)
                if is_left_compressed(h):
                    assert clique == tuple(range(1, len(clique) + 1))
                    compressed += 1
                uniform = tuple(1 / len(clique) if v in clique else 0.0 for v in range(1, h.n + 1))
                assert rep.weighting == rep.raw_weighting == uniform
                assert abs(rep.value - motzkin_straus_value(h)) <= 1e-15
                assert rep.kkt_residual <= 1e-15
                assert (rep.iterations, rep.restarts_used) == (0, 1)
                assert rep.converged and rep.pairs_covered
                assert solve(h, SolverConfig(restarts=3, seed=9)) == rep
        assert compressed > 200

    def test_a_core_report_is_padded(self):
        g = hypergraph(2, [(1, 2), (1, 3), (2, 3), (1, 4), (1, 5)], n=7)
        assert is_left_compressed(g) and core_order(g) == 3
        rep = solve(g)
        core = hyperlag.solver._solve(hypergraph(2, g.edges[:3], n=3), SolverConfig())
        padded = (1 / 3,) * 3 + (0.0,) * 4
        assert rep == replace(core, weighting=padded, raw_weighting=padded)
        assert rep.support == (1, 2, 3)

    def test_no_trial_runs(self, monkeypatch):
        graphs = [
            complete_graph(20, 2),  # K = n
            colex_graph(2, 5),  # solved on its core [3]
            hypergraph(2, [(1, 2), (2, 3), (3, 4)]),  # not left-compressed, K = n
        ]
        solve.cache_clear()
        starts, ascents = counting(monkeypatch, "_starts"), counting(monkeypatch, "_ascend")
        try:
            for g in graphs:
                assert abs(solve(g).value - motzkin_straus_value(g)) <= 1e-15
        finally:
            solve.cache_clear()
        assert starts == ascents == []
