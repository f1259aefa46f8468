from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from hyperlag import (
    ResourceLimitError,
    SolverConfig,
    colex_graph,
    complete_graph,
    complete_lagrangian,
    complete_lagrangian_exact,
    evaluate,
    evaluate_exact,
    hypergraph,
    kkt_residual,
    link,
    link_value,
    motzkin_straus_value,
    report_to_csv,
    report_to_json,
    run_claim,
    solve,
    sorted_polish,
)
import hyperlag.solver
from ascent import ascent_step

TRIANGLE = complete_graph(3, 2)


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


class TestLinkValue:
    def test_vertex_link(self):
        view = link(TRIANGLE, {1})
        assert link_value(TRIANGLE, view, [1 / 3] * 3) == pytest.approx(2 / 3)

    def test_pair_link(self):
        g = hypergraph(3, [(1, 2, 3)])
        view = link(g, {1, 2})
        assert link_value(g, view, [1 / 3] * 3) == pytest.approx(1 / 3)

    def test_edgeless(self):
        g = hypergraph(2, [], n=3)
        assert link_value(g, link(g, {1}), [1 / 3] * 3) == 0.0

    def test_rejects_vertex_outside_graph(self):
        # a set naming vertex 0 must not wrap around to the last weight
        with pytest.raises(IndexError):
            link_value(TRIANGLE, {(0,)}, [0.5, 0.25, 0.25])
        with pytest.raises(IndexError):
            link_value(TRIANGLE, {(4,)}, [0.5, 0.25, 0.25])

    def test_pair_link_of_2_graph_counts_membership(self):
        # degree-zero monomials: the empty product counts the edge itself
        view = link(TRIANGLE, {1, 2})
        assert link_value(TRIANGLE, view, [1 / 3] * 3) == 1.0


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


class TestSolveMemo:
    CFG = SolverConfig(restarts=4, max_iterations=200)

    @pytest.fixture(autouse=True)
    def empty_memo(self):
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

    def test_any_other_setting_or_vertex_count_misses(self):
        g = colex_graph(3, 10)
        base = solve(g, self.CFG)
        others = [
            solve(g, replace(self.CFG, seed=1)),
            solve(g, replace(self.CFG, restarts=5)),
            solve(g, replace(self.CFG, max_iterations=201)),
            solve(hypergraph(3, g.edges, n=g.n + 1), self.CFG),
        ]
        assert all(rep is not base for rep in others)
        info = solve.cache_info()
        assert (info.hits, info.misses) == (0, 5)

    def test_errors_are_not_memoized(self):
        n = round(hyperlag.solver.MAX_LINK_ENTRIES ** (1 / 3)) + 1
        g = hypergraph(3, [(1, 2, 3)], n=n)
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


class TestKKT:
    def test_complete_graph_uniform(self):
        assert kkt_residual(TRIANGLE, [1 / 3] * 3) == pytest.approx(0.0, abs=1e-15)

    def test_single_edge_optimum(self):
        g = hypergraph(2, [(1, 2)])
        assert kkt_residual(g, [0.5, 0.5]) == 0.0

    def test_single_edge_skewed(self):
        g = hypergraph(2, [(1, 2)])
        assert kkt_residual(g, [0.9, 0.1]) == pytest.approx(0.72, abs=1e-15)

    def test_off_support_violation_counts(self):
        # (0.5, 0.5, 0) on the triangle: supported links match, but the
        # unsupported vertex sees 1.0 against a target of 0.5.
        res = kkt_residual(TRIANGLE, [0.5, 0.5, 0.0])
        assert res == pytest.approx(0.5, abs=1e-15)


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
        g = colex_graph(3, 12)
        rep = solve(g)
        assert rep.value == pytest.approx(evaluate(g, rep.weighting), abs=1e-12)
        assert rep.converged
        assert rep.kkt_residual <= 1e-8
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
        g = colex_graph(2, 5)
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
        out = sorted_polish(g, shuffled)
        assert all(out[i] >= out[i + 1] - 1e-9 for i in range(len(out) - 1))
        assert evaluate(g, out) >= rep.value - 1e-9


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
