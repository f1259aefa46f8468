from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from hyperlag import (
    CLAIMS,
    ResourceLimitError,
    SolverConfig,
    colex_graph,
    complete_graph,
    complete_lagrangian,
    complete_lagrangian_exact,
    enumerate_left_compressed,
    evaluate,
    evaluate_exact,
    hypergraph,
    is_left_compressed,
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
from hyperlag.harness import (
    HARNESS_SOLVER,
    _edge_hash,
    _left_compressed_instances,
    _verdict_eq,
)
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

    def test_any_other_setting_or_vertex_count_misses(self):
        g = colex_graph(3, 10)
        base = solve(g, self.CFG)
        others = [
            solve(g, replace(self.CFG, seed=1)),
            solve(g, replace(self.CFG, restarts=5)),
            solve(hypergraph(3, g.edges, n=g.n + 1), self.CFG),
        ]
        assert all(rep is not base for rep in others)
        info = solve.cache_info()
        assert (info.hits, info.misses) == (0, 4)

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
        monkeypatch.setattr(hyperlag.solver, "_face_newton", lambda L, r, x: None)
        monkeypatch.setattr(hyperlag.solver, "MAX_GROWTH_STEPS", 1000)
        steps = self.growth_steps(monkeypatch)
        rep = solve(self.DENSE, HARNESS_SOLVER)
        # the tail rows run on to the step cap after the support cut, 10,815
        # steps in all; the K4 clique start still wins
        assert sum(steps) > 10 * hyperlag.solver.MAX_GROWTH_STEPS
        assert rep.value == 0.0625

    def test_one_growth_pass_after_newton(self, monkeypatch):
        # the first ascent, the one pass after the support cut and the polish
        assert is_left_compressed(self.DENSE)
        ascents = counting(monkeypatch, "_ascend")
        solve(self.DENSE, HARNESS_SOLVER)
        assert len(ascents) == 3

    def test_off_face_check_rejects_a_triangle(self):
        # on face {1, 2, 5} the KKT point is the start itself, but vertex 3
        # sees x1 x2 + x1 x5 = 2/9, above 3 * 1/27
        L = hyperlag.solver._link_matrix(self.DENSE)
        x = np.array([1, 1, 0, 0, 1, 0]) / 3
        assert hyperlag.solver._face_newton(L, 3, x) is None

    def test_uniform_row_reaches_the_clique_through_face_drops(self):
        L = hyperlag.solver._link_matrix(self.DENSE)
        uniform = np.full((1, 6), 1 / 6)
        x = hyperlag.solver._ascend(L, 3, uniform, hyperlag.solver.GROWTH_STEPS)[0][0]
        # all six weights are on the starting face; the twins make it singular
        assert x.min() > hyperlag.solver.FACE_RATIO * x.max()
        y = hyperlag.solver._face_newton(L, 3, x)
        assert np.flatnonzero(y).tolist() == [0, 1, 2, 3]
        assert np.allclose(y, [0.25] * 4 + [0.0] * 2, rtol=0, atol=1e-15)

    def test_r4_solve_whose_every_row_newton_finishes(self):
        # K5^4 plus four edges through 1 and 6: vertex 6 sees 4/125, tying
        # 4 * 1/125, so the one row is still moving after the growth steps
        edges = list(combinations(range(1, 6), 4))
        edges += [(1, 2, 3, 6), (1, 2, 4, 6), (1, 3, 4, 6), (1, 2, 5, 6)]
        rep = solve(hypergraph(4, edges), SolverConfig(restarts=1))
        assert rep.iterations == hyperlag.solver.GROWTH_STEPS
        assert rep.value == pytest.approx(1 / 125, abs=1e-15)
        assert rep.support == (1, 2, 3, 4, 5)
        assert rep.converged

    def test_theorem_4_3_edge_case_converges_and_passes(self):
        # the graph of `verify theorem-4.3 --t 12 --m 340` whose value sits
        # 1.2e-15 below the reference, so its pass rests on `converged`
        spec = CLAIMS["theorem-4.3"]
        (g,) = (
            g for g in _left_compressed_instances(spec, 12, 4, 340)
            if _edge_hash(g) == "6edecbd35264"
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
        g = colex_graph(3, 12)
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
                    for x in rng.dirichlet(np.ones(g.n), size=3):
                        out = sorted_polish(g, x)
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
