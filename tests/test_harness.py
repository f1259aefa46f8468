import json
import sys
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path
from types import SimpleNamespace

import pytest

from hyperlag import (
    CLAIMS,
    ResourceLimitError,
    SolverConfig,
    colex_graph,
    colex_rank,
    complete_graph,
    complete_lagrangian,
    complete_lagrangian_exact,
    enumerate_left_compressed,
    evaluate_exact,
    format_hypergraph,
    hypergraph,
    is_left_compressed,
    lc_max_clique_order,
    max_clique_order,
    report_to_csv,
    report_to_json,
    report_to_text,
    run_claim,
    solve,
)
from hyperlag import harness
from hyperlag.colex import colex_sets
from hyperlag.harness import _RELATIONS, _default_m_values, _edge_hash, _sweep

FAST = SolverConfig(restarts=8)


def solved(relation, reference, config=FAST):
    """A measure for `_sweep`: each graph's solved value and its verdict."""
    judge = _RELATIONS[relation]

    def measure(g):
        rep = harness.solve(g, config)
        return rep.value, judge(rep.value, reference, rep.converged)

    return measure


def brute_left_compressed(r, m, n):
    """(colex ranks, graph) for every down-set of m r-sets of [n], ordered by
    the ranks; each graph is built with n inferred, as the enumeration does."""
    pool = list(combinations(range(1, n + 1), r))
    found = [
        (sorted(colex_rank(e) for e in sub), hypergraph(r, sub))
        for sub in combinations(pool, m)
        if is_left_compressed(hypergraph(r, sub, n=n))
    ]
    return sorted(found, key=lambda pair: pair[0])


class TestEnumeration:
    @pytest.mark.parametrize("r,n", [(2, 3), (2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6)])
    def test_sequence_matches_brute_force(self, r, n):
        for m in range(1, min(6, comb(n, r)) + 1):
            brute = brute_left_compressed(r, m, n)
            for seed, forbidden in [(0, ()), (0, (3,)), (m // 2, ()), (1, (m + 1, 4))]:
                if any(f <= seed for f in forbidden):
                    continue
                expected = [
                    g for ranks, g in brute
                    if set(range(1, seed + 1)) <= set(ranks)
                    and not set(forbidden) & set(ranks)
                ]
                mine = list(
                    enumerate_left_compressed(
                        r, m, n, seed_prefix=seed, forbidden_ranks=forbidden
                    )
                )
                assert mine == expected, (r, n, m, seed, forbidden)
                assert [hash(g) for g in mine] == [hash(g) for g in expected]

    def test_unique_minimal_ideals(self):
        assert [g.edges for g in enumerate_left_compressed(3, 1, 4)] == [((1, 2, 3),)]
        assert [g.edges for g in enumerate_left_compressed(3, 2, 4)] == [
            ((1, 2, 3), (1, 2, 4))
        ]

    def test_size_four_on_five_vertices(self):
        graphs = list(enumerate_left_compressed(3, 4, 5))
        assert len(graphs) == 2
        assert len(graphs) == len(brute_left_compressed(3, 4, 5))

    @pytest.mark.parametrize("r", [2, 3])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_counts_match_brute_force(self, r, m):
        mine = sum(1 for _ in enumerate_left_compressed(r, m, 5))
        assert mine == len(brute_left_compressed(r, m, 5))

    def test_yields_are_left_compressed_with_m_edges(self):
        for g in enumerate_left_compressed(3, 6, 8):
            assert g.m == 6
            assert is_left_compressed(g)

    def test_no_duplicates(self):
        seen = [g.edges for g in enumerate_left_compressed(3, 7, 9)]
        assert len(seen) == len(set(seen))

    def test_seed_prefix_contains_clique(self):
        for g in enumerate_left_compressed(3, 12, 14, seed_prefix=10):
            assert set(complete_graph(5, 3).edges) <= g.edge_set

    def test_forbidden_rank_blocks_clique(self):
        for g in enumerate_left_compressed(3, 12, 14, forbidden_ranks={10}):
            assert (3, 4, 5) not in g.edge_set
            assert max_clique_order(g) < 5

    def test_budget_errors(self, monkeypatch):
        # The tables would hold C(103, 4) = 4,421,275 r-sets; nothing is built.
        with pytest.raises(ResourceLimitError, match="MAX_TABLE_SETS = 1000000"):
            next(enumerate_left_compressed(4, 3960, 3963, seed_prefix=3876))
        monkeypatch.setattr(harness, "MAX_GRAPHS", 2)
        with pytest.raises(ResourceLimitError, match="more than MAX_GRAPHS = 2 graphs"):
            list(enumerate_left_compressed(3, 6, 8))

    @pytest.mark.parametrize("m,count", [(18, 1), (15, 3)])
    def test_counts_where_too_few_ranks_remain(self, m, count):
        # near C(6, 3) = 20 edges the walk stops early on ranks too high
        # to leave room for the edges still needed
        assert sum(1 for _ in enumerate_left_compressed(3, m, 6)) == count
        assert len(brute_left_compressed(3, m, 6)) == count

    def test_infeasible_m(self):
        with pytest.raises(ValueError):
            next(enumerate_left_compressed(3, 5, 4))

    def test_lc_clique_shortcut_agrees(self):
        for m in (4, 7, 11):
            for g in enumerate_left_compressed(3, m, m + 2):
                assert lc_max_clique_order(g) == max_clique_order(g)


class TestVerifiers:
    def test_colex_range_3_5(self):
        rep = run_claim("lemma-2.2", t=5, r=3, config=FAST)
        assert rep.verdict == "pass"
        assert rep.instances_checked == 4
        assert rep.parameters["m_min"] == 4 and rep.parameters["m_max"] == 7
        assert all(row.reference == complete_lagrangian(4, 3) for row in rep.rows)

    def test_colex_range_2_4(self):
        rep = run_claim("lemma-2.2", t=4, r=2, config=FAST)
        assert rep.verdict == "pass"
        assert rep.rows[0].reference == pytest.approx(1 / 3, abs=1e-16)

    def test_colex_prefixes_are_sliced_from_one_listing(self, monkeypatch):
        # the package attribute `hyperlag.hypergraph` is the function; the
        # module that `colex_graph` reads `colex_sets` from is in sys.modules
        calls = []

        def counted(n, r):
            calls.append((n, r))
            return colex_sets(n, r)

        for module in (sys.modules["hyperlag.hypergraph"], harness):
            monkeypatch.setattr(module, "colex_sets", counted)
        rep = run_claim("lemma-2.2", t=7, r=3, config=FAST)
        monkeypatch.undo()
        assert len(calls) == 1
        hashes = [_edge_hash(format_hypergraph(colex_graph(3, k))) for k in range(20, 31)]
        assert [row.edge_hash for row in rep.rows] == hashes

    def test_sharpness_3_6_exact(self):
        rep = run_claim("sharpness", t=6, r=3)
        assert rep.verdict == "pass"
        assert rep.rows[0].value == pytest.approx(0.082, abs=1e-15)
        assert rep.rows[0].margin == pytest.approx(0.002, abs=1e-15)

    def test_sharpness_3_7(self):
        rep = run_claim("sharpness", t=7, r=3)
        assert rep.verdict == "pass"
        assert rep.rows[0].margin > 1e-4

    @pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
    def test_sharpness_closed_form_is_the_split_weighting(self, r):
        # the last two of t vertices at half weight, summed edge by edge on
        # the colex prefix one edge past the stable range
        for t in range(r + 2, r + 12):
            g = colex_graph(r, CLAIMS["sharpness"].m_range(t, r)[0])
            weights = [Fraction(1, t - 1)] * (t - 2) + [Fraction(1, 2 * (t - 1))] * 2
            closed = complete_lagrangian_exact(t - 1, r) + Fraction(1, 4 * (t - 1) ** r)
            assert evaluate_exact(g, weights) == closed
            assert run_claim("sharpness", t=t, r=r).rows[0].value == float(closed)

    def test_conjecture_with_clique_3_5_4(self):
        # m = C(4,3) forces the clique itself as the only instance
        rep = run_claim("conjecture-2.1", t=5, r=3, m=4, config=FAST)
        assert rep.verdict == "pass"
        assert rep.instances_checked == 1

    def test_conjecture_with_clique_3_5_5(self):
        rep = run_claim("conjecture-2.1", t=5, r=3, m=5, config=FAST)
        assert rep.verdict == "pass"
        assert all(abs(row.margin) <= 1e-6 for row in rep.rows)

    def test_conjecture_without_clique_3_5_4(self):
        rep = run_claim("conjecture-2.2", t=5, r=3, m=4, config=FAST)
        assert rep.verdict == "pass"
        assert rep.instances_checked == 2
        assert all(row.value < row.reference - 1e-6 for row in rep.rows)

    def test_conjecture_m_out_of_range(self):
        with pytest.raises(ValueError):
            run_claim("conjecture-2.1", t=5, r=3, m=3, config=FAST)

    def test_theorem_3_1_single_m(self):
        rep = run_claim("theorem-3.1", t=6, m=10, config=FAST)
        assert rep.verdict == "pass"
        assert rep.instances_checked == 1
        assert rep.rows[0].value < 0.08 - 1e-6

    def test_theorem_3_1_requires_t6(self):
        with pytest.raises(ValueError):
            run_claim("theorem-3.1", t=5, config=FAST)

    def test_theorem_4_1_small(self):
        rep = run_claim("theorem-4.1", t=5, config=FAST)
        assert rep.verdict == "pass"
        assert rep.parameters["m_values"] == [4, 5]

    def test_theorem_4_2_vacuous_at_desk_scale(self):
        # the range is empty (hi < lo) at r = 4, t = 8: nothing was checked
        rep = run_claim("theorem-4.2", t=8, config=FAST)
        assert rep.verdict == "inconclusive"
        assert rep.instances_checked == 0
        assert rep.scope.startswith("vacuous: no instances in range")

    def test_theorem_4_3_endpoints(self):
        rep = run_claim("theorem-4.3", t=7, config=FAST)
        assert rep.verdict == "pass"
        assert rep.instances_checked >= 1
        assert all(
            row.reference == complete_lagrangian(6, 4) for row in rep.rows
        )

    def test_theorem_4_unknown_variant(self):
        with pytest.raises(ValueError):
            run_claim("theorem-4.9", t=6)

    def test_theorem_5_1_t5(self):
        rep = run_claim("theorem-5.1", t=5, config=FAST)
        assert rep.verdict == "pass"
        assert rep.parameters["m_values"] == [4, 5, 6]

    def test_corollaries_t5(self):
        for variant in ("3.1", "3.2"):
            rep = run_claim(f"corollary-{variant}", t=5, m=6, config=FAST)
            assert rep.verdict == "pass"

    def test_fail_verdict_carries_witness(self):
        # force failures by comparing against an impossible reference
        rep = _sweep(
            "synthetic",
            {"t": 0},
            [[complete_graph(4, 3)]],
            0.0,
            solved("le", 0.0),
            scope="synthetic",
        )
        assert rep.verdict == "fail"
        assert len(rep.witnesses) >= 1
        assert rep.witnesses[0].value > 0.0

    def test_inconclusive_band(self):
        g = complete_graph(4, 3)
        ref = complete_lagrangian(4, 3)
        rep = _sweep("synthetic", {}, [[g]], ref, solved("lt", ref), scope="")
        assert rep.verdict == "inconclusive"


# float margins around 0.08, either side of the equality tolerance 1e-6
FLOAT_MARGINS = (2e-6, 5e-7, 0.0, -5e-7, -2e-6)
FLOAT_VERDICTS = {
    ("eq", True): ("fail", "pass", "pass", "pass", "inconclusive"),
    ("eq", False): ("fail",) + ("inconclusive",) * 4,
    ("lt", True): ("fail", "inconclusive", "inconclusive", "inconclusive", "pass"),
    ("lt", False): ("fail",) + ("inconclusive",) * 4,
    ("le", True): ("fail", "pass", "pass", "pass", "pass"),
    ("le", False): ("fail",) + ("inconclusive",) * 4,
}
# exact margins around the complete 3-graph on 4 vertices, 2/25; any positive
# margin passes, however far inside the float tolerance
EXACT_REF = complete_lagrangian_exact(4, 3)
GT_VERDICTS = {
    Fraction(-1, 10**9): "fail",
    Fraction(0): "fail",
    Fraction(1, 10**30): "pass",
    Fraction(1, 10**7): "pass",
    Fraction(1, 10**6): "pass",
    Fraction(2, 10**6): "pass",
}
RELATION_CASES = [
    (relation, margin, converged, verdict)
    for (relation, converged), verdicts in FLOAT_VERDICTS.items()
    for margin, verdict in zip(FLOAT_MARGINS, verdicts)
] + [
    ("gt", margin, converged, verdict)
    for margin, verdict in GT_VERDICTS.items()
    for converged in (True, False)
]


class TestRelations:
    @pytest.mark.parametrize("relation,margin,converged,verdict", RELATION_CASES, ids=str)
    def test_verdict(self, relation, margin, converged, verdict):
        ref = EXACT_REF if relation == "gt" else 0.08
        assert _RELATIONS[relation](ref + margin, ref, converged) == verdict

    def test_table_covers_every_relation(self):
        assert {case[0] for case in RELATION_CASES} == set(_RELATIONS)


class TestRowsDriveReports:
    @pytest.mark.parametrize("claim_id", sorted(CLAIMS))
    def test_report_scope_is_the_rows(self, claim_id):
        # the smallest t the row accepts; a vacuous sweep prefixes its scope
        spec = CLAIMS[claim_id]
        settings = {} if spec.instances == "split-weighting" else {"config": FAST}
        rep = run_claim(claim_id, t=spec.r + spec.min_t_over_r, **settings)
        assert rep.scope.endswith(spec.scope)


class TestWitnessIdentity:
    def test_all_pass_witness_ignores_rounding_noise(self, monkeypatch):
        # five graphs tied at the reference; only the noise on the values
        # differs between the runs, so the witness must not
        graphs = [colex_graph(3, m) for m in range(4, 9)]
        ref = complete_lagrangian(4, 3)
        witnesses = []
        for noise in ([0, 1, -1, 1, 0], [1, -1, 0, -1, 1], [-1, 0, 1, 0, -1]):
            values = {g: ref + 1e-15 * k for g, k in zip(graphs, noise)}
            monkeypatch.setattr(
                harness, "solve", lambda g, cfg: SimpleNamespace(value=values[g], converged=True)
            )
            rep = _sweep("synthetic", {}, [graphs], ref, solved("eq", ref), scope="")
            assert rep.verdict == "pass"
            assert [row.value for row in rep.rows] == [values[g] for g in graphs]
            witnesses.append([w.hypergraph for w in rep.witnesses])
        assert witnesses == [[format_hypergraph(graphs[0])]] * 3

    def test_later_larger_margin_disqualifies_an_early_near_top_witness(self, monkeypatch):
        # graph 0 is within the tie of graph 1, but graph 3 lifts the top past
        # graph 0's reach and leaves graph 1; graph 2 ties graph 1 and comes later
        graphs = [colex_graph(3, m) for m in range(4, 9)]
        ref = complete_lagrangian(4, 3)
        margins = [0.0, 0.6e-12, 0.6e-12, 1.2e-12, -1e-9]
        values = {g: ref + d for g, d in zip(graphs, margins)}
        monkeypatch.setattr(
            harness, "solve", lambda g, cfg: SimpleNamespace(value=values[g], converged=True)
        )
        rep = _sweep("synthetic", {}, [graphs], ref, solved("le", ref), scope="")
        assert rep.verdict == "pass"
        assert [w.hypergraph for w in rep.witnesses] == [format_hypergraph(graphs[1])]

    def test_each_instance_is_formatted_once(self, monkeypatch):
        # one text per graph serves its row's edge hash and any witness
        fmt, calls = harness.format_hypergraph, []

        def counted(g):
            calls.append(g)
            return fmt(g)

        monkeypatch.setattr(harness, "format_hypergraph", counted)
        rep = run_claim("theorem-5.1", t=5)
        assert rep.witnesses
        assert len(calls) == rep.instances_checked > 0

    def test_theorem_3_1_t6_m10_unique_instance(self):
        # the only qualifying 10-edge graph swaps the top block triple for
        # the first triple through vertex 6
        rep = run_claim("theorem-3.1", t=6, m=10, config=FAST)
        assert rep.instances_checked == 1
        expected = hypergraph(
            3, [e for e in complete_graph(5, 3).edges if e != (3, 4, 5)] + [(1, 2, 6)]
        )
        from hyperlag import parse_hypergraph

        assert parse_hypergraph(rep.witnesses[-1].hypergraph) == expected


class TestDispatch:
    def test_run_claim_lemma(self):
        rep = run_claim("lemma-2.2", t=5, r=3, config=FAST)
        assert rep.claim_id == "lemma-2.2"
        assert rep.verdict == "pass"

    def test_run_claim_sweeps_conjecture(self):
        rep = run_claim("conjecture-2.1", t=5, r=3, config=FAST)
        assert rep.parameters["m_values"] == [4, 5, 6, 7]
        assert rep.verdict == "pass"

    def test_unknown_claim(self):
        with pytest.raises(ValueError, match="unknown claim"):
            run_claim("lemma-9.9", t=5)

    def test_missing_t(self):
        with pytest.raises(ValueError, match="requires --t"):
            run_claim("lemma-2.2")

    @pytest.mark.parametrize("claim_id", ["conjecture-2.2", "theorem-3.1"])
    def test_default_sweep_samples_t8(self, claim_id):
        lo, hi = CLAIMS[claim_id].m_range(8, 3)
        assert _default_m_values(lo, hi, 3, 8) == [35, 38, 41, 44, 47, 50]

    def test_default_sweep_refuses_t9_before_enumerating(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("enumerated past the default sweep's limit")

        monkeypatch.setattr(harness, "enumerate_left_compressed", never)
        with pytest.raises(ResourceLimitError, match="covers t <= 8 for 3-graphs"):
            run_claim("conjecture-2.2", t=9)

    def test_solver_settings_refused_where_nothing_is_solved(self):
        message = "^claim sharpness solves nothing; drop --restarts and --seed$"
        with pytest.raises(ValueError, match=message):
            run_claim("sharpness", t=6, r=3, config=FAST)

    def test_readme_catalog_matches_claims(self):
        readme = Path(__file__).parents[1] / "README.md"
        catalog = {}
        for line in readme.read_text().splitlines():
            if line.startswith("| `"):
                claim, description = (c.strip() for c in line.strip("|").split("|"))
                catalog[claim.strip("`")] = description
        assert catalog == {k: spec.description for k, spec in CLAIMS.items()}


class TestReports:
    def test_json_shape_and_determinism(self):
        rep1 = run_claim("lemma-2.2", t=5, r=3, config=FAST)
        solve.cache_clear()
        rep2 = run_claim("lemma-2.2", t=5, r=3, config=FAST)
        assert report_to_json(rep1) == report_to_json(rep2)
        doc = json.loads(report_to_json(rep1))
        assert doc["claim_id"] == "lemma-2.2"
        assert doc["verdict"] == "pass"
        assert doc["instances_checked"] == 4
        assert "margins" in doc and "witnesses" in doc
        for w in doc["witnesses"]:
            assert w["hypergraph"].endswith("\n")

    def test_csv_rows(self):
        rep = run_claim("lemma-2.2", t=5, r=3, config=FAST)
        lines = report_to_csv(rep).strip().splitlines()
        assert lines[0] == "m,edge_hash,value,reference,margin,verdict"
        assert len(lines) == 1 + rep.instances_checked
        m, _, value, reference, margin, verdict = lines[1].split(",")
        assert int(m) == 4
        assert float(reference) == complete_lagrangian(4, 3)
        assert verdict == "pass"

    def test_text_mentions_verdict(self):
        rep = run_claim("sharpness", t=6, r=3)
        text = report_to_text(rep)
        assert "verdict    pass" in text

    def test_merge(self):
        # a sweep folds rows and witnesses edge count by edge count
        a = run_claim("conjecture-2.2", t=5, m=4, config=FAST)
        b = run_claim("conjecture-2.2", t=5, m=5, config=FAST)
        merged = run_claim("conjecture-2.2", t=5, config=FAST)
        assert merged.parameters["m_values"] == [4, 5, 6, 7]
        assert merged.rows[: len(a.rows) + len(b.rows)] == a.rows + b.rows
        assert merged.witnesses[:2] == a.witnesses + b.witnesses
        assert merged.verdict == "pass"

    def test_reference_recomputes_bit_exactly(self):
        rep = run_claim("conjecture-2.1", t=6, r=3, m=11, config=FAST)
        for row in rep.rows:
            assert row.reference == complete_lagrangian(5, 3)
