import dataclasses
import json
import re
from pathlib import Path

import pytest

from hyperlag import SolverConfig, harness, solve, solver
from hyperlag.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_colex_canonical_bytes(capsys):
    code, out, _ = run(capsys, "gen", "colex", "--r", "3", "--m", "4")
    assert code == 0
    assert out == "3 4 4\n1 2 3\n1 2 4\n1 3 4\n2 3 4\n"


def test_gen_complete_to_file_round_trips(tmp_path, capsys):
    path = tmp_path / "k.hg"
    code, _, _ = run(capsys, "gen", "complete", "--r", "3", "--t", "4", "-o", str(path))
    assert code == 0
    text = path.read_text()
    out_path = tmp_path / "again.hg"
    code, _, _ = run(capsys, "compress", str(path), "-o", str(out_path))
    assert code == 0
    assert out_path.read_text() == text  # already compressed: byte-identical


def test_eval_text_15_digits(tmp_path, capsys):
    path = tmp_path / "t.hg"
    run(capsys, "gen", "complete", "--r", "2", "--t", "3", "-o", str(path))
    code, out, _ = run(capsys, "eval", str(path), "--weights", "1/3,1/3,1/3")
    assert code == 0
    assert out.strip() == "0.333333333333333"


def test_eval_rational_weights_sharp_case(tmp_path, capsys):
    path = tmp_path / "c.hg"
    run(capsys, "gen", "colex", "--r", "3", "--m", "17", "-o", str(path))
    code, out, _ = run(
        capsys, "eval", str(path), "--weights", "1/5,1/5,1/5,1/5,1/10,1/10"
    )
    assert code == 0
    assert float(out) == pytest.approx(0.082, abs=1e-15)


def test_eval_wrong_count(tmp_path, capsys):
    path = tmp_path / "t.hg"
    run(capsys, "gen", "complete", "--r", "2", "--t", "3", "-o", str(path))
    code, _, err = run(capsys, "eval", str(path), "--weights", "0.5,0.5")
    assert code == 2
    assert "expected 3 weights" in err


def test_solve_json_deterministic(tmp_path, capsys):
    path = tmp_path / "k.hg"
    run(capsys, "gen", "complete", "--r", "2", "--t", "4", "-o", str(path))
    code, out1, _ = run(capsys, "solve", str(path), "--format", "json")
    assert code == 0
    solve.cache_clear()
    code, out2, _ = run(capsys, "solve", str(path), "--format", "json")
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["value"] == pytest.approx(0.375, abs=1e-9)
    assert doc["converged"] is True


def test_solve_edgeless(tmp_path, capsys):
    path = tmp_path / "e.hg"
    path.write_text("3 7 0\n")
    code, out, _ = run(capsys, "solve", str(path), "--format", "json")
    assert code == 0
    uniform = [1 / 7] * 7
    assert json.loads(out) == {
        "converged": True,
        "iterations": 0,
        "kkt_residual": 0.0,
        "pairs_covered": False,
        "raw_weighting": uniform,
        "restarts_used": 1,
        "support": [1, 2, 3, 4, 5, 6, 7],
        "value": 0.0,
        "weighting": uniform,
    }
    path.write_text("3 200 0\n")
    code, out, err = run(capsys, "solve", str(path))
    assert (code, out) == (2, "")
    assert "MAX_LINK_ENTRIES" in err


def test_compress_moves_edge_down(tmp_path, capsys):
    path = tmp_path / "g.hg"
    path.write_text("3 4 1\n1 2 4\n")
    code, out, _ = run(capsys, "compress", str(path))
    assert code == 0
    assert out == "3 4 1\n1 2 3\n"


def test_clique(tmp_path, capsys):
    path = tmp_path / "g.hg"
    run(capsys, "gen", "complete", "--r", "3", "--t", "5", "-o", str(path))
    code, out, _ = run(capsys, "clique", str(path))
    assert code == 0
    assert out.strip() == "5"


def test_link_text_and_minus(tmp_path, capsys):
    path = tmp_path / "g.hg"
    path.write_text("3 4 1\n1 2 3\n")
    code, out, _ = run(capsys, "link", str(path), "--pin", "1", "--minus", "4")
    assert code == 0
    assert out.strip() == "2 3"
    code, out, _ = run(capsys, "link", str(path), "--pin", "1,2", "--format", "json")
    assert json.loads(out)["sets"] == [[3]]


def test_link_bad_pin(tmp_path, capsys):
    path = tmp_path / "g.hg"
    path.write_text("3 4 1\n1 2 3\n")
    code, _, err = run(capsys, "link", str(path), "--pin", "9")
    assert code == 2


def test_parse_error_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.hg"
    path.write_text("3 4 2\n1 2 3\n1 2 3\n")
    code, _, err = run(capsys, "solve", str(path))
    assert code == 2
    assert "line 3" in err


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "solve", "/nonexistent/g.hg")
    assert code == 2


def test_verify_pass_exit_0_json(capsys):
    code, out, _ = run(capsys, "verify", "lemma-2.2", "--r", "3", "--t", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "pass"
    assert doc["claim_id"] == "lemma-2.2"


def test_verify_byte_identical_with_same_seed(capsys):
    args = ["verify", "conjecture-2.2", "--t", "5", "--seed", "4"]
    code1, out1, _ = run(capsys, *args)
    solve.cache_clear()
    code2, out2, _ = run(capsys, *args)
    assert code1 == 0
    assert json.loads(out1)["instances_checked"] > 0
    assert (code1, out1) == (code2, out2)


def test_verify_csv(capsys):
    code, out, _ = run(
        capsys, "verify", "lemma-2.2", "--r", "3", "--t", "5", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines()[0] == "m,edge_hash,value,reference,margin,verdict"


def test_verify_unknown_claim_exit_2(capsys):
    code, _, err = run(capsys, "verify", "lemma-0.0", "--t", "5")
    assert code == 2
    assert "unknown claim" in err


def test_verify_missing_t_exit_2(capsys):
    code, _, err = run(capsys, "verify", "lemma-2.2")
    assert code == 2


def test_verify_rejects_m_for_range_claims(capsys):
    code, _, err = run(capsys, "verify", "lemma-2.2", "--r", "3", "--t", "5", "--m", "4")
    assert code == 2
    assert "does not take --m" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["theorem-3.1", "--t", "6", "--m", "9"], "outside claim range [10, 16]"),
        (["theorem-4.1", "--t", "5", "--m", "2"], "outside claim range [4, 5]"),
        (["theorem-5.1", "--t", "5", "--m", "9"], "outside claim range [4, 6]"),
        (["corollary-3.1", "--t", "5", "--m", "3"], "outside claim range [4, 7]"),
        (["theorem-4.3", "--t", "7", "--m", "40"], "outside claim range [15, 15]"),
        (["theorem-4.1", "--t", "5", "--r", "4"], "is about 3-graphs"),
        (["theorem-4.2", "--t", "8", "--r", "3"], "needs r >= 4"),
        (["theorem-3.1", "--t", "5"], "needs t >= 6"),
    ],
)
def test_verify_rejects_parameters_outside_the_claim(capsys, argv, message):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert message in err


def test_verify_no_instances_is_inconclusive(capsys):
    code, out, _ = run(capsys, "verify", "corollary-3.1", "--t", "5", "--m", "7")
    assert code == 3
    doc = json.loads(out)
    assert doc["instances_checked"] == 0
    assert doc["scope"].startswith("vacuous: no instances in range")


def test_verify_budget_flag(capsys, monkeypatch):
    monkeypatch.setattr(harness, "MAX_GRAPHS", 1)
    code, out, err = run(capsys, "verify", "theorem-5.1", "--t", "5")
    assert (code, out) == (2, "")
    assert "graph limit exceeded: more than MAX_GRAPHS = 1 graphs" in err


def test_verify_default_sweep_limit_exits_2(capsys):
    code, out, err = run(capsys, "verify", "conjecture-2.2", "--t", "9")
    assert (code, out) == (2, "")
    assert "covers t <= 8 for 3-graphs" in err


@pytest.mark.parametrize("claim", ["sharpness", "lemma-2.2"])
def test_verify_refuses_oversized_colex_prefixes(capsys, claim):
    # the stable range at t = 300 ends past 4.4 million edges: refused before
    # any prefix is built
    code, out, err = run(capsys, "verify", claim, "--r", "3", "--t", "300")
    assert (code, out) == (2, "")
    assert "colex prefix limit exceeded" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["sharpness", "--r", "3", "--t", "6", "--m", "17"], "does not take --m"),
        (["lemma-2.2", "--r", "2", "--t", "4", "--m", "3"], "does not take --m"),
        (["sharpness", "--r", "3", "--t", "6", "--restarts", "5"], "solves nothing"),
        (["sharpness", "--r", "4", "--t", "7", "--seed", "0"], "solves nothing"),
        (["sharpness", "--r", "3", "--t", "6", "--seed", "3"], "solves nothing"),
    ],
)
def test_verify_refuses_settings_the_claim_ignores(capsys, argv, message):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("flag", ["--restarts"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_verify_rejects_non_positive_solver_settings(capsys, flag, value):
    code, out, err = run(capsys, "verify", "conjecture-2.2", "--t", "5", flag, value)
    assert code == 2
    assert out == ""
    assert f"{flag[2:].replace('-', '_')} must be >= 1" in err


def test_step_cap_is_not_a_flag(capsys):
    # the growth-step cap is the constant `solver.MAX_GROWTH_STEPS`
    with pytest.raises(SystemExit) as exc:
        main(["verify", "conjecture-2.2", "--t", "5", "--max-iterations", "9"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-iterations 9" in capsys.readouterr().err


def test_negative_seed_exits_2(tmp_path, capsys):
    path = tmp_path / "k.hg"
    run(capsys, "gen", "complete", "--r", "3", "--t", "4", "-o", str(path))
    for argv in (
        ["solve", str(path), "--seed", "-1", "--restarts", "1"],
        ["verify", "conjecture-2.2", "--t", "5", "--seed", "-1"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "seed must be >= 0, got -1" in err


def test_verify_table_limit_exits_2(capsys):
    code, out, err = run(capsys, "verify", "theorem-4.3", "--t", "20", "--m", "3960")
    assert (code, out) == (2, "")
    assert "MAX_TABLE_SETS" in err


@pytest.mark.parametrize(
    "argv",
    [["complete", "--r", "3", "--t", "2000"], ["colex", "--r", "3", "--m", "2000000"]],
    ids=["complete", "colex"],
)
def test_gen_size_limit_exits_2(capsys, argv):
    # C(2000, 3) and 2,000,000 edges are past MAX_TABLE_SETS, refused by `comb`
    # before any r-set is listed
    code, out, err = run(capsys, "gen", *argv)
    assert (code, out) == (2, "")
    assert "MAX_TABLE_SETS = 1000000" in err


def test_solve_link_matrix_limit_exits_2(tmp_path, capsys):
    # 2000^3 entries: past MAX_LINK_ENTRIES before anything is allocated; the
    # edge {1, 2, 2000} is not left-compressed, so no core cuts n down
    path = tmp_path / "wide.hg"
    path.write_text("3 2000 1\n1 2 2000\n")
    code, out, err = run(capsys, "solve", str(path))
    assert (code, out) == (2, "")
    assert "MAX_LINK_ENTRIES" in err


def test_solve_wide_left_compressed_graph_on_its_core(tmp_path, capsys):
    # K = 3: solved on [3] and padded to 2000 weights
    path = tmp_path / "wide.hg"
    path.write_text("3 2000 1\n1 2 3\n")
    code, out, _ = run(capsys, "solve", str(path), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(1 / 27, abs=1e-15)
    assert len(doc["weighting"]) == len(doc["raw_weighting"]) == 2000
    assert doc["support"] == [1, 2, 3]
    assert doc["converged"] is True


def test_solve_start_batch_limit_exits_2(tmp_path, capsys, monkeypatch):
    # 10^8 restarts of 4^2 gradient entries each: refused before a start is built
    path = tmp_path / "k.hg"
    run(capsys, "gen", "complete", "--r", "3", "--t", "4", "-o", str(path))
    monkeypatch.setattr(solver, "_starts", lambda g, config: pytest.fail("built the starts"))
    code, out, err = run(capsys, "solve", str(path), "--restarts", "100000000")
    assert (code, out) == (2, "")
    assert "start batch limit exceeded" in err and "MAX_LINK_ENTRIES" in err


def test_solver_flags_match_config_and_readme(capsys):
    fields = {f.name for f in dataclasses.fields(SolverConfig)}
    for subcommand in ("solve", "verify"):
        with pytest.raises(SystemExit):
            main([subcommand, "--help"])
        help_text = capsys.readouterr().out
        section = help_text.split("solver settings:\n")[1].split("\n\n")[0]
        flags = re.findall(r"^  (--[a-z-]+)", section, flags=re.M)
        assert {f[2:].replace("-", "_") for f in flags} == fields
    paragraph = README.read_text().split("Solver settings")[1].split("\n\n")[0]
    assert set(re.findall(r"--[a-z-]+", paragraph)) == {
        "--" + name.replace("_", "-") for name in fields
    }


def test_verify_options_are_the_claim_and_solver_settings(capsys):
    # every resource limit is a module constant, not a per-call setting
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    columns = re.findall(r"^  (-.*?)(?:  |$)", capsys.readouterr().out, flags=re.M)
    options = {"/".join(re.findall(r"(?:^|, )(--?[a-z-]+)", c)) for c in columns}
    solver_flags = {"--" + f.name.replace("_", "-") for f in dataclasses.fields(SolverConfig)}
    claim_flags = {"--t", "--r", "--m", "--format", "-o/--output"}
    assert options - {"-h/--help"} == claim_flags | solver_flags


def test_verify_sharpness_decides_on_the_exact_margin(capsys):
    # the exact margin at r = 6, t = 10 is about 4.7e-7, below the float
    # tolerance that the solved claims use
    code, out, _ = run(capsys, "verify", "sharpness", "--r", "6", "--t", "10")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "pass"
    assert 0 < doc["witnesses"][0]["margin"] < 1e-6


def test_solve_text_agrees_with_json(tmp_path, capsys):
    path = tmp_path / "c.hg"
    run(capsys, "gen", "colex", "--r", "3", "--m", "17", "-o", str(path))
    code, text, _ = run(capsys, "solve", str(path))
    assert code == 0
    code, out, _ = run(capsys, "solve", str(path), "--format", "json")
    doc = json.loads(out)
    lines = dict(line.split(" = ", 1) for line in text.splitlines())
    assert list(lines) == [
        "value", "converged", "kkt_residual", "support", "weighting",
        "iterations", "restarts_used", "pairs_covered",
    ]
    assert float(lines["value"]) == pytest.approx(doc["value"], rel=1e-14)
    assert float(lines["kkt_residual"]) == pytest.approx(doc["kkt_residual"], rel=1e-14)
    assert [float(w) for w in lines["weighting"].split()] == pytest.approx(
        doc["weighting"], rel=1e-14
    )
    assert [int(v) for v in lines["support"].split()] == doc["support"]
    for key in ("converged", "pairs_covered"):
        assert lines[key] == str(doc[key]).lower()
    for key in ("iterations", "restarts_used"):
        assert int(lines[key]) == doc[key]


def test_eval_json(tmp_path, capsys):
    path = tmp_path / "t.hg"
    run(capsys, "gen", "complete", "--r", "2", "--t", "3", "-o", str(path))
    code, out, _ = run(
        capsys, "eval", str(path), "--weights", "1/3,1/3,1/3", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {"value": pytest.approx(1 / 3, abs=1e-15)}


def test_verify_exit_codes_map_verdicts(capsys, monkeypatch):
    import hyperlag.cli as cli
    from hyperlag.harness import VerificationReport

    def fake_run_claim(claim_id, **kwargs):
        return VerificationReport(claim_id, {}, fake_run_claim.verdict, 0, (), 0.0)

    monkeypatch.setattr(cli, "run_claim", fake_run_claim)
    for verdict, expected in [("pass", 0), ("fail", 1), ("inconclusive", 3)]:
        fake_run_claim.verdict = verdict
        code, _, _ = run(capsys, "verify", "lemma-2.2", "--t", "5")
        assert code == expected


def test_weights_accept_decimals(tmp_path, capsys):
    path = tmp_path / "t.hg"
    run(capsys, "gen", "complete", "--r", "2", "--t", "3", "-o", str(path))
    code, out, _ = run(capsys, "eval", str(path), "--weights", "0.5,0.25,0.25")
    assert code == 0
    assert float(out) == pytest.approx(0.3125, abs=1e-15)
