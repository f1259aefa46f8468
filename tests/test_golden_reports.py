"""Byte-for-byte regression of claim and solve reports against recorded output.

Every claim case runs `run_claim` at the harness solver settings (seed 0) and
compares `report_to_json` and `report_to_csv` with the text recorded in
`data/golden_reports.json`. Every solve case runs `hyperlag solve --format
json` at the default solver settings and compares its output with
`data/golden_solve.json`. Rewrite the recordings only when a change to the
output is intended:

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import hyperlag.solver
from hyperlag import format_hypergraph, hypergraph, report_to_csv, report_to_json, run_claim, solve
from hyperlag.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).parent / "data" / "golden_reports.json"
GOLDEN_SOLVE = Path(__file__).parent / "data" / "golden_solve.json"

CASES = [
    ("lemma-2.2", {"r": 3, "t": 5}),
    ("lemma-2.2", {"r": 2, "t": 4}),
    ("lemma-2.2", {"r": 4, "t": 7}),
    ("lemma-2.2", {"r": 3, "t": 8}),
    ("sharpness", {"r": 3, "t": 6}),
    ("sharpness", {"r": 2, "t": 10}),
    ("sharpness", {"r": 4, "t": 9}),
    ("conjecture-2.1", {"t": 5}),
    ("conjecture-2.2", {"t": 5}),
    ("conjecture-2.2", {"t": 6, "m": 10}),
    ("theorem-3.1", {"t": 6, "m": 10}),
    ("theorem-4.1", {"t": 5}),
    ("theorem-4.3", {"t": 7}),
    ("theorem-4.3", {"t": 8}),
    ("theorem-4.3", {"t": 9}),
    ("corollary-3.1", {"t": 5}),
    ("corollary-3.2", {"t": 5}),
    ("corollary-3.1", {"t": 6, "m": 10}),
    ("corollary-3.2", {"t": 6, "m": 10}),
    ("theorem-5.1", {"t": 5}),
    ("theorem-4.2", {"r": 4, "t": 8}),
]


# Each graph takes a different branch of `solve`: polish on a left-compressed
# input or not (the r=4 one is solved on its core [5] and padded to n = 6),
# the r=2 closed form, and an r=2 ascent at n > 20 (no clique starts).
SOLVE_CASES = {
    "left-compressed r=3": hypergraph(
        3, [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4), (1, 2, 5), (1, 3, 5), (2, 3, 5), (1, 4, 5)]
    ),
    "left-compressed r=4": hypergraph(
        4, [(1, 2, 3, 4), (1, 2, 3, 5), (1, 2, 4, 5), (1, 3, 4, 5), (2, 3, 4, 5), (1, 2, 3, 6)]
    ),
    "not compressed r=3": hypergraph(3, [(1, 2, 3), (3, 4, 5), (1, 4, 5), (2, 4, 6), (2, 5, 6)]),
    "pentagon with chord and pendant r=2": hypergraph(
        2, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (1, 3), (5, 6)]
    ),
    "path on 21 vertices r=2": hypergraph(2, [(i, i + 1) for i in range(1, 21)]),
}


def case_key(claim, params):
    return " ".join([claim] + [f"{k}={v}" for k, v in sorted(params.items())])


def render(claim, params):
    report = run_claim(claim, **params)
    return {"json": report_to_json(report), "csv": report_to_csv(report)}


@pytest.mark.parametrize(
    "claim,params", CASES, ids=[case_key(c, p) for c, p in CASES]
)
def test_report_bytes_match_recording(claim, params):
    expected = json.loads(GOLDEN.read_text())[case_key(claim, params)]
    assert render(claim, params) == expected


@pytest.mark.parametrize(
    "claim,params",
    [("conjecture-2.2", {"t": 5}), ("theorem-4.1", {"t": 5}), ("theorem-4.3", {"t": 7})],
)
def test_step_cap_is_only_a_safety_stop(monkeypatch, claim, params):
    # one step past the growth phase, so the ascent after the support cut
    # stops at 201 steps
    expected = json.loads(GOLDEN.read_text())[case_key(claim, params)]
    monkeypatch.setattr(hyperlag.solver, "MAX_GROWTH_STEPS", hyperlag.solver.GROWTH_STEPS + 1)
    solve.cache_clear()
    try:
        assert render(claim, params) == expected
    finally:
        solve.cache_clear()


def render_solve(g):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.hg"
        path.write_text(format_hypergraph(g))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["solve", str(path), "--format", "json"])
    assert code == 0
    return out.getvalue()


@pytest.mark.parametrize("name", list(SOLVE_CASES))
def test_solve_bytes_match_recording(name):
    expected = json.loads(GOLDEN_SOLVE.read_text())[name]
    assert render_solve(SOLVE_CASES[name]) == expected


def cli_stdout(argv, blas_threads):
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from hyperlag.cli import main; sys.exit(main())", *argv],
        env={**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": str(blas_threads)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_output_does_not_depend_on_blas_threads(tmp_path):
    # a matmul decides the low bits of every value
    path = tmp_path / "g.hg"
    path.write_text(format_hypergraph(SOLVE_CASES["left-compressed r=4"]))
    for argv in (
        ["solve", str(path), "--format", "json"],
        ["verify", "corollary-3.1", "--t", "6", "--m", "10", "--format", "csv"],
    ):
        assert cli_stdout(argv, 1) == cli_stdout(argv, 2)


if __name__ == "__main__":
    recorded = {case_key(c, p): render(c, p) for c, p in CASES}
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} cases in {GOLDEN}")
    solves = {name: render_solve(g) for name, g in SOLVE_CASES.items()}
    GOLDEN_SOLVE.write_text(json.dumps(solves, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(solves)} cases in {GOLDEN_SOLVE}")
