"""The benchmark's own tests: smoke runs of every workload and self-tests of
the output checks.

    python3 -m pytest bench -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402  (puts src/ on the path)
import hyperlag as hl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "0", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace:
        assert result["metrics"]["bench.failed_frac"]["value"] == 0


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "overlap-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture(scope="module")
def smoke_outputs():
    jobs = worker.SMOKE_SWEEPS["overlap-sweep"][2:3]  # theorem-5.1 t=5
    return worker.run_sweeps(jobs, dataclasses.replace(worker.HARNESS_SOLVER, seed=1))


def test_golden_rows_match(smoke_outputs):
    attempted, failed, instances = worker.check_sweeps(smoke_outputs, worker.load_golden())
    assert (attempted, failed) == (instances, 0) and attempted > 1


def test_corrupted_golden_hash_fails_one_instance(smoke_outputs):
    golden = worker.load_golden()
    key = smoke_outputs[0][0]
    m, edge_hash, verdict = golden[key][0]
    golden[key][0] = (m, "0" * len(edge_hash), verdict)
    _, failed, _ = worker.check_sweeps(smoke_outputs, golden)
    assert failed == 1


def test_corrupted_golden_verdict_fails_the_job(smoke_outputs):
    golden = worker.load_golden()
    key = smoke_outputs[0][0]
    m, edge_hash, _ = golden[key][0]
    golden[key][0] = (m, edge_hash, "fail")
    attempted, failed, _ = worker.check_sweeps(smoke_outputs, golden)
    assert failed == attempted == len(golden[key])


def test_missing_or_raising_job_fails_its_instances(smoke_outputs):
    golden = worker.load_golden()
    key, json_text, csv_text = smoke_outputs[0]
    dropped = csv_text.splitlines()
    dropped = "\n".join(dropped[:-1]) + "\n"
    _, failed, _ = worker.check_sweeps([(key, json_text, dropped)], golden)
    assert failed == 1
    attempted, failed, _ = worker.check_sweeps([(key, None, None)], golden)
    assert failed == attempted == len(golden[key])


def test_solve_checks_catch_wrong_values():
    g = hl.hypergraph(2, [(1, 2), (2, 3), (1, 3), (3, 4)])
    rep = hl.solve(g, hl.SolverConfig(seed=1))
    assert worker.solve_ok(g, rep)
    assert not worker.solve_ok(g, dataclasses.replace(rep, value=rep.value + 1e-6))
    # consistent weighting and value, but below the Motzkin-Straus value
    low = (0.5, 0.5, 0.0, 0.0)
    assert not worker.solve_ok(g, dataclasses.replace(rep, weighting=low, value=0.25))
    # a left-compressed graph valued below its largest clique
    lc = hl.left_compress(hl.hypergraph(3, [(1, 2, 3), (1, 2, 4), (2, 4, 5)]))
    lc_rep = hl.solve(lc, hl.SolverConfig(seed=1))
    assert worker.solve_ok(lc, lc_rep)
    flat = (0.2,) * 5
    assert not worker.solve_ok(lc, dataclasses.replace(lc_rep, weighting=flat, value=hl.evaluate(lc, flat)))
