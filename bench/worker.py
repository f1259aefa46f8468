"""One timed unit of a benchmark workload, run in a fresh process.

    python3 bench/worker.py WORKLOAD --seed N [--trace] [--smoke] [--setup-only]

Prints `ready` once imports, input generation and the warm-up are done, then
runs the workload once through the public API, checks every output, and
prints one JSON line: wall time, the time of each step (a claim job or a
solve), peak RSS, instances attempted and failed, and, with --trace, the
per-layer summary of the spans. A fresh process per
unit keeps caches inside hyperlag (such as the solver's edge-index cache)
from carrying results from one unit into the next.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import random
import resource
import signal
import sys
import time
import traceback
from itertools import combinations
from math import comb
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import hyperlag as hl  # noqa: E402
from hyperlag.harness import HARNESS_SOLVER  # noqa: E402
from spans import Tracer  # noqa: E402

GOLDEN = HERE / "golden.csv"
TRACE_DIR = ROOT / ".bench_traces"
UNIT_TIMEOUT_S = 60

#: Sweep workloads as (claim, run_claim arguments) jobs. A unit must stay
#: near a second or two, so that a run times each step many times and the
#: step's fastest time is steady on a shared host (see README). overlap-sweep
#: keeps the two t=6 corollaries, which solve the same slow graph, and takes
#: the other claims at t=5 and t=7.
SWEEPS = {
    "overlap-sweep": [
        ("theorem-3.1", {"t": 6, "m": 10}),
        ("theorem-4.1", {"t": 5}),
        ("theorem-5.1", {"t": 5}),
        ("corollary-3.1", {"t": 6, "m": 10}),
        ("corollary-3.2", {"t": 6, "m": 10}),
        ("theorem-4.3", {"t": 7}),
    ],
}
SMOKE_SWEEPS = {
    "overlap-sweep": [
        ("theorem-3.1", {"t": 6, "m": 10}),
        ("theorem-4.1", {"t": 5}),
        ("theorem-5.1", {"t": 5}),
        ("corollary-3.1", {"t": 5}),
        ("corollary-3.2", {"t": 5}),
        ("theorem-4.3", {"t": 7}),
    ],
}
WORKLOADS = (*SWEEPS, "solve-random")

#: solve-random draws its graph shapes and edges from this fixed seed; the
#: run seed relabels the vertices of the non-compressed half and seeds the
#: solver. With the default config the slowest solves of larger random
#: graphs take 1 s to 9 s each, too long for a steady unit; at these sizes
#: every solve takes under 0.1 s.
POOL_SEED = 0
RANDOM_GRAPHS = 24
SMOKE_RANDOM_GRAPHS = 4
MAX_RANDOM_VERTICES = 9
MAX_RANDOM_EDGES = 30


def job_key(claim: str, params: dict) -> str:
    return " ".join([claim] + [f"{k}={v}" for k, v in sorted(params.items())])


def random_graphs(seed: int, count: int) -> list[hl.RUniformHypergraph]:
    """Random r-graphs, r in {2, 3, 4}, n <= 9. Odd-indexed graphs are
    left-compressed inside the timed unit; even-indexed ones are relabelled
    by the run seed."""
    pool = random.Random(POOL_SEED)
    relabel = random.Random(seed)
    graphs = []
    for i in range(count):
        r = pool.choice((2, 3, 4))
        n = pool.randint(r + 1, MAX_RANDOM_VERTICES)
        m = pool.randint(1, min(comb(n, r), MAX_RANDOM_EDGES))
        edges = pool.sample(list(combinations(range(1, n + 1), r)), m)
        if i % 2 == 0:
            perm = list(range(1, n + 1))
            relabel.shuffle(perm)
            edges = [tuple(perm[v - 1] for v in e) for e in edges]
        graphs.append(hl.hypergraph(r, edges, n=n))
    return graphs


def warm_up(seed: int):
    """Exercise every code path once on inputs no workload uses."""
    cfg = dataclasses.replace(HARNESS_SOLVER, seed=seed)
    rep = hl.run_claim("lemma-2.2", r=3, t=5, config=cfg)
    hl.report_to_json(rep)
    hl.report_to_csv(rep)
    for g in (hl.complete_graph(3, 2), hl.hypergraph(4, [(1, 2, 3, 4), (1, 2, 3, 5)])):
        hl.solve(g, hl.SolverConfig(seed=seed, restarts=4))
    hl.left_compress(hl.hypergraph(3, [(1, 3, 4), (2, 3, 4)]))


# --- timed units -------------------------------------------------------------


def run_sweeps(jobs, cfg, times=None) -> list[tuple[str, str | None, str | None]]:
    """(job key, JSON report, CSV report) per job; None marks an exception.
    Each job's seconds are appended to `times`, if given."""
    out = []
    for claim, params in jobs:
        t0 = time.perf_counter()
        try:
            rep = hl.run_claim(claim, config=cfg, **params)
            out.append((job_key(claim, params), hl.report_to_json(rep), hl.report_to_csv(rep)))
        except Exception:
            traceback.print_exc()
            out.append((job_key(claim, params), None, None))
        if times is not None:
            times.append(time.perf_counter() - t0)
    return out


def run_solves(graphs, cfg, times=None) -> list[tuple]:
    """(graph, report) per input; report None marks an exception.
    Each input's seconds are appended to `times`, if given."""
    out = []
    for i, g in enumerate(graphs):
        t0 = time.perf_counter()
        try:
            if i % 2:
                g = hl.left_compress(g)
            out.append((g, hl.solve(g, cfg)))
        except Exception:
            traceback.print_exc()
            out.append((g, None))
        if times is not None:
            times.append(time.perf_counter() - t0)
    return out


# --- checks ------------------------------------------------------------------


def load_golden(path: Path = GOLDEN) -> dict[str, list[tuple[str, str, str]]]:
    """Job key -> expected (m, edge_hash, verdict) rows, in report order."""
    golden: dict[str, list[tuple[str, str, str]]] = {}
    with path.open(newline="") as f:
        for row in csv.DictReader(f):
            golden.setdefault(row["job"], []).append((row["m"], row["edge_hash"], row["verdict"]))
    return golden


def _overall(verdicts) -> str:
    verdicts = set(verdicts)
    if "fail" in verdicts:
        return "fail"
    return "inconclusive" if "inconclusive" in verdicts else "pass"


def check_sweeps(outputs, golden) -> tuple[int, int, int]:
    """(attempted, failed, instances) for sweep outputs against the golden rows.

    An instance fails when it is missing, extra, or has another verdict than
    the golden row. If the job raised, or its JSON report disagrees with the
    golden verdict or instance count, every instance of the job fails.
    """
    attempted = failed = instances = 0
    for key, json_text, csv_text in outputs:
        expected = golden.get(key, [])
        if json_text is None:
            attempted += len(expected)
            failed += len(expected)
            continue
        rows = [(r["m"], r["edge_hash"], r["verdict"]) for r in csv.DictReader(csv_text.splitlines())]
        doc = json.loads(json_text)
        n = max(len(rows), len(expected))
        bad = sum(a != b for a, b in zip(rows, expected)) + abs(len(rows) - len(expected))
        if doc["verdict"] != _overall(v for _, _, v in expected) or doc["instances_checked"] != len(expected):
            bad = n
        attempted += n
        failed += bad
        instances += len(rows)
    return attempted, failed, instances


def solve_ok(g: hl.RUniformHypergraph, rep: hl.SolveReport) -> bool:
    """Seed-independent checks on one solve."""
    if abs(hl.evaluate(g, rep.weighting) - rep.value) > 1e-12:
        return False
    if g.r == 2 and abs(rep.value - hl.motzkin_straus_value(g)) > 1e-7:
        return False
    if hl.is_left_compressed(g):
        floor = hl.complete_lagrangian(hl.lc_max_clique_order(g), g.r)
        if rep.value < floor - 1e-12:
            return False
    return True


def check_solves(outputs) -> tuple[int, int, int]:
    failed = sum(1 for g, rep in outputs if rep is None or not solve_ok(g, rep))
    return len(outputs), failed, 0


# --- entry point -------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true", help="exit once set up")
    args = ap.parse_args(argv)
    signal.alarm(UNIT_TIMEOUT_S)  # a stuck unit ends itself even if the parent is gone

    if args.workload == "solve-random":
        inputs = random_graphs(args.seed, SMOKE_RANDOM_GRAPHS if args.smoke else RANDOM_GRAPHS)
        cfg = hl.SolverConfig(seed=args.seed)
        run, check = run_solves, check_solves
    else:
        inputs = (SMOKE_SWEEPS if args.smoke else SWEEPS)[args.workload]
        cfg = dataclasses.replace(HARNESS_SOLVER, seed=args.seed)
        run, check = run_sweeps, lambda outputs: check_sweeps(outputs, load_golden())
    warm_up(args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    item_s: list[float] = []
    t0 = time.perf_counter()
    try:
        outputs = run(inputs, cfg, item_s)
        wall_s = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted, failed, instances = check(outputs)
    result = {
        "wall_s": wall_s,
        "item_s": item_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
    }
    if tracer is not None:
        result["layers"] = tracer.summary(instances)
        trace_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
        tracer.write(TRACE_DIR / f"{args.workload}.csv", trace_id)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
