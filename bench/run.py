"""hyperlag benchmark: time to verdicts on one workload, checked against golden output.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs timed units of the workload one after another, each in a fresh worker
process (see worker.py), as long as the next unit is expected to end within
S seconds; at least one unit always runs. The last line of standard output is one JSON object:
`correct`, `attempted`, `failed` and `metrics`, each metric with its unit as
declared in BENCHMARK.json. With --trace 0 the metrics are the end-to-end
ones: the wall time summed over the workload's steps, each at its fastest
in the run, and medians of the rest. With
--trace 1 every untraced unit is followed by a traced one, and the metrics
are the per-layer ones, medians over the traced units, plus the tracing
overhead between the two.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Set-up is short and noisy, so a run with fewer units than this adds
#: set-up-only workers to take the median over.
SETUP_SAMPLES = 7


def run_unit(workload: str, seed: int, *flags: str) -> dict:
    """One worker process; set-up time runs from spawn to its `ready` line.
    `flags` are passed on to the worker."""
    cmd = [sys.executable, str(HERE / "worker.py"), workload, "--seed", str(seed), *flags]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        out = proc.stdout.read()
    if proc.returncode != 0 or ready.strip() != "ready":
        raise RuntimeError(f"{workload} worker exited with status {proc.returncode}")
    unit = json.loads(out.splitlines()[-1]) if out else {}
    unit["setup_s"] = setup_s
    return unit


def _median(units: list[dict], key: str) -> float:
    return statistics.median(u[key] for u in units)


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Run units for `seconds` and fold them into the result object."""
    flags = ["--smoke"] if smoke else []
    plain: list[dict] = []
    traced: list[dict] = []
    deadline = time.perf_counter() + seconds
    while True:
        step_start = time.perf_counter()
        plain.append(run_unit(workload, seed, *flags))
        if trace:
            traced.append(run_unit(workload, seed, *flags, "--trace"))
        now = time.perf_counter()
        if now + (now - step_start) > deadline:  # the next step would overrun
            break
    units = plain + traced
    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)
    if trace:
        metrics = {k: statistics.median(u["layers"][k] for u in traced) for k in traced[0]["layers"]}
        metrics["bench.trace_overhead_frac"] = _median(traced, "wall_s") / _median(plain, "wall_s") - 1
        metrics["bench.failed_frac"] = failed / attempted
    else:
        # A shared host slows the whole process for stretches of a fraction
        # of a second to minutes, so medians and means of one run follow the
        # host's load; the fastest run of each short step is far steadier
        # (README, Noise).
        metrics = {
            "wall_s": sum(min(step) for step in zip(*(u["item_s"] for u in plain))),
            "peak_rss_mb": _median(plain, "peak_rss_mb"),
        }
        setups = [u["setup_s"] for u in plain]
        while len(setups) < SETUP_SAMPLES:
            setups.append(run_unit(workload, seed, *flags, "--setup-only")["setup_s"])
        metrics["setup_s"] = statistics.median(setups)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "hyperlag" / "__init__.py").is_file():
        print(f"error: no hyperlag sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    if set(result["metrics"]) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(result['metrics']) ^ set(units))}")
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in sorted(result["metrics"].items())}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
