"""Write golden.csv: the expected (m, edge_hash, verdict) of every sweep
instance the benchmark runs, smoke jobs included, solved with seed 0.

    python3 bench/record_golden.py

Rerun only when a claim's instances or verdicts are meant to change.
"""

import csv
import dataclasses

from worker import GOLDEN, HARNESS_SOLVER, SMOKE_SWEEPS, SWEEPS, job_key, run_sweeps


def main():
    jobs = {
        job_key(claim, params): (claim, params)
        for table in (SWEEPS, SMOKE_SWEEPS)
        for jobs in table.values()
        for claim, params in jobs
    }
    outputs = run_sweeps(jobs.values(), dataclasses.replace(HARNESS_SOLVER, seed=0))
    with GOLDEN.open("w", newline="") as f:
        out = csv.writer(f, lineterminator="\n")
        out.writerow(["job", "m", "edge_hash", "verdict"])
        for key, _, csv_text in outputs:
            if csv_text is None:
                raise SystemExit(f"{key} raised; golden file left incomplete")
            for row in csv.DictReader(csv_text.splitlines()):
                out.writerow([key, row["m"], row["edge_hash"], row["verdict"]])


if __name__ == "__main__":
    main()
