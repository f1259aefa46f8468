#!/usr/bin/env python3
"""Run the full default claim battery and write JSON + CSV reports.

Each claim runs at its default desk-scale parameters; reports land in the
output directory as <claim>__<params>.json / .csv. Per claim the table shows
the calls of `solve` it made and how many of them the solve memo served,
from earlier claims of the same run. A cone's link solve is a call too, so
the calls count nested link solves: conjecture-2.2 at r=3, t=5 makes 16 for
its 14 graphs. Exit status is 0 when every claim passes, 1 on any fail, 3
on any inconclusive.
"""

import argparse
import os
import sys
import time
from pathlib import Path

from hyperlag import report_to_csv, report_to_json, run_claim, solve

BATTERY = [
    ("lemma-2.2", dict(r=3, t=5)),
    ("lemma-2.2", dict(r=3, t=6)),
    ("lemma-2.2", dict(r=3, t=7)),
    ("lemma-2.2", dict(r=4, t=7)),
    ("sharpness", dict(r=3, t=6)),
    ("sharpness", dict(r=3, t=7)),
    ("sharpness", dict(r=3, t=8)),
    ("conjecture-2.1", dict(r=3, t=5)),
    ("conjecture-2.1", dict(r=3, t=6)),
    ("conjecture-2.2", dict(r=3, t=5)),
    ("conjecture-2.2", dict(r=3, t=6)),
    ("theorem-3.1", dict(t=6)),
    ("theorem-4.1", dict(t=5)),
    ("theorem-4.1", dict(t=6)),
    ("theorem-4.2", dict(r=4, t=8)),
    ("theorem-4.3", dict(t=7)),
    ("theorem-4.3", dict(t=8)),
    ("theorem-5.1", dict(t=5)),
    ("theorem-5.1", dict(t=6)),
    ("corollary-3.1", dict(t=6)),
    ("corollary-3.2", dict(t=6)),
]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="reports", help="where to write reports")
    ap.add_argument("--only", default=None, help="run claims whose id contains this")
    args = ap.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    worst = "pass"
    rank = {"pass": 0, "inconclusive": 1, "fail": 2}
    print(
        f"{'claim':<16} {'params':<24} {'verdict':<13} {'instances':>9} {'seconds':>8}"
        f" {'solves':>7} {'hits':>6}"
    )
    for claim, params in BATTERY:
        if args.only and args.only not in claim:
            continue
        before = solve.cache_info()
        t0 = time.perf_counter()
        report = run_claim(claim, **params)
        dt = time.perf_counter() - t0
        after = solve.cache_info()
        hits = after.hits - before.hits
        solves = hits + after.misses - before.misses
        tag = "_".join(f"{k}{v}" for k, v in sorted(params.items()))
        (out / f"{claim}__{tag}.json").write_text(report_to_json(report))
        (out / f"{claim}__{tag}.csv").write_text(report_to_csv(report))
        if rank[report.verdict] > rank[worst]:
            worst = report.verdict
        print(
            f"{claim:<16} {str(params):<24} {report.verdict:<13} "
            f"{report.instances_checked:>9} {dt:>8.3f} {solves:>7} {hits:>6}"
        )
    print(f"\noverall: {worst}   (reports in {out}{os.sep})")
    return {"pass": 0, "fail": 1, "inconclusive": 3}[worst]


if __name__ == "__main__":
    sys.exit(main())
