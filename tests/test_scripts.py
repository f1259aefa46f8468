"""The scripts under scripts/ still run against the library they import.

`data/battery_verdicts.csv` records the verdict of every instance of the
default claim battery. Rewrite it only when a verdict is meant to change:

    PYTHONPATH=src python tests/test_scripts.py
"""

import os
import runpy
import subprocess
import sys
from pathlib import Path

from hyperlag import CLAIMS, run_claim

ROOT = Path(__file__).resolve().parent.parent
BATTERY = runpy.run_path(str(ROOT / "scripts" / "run_claim_battery.py"))["BATTERY"]
BATTERY_VERDICTS = Path(__file__).parent / "data" / "battery_verdicts.csv"


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_claim_battery_writes_reports(tmp_path):
    proc = run_script("run_claim_battery.py", "--only", "sharpness", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    # three sharpness entries, one JSON and one CSV report each
    assert len(list(tmp_path.iterdir())) == 6


def test_claim_battery_counts_solves_and_memo_hits(tmp_path):
    proc = run_script("run_claim_battery.py", "--only", "corollary", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    header, *lines = proc.stdout.splitlines()
    assert header.split()[-2:] == ["solves", "hits"]
    counts = {
        line.split()[0]: tuple(int(c) for c in line.split()[-2:])
        for line in lines
        if line.startswith("corollary-")
    }
    assert set(counts) == {"corollary-3.1", "corollary-3.2"}
    assert counts["corollary-3.1"][0] > 0
    assert counts["corollary-3.2"][1] > 0


def test_every_claim_is_in_the_battery_and_the_goldens():
    from test_golden_reports import CASES

    assert set(CLAIMS) <= {claim for claim, _ in BATTERY}
    assert set(CLAIMS) <= {claim for claim, _ in CASES}


def battery_verdicts():
    """One line per instance of the battery: claim, params, m, edge hash, verdict."""
    lines = ["claim,params,m,edge_hash,verdict"]
    for claim, params in BATTERY:
        tag = "_".join(f"{k}{v}" for k, v in sorted(params.items()))
        for row in run_claim(claim, **params).rows:
            lines.append(f"{claim},{tag},{row.m},{row.edge_hash},{row.verdict}")
    return lines


def test_battery_verdicts_match_recording():
    assert battery_verdicts() == BATTERY_VERDICTS.read_text().splitlines()


if __name__ == "__main__":
    lines = battery_verdicts()
    BATTERY_VERDICTS.write_text("\n".join(lines) + "\n")
    print(f"recorded {len(lines) - 1} instance verdicts in {BATTERY_VERDICTS}")
