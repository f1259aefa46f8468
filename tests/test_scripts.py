"""The scripts under scripts/ still run against the library they import."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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
