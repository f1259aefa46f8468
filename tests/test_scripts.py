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
