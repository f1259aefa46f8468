"""Byte-for-byte regression of claim reports against recorded output.

Every case runs `run_claim` at the harness solver settings (seed 0) and
compares `report_to_json` and `report_to_csv` with the text recorded in
`data/golden_reports.json`. Rewrite the recording only when a change to a
claim's output is intended:

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import json
from pathlib import Path

import pytest

from hyperlag import report_to_csv, report_to_json, run_claim

GOLDEN = Path(__file__).parent / "data" / "golden_reports.json"

CASES = [
    ("lemma-2.2", {"r": 3, "t": 5}),
    ("lemma-2.2", {"r": 2, "t": 4}),
    ("lemma-2.2", {"r": 4, "t": 7}),
    ("sharpness", {"r": 3, "t": 6}),
    ("conjecture-2.1", {"t": 5}),
    ("conjecture-2.2", {"t": 5}),
    ("theorem-3.1", {"t": 6, "m": 10}),
    ("theorem-4.1", {"t": 5}),
    ("theorem-4.3", {"t": 7}),
    ("corollary-3.1", {"t": 5}),
    ("corollary-3.2", {"t": 5}),
    ("corollary-3.1", {"t": 6, "m": 10}),
    ("corollary-3.2", {"t": 6, "m": 10}),
    ("theorem-5.1", {"t": 5}),
    ("theorem-4.2", {"r": 4, "t": 8}),
]


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


if __name__ == "__main__":
    recorded = {case_key(c, p): render(c, p) for c, p in CASES}
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} cases in {GOLDEN}")
