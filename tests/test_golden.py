"""CLI output stays byte-identical to the golden files in ``tests/golden``.

The goldens hold ``--no-timings`` output of the table, bound and verify
commands. ``tests/golden/capture.py`` regenerates them when a change of
output is meant, and its ``--drift`` mode shows how far a re-capture moves.
"""

import json
import sys
from pathlib import Path

import pytest

from fperturb import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(GOLDEN))
import capture  # noqa: E402


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_output_matches_golden(case, tmp_path):
    out = tmp_path / case["file"]
    assert cli.main(case["argv"] + ["--no-timings", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / case["file"]).read_bytes()


def test_drift_allows_only_numeric_changes():
    assert capture.token_drift("x,y\n1.0,true\n", "x,y\n1.0,true\n") == 0.0
    assert capture.token_drift("x\n0.0\n", "x\n-0.0\n") == 0.0
    assert capture.token_drift('{"x": 2.0}', '{"x": 2.000000002}') == pytest.approx(1e-9)
    assert capture.token_drift("x\ntrue\n", "x\nfalse\n") is None
    assert capture.token_drift("x\nn/a\n", "x\n0.5\n") is None
    assert capture.token_drift("x,y\n1,2\n", "x,z\n1,2\n") is None
    assert capture.token_drift("x\n1\n", "x\n1\n2\n") is None
