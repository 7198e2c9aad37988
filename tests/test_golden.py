"""CLI output stays byte-identical to the golden files in ``tests/golden``.

The goldens hold ``--no-timings`` output of the table, bound and verify
commands. ``tests/golden/capture.py`` regenerates them when a change of
output is meant.
"""

import json
from pathlib import Path

import pytest

from fperturb import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_output_matches_golden(case, tmp_path):
    out = tmp_path / case["file"]
    assert cli.main(case["argv"] + ["--no-timings", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / case["file"]).read_bytes()
