"""Regenerate the golden CLI outputs that ``tests/test_golden.py`` compares.

Run from the root of a checkout, and only when a change of output is meant:

    PYTHONPATH=src python3 tests/golden/capture.py
    PYTHONPATH=src python3 tests/golden/capture.py verify-qr-normwise verify-qr-componentwise

Without arguments every case is re-captured and ``cases.json`` rewritten.
With case names, only those cases are re-captured, and only their entries
of ``cases.json`` are rewritten; every other golden stays as it is.

Before re-capturing, ``--drift`` runs the committed command lines of
``cases.json`` into a temporary directory and compares them with the
committed goldens token by token: it prints, per file, the largest relative
change of a numeric token, and it fails when any other token (a boolean,
``n/a``, a column name) or the token count changed. It does not recompute
the verify sizes, so it shows how far the outputs moved and nothing else.

Every case is one ``fperturb`` command line, run with ``--no-timings`` so its
output is byte-identical from run to run. The cases go to ``cases.json`` and
each output to ``<case>.<format>`` in this directory (``.md`` for markdown). The verify cases set
each perturbation size at a tenth of its applicability gate, computed with
``verify_sizes`` from the benchmark's workloads.
"""

from __future__ import annotations

import json
import math
import re
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import fperturb  # noqa: E402
from fperturb import cli  # noqa: E402
from fperturb.matgen import graded_random, kahan, random_c_matrix  # noqa: E402
from workloads import verify_sizes  # noqa: E402

KAHAN = ["--kahan", "8,0.3927"]
GRADED = ["--graded", "10,0.9,1.1", "--seed", "3"]
BOUND_FLAGS = {
    "lu-normwise": ["--delta", "1e-6"],
    "lu-componentwise": ["--epsilon", "ge"],
    "qr-normwise": ["--delta", "1e-6", "--delta1", "5e-7"],
    "qr-componentwise": ["--epsilon", "ge"],
}
VERIFY_TRIALS = "50"


def cases() -> list[dict]:
    out = []

    def add(name, argv, fmt="csv"):
        ext = "md" if fmt == "markdown" else fmt
        out.append({"name": name, "argv": argv + ["--output", fmt], "file": f"{name}.{ext}"})

    for table in ("table1", "table2", "table3"):
        add(table, [table])
    add("table2-sweep2", ["table2", "--seed-sweep", "2"])

    for command, flags in BOUND_FLAGS.items():
        add(f"{command}-kahan", [command, *KAHAN, *flags])
        add(f"{command}-graded", [command, *GRADED, *flags])
    add("lu-componentwise-graded-json",
        ["lu-componentwise", *GRADED, *BOUND_FLAGS["lu-componentwise"]], fmt="json")
    # markdown: a table, and a report past its gate, with n/a and booleans
    add("table2-sweep1-markdown", ["table2", "--seed-sweep", "1"], fmt="markdown")
    add("lu-componentwise-kahan-markdown",
        ["lu-componentwise", *KAHAN, "--epsilon", "1e-3"], fmt="markdown")

    # verify: graded order 10 for all four experiments, and a halving run each on
    # Kahan (QR) and on a graded matrix (LU)
    graded = ["--graded", "10,1,1", "--seed", "3"]
    sizes = verify_sizes(fperturb, graded_random(10, 1.0, 1.0, 3), random_c_matrix(10, 3))
    for experiment, size in sizes.items():
        flag = "--delta" if experiment.endswith("normwise") else "--epsilon"
        add(f"verify-{experiment}", ["verify", "--experiment", experiment, *graded,
                                     flag, repr(size), "--trials", VERIFY_TRIALS])
    halving = ["--kahan", "8,0.3927", "--seed", "5"]
    size = verify_sizes(fperturb, kahan(8, 0.3927), random_c_matrix(8, 5))["qr-componentwise"]
    add("verify-qr-componentwise-halving2",
        ["verify", "--experiment", "qr-componentwise", *halving, "--epsilon", repr(size),
         "--trials", VERIFY_TRIALS, "--delta-halving", "2"])
    size = verify_sizes(fperturb, graded_random(10, 0.9, 1.1, 3),
                        random_c_matrix(10, 3))["lu-componentwise"]
    add("verify-lu-componentwise-halving2",
        ["verify", "--experiment", "lu-componentwise", *GRADED, "--epsilon", repr(size),
         "--trials", VERIFY_TRIALS, "--delta-halving", "2"])
    return out


def run_cases(all_cases: list[dict], dest: Path) -> bool:
    """Write every case's output into ``dest``; False when a command fails."""
    for case in all_cases:
        code = cli.main(case["argv"] + ["--no-timings", "--out", str(dest / case["file"])])
        if code != 0:
            print(f"{case['name']}: fperturb exited with code {code}", file=sys.stderr)
            return False
    return True


#: separators of CSV and JSON output; they are kept as tokens of their own
SEPARATORS = re.compile(r'([\s,:\[\]{}"]+)')


def _number(token: str) -> float | None:
    try:
        value = float(token)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def token_drift(old: str, new: str) -> float | None:
    """Largest relative change of a numeric token; None when any other token differs."""
    old_tokens, new_tokens = SEPARATORS.split(old), SEPARATORS.split(new)
    if len(old_tokens) != len(new_tokens):
        return None
    drift = 0.0
    for a, b in zip(old_tokens, new_tokens):
        if a == b:
            continue
        x, y = _number(a), _number(b)
        if x is None or y is None:
            return None
        if x != y:
            drift = max(drift, abs(x - y) / max(abs(x), abs(y)))
    return drift


def drift(all_cases: list[dict]) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        if not run_cases(all_cases, Path(tmp)):
            return 1
        changed = []
        for case in all_cases:
            old = (HERE / case["file"]).read_text(encoding="utf-8")
            new = (Path(tmp) / case["file"]).read_text(encoding="utf-8")
            rel = token_drift(old, new)
            print(f"{case['file']}: " + ("non-numeric change" if rel is None else f"{rel:.1e}"))
            if rel is None:
                changed.append(case["file"])
    if changed:
        print(f"non-numeric changes in {len(changed)} files", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str]) -> int:
    if argv == ["--drift"]:
        return drift(json.loads((HERE / "cases.json").read_text(encoding="utf-8")))
    all_cases = cases()
    if set(argv) - {case["name"] for case in all_cases}:
        print("usage: capture.py [--drift | CASE...], CASE one of: "
              + " ".join(case["name"] for case in all_cases), file=sys.stderr)
        return 2
    chosen = [case for case in all_cases if not argv or case["name"] in argv]
    if not run_cases(chosen, HERE):
        return 1
    if argv:        # the committed entries of the other cases stay as they are
        fresh = {case["name"]: case for case in chosen}
        committed = json.loads((HERE / "cases.json").read_text(encoding="utf-8"))
        all_cases = [fresh.pop(case["name"], case) for case in committed] + list(fresh.values())
    (HERE / "cases.json").write_text(json.dumps(all_cases, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(chosen)} golden outputs to {HERE}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
