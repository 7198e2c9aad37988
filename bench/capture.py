"""Capture the reference outputs that ``bench/run.py`` checks against.

    python3 bench/capture.py [workload ...]

Runs one pass of each workload for every input seed and writes
``bench/reference/<workload>.json``. Items that raise are stored as expected
failures. Capture again only when a change alters results on purpose, and
say so in the change.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def capture(workload: str) -> dict:
    import workloads

    seeds = {}
    workdir = run.WORK_DIR / f"capture-{workload}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for seed in range(workloads.REFERENCE_SEEDS):
            wl, setup_s = run.setup(workload, seed, workdir, tiny=False)
            result = run.run_pass(wl)
            seeds[str(seed)] = result.records
            failures = sum("error" in r for r in result.records.values())
            print(f"{workload} seed {seed}: {failures} expected failures; setup "
                  f"{setup_s:.3f} s, wall {result.wall:.3f} s, small {result.small:.3f} s, "
                  f"large {result.large:.3f} s", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"workload": workload, "git_sha": run.git_sha(), "seeds": seeds}


def main(argv: list[str]) -> int:
    run.pin_environment()
    import check

    check.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in argv or run.WORKLOAD_NAMES:
        payload = capture(workload)
        path = check.REFERENCE_DIR / f"{workload}.json"
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
