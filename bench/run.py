"""Benchmark of fperturb: three workloads, end-to-end metrics and a traced run.

Run from the root of a checkout:

    python3 bench/run.py --workload tables --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30 --trace 1

``--trace 0`` prints the end-to-end metrics, measured with tracing off.
``--trace 1`` spends half the time untraced and half traced, and prints the
per-layer metrics of the traced passes and the tracing overhead. Every run
checks the outputs against the references in ``bench/reference``. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Times are in reference seconds,
which take out the speed swings of a shared machine (see ``speed``).

Each workload runs in its own process, so ``peak_rss_mb`` belongs to it;
``--workload all`` starts one process per workload.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# numpy, and the bench modules that import it, are imported inside functions:
# a --setup-only child must import numpy within its timed set-up.

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".bench_work"

#: the BLAS thread count, pinned before numpy is imported; operator norms can
#: differ in the last digit between one and two OpenBLAS threads
BLAS_THREADS = 1
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                     "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

#: set-up repetitions per run, each in a fresh interpreter; setup_s is their median
SETUP_REPEATS = 9

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("small_s", "s"), ("large_s", "s"),
              ("peak_rss_mb", "MB"))

WORKLOAD_NAMES = ("tables", "normwise", "verify")


def pin_environment():
    """Fix thread counts; must run before numpy is imported."""
    for var in _THREAD_VARIABLES:
        os.environ[var] = str(BLAS_THREADS)


def import_fperturb():
    """Import the package from the checkout's ``src``."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    fp = importlib.import_module("fperturb")
    for sub in ("cli", "tables", "verify"):
        importlib.import_module(f"fperturb.{sub}")
    return fp


def setup(workload: str, seed: int, workdir: Path, tiny: bool):
    """Import, make the inputs and warm up; returns (workload, seconds).

    In a fresh interpreter the time includes the import of numpy.
    """
    t0 = time.perf_counter()
    import_fperturb()
    import workloads

    wl = workloads.build(workload, seed, sys.modules["fperturb"], workdir, tiny=tiny)
    wl.warm_up()
    return wl, time.perf_counter() - t0


def measure_setup(args) -> float:
    """Median set-up time in reference seconds over fresh interpreters.

    Each repeat runs in its own interpreter and so pays the imports of numpy
    and fperturb as a user does.
    """
    import speed

    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    times = []
    before = speed.probe()
    for _ in range(1 if args.smoke else SETUP_REPEATS):
        proc = subprocess.run(cmd + (["--smoke"] if args.smoke else []),
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up of {args.workload} exited with code "
                               f"{proc.returncode}:\n{proc.stderr}")
        after = speed.probe()
        times.append(speed.reference_seconds(float(proc.stdout.split()[-1]), before, after))
        before = after
    return statistics.median(times)


def setup_only(args) -> float:
    workdir = WORK_DIR / f"setup-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return setup(args.workload, args.seed, workdir, args.smoke)[1]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


@dataclass
class PassResult:
    """One pass: times in reference seconds (see ``speed``), and the outputs."""
    small: float = 0.0
    large: float = 0.0
    raw: float = 0.0                # wall seconds of the items, as measured
    elapsed: float = 0.0            # wall seconds of the pass, probes included
    records: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return self.small + self.large


def run_pass(wl) -> PassResult:
    import speed

    result = PassResult()
    gc.collect()
    t_pass = time.perf_counter()
    before = speed.probe()
    for item in wl.items:
        t0 = time.perf_counter()
        try:
            record = item.run()
        except Exception as exc:  # an item that raises is counted, not fatal
            record = {"error": getattr(exc, "label", type(exc).__name__)}
        elapsed = time.perf_counter() - t0
        after = speed.probe()
        scaled = speed.reference_seconds(elapsed, before, after)
        if item.group == "small":
            result.small += scaled
        else:
            result.large += scaled
        before = after
        result.raw += elapsed
        result.records[item.name] = record
    result.elapsed = time.perf_counter() - t_pass
    return result


def run_passes(wl, seconds: float, after_pass=None) -> list[PassResult]:
    """Run whole passes for about ``seconds``: at least one, and no pass that
    would end well past the budget. ``after_pass`` sees each result."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(wl))
        if after_pass is not None:
            after_pass(passes[-1])
        elapsed = time.perf_counter() - start
        if elapsed + passes[-1].elapsed > seconds:
            return passes


def environment(seed: int, input_seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": BLAS_THREADS,
        "longdouble_eps": float(np.finfo(np.longdouble).eps),
        "git_sha": git_sha(),
        "seed": seed,
        "input_seed": input_seed,
    }


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_workload(args) -> dict:
    import check
    from tracer import LAYER_METRICS, Tracer

    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_s = measure_setup(args)
        wl, _ = setup(args.workload, args.seed, workdir, args.smoke)
        env = environment(args.seed, wl.input_seed)
        print("env " + json.dumps(env, sort_keys=True), flush=True)

        budget = args.seconds / 2.0 if args.trace else args.seconds
        untraced = run_passes(wl, budget)
        traced, layers = [], []
        if args.trace:
            tracer = Tracer()
            trace_file = WORK_DIR / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
            trace_file.parent.mkdir(parents=True, exist_ok=True)
            with open(trace_file, "w", encoding="utf-8") as fh:
                def collect(result):
                    layers.append(tracer.layer_metrics(result.wall / result.raw))
                    tracer.write_spans(fh, len(layers) - 1)
                    tracer.reset()

                tracer.install()
                try:
                    traced = run_passes(wl, budget, after_pass=collect)
                finally:
                    tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.smoke:  # no references for the tiny inputs: invariants only
        reference = {item.name: None for item in wl.items}
    else:
        reference = check.load_reference(args.workload, wl.input_seed) or {}
    all_passes = untraced + traced
    check_failed, errors = {}, {}
    for result in all_passes:
        for name, record in result.records.items():
            if "error" in record:
                errors[name] = record["error"]
            if name not in reference:
                check_failed[name] = ["no reference output"]
            elif found := check.problems(record, reference[name]):
                check_failed[name] = found
    failed = sum("error" in rec for r in all_passes for rec in r.records.values())
    viol = max(sum(check.violations(rec) for rec in r.records.values()) for r in all_passes)

    wall = statistics.median(r.wall for r in untraced)
    if args.trace:
        metrics = {name: {"value": statistics.median(layer[name] for layer in layers),
                          "unit": unit} for name, unit in LAYER_METRICS}
        metrics["trace.overhead_s"]["value"] = statistics.median(r.wall for r in traced) - wall
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": wall,
            "small_s": statistics.median(r.small for r in untraced),
            "large_s": statistics.median(r.large for r in untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    print(f"workload {args.workload}, seed {args.seed} (inputs {wl.input_seed}), "
          f"{len(untraced)} untraced and {len(traced)} traced passes")
    print("  pass wall_s: " + " ".join(f"{r.wall:.3f}" for r in all_passes)
          + "\n  pass wall seconds as measured: " + " ".join(f"{r.raw:.3f}" for r in all_passes))
    for name, metric in metrics.items():
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'ops (items per pass)':<44} {len(wl.items):>14d} count")
    print(f"  {'ops_failed (per pass)':<44} {failed // len(all_passes):>14d} count"
          + "".join(f"\n    {name}: {err}" for name, err in sorted(errors.items())))
    print(f"  {'check_failed':<44} {len(check_failed):>14d} count"
          + "".join(f"\n    {name}: {'; '.join(found[:3])}"
                    for name, found in sorted(check_failed.items())))
    print(f"  {'violations':<44} {viol:>14d} count")
    return {"correct": not check_failed and viol == 0,
            "attempted": len(wl.items) * len(all_passes),
            "failed": failed,
            "metrics": metrics}


def run_all(args) -> dict:
    """Run every workload in its own process and merge their results."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {workload} exited with code {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    return combined


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measuring time of the run; at least one pass runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs (n <= 6 but table1, a few trials), checked for invariants only")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "fperturb" / "__init__.py").is_file():
        print(f"bench: no fperturb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pin_environment()
    if args.setup_only:
        print(setup_only(args), flush=True)
        return 0
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
