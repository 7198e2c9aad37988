"""The three benchmark workloads: inputs made from a seed, and the items of one pass.

A workload is built by :func:`build` from freshly imported ``fperturb``
modules. Items look the library up through those modules at call time, so
the wrappers the tracer installs on module attributes see every call.

* ``tables`` runs the paper's table reproduction through the CLI. Its cost
  sits in dense materialization of the componentwise operators.
* ``normwise`` runs the matrix-free normwise reports through the library
  API. Its cost sits in power iteration over ``StructuredOperator.apply``.
* ``verify`` runs Monte Carlo verification through the CLI. Its cost sits
  in perturbation sampling and the extended-precision refactorization.

Each item belongs to the ``small`` or the ``large`` group, which the
``small_s`` and ``large_s`` metrics time separately.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

#: number of distinct input sets; the workload seed selects one (seed mod this),
#: so that every run can be checked against a reference captured for its inputs
REFERENCE_SEEDS = 16

#: perturbation size of the normwise reports; it does not change their cost
NORMWISE_DELTA = 1e-12

#: share of its applicability gate at which each verify perturbation size is set
GATE_SHARE = 0.1

EXPERIMENTS = ("lu-normwise", "lu-componentwise", "qr-normwise", "qr-componentwise")


@dataclass(frozen=True)
class Item:
    name: str
    group: str                      # "small" or "large"
    run: Callable[[], dict]         # returns the output record that is checked


@dataclass(frozen=True)
class Workload:
    input_seed: int
    items: tuple
    warm_up: Callable[[], object]


def input_seed(seed: int) -> int:
    return seed % REFERENCE_SEEDS


def derived_seed(seed: int, *index: int) -> int:
    return int(np.random.SeedSequence([seed, *index]).generate_state(1)[0])


def build(name: str, seed: int, fp, workdir: Path, tiny: bool = False) -> Workload:
    """Make the inputs of workload ``name`` from ``seed``.

    ``fp`` is the freshly imported ``fperturb`` package. ``tiny`` selects
    matrices of order at most 6 (table1 at its default order 10) and a few
    trials, for the harness smoke test.
    """
    builders = {"tables": _tables, "normwise": _normwise, "verify": _verify}
    if name not in builders:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(builders)}")
    s = input_seed(seed)
    items, warm_up = builders[name](s, fp, workdir, tiny)
    return Workload(input_seed=s, items=_interleave(items), warm_up=warm_up)


def _interleave(items) -> tuple:
    """Spread the small and the large items evenly over the pass.

    The speed of a shared machine drifts within seconds; interleaving makes a
    drift during a pass change ``small_s`` and ``large_s`` alike, instead of
    landing on whichever group runs in that stretch.
    """
    groups = {}
    for item in items:
        groups.setdefault(item.group, []).append(item)
    placed = [((k + 0.5) / len(group), item)
              for group in groups.values() for k, item in enumerate(group)]
    return tuple(item for _, item in sorted(placed, key=lambda pair: pair[0]))


class CliExit(Exception):
    """The CLI returned a nonzero exit code instead of a report."""

    def __init__(self, code: int):
        self.label = f"CliExit({code})"
        super().__init__(f"fperturb exited with code {code}")


def _cli_json(fp, argv: list, out: Path) -> dict:
    code = fp.cli.main(argv + ["--output", "json", "--no-timings", "--out", str(out)])
    if code != 0:
        raise CliExit(code)
    payload = json.loads(out.read_text(encoding="utf-8"))
    return {"rows": payload["rows"], "violations": payload["violations"]}


# --------------------------------------------------------------------------- tables

def _tables(seed, fp, workdir, tiny):
    out = workdir / "table.json"

    def cli_table(table):
        return lambda: _cli_json(fp, [table, "--seed", str(seed)], out)

    def lib_table(table, kwargs):
        # the CLI has no size arguments, so the smoke configuration calls the
        # builders for all but table1, whose default order (n = 10) is cheap
        # enough to keep the CLI path of this workload under test
        def run():
            result = fp.tables.TABLES[table](seed, **kwargs)
            return {"rows": [{c: row[c] for c in result.columns
                              if c not in fp.tables.TIMING_COLUMNS} for row in result.rows]}
        return run

    if tiny:
        sizes = {"table2": {"sizes": (3, 4)}, "table3": {"n": 4}, "table4": {"sizes": (5, 6)}}
        make = {"table1": cli_table("table1"), **{t: lib_table(t, kw) for t, kw in sizes.items()}}
    else:
        make = {t: cli_table(t) for t in ("table1", "table2", "table3", "table4")}
    items = [Item(t, "large" if t == "table4" else "small", make[t])
             for t in ("table1", "table2", "table3", "table4")]
    return items, make["table1"]


# ------------------------------------------------------------------------- normwise

def _normwise(seed, fp, workdir, tiny):
    """Normwise LU and QR reports on three matrix families.

    The spectra of the factor maps, and with them the matvec budget of power
    iteration, are fixed by one base draw per family and order. The seed
    applies a random signature similarity D A D (D diagonal with entries +-1):
    it changes the sign of entries, factors and iterates, while the operator
    norms stay the same. With independent draws per seed the matvec count of
    the clustered family ranges over a factor of four, which no run-to-run
    bound can absorb.
    """
    mg = fp.matgen
    families = {
        "graded": lambda n: mg.graded_random(n, 0.95, 0.95, 0),     # well separated
        "kahan": lambda n: mg.kahan(n, 1.2),                        # well separated
        "shifted": lambda n: mg.graded_random(n, 1.0, 1.0, 0) + n * np.eye(n),  # clustered
    }
    if tiny:
        plan = [(5, ("graded", "kahan", "shifted"), 2, "small"),
                (6, ("graded", "kahan", "shifted"), 1, "large")]
    else:
        plan = [(50, ("graded", "kahan", "shifted"), 3, "small"),
                (100, ("graded", "kahan", "shifted"), 1, "large"),
                (200, ("graded", "kahan"), 1, "large")]

    items = []
    for n, names, draws, group in plan:
        for fam in names:
            base = families[fam](n)
            for draw in range(draws):
                rng = np.random.default_rng([seed, n, list(families).index(fam), draw])
                signs = rng.choice([-1.0, 1.0], n)
                a = signs[:, None] * base * signs[None, :]
                label = f"{fam}{n}.{draw}"
                items.append(Item(f"{label}.lu", group, _lu_normwise(fp, a)))
                items.append(Item(f"{label}.qr", group, _qr_normwise(fp, a)))

    warm = mg.kahan(8, 1.2)
    return items, lambda: (_lu_normwise(fp, warm)(), _qr_normwise(fp, warm)())


def _report_record(report) -> dict:
    record = {}
    for key, value in vars(report).items():
        if value is None or isinstance(value, (bool, np.bool_)):
            record[key] = None if value is None else bool(value)
        elif isinstance(value, (int, float)):
            record[key] = float(value)
    return record


def _lu_normwise(fp, a):
    return lambda: _report_record(fp.lu_bounds.lu_normwise_bounds(fp.dense.lu_factor(a),
                                                                  NORMWISE_DELTA))


def _qr_normwise(fp, a):
    return lambda: _report_record(fp.qr_bounds.qr_normwise_bounds(
        fp.dense.qr_factor(a), NORMWISE_DELTA, NORMWISE_DELTA))


# --------------------------------------------------------------------------- verify

def _verify(seed, fp, workdir, tiny):
    """Monte Carlo verification of all four theorems on three matrices.

    Every perturbation size is 1/10 of its applicability gate, computed from
    the bound report at size 0; this is the recipe of the acceptance suite.
    """
    mg = fp.matgen
    if tiny:
        plan = [("graded4", mg.graded_random(4, 1.0, 1.0, derived_seed(seed, 0)), 5, "small"),
                ("kahan4", mg.kahan(4, math.pi / 8), 5, "small"),
                ("graded6", mg.graded_random(6, 1.0, 1.0, derived_seed(seed, 1)), 5, "large")]
        halving = (3, 1)
    else:
        plan = [("graded10", mg.graded_random(10, 1.0, 1.0, derived_seed(seed, 0)), 1000, "small"),
                ("kahan10", mg.kahan(10, math.pi / 8), 1000, "small"),
                ("graded40", mg.graded_random(40, 1.0, 1.0, derived_seed(seed, 1)), 300, "large")]
        halving = (100, 3)       # trials, levels, on the last matrix

    items = []
    warm_up = None
    for idx, (label, a, trials, group) in enumerate(plan):
        n = a.shape[0]
        c = mg.random_c_matrix(n, derived_seed(seed, 100 + idx))
        matrix_csv = _write_csv(workdir / f"{label}.csv", a)
        c_csv = _write_csv(workdir / f"{label}_c.csv", c)
        sizes = verify_sizes(fp, a, c)
        perturb_seed = str(derived_seed(seed, 200 + idx))
        out = workdir / f"{label}.json"

        def argv(experiment, trials, extra=()):
            flag = "--delta" if experiment.endswith("normwise") else "--epsilon"
            args = ["verify", "--experiment", experiment, "--matrix", matrix_csv,
                    flag, repr(sizes[experiment]), "--trials", str(trials),
                    "--seed", perturb_seed, *extra]
            if experiment == "qr-componentwise":
                args += ["--c-matrix", c_csv]
            return args

        for experiment in EXPERIMENTS:
            cmd = argv(experiment, trials)
            items.append(Item(f"{label}.{experiment}", group,
                              lambda cmd=cmd, out=out: _cli_json(fp, cmd, out)))
        if warm_up is None:
            cmd = argv("lu-normwise", 10)
            warm_up = lambda cmd=cmd, out=out: _cli_json(fp, cmd, out)
        if idx == len(plan) - 1:
            cmd = argv("lu-componentwise", halving[0], ("--delta-halving", str(halving[1])))
            items.append(Item(f"{label}.lu-componentwise.halving", group,
                              lambda cmd=cmd, out=out: _cli_json(fp, cmd, out)))
    return items, warm_up


def _write_csv(path: Path, m: np.ndarray) -> str:
    path.write_text("".join(",".join(repr(float(x)) for x in row) + "\n" for row in m),
                    encoding="utf-8")
    return str(path)


def verify_sizes(fp, a, c) -> dict:
    """Perturbation size per experiment at ``GATE_SHARE`` of its applicability gate."""
    fl = fp.dense.lu_factor(a)
    fq = fp.dense.qr_factor(a)
    lun = fp.lu_bounds.lu_normwise_bounds(fl, 0.0)
    luc = fp.lu_bounds.lu_componentwise_bounds(fl, 0.0)
    qrn = fp.qr_bounds.qr_normwise_bounds(fq, 0.0, 0.0)
    qrc = fp.qr_bounds.qr_componentwise_bounds(fq, c, 0.0)

    # lu-normwise gate: ||lower|| ||upper|| delta < 1/4
    lu_delta = GATE_SHARE / (lun.l_op_norm * lun.u_op_norm)
    # qr-normwise gate: quad (lin d + quad d^2) < 1/4, solved for d
    g, h = qrn.linear_op_norm, qrn.quadratic_op_norm
    qr_delta = (-g + math.sqrt(g * g + 4.0 * GATE_SHARE)) / (2.0 * h)
    # lu-componentwise gates: |c| eps < 1 and 4 a ||abs upper|| eps < (1 - c eps)^2
    guards = []
    if luc.c != 0.0:
        guards.append(GATE_SHARE / abs(luc.c))
    if luc.a * luc.abs_u_op_norm > 0.0:
        guards.append(GATE_SHARE / (4.0 * luc.a * luc.abs_u_op_norm))
    lu_eps = min(guards) if guards else 0.01
    # qr-componentwise gate: c_t (a_t eps + b_t eps^2) < 1/4, solved for eps
    at, bt, ct = qrc.a_t, qrc.b_t, qrc.c_t
    if ct == 0.0 or at == 0.0:
        qr_eps = 0.01
    elif bt > 0.0:
        qr_eps = (-at + math.sqrt(at * at + 4.0 * GATE_SHARE * bt / ct)) / (2.0 * bt)
    else:
        qr_eps = GATE_SHARE / (ct * at)
    return {"lu-normwise": lu_delta, "lu-componentwise": lu_eps,
            "qr-normwise": qr_delta, "qr-componentwise": qr_eps}
