"""Command-line harness for bound reports, verification runs, and tables.

Exit codes: 1 invalid configuration, 2 matrix parse failure (also a norm
outside the float64 range), 3 factorization failure (also a singular factor,
a norm that overflows on one, or a zero row to scale by), 4 bound inapplicable
in a mode that demands applicability, 5 norm estimation did not converge.

Matrix files are plain CSV: one row per line, no header, decimal floats. Each
subparser names its command's row function, and one path writes the rows of
every command. Output is deterministic for a fixed (configuration, seed) pair
except for the wall-clock timing columns, named ``t_*`` and rounded to 3
decimals; pass ``--no-timings`` to drop those and obtain byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time

import numpy as np

from . import dense, lu_bounds, qr_bounds, tables
from .errors import (
    FACTORIZATION_FAILURES,
    AbsOperatorTooLarge,
    BoundNotApplicable,
    DimensionMismatch,
    FperturbError,
    NoConvergence,
)
from .matgen import (
    ComponentwiseQR,
    PerturbationSpec,
    graded_random,
    kahan,
    random_c_matrix,
)
from .verify import EXPERIMENTS, delta_halving

EXIT_BAD_CONFIG = 1
EXIT_BAD_MATRIX = 2
EXIT_FACTORIZATION = 3
EXIT_INAPPLICABLE = 4
EXIT_NO_CONVERGENCE = 5

#: exit code of each library error that the commands report; a ValueError is a
#: rejected argument, such as a negative or NaN size
_ERROR_EXITS = (
    (DimensionMismatch, EXIT_BAD_MATRIX),
    (FACTORIZATION_FAILURES, EXIT_FACTORIZATION),
    (BoundNotApplicable, EXIT_INAPPLICABLE),
    (NoConvergence, EXIT_NO_CONVERGENCE),
    ((AbsOperatorTooLarge, ValueError), EXIT_BAD_CONFIG),
)


class CliError(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        super().__init__(message)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(EXIT_BAD_CONFIG, message)


@functools.cache     # parsing leaves the parser as it was, so one serves every call
def _build_parser() -> _Parser:
    # bench/tracer.py may wrap the library after the parser is built, so the
    # row functions look the library up through its modules when they run
    parser = _Parser(prog="fperturb",
                     description="perturbation bounds for LU and QR factorizations")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text, rows, matrix=True):
        # rows(args) returns the (rows, timings, violations) of the command
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(rows=rows)
        if matrix:
            g = p.add_mutually_exclusive_group()
            g.add_argument("--matrix", metavar="FILE", help="CSV matrix file")
            g.add_argument("--kahan", metavar="N,THETA",
                           help="graded triangular test matrix of order N with angle THETA")
            g.add_argument("--graded", metavar="N,D1,D2",
                           help="graded random matrix (uses --seed)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--output", choices=("csv", "markdown", "json"), default="csv")
        p.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")
        p.add_argument("--no-timings", action="store_true",
                       help="drop wall-clock columns for byte-identical output")
        return p

    p = command("lu-normwise", "normwise LU bound report", _report(lambda args, a:
                lu_bounds.lu_normwise_bounds(dense.lu_factor(a), args.delta)))
    p.add_argument("--delta", type=float, required=True)

    p = command("lu-componentwise", "componentwise LU bound report", _report(lambda args, a:
                lu_bounds.lu_componentwise_bounds(
                    dense.lu_factor(a), _resolve_epsilon(args.epsilon, len(a)))))
    p.add_argument("--epsilon", required=True,
                   help="perturbation size, or 'ge' for the n*u/(1-n*u) preset")

    p = command("qr-normwise", "normwise QR bound report", _report(lambda args, a:
                qr_bounds.qr_normwise_bounds(
                    dense.qr_factor(a),
                    args.delta if args.delta1 is None else args.delta1, args.delta)))
    p.add_argument("--delta", type=float, required=True, help="||dA||_F")
    p.add_argument("--delta1", type=float, default=None,
                   help="||Q^T dA||_F, defaults to --delta")

    p = command("qr-componentwise", "componentwise QR bound report", _report(lambda args, a:
                qr_bounds.qr_componentwise_bounds(
                    dense.qr_factor(a), _resolve_c(args, len(a)),
                    _resolve_epsilon(args.epsilon, len(a)))))
    p.add_argument("--epsilon", required=True)
    p.add_argument("--c-matrix", default="random",
                   help="envelope matrix: CSV file or 'random' (uses --seed)")

    p = command("verify", "Monte Carlo bound verification", _verify_rows)
    p.add_argument("--experiment", required=True, choices=list(EXPERIMENTS))
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--epsilon", default=None)
    p.add_argument("--c-matrix", default="random")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--delta-halving", type=int, default=0, metavar="K",
                   help="also verify at K successive halvings of the size")

    table = {name: command(name, f"reproduce {name} of the bound comparison",
                           _table_rows, matrix=False) for name in tables.TABLES}
    for p in table.values():
        p.add_argument("--seed-sweep", type=int, default=1, metavar="K",
                       help="aggregate K consecutive seeds by per-cell medians")
    table["table1"].add_argument("--epsilon", default=None)
    return parser


def _parse_floats(text: str, count: int, what: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != count:
        raise CliError(EXIT_BAD_CONFIG, f"{what} expects {count} comma-separated values")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise CliError(EXIT_BAD_CONFIG, f"cannot parse {what}: {exc}") from exc


def load_matrix_csv(path: str) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln for ln in fh.read().splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty matrix file")
        rows = [[float(cell) for cell in line.split(",")] for line in lines]
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            raise ValueError("rows have inconsistent lengths")
        m = np.asarray(rows, dtype=float)
        if not np.isfinite(m).all():
            raise ValueError("non-finite entry")
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(m)
        if not math.isfinite(norm) or (norm == 0.0 and m.any()):
            raise ValueError("Frobenius norm outside the float64 range")
        return m
    except OSError as exc:
        raise CliError(EXIT_BAD_MATRIX, f"cannot read matrix file: {exc}") from exc
    except ValueError as exc:
        raise CliError(EXIT_BAD_MATRIX, f"cannot parse matrix file: {exc}") from exc


def _parse_order(value: float, what: str) -> int:
    if not value.is_integer():
        raise CliError(EXIT_BAD_CONFIG, f"{what} needs an integer order, got {value!r}")
    return int(value)


def _resolve_matrix(args) -> np.ndarray:
    if args.matrix:
        return load_matrix_csv(args.matrix)
    # an order too large to allocate fails at once, before any memory is taken
    try:
        if args.kahan:
            n, theta = _parse_floats(args.kahan, 2, "--kahan")
            return kahan(_parse_order(n, "--kahan"), theta)
        if args.graded:
            n, d1, d2 = _parse_floats(args.graded, 3, "--graded")
            return graded_random(_parse_order(n, "--graded"), d1, d2, args.seed)
    except (ValueError, MemoryError) as exc:
        raise CliError(EXIT_BAD_CONFIG, str(exc)) from exc
    raise CliError(EXIT_BAD_CONFIG,
                   "one of --matrix / --kahan / --graded is required")


def _resolve_epsilon(text: str, n: int) -> float:
    if text == "ge":
        return lu_bounds.gaussian_elimination_epsilon(n)
    try:
        value = float(text)
    except ValueError as exc:
        raise CliError(EXIT_BAD_CONFIG, f"cannot parse --epsilon: {exc}") from exc
    if not (math.isfinite(value) and value >= 0.0):
        raise CliError(EXIT_BAD_CONFIG, "--epsilon must be finite and nonnegative")
    return value


def _resolve_c(args, m: int) -> np.ndarray:
    if args.c_matrix == "random":
        return random_c_matrix(m, args.seed)
    c = load_matrix_csv(args.c_matrix)
    if c.shape != (m, m):
        raise CliError(EXIT_BAD_MATRIX, f"envelope must be {m}x{m}, got {c.shape}")
    return c


def _timed_columns(rows: list[dict], no_timings: bool) -> list[dict]:
    """The rows with every timing column (``t_`` prefix) dropped, or rounded to 3 decimals."""
    return [{key: round(value, 3) if key.startswith("t_") and value is not None else value
             for key, value in row.items() if not (no_timings and key.startswith("t_"))}
            for row in rows]


def _run_command(args) -> tuple[list[dict], dict, int | None]:
    """Return (rows, timings, violations) for the parsed command."""
    if args.seed < 0:
        raise CliError(EXIT_BAD_CONFIG, f"--seed must be non-negative, got {args.seed}")
    t0 = time.perf_counter()
    try:
        rows, timings, violations = args.rows(args)
    except (FperturbError, ValueError) as exc:
        for errors, code in _ERROR_EXITS:
            if isinstance(exc, errors):
                raise CliError(code, str(exc)) from exc
        raise
    timings["total_s"] = round(time.perf_counter() - t0, 3)
    return _timed_columns(rows, args.no_timings), timings, violations


def _report(compute):
    """The row function of a bound command: the scalar fields of ``compute(args, matrix)``."""
    def rows(args):
        report = compute(args, _resolve_matrix(args))
        return [{key: value for key, value in vars(report).items()
                 if isinstance(value, (int, float, bool)) or value is None}], {}, None
    return rows


def _verify_rows(args) -> tuple[list[dict], dict, int]:
    a = _resolve_matrix(args)
    spec = _verify_spec(args, a)
    reports = delta_halving(a, spec, args.trials, args.delta_halving,
                            experiment=args.experiment)
    size = getattr(spec.model, EXPERIMENTS[args.experiment].size)
    rows = [{
        "level": level,
        "size": size * 0.5 ** level,
        "trials": rep.trials,
        "violations": rep.violations,
        "skipped": len(rep.skipped),
        "max_ratio_rigorous": rep.max_ratio_rigorous,
        "max_ratio_first_order": rep.max_ratio_first_order,
    } for level, rep in enumerate(reports)]
    # the first level's bounds time holds the work the levels share, so the
    # timings add up over the levels
    timings = {key: round(sum(rep.timings[key] for rep in reports), 3)
               for key in reports[0].timings}
    return rows, timings, sum(rep.violations for rep in reports)


def _table_rows(args) -> tuple[list[dict], dict, None]:
    """Rows of the table; a row whose matrix failed to factorize is printed
    as n/a, and its reason goes to stderr as a note."""
    if args.seed_sweep < 1:
        raise CliError(EXIT_BAD_CONFIG, "--seed-sweep must be at least 1")
    kwargs = {}
    if getattr(args, "epsilon", None) is not None:      # only table1 takes --epsilon
        kwargs["epsilon"] = _resolve_epsilon(args.epsilon, tables.TABLE1_ORDER)
    result = tables.seed_sweep(args.command, args.seed, args.seed_sweep, **kwargs)
    for note in result.notes:
        print(f"fperturb: note: {note}", file=sys.stderr)
    return list(result.rows), {}, None


def _verify_spec(args, a: np.ndarray) -> PerturbationSpec:
    exp = EXPERIMENTS[args.experiment]
    size = getattr(args, exp.size)
    if size is None:
        raise CliError(EXIT_BAD_CONFIG, f"{args.experiment} needs --{exp.size}")
    n = a.shape[0]
    # --delta is parsed as a float; --epsilon may also be the preset "ge"
    fields = {exp.size: size if exp.size == "delta" else _resolve_epsilon(size, n)}
    if exp.model is ComponentwiseQR:
        fields["c"] = _resolve_c(args, n)
    return PerturbationSpec(model=exp.model(**fields), seed=args.seed)


def _fmt(value, precise: bool) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        value = float(value)  # numpy scalars repr differently
        if not math.isfinite(value):
            return repr(value)
        return repr(value) if precise else f"{value:.3e}"
    return str(value)


def render_rows(rows: list[dict], markdown: bool = False) -> str:
    """The rows as CSV at full precision, or as a markdown table at 4 digits."""
    if not rows:
        return "\n"
    cols = list(rows[0].keys())
    lines = [cols] + [[_fmt(row[c], precise=not markdown) for c in cols] for row in rows]
    if not markdown:
        return "".join(",".join(cells) + "\n" for cells in lines)
    lines = ["| " + " | ".join(cells) + " |" for cells in lines]
    lines.insert(1, "|" + "|".join("---" for _ in cols) + "|")
    return "\n".join(lines) + "\n"


def render_json(rows: list[dict], config: dict, violations, timings) -> str:
    payload = {"config": config, "rows": rows,
               "violations": violations, "timings": timings}
    return json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n"


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        rows, timings, violations = _run_command(args)
    except CliError as exc:
        print(f"fperturb: error: {exc}", file=sys.stderr)
        return exc.code

    if args.no_timings:
        timings = {}
    config = {k: v for k, v in vars(args).items()
              if k not in ("out", "output", "rows") and v is not None}
    if args.output == "json":
        text = render_json(rows, config, violations, timings)
    else:
        text = render_rows(rows, markdown=args.output == "markdown")

    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
