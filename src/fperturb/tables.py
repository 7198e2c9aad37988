"""Reproduction of the bound-comparison experiment tables.

Four experiments compare the operator-norm bounds against the scaled
condition-number comparison bounds:

* table1: componentwise LU quantities on graded random matrices
  (n = 10, grading factors in {0.2, 1, 2}), one row per grading pair.
* table2: componentwise QR quantities on graded triangular test matrices
  (theta = pi/8, n in {5, 10, 15, 20, 25}).
* table3: componentwise QR quantities on graded random matrices
  (n = 20, grading factors in {0.8, 1, 2}).
* table4: componentwise QR quantities on graded random matrices with both
  grading factors 0.8 and n from 20 to 55.

Every gamma column reports a bound divided by the matrix norm and the
perturbation size, so the rows compare like against like. The random draws
are irreproducible in the original experiments, so a seed sweep reporting
per-column medians is the stable way to compare magnitudes.

Each row holds its key columns and, in each other column, the report field
that ``LU_FIELDS`` or ``QR_FIELDS`` maps it to. A row whose matrix cannot be
factorized (a numerically singular leading minor or factor, a norm that
overflows on one, rank deficiency, a zero row to scale by) keeps its key
columns and reports ``None`` in the others, with the reason in the table's
notes; the rest of the table is unaffected. A ``t_`` column holds
wall-clock seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dense, lu_bounds, qr_bounds
from .errors import FACTORIZATION_FAILURES
from .matgen import graded_random, kahan, random_c_matrix

#: table1's report columns, each mapped to its field of ``LuComponentwiseReport``
LU_FIELDS = {"gamma_L": "gamma_l", "gamma_L_DL": "gamma_l_d", "eta_DL": "eta_dl",
             "gamma_U": "gamma_u", "gamma_U_DU": "gamma_u_d", "eta_DU": "eta_du",
             "t_gamma": "t_gamma", "t_gamma_D": "t_gamma_d", "tau": "tau"}
#: the report columns of tables 2-4, each mapped to its field of
#: ``QrComponentwiseReport``; table2 leaves out the first, q
QR_FIELDS = {"q": "q_ratio", "gamma_R": "gamma_r", "t_gamma_R": "t_gamma",
             "gamma_R_Dr": "gamma_r_dr", "t_gamma_R_Dr": "t_gamma_dr", "eta_Dr": "eta_dr",
             "gamma_R_De": "gamma_r_de", "t_gamma_R_De": "t_gamma_de", "eta_De": "eta_de"}
#: key columns: the grading factors of a graded random matrix, or the order
_GRADINGS, _ORDER = ("d1", "d2"), ("n",)

TABLE1_COLUMNS = (*_GRADINGS, *LU_FIELDS)
TABLE2_COLUMNS = (*_ORDER, *list(QR_FIELDS)[1:])
TABLE3_COLUMNS = (*_GRADINGS, *QR_FIELDS)
TABLE4_COLUMNS = (*_ORDER, *QR_FIELDS)

#: columns that report wall-clock seconds rather than reproducible numbers
TIMING_COLUMNS = frozenset(c for c in (*LU_FIELDS, *QR_FIELDS) if c.startswith("t_"))
#: columns that identify a row; they survive a row whose matrix fails to factorize
KEY_COLUMNS = frozenset(_GRADINGS + _ORDER)
#: the order of table1's matrices, which ``table1 --epsilon ge`` also reads
TABLE1_ORDER = 10


@dataclass(frozen=True)
class TableResult:
    name: str
    columns: tuple
    rows: tuple  # of dicts keyed by column name; None where a row failed
    notes: tuple  # one line per failed row, with the reason


def _table(name: str, columns: tuple, fields: dict, seed: int,
           factor, bounds, cells) -> TableResult:
    """Table ``name`` of ``seed``, one row per ``(keys, a, *args)`` cell of ``cells``.

    A row holds its key columns, the values ``keys``, and then each other
    column's field ``fields[column]`` of the report ``bounds(factor(a),
    *args)``. When factorizing the row's matrix fails, every such value is
    None and the reason goes to the notes.
    """
    rows, notes = [], []
    for keys, a, *args in cells:
        row = dict(zip(columns, keys))
        try:
            report = bounds(factor(a), *args)
        except FACTORIZATION_FAILURES as exc:
            where = ", ".join(f"{k}={v}" for k, v in row.items())
            notes.append(f"{name} seed {seed}, {where}: {type(exc).__name__}: {exc}")
            report = None
        for column in columns[len(keys):]:
            row[column] = None if report is None else getattr(report, fields[column])
        rows.append(row)
    return TableResult(name=name, columns=columns, rows=tuple(rows), notes=tuple(notes))


def table1(seed: int, epsilon: float | None = None) -> TableResult:
    """Componentwise LU comparison on graded random matrices of order ``TABLE1_ORDER``.

    Each grading pair from {0.2, 1, 2} grades the draw of ``seed``, as in the
    original protocol; ``epsilon`` defaults to
    ``gaussian_elimination_epsilon(TABLE1_ORDER)``.
    """
    n, gradings = TABLE1_ORDER, (0.2, 1.0, 2.0)
    if epsilon is None:
        epsilon = lu_bounds.gaussian_elimination_epsilon(n)
    cells = []
    for d1 in gradings:
        for d2 in gradings:
            a = graded_random(n, d1, d2, seed)
            cells.append(((d1, d2), a, epsilon))
    return _table("table1", TABLE1_COLUMNS, LU_FIELDS, seed, dense.lu_factor,
                  lu_bounds.lu_componentwise_bounds, cells)


def table2(seed: int, sizes=(5, 10, 15, 20, 25)) -> TableResult:
    """Componentwise QR comparison on Kahan matrices (theta = pi/8) of the orders ``sizes``."""
    cells = []
    for idx, n in enumerate(sizes):
        a = kahan(n, math.pi / 8.0)
        c = random_c_matrix(n, seed=_derived_seed(seed, idx))
        eps = lu_bounds.gaussian_elimination_epsilon(n)
        cells.append(((n,), a, c, eps))
    return _table("table2", TABLE2_COLUMNS, QR_FIELDS, seed, dense.qr_factor,
                  qr_bounds.qr_componentwise_bounds, cells)


def table3(seed: int, n: int = 20) -> TableResult:
    """Componentwise QR comparison on graded random matrices of order ``n``.

    Each grading pair from {0.8, 1, 2} grades the draw of ``seed``.
    """
    gradings = (0.8, 1.0, 2.0)
    c = random_c_matrix(n, seed=_derived_seed(seed, 0))
    eps = lu_bounds.gaussian_elimination_epsilon(n)
    cells = []
    for d1 in gradings:
        for d2 in gradings:
            a = graded_random(n, d1, d2, seed)
            cells.append(((d1, d2), a, c, eps))
    return _table("table3", TABLE3_COLUMNS, QR_FIELDS, seed, dense.qr_factor,
                  qr_bounds.qr_componentwise_bounds, cells)


def table4(seed: int, sizes=(20, 25, 30, 35, 40, 45, 50, 55)) -> TableResult:
    """Componentwise QR comparison on graded random matrices, d1 = d2 = 0.8, orders ``sizes``."""
    cells = []
    for idx, n in enumerate(sizes):
        a = graded_random(n, 0.8, 0.8, seed=_derived_seed(seed, idx))
        c = random_c_matrix(n, seed=_derived_seed(seed, 1000 + idx))
        eps = lu_bounds.gaussian_elimination_epsilon(n)
        cells.append(((n,), a, c, eps))
    return _table("table4", TABLE4_COLUMNS, QR_FIELDS, seed, dense.qr_factor,
                  qr_bounds.qr_componentwise_bounds, cells)


def _derived_seed(seed: int, index: int) -> int:
    # keep derived seeds reproducible and collision-free across table cells
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


TABLES = {"table1": table1, "table2": table2, "table3": table3, "table4": table4}


def seed_sweep(name: str, base_seed: int, count: int, **kwargs) -> TableResult:
    """Run a table for ``count`` consecutive seeds and report per-cell medians.

    Key columns (grading factors, sizes) are carried through unchanged;
    every other column becomes the median over the seeds that gave a value,
    and None when none did. The notes of every seed are kept.
    """
    if count < 1:
        raise ValueError("seed sweep count must be at least 1")
    fn = TABLES[name]
    results = [fn(base_seed + i, **kwargs) for i in range(count)]
    first = results[0]
    if count == 1:      # the median of one value is that value
        return first
    rows = []
    for r_idx in range(len(first.rows)):
        row = {}
        for col in first.columns:
            if col in KEY_COLUMNS:
                row[col] = first.rows[r_idx][col]
                continue
            values = [res.rows[r_idx][col] for res in results
                      if res.rows[r_idx][col] is not None]
            row[col] = float(np.median(values)) if values else None
        rows.append(row)
    return TableResult(name=first.name, columns=first.columns, rows=tuple(rows),
                       notes=tuple(note for res in results for note in res.notes))
