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

A row whose matrix cannot be factorized (a numerically singular leading
minor or factor, a norm that overflows on one, rank deficiency, a zero row to
scale by) keeps its key columns and reports ``None`` in the others, with the
reason in the table's notes; the rest of the table is unaffected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dense, lu_bounds, qr_bounds
from .errors import FACTORIZATION_FAILURES
from .matgen import graded_random, kahan, random_c_matrix

TABLE1_COLUMNS = ("d1", "d2", "gamma_L", "gamma_L_DL", "eta_DL",
                  "gamma_U", "gamma_U_DU", "eta_DU", "t_gamma", "t_gamma_D", "tau")
TABLE2_COLUMNS = ("n", "gamma_R", "t_gamma_R", "gamma_R_Dr", "t_gamma_R_Dr",
                  "eta_Dr", "gamma_R_De", "t_gamma_R_De", "eta_De")
TABLE3_COLUMNS = ("d1", "d2", "q", "gamma_R", "t_gamma_R", "gamma_R_Dr",
                  "t_gamma_R_Dr", "eta_Dr", "gamma_R_De", "t_gamma_R_De", "eta_De")
TABLE4_COLUMNS = ("n", "q", "gamma_R", "t_gamma_R", "gamma_R_Dr",
                  "t_gamma_R_Dr", "eta_Dr", "gamma_R_De", "t_gamma_R_De", "eta_De")

#: columns that report wall-clock seconds rather than reproducible numbers
TIMING_COLUMNS = frozenset({"t_gamma", "t_gamma_D", "t_gamma_R",
                            "t_gamma_R_Dr", "t_gamma_R_De"})
#: columns that identify a row; they survive a row whose matrix fails to factorize
KEY_COLUMNS = frozenset({"d1", "d2", "n"})
#: the order of table1's matrices, which ``table1 --epsilon ge`` also reads
TABLE1_ORDER = 10


@dataclass(frozen=True)
class TableResult:
    name: str
    columns: tuple
    rows: tuple  # of dicts keyed by column name; None where a row failed
    notes: tuple  # one line per failed row, with the reason


class _Rows:
    """Collects the rows of one table for one seed."""

    def __init__(self, name: str, columns: tuple, seed: int):
        self.name, self.columns, self.seed = name, columns, seed
        self.rows, self.notes = [], []

    def add(self, keys: dict, compute):
        """Add the row with key columns ``keys`` and the values ``compute()`` returns.

        When factorizing the row's matrix fails, every value is None and the
        reason goes to the notes.
        """
        try:
            values = compute()
        except FACTORIZATION_FAILURES as exc:
            where = ", ".join(f"{k}={v}" for k, v in keys.items())
            self.notes.append(f"{self.name} seed {self.seed}, {where}: "
                              f"{type(exc).__name__}: {exc}")
            values = {c: None for c in self.columns if c not in keys}
        self.rows.append({**keys, **values})

    def result(self) -> TableResult:
        return TableResult(name=self.name, columns=self.columns,
                           rows=tuple(self.rows), notes=tuple(self.notes))


def table1(seed: int, epsilon: float | None = None) -> TableResult:
    """Componentwise LU comparison on graded random matrices of order ``TABLE1_ORDER``.

    Each grading pair from {0.2, 1, 2} grades the draw of ``seed``, as in the
    original protocol; ``epsilon`` defaults to
    ``gaussian_elimination_epsilon(TABLE1_ORDER)``.
    """
    n, gradings = TABLE1_ORDER, (0.2, 1.0, 2.0)
    if epsilon is None:
        epsilon = lu_bounds.gaussian_elimination_epsilon(n)
    rows = _Rows("table1", TABLE1_COLUMNS, seed)
    for d1 in gradings:
        for d2 in gradings:
            a = graded_random(n, d1, d2, seed)
            rows.add({"d1": d1, "d2": d2}, lambda: _lu_table_row(a, epsilon))
    return rows.result()


def _lu_table_row(a: np.ndarray, epsilon: float) -> dict:
    rep = lu_bounds.lu_componentwise_bounds(dense.lu_factor(a), epsilon)
    return {
        "gamma_L": rep.gamma_l, "gamma_L_DL": rep.gamma_l_d,
        "eta_DL": rep.eta_dl,
        "gamma_U": rep.gamma_u, "gamma_U_DU": rep.gamma_u_d,
        "eta_DU": rep.eta_du,
        "t_gamma": rep.t_gamma, "t_gamma_D": rep.t_gamma_d,
        "tau": rep.tau,
    }


def _qr_table_row(a: np.ndarray, c: np.ndarray, epsilon: float,
                  include_q: bool = True) -> dict:
    factors = dense.qr_factor(a)
    rep = qr_bounds.qr_componentwise_bounds(factors, c, epsilon)
    row = {"q": rep.q_ratio} if include_q else {}
    row.update({
        "gamma_R": rep.gamma_r, "t_gamma_R": rep.t_gamma,
        "gamma_R_Dr": rep.gamma_r_dr, "t_gamma_R_Dr": rep.t_gamma_dr,
        "eta_Dr": rep.eta_dr,
        "gamma_R_De": rep.gamma_r_de, "t_gamma_R_De": rep.t_gamma_de,
        "eta_De": rep.eta_de,
    })
    return row


def table2(seed: int, sizes=(5, 10, 15, 20, 25)) -> TableResult:
    """Componentwise QR comparison on Kahan matrices (theta = pi/8) of the orders ``sizes``."""
    rows = _Rows("table2", TABLE2_COLUMNS, seed)
    for idx, n in enumerate(sizes):
        a = kahan(n, math.pi / 8.0)
        c = random_c_matrix(n, seed=_derived_seed(seed, idx))
        eps = lu_bounds.gaussian_elimination_epsilon(n)
        rows.add({"n": n}, lambda: _qr_table_row(a, c, eps, include_q=False))
    return rows.result()


def table3(seed: int, n: int = 20) -> TableResult:
    """Componentwise QR comparison on graded random matrices of order ``n``.

    Each grading pair from {0.8, 1, 2} grades the draw of ``seed``.
    """
    gradings = (0.8, 1.0, 2.0)
    c = random_c_matrix(n, seed=_derived_seed(seed, 0))
    eps = lu_bounds.gaussian_elimination_epsilon(n)
    rows = _Rows("table3", TABLE3_COLUMNS, seed)
    for d1 in gradings:
        for d2 in gradings:
            a = graded_random(n, d1, d2, seed)
            rows.add({"d1": d1, "d2": d2}, lambda: _qr_table_row(a, c, eps))
    return rows.result()


def table4(seed: int, sizes=(20, 25, 30, 35, 40, 45, 50, 55)) -> TableResult:
    """Componentwise QR comparison on graded random matrices, d1 = d2 = 0.8, orders ``sizes``."""
    rows = _Rows("table4", TABLE4_COLUMNS, seed)
    for idx, n in enumerate(sizes):
        a = graded_random(n, 0.8, 0.8, seed=_derived_seed(seed, idx))
        c = random_c_matrix(n, seed=_derived_seed(seed, 1000 + idx))
        eps = lu_bounds.gaussian_elimination_epsilon(n)
        rows.add({"n": n}, lambda: _qr_table_row(a, c, eps))
    return rows.result()


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
