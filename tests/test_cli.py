"""Command-line interface: parsing, exit codes, report formats, determinism."""

import dataclasses
import json

import numpy as np
import pytest

from fperturb import cli, dense, lu_bounds, tables
from fperturb.cli import main
from fperturb.lu_bounds import LuComponentwiseReport, lu_componentwise_bounds
from fperturb.matgen import kahan
from fperturb.qr_bounds import QrComponentwiseReport
from fperturb.structured import operator_materialize
from fperturb.tables import (
    KEY_COLUMNS,
    LU_FIELDS,
    QR_FIELDS,
    TABLE1_COLUMNS,
    TABLE2_COLUMNS,
    TABLE3_COLUMNS,
    TABLE4_COLUMNS,
    TIMING_COLUMNS,
)
from fperturb.verify import VerificationReport


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def write_matrix(path, a):
    with open(path, "w", encoding="utf-8") as fh:
        for row in np.atleast_2d(a):
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


class TestExitCodes:
    def test_missing_source_is_config_error(self, capsys):
        code, _, err = run(["lu-normwise", "--delta", "0.1"], capsys)
        assert code == 1
        assert "required" in err

    def test_unknown_option_is_config_error(self, capsys):
        code, _, _ = run(["lu-normwise", "--nope"], capsys)
        assert code == 1

    def test_empty_matrix_file(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("")
        code, _, err = run(["lu-normwise", "--matrix", str(path), "--delta", "0.1"],
                           capsys)
        assert code == 2
        assert "matrix" in err

    def test_malformed_matrix_file(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3\n")
        code, _, _ = run(["lu-normwise", "--matrix", str(path), "--delta", "0.1"],
                         capsys)
        assert code == 2

    def test_factorization_failure(self, tmp_path, capsys):
        path = tmp_path / "swap.csv"
        write_matrix(path, np.array([[0.0, 1.0], [1.0, 0.0]]))
        code, _, err = run(["lu-normwise", "--matrix", str(path), "--delta", "0.1"],
                           capsys)
        assert code == 3
        assert "singular" in err

    @pytest.mark.parametrize("name, argv", [
        ("huge", ["lu-normwise", "--delta", "1e-8"]),        # PIVOT_TOL ||A||_F is inf
        ("huge", ["qr-componentwise", "--epsilon", "ge"]),   # the row scaling overflows
        ("tiny", ["lu-normwise", "--delta", "1e-8"]),
    ])
    def test_norm_outside_float64_range(self, name, argv, tmp_path, capsys):
        path = tmp_path / f"{name}.csv"
        write_matrix(path, PROBE_MATRICES[name])
        code, out, err = run([*argv, "--matrix", str(path)], capsys)
        assert code == 2 and out == ""
        assert err == "fperturb: error: cannot parse matrix file: " \
                      "Frobenius norm outside the float64 range\n"

    @pytest.mark.parametrize("argv", [
        ["verify", "--experiment", "lu-normwise", "--kahan", "4,0.5", "--delta", "1e-9"],
        ["verify", "--experiment", "qr-componentwise", "--graded", "4,1,1",
         "--epsilon", "1e-9"],
        ["table2"],
    ])
    def test_negative_seed_is_config_error(self, argv, capsys):
        code, out, err = run([*argv, "--seed", "-1"], capsys)
        assert code == 1 and out == ""
        assert err == "fperturb: error: --seed must be non-negative, got -1\n"

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_field_is_no_json(self, value, monkeypatch, capsys):
        # JSON has no number for it, and CSV and markdown refuse it alike, so
        # the call exits 2 with one line in every format
        real = lu_bounds.lu_normwise_bounds
        monkeypatch.setattr(lu_bounds, "lu_normwise_bounds", lambda f, delta: dataclasses.replace(
            real(f, delta), rigorous_dl=value))
        argv = ["lu-normwise", "--kahan", "4,0.5", "--delta", "1e-9", "--no-timings"]
        for output in ("json", "csv", "markdown"):
            code, out, err = run([*argv, "--output", output], capsys)
            assert code == 2 and out == ""
            assert err.startswith("fperturb: error: the report has a value that is not finite: ")
            assert err.count("\n") == 1

    def test_verify_demands_applicability(self, tmp_path, capsys):
        path = tmp_path / "id.csv"
        write_matrix(path, np.eye(4))
        code, _, _ = run(["verify", "--experiment", "lu-normwise",
                          "--matrix", str(path), "--delta", "0.3", "--trials", "3"],
                         capsys)
        assert code == 4


#: matrices written to CSV for the probes; {name} in an argument is its path
PROBE_MATRICES = {
    "nan": np.array([[1.0, np.nan], [0.0, 1.0]]),
    "wide": np.ones((2, 3)),
    # finite, but the reciprocal of its subnormal pivot overflows
    "subnormal": np.diag([1.0, 1e-320]),
    # rank one: U has a zero last row and pivot, and QR rejects the rank
    "ones": np.ones((2, 2)),
    # R^-1 holds 1e300: the quadratic R map has the norm 5e299, which the
    # condition value of the QR report squares to inf
    "tiny-pivot": np.diag([1.0, 1e-300]),
    # R^-1 holds 1e290 beside 1e10, so the norm of the quadratic R map overflows
    "overflowing-norm": np.array([[1.0, 1e10], [0.0, 1e-290]]),
    # finite entries, but a Frobenius norm that overflows or underflows to 0
    "huge": 1e160 * np.array([[1.0, 2.0], [3.0, 1.0]]),
    "tiny": 1e-170 * np.array([[1.0, 2.0], [3.0, 1.0]]),
}
SUBNORMAL = ["--matrix", "{subnormal}"]
ONES = ["--matrix", "{ones}"]
KAHAN = ["--kahan", "4,0.5"]
#: probes run with the Krylov step cap lowered, so that a norm estimate that
#: converges in more steps reaches the NoConvergence exit
STEP_CAPS = {"no-convergence": 1, "table-no-convergence": 1}
PROBES = [
    ("non-finite-csv-entry", ["lu-normwise", "--matrix", "{nan}", "--delta", "0.1"], 2),
    ("non-square-matrix", ["lu-normwise", "--matrix", "{wide}", "--delta", "0.1"], 2),
    ("wide-qr-matrix", ["qr-normwise", "--matrix", "{wide}", "--delta", "0.1"], 2),
    ("negative-delta", ["lu-normwise", *KAHAN, "--delta", "-1"], 1),
    ("nan-delta", ["lu-normwise", *KAHAN, "--delta", "nan"], 1),
    ("inf-delta", ["qr-normwise", *KAHAN, "--delta", "inf"], 1),
    ("negative-delta1", ["qr-normwise", *KAHAN, "--delta", "0.1", "--delta1", "-1"], 1),
    ("nan-delta1", ["qr-normwise", *KAHAN, "--delta", "0.1", "--delta1", "nan"], 1),
    ("inf-delta1", ["qr-normwise", *KAHAN, "--delta", "0.1", "--delta1", "inf"], 1),
    ("verify-nan-delta", ["verify", "--experiment", "qr-normwise", *KAHAN,
                          "--delta", "nan"], 1),
    ("verify-inf-epsilon", ["verify", "--experiment", "lu-componentwise", *KAHAN,
                            "--epsilon", "inf"], 1),
    ("verify-zero-trials", ["verify", "--experiment", "lu-normwise", *KAHAN,
                            "--delta", "1e-6", "--trials", "0"], 1),
    ("verify-negative-halving", ["verify", "--experiment", "lu-normwise", *KAHAN,
                                 "--delta", "1e-6", "--delta-halving", "-1"], 1),
    ("zero-seed-sweep", ["table2", "--seed-sweep", "0"], 1),
    ("abs-operator-too-large", ["qr-componentwise", "--graded", "300,1,1",
                                "--epsilon", "ge"], 1),
    ("no-convergence", ["lu-normwise", *KAHAN, "--delta", "1e-6"], 5),
    ("table-no-convergence", ["table2"], 5),
    ("non-integer-kahan-order", ["lu-normwise", "--kahan", "2.5,0.3", "--delta", "0.1"], 1),
    ("non-integer-graded-order", ["qr-normwise", "--graded", "3.5,1,1", "--delta", "0.1"], 1),
    # numpy refuses the 8e18-byte array at once, so nothing is allocated
    ("kahan-order-too-large", ["lu-normwise", "--kahan", "1e9,0.3", "--delta", "0.1"], 1),
    ("subnormal-pivot-lu-normwise", ["lu-normwise", *SUBNORMAL, "--delta", "1e-8"], 3),
    ("subnormal-pivot-lu-componentwise", ["lu-componentwise", *SUBNORMAL, "--epsilon", "ge"], 3),
    ("subnormal-pivot-qr-normwise", ["qr-normwise", *SUBNORMAL, "--delta", "1e-8"], 3),
    ("subnormal-pivot-qr-componentwise", ["qr-componentwise", *SUBNORMAL, "--epsilon", "ge"], 3),
    ("subnormal-pivot-verify", ["verify", "--experiment", "qr-normwise", *SUBNORMAL,
                                "--delta", "1e-8", "--trials", "5"], 3),
    ("singular-lu-normwise", ["lu-normwise", *ONES, "--delta", "1e-8"], 3),
    ("singular-lu-componentwise", ["lu-componentwise", *ONES, "--epsilon", "ge"], 3),
    ("singular-qr-normwise", ["qr-normwise", *ONES, "--delta", "1e-8"], 3),
    ("singular-qr-componentwise", ["qr-componentwise", *ONES, "--epsilon", "ge"], 3),
    ("overflowing-norm-qr-normwise", ["qr-normwise", "--matrix", "{overflowing-norm}",
                                      "--delta", "1e-8"], 3),
    ("overflowing-norm-verify", ["verify", "--experiment", "qr-normwise", "--matrix",
                                 "{overflowing-norm}", "--delta", "1e-8", "--trials", "5"], 3),
    ("tiny-pivot-qr-normwise", ["qr-normwise", "--matrix", "{tiny-pivot}",
                                "--delta", "1e-8"], 2),
    ("tiny-pivot-verify", ["verify", "--experiment", "qr-normwise", "--matrix",
                           "{tiny-pivot}", "--delta", "1e-8", "--trials", "5"], 4),
]


@pytest.mark.parametrize("probe, argv, code", PROBES, ids=[p[0] for p in PROBES])
def test_probe_exits_with_documented_code(probe, argv, code, tmp_path, capsys, monkeypatch):
    if probe in STEP_CAPS:
        monkeypatch.setattr(dense, "KRYLOV_MAX_STEPS", STEP_CAPS[probe])
    paths = {}
    for name, a in PROBE_MATRICES.items():
        paths[name] = str(tmp_path / f"{name}.csv")
        write_matrix(paths[name], a)
    got, out, err = run([arg.format(**paths) for arg in argv], capsys)
    assert got == code
    assert out == ""
    assert err.startswith("fperturb: error: ")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_componentwise_lu_one_ulp_above_gate(capsys):
    # c eps rounds to exactly 1 here, so 1 - c eps leaves gamma_L without a value;
    # eps is the smallest double at which it does, so it moves whenever c does
    eps = 1.0004269363180318e-05
    c = lu_componentwise_bounds(dense.lu_factor(kahan(10, 0.5)), eps).c
    assert c * eps == 1.0 and c * np.nextafter(eps, 0.0) < 1.0
    code, out, err = run(["lu-componentwise", "--kahan", "10,0.5",
                          "--epsilon", repr(eps), "--no-timings"], capsys)
    assert code == 0
    assert "Traceback" not in err
    values = dict(zip(*(line.split(",") for line in out.strip().splitlines())))
    assert values["applicable"] == "false"
    assert values["gamma_l"] == "n/a"


class TestBoundCommands:
    def test_lu_normwise_csv(self, tmp_path, capsys):
        path = tmp_path / "id.csv"
        write_matrix(path, np.eye(4))
        code, out, _ = run(["lu-normwise", "--matrix", str(path),
                            "--delta", "0.1875"], capsys)
        assert code == 0
        header, row = out.strip().splitlines()
        values = dict(zip(header.split(","), row.split(",")))
        assert float(values["rigorous_dl"]) == pytest.approx(0.25, abs=1e-12)
        assert values["applicable"] == "true"

    def test_upper_map_norm_off_the_all_ones_space(self, tmp_path, capsys):
        # the upper LU map of [[1, 1], [0, 1]] sends vec(X) to (x00, x01, x11 - x10),
        # of norm sqrt(2); the all-ones start has no x11 - x10 part
        path = tmp_path / "unit.csv"
        write_matrix(path, np.array([[1.0, 1.0], [0.0, 1.0]]))
        code, out, _ = run(["lu-normwise", "--matrix", str(path), "--delta", "1e-6",
                            "--output", "json"], capsys)
        assert code == 0
        assert json.loads(out)["rows"][0]["u_op_norm"] == pytest.approx(2.0 ** 0.5, abs=1e-12)

    def test_inapplicable_bounds_never_printed_as_numbers(self, tmp_path, capsys):
        path = tmp_path / "id.csv"
        write_matrix(path, np.eye(4))
        code, out, _ = run(["lu-normwise", "--matrix", str(path), "--delta", "0.3"],
                           capsys)
        assert code == 0
        header, row = out.strip().splitlines()
        values = dict(zip(header.split(","), row.split(",")))
        assert values["applicable"] == "false"
        assert values["rigorous_dl"] == "n/a"
        assert values["relaxed_du"] == "n/a"
        assert float(values["condition_value"]) == pytest.approx(0.3)

    def test_epsilon_preset(self, capsys):
        code, out, _ = run(["lu-componentwise", "--kahan", "6,0.3927",
                            "--epsilon", "ge", "--output", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"][0]["applicable"] is True

    def test_qr_componentwise_with_c_file(self, tmp_path, capsys):
        cpath = tmp_path / "c.csv"
        write_matrix(cpath, np.full((5, 5), 0.5))
        code, out, _ = run(["qr-componentwise", "--kahan", "5,0.3927",
                            "--epsilon", "1e-10", "--c-matrix", str(cpath),
                            "--output", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"][0]["applicable"] is True
        assert payload["rows"][0]["rigorous_dr"] > 0.0

    def test_qr_componentwise_at_order_200(self, capsys):
        code, out, _ = run(["qr-componentwise", "--graded", "200,1,1", "--epsilon", "ge",
                            "--output", "json"], capsys)
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert all(np.isfinite(row[k]) and row[k] > 0.0 for k in ("a_t", "b_t", "c_t"))

    def test_graded_source(self, capsys):
        code, out, _ = run(["qr-normwise", "--graded", "6,0.9,1.1", "--seed", "3",
                            "--delta", "1e-6", "--output", "json"], capsys)
        assert code == 0
        assert json.loads(out)["rows"][0]["applicable"] is True


def test_norm_unconverged_at_its_rank_bound_reports(tmp_path, capsys):
    # the upper LU map of a triangle of ones plus 18 I has relative top gaps
    # near 1e-6: Lanczos is unconverged after min(dim_in, out_dim) steps, and
    # ran on into NoConvergence (exit 5, after about 5 s) until the formed
    # Gram matrix answered there
    n = 18
    a = np.tril(np.ones((n, n))) + n * np.eye(n)
    path = tmp_path / "tril.csv"
    write_matrix(path, a)
    code, out, err = run(["lu-normwise", "--matrix", str(path), "--delta", "1e-6",
                          "--no-timings"], capsys)
    assert (code, err) == (0, "")
    values = dict(zip(*(line.split(",") for line in out.strip().splitlines())))
    op = lu_bounds.upper_factor_operator(dense.lu_factor(a))
    ref = float(np.linalg.svd(operator_materialize(op), compute_uv=False)[0])
    assert float(values["u_op_norm"]) == pytest.approx(ref, rel=1e-13)


class TestTinyRows:
    """A row of 1e-300 is not zero: its norm underflows when squared, not in value."""

    @pytest.mark.parametrize("argv", [["lu-normwise", "--delta", "1e-8"],
                                      ["lu-componentwise", "--epsilon", "1e-8"]])
    def test_bound_commands_report(self, argv, tmp_path, capsys):
        path = tmp_path / "tiny-pivot.csv"
        write_matrix(path, PROBE_MATRICES["tiny-pivot"])
        code, out, err = run([*argv, "--matrix", str(path), "--no-timings"], capsys)
        assert (code, err) == (0, "")
        values = dict(zip(*(line.split(",") for line in out.strip().splitlines())))
        assert values["applicable"] == "true"
        if argv[0] == "lu-normwise":
            assert values["rigorous_dl"] == values["rigorous_du"] == "1.0000000100000004e-08"

    def test_verify_runs_its_trials(self, tmp_path, capsys):
        path = tmp_path / "tiny-pivot.csv"
        write_matrix(path, PROBE_MATRICES["tiny-pivot"])
        code, out, err = run(["verify", "--experiment", "lu-normwise", "--matrix", str(path),
                              "--delta", "1e-8", "--trials", "5", "--output", "json"], capsys)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["violations"] == 0
        assert payload["rows"][0]["trials"] == 5


class TestVerifyCommand:
    def test_identity_run(self, tmp_path, capsys):
        path = tmp_path / "id.csv"
        write_matrix(path, np.eye(10))
        code, out, _ = run(["verify", "--experiment", "lu-normwise",
                            "--matrix", str(path), "--delta", "0.1",
                            "--trials", "50", "--seed", "9", "--output", "json"],
                           capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["violations"] == 0
        assert payload["rows"][0]["trials"] == 50

    def test_csv_ratios_are_plain_floats(self, tmp_path, capsys):
        path = tmp_path / "g.csv"
        write_matrix(path, np.random.default_rng(5).standard_normal((8, 8))
                     + 8 * np.eye(8))
        code, out, _ = run(["verify", "--experiment", "qr-normwise",
                            "--matrix", str(path), "--delta", "1e-4",
                            "--trials", "20", "--seed", "7"], capsys)
        assert code == 0
        assert "np." not in out
        ratio = out.strip().splitlines()[1].split(",")[-2]
        assert 0.0 < float(ratio) <= 1.0

    def test_delta_halving_rows(self, tmp_path, capsys):
        path = tmp_path / "id.csv"
        write_matrix(path, np.eye(6))
        code, out, _ = run(["verify", "--experiment", "qr-normwise",
                            "--matrix", str(path), "--delta", "0.05",
                            "--trials", "10", "--delta-halving", "3",
                            "--output", "json"], capsys)
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [r["level"] for r in rows] == [0, 1, 2, 3]
        assert rows[1]["size"] == pytest.approx(0.025)

    def test_timings_split_the_trials(self, capsys):
        code, out, _ = run(["verify", "--experiment", "lu-normwise", "--kahan", "6,0.5",
                            "--delta", "1e-6", "--trials", "200", "--delta-halving", "1",
                            "--output", "json"], capsys)
        assert code == 0
        timings = json.loads(out)["timings"]
        assert {"bounds_s", "trials_s", "draw_s", "refactor_s"} <= set(timings)
        # each sum over the levels is rounded to 3 decimals on its own
        assert timings["draw_s"] + timings["refactor_s"] <= timings["trials_s"] + 0.0015

    def test_delta_halving_timings_sum_over_levels(self, monkeypatch, capsys):
        def fake_halving(a, spec, trials, levels, experiment=None):
            return [VerificationReport(experiment=experiment, trials=trials, violations=0,
                                       timings={"bounds_s": 0.25 * (k + 1),
                                                "trials_s": 1.5})
                    for k in range(levels + 1)]

        monkeypatch.setattr(cli, "delta_halving", fake_halving)
        code, out, _ = run(["verify", "--experiment", "qr-normwise", "--kahan", "4,0.5",
                            "--delta", "1e-3", "--trials", "5", "--delta-halving", "2",
                            "--output", "json"], capsys)
        assert code == 0
        timings = json.loads(out)["timings"]
        assert timings["bounds_s"] == 1.5    # 0.25 + 0.5 + 0.75
        assert timings["trials_s"] == 4.5    # three levels of 1.5


def test_cached_parser_reads_as_a_fresh_one(capsys):
    # one parser serves every call of main; a parse, one that exits with an
    # error and one of another command leave nothing behind for the next
    calls = [["verify", "--experiment", "qr-normwise", "--kahan", "5,0.5", "--delta", "1e-6",
              "--trials", "30", "--seed", "4", "--no-timings", "--output", "json"],
             ["verify", "--experiment", "lu-normwise", "--kahan", "5,0.5"],
             ["table1", "--seed", "1", "--no-timings"]]
    cached = [run(argv, capsys) for argv in calls]
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(run(argv, capsys))
    assert cached == fresh
    assert [code for code, _, _ in cached] == [0, 1, 0]
    assert cached[1][2] == "fperturb: error: lu-normwise needs --delta\n"


class TestTables:
    def test_table2_columns(self, capsys):
        code, out, _ = run(["table2", "--seed", "0"], capsys)
        assert code == 0
        header = out.splitlines()[0].split(",")
        assert header == list(TABLE2_COLUMNS)
        assert len(out.strip().splitlines()) == 6

    def test_table1_columns_without_timings(self, capsys):
        code, out, _ = run(["table1", "--seed", "0", "--no-timings"], capsys)
        assert code == 0
        header = out.splitlines()[0].split(",")
        assert header == [c for c in TABLE1_COLUMNS if c not in TIMING_COLUMNS]

    def test_epsilon_preset_follows_the_table_order(self, capsys, monkeypatch):
        # table1 --epsilon ge resolves at the order that table1 builds, which
        # both read from one constant
        monkeypatch.setattr(tables, "TABLE1_ORDER", 6)
        preset = run(["table1", "--seed", "2", "--epsilon", "ge", "--no-timings"], capsys)
        value = repr(lu_bounds.gaussian_elimination_epsilon(6))
        given = run(["table1", "--seed", "2", "--epsilon", value, "--no-timings"], capsys)
        assert preset[0] == 0 and preset == given
        assert preset[1] == run(["table1", "--seed", "2", "--no-timings"], capsys)[1]

    def test_seed_sweep_runs(self, capsys):
        code, out, _ = run(["table2", "--seed", "0", "--seed-sweep", "2",
                            "--no-timings"], capsys)
        assert code == 0
        assert len(out.strip().splitlines()) == 6

    def test_row_that_fails_to_factorize_is_na(self, capsys):
        # at seed 8 the (2, 2) grading of table3 is rank deficient
        code, out, err = run(["table3", "--seed", "8"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split(",") == list(TABLE3_COLUMNS)
        rows = [dict(zip(TABLE3_COLUMNS, line.split(","))) for line in lines[1:]]
        assert len(rows) == 9
        failed = [row for row in rows if row["gamma_R"] == "n/a"]
        assert len(failed) == 1
        assert (failed[0]["d1"], failed[0]["d2"]) == ("2.0", "2.0")
        assert all(v == "n/a" for c, v in failed[0].items() if c not in KEY_COLUMNS)
        assert err.startswith("fperturb: note: table3 seed 8, d1=2.0, d2=2.0: RankDeficient")
        assert err.count("\n") == 1

    def test_seed_sweep_skips_failed_rows(self):
        # seed 8 fails at (2, 2), so the median over seeds 7 and 8 is seed 7's value
        alone = tables.seed_sweep("table3", 8, 1).rows[-1]
        assert all(alone[c] is None for c in TABLE3_COLUMNS if c not in KEY_COLUMNS)
        swept = tables.seed_sweep("table3", 7, 2)
        assert len(swept.notes) == 1
        seed7 = tables.table3(7).rows[-1]
        for c in TABLE3_COLUMNS:
            if c not in TIMING_COLUMNS:
                assert swept.rows[-1][c] == seed7[c]

    def test_byte_identical_without_timings(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for path in (out1, out2):
            assert main(["table2", "--seed", "4", "--no-timings",
                         "--out", str(path)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_schema_keys(self, capsys):
        code, out, _ = run(["table2", "--seed", "1", "--output", "json",
                            "--no-timings"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"config", "rows", "violations", "timings"}

    @pytest.mark.parametrize("columns, mapping, report", [
        (TABLE1_COLUMNS, LU_FIELDS, LuComponentwiseReport),
        (TABLE2_COLUMNS, QR_FIELDS, QrComponentwiseReport),
        (TABLE3_COLUMNS, QR_FIELDS, QrComponentwiseReport),
        (TABLE4_COLUMNS, QR_FIELDS, QrComponentwiseReport),
    ])
    def test_every_report_column_maps_to_a_report_field(self, columns, mapping, report):
        names = {f.name for f in dataclasses.fields(report)}
        report_columns = [c for c in columns if c not in KEY_COLUMNS]
        assert report_columns and all(mapping[c] in names for c in report_columns)
        assert len(set(columns)) == len(columns)

    def test_a_renamed_report_field_fails_rather_than_printing_na(self, monkeypatch):
        # _table reads each field without a default, so a map that names no
        # field of the report raises instead of filling the column with None
        monkeypatch.setitem(tables.QR_FIELDS, "eta_De", "eta_renamed")
        with pytest.raises(AttributeError, match="eta_renamed"):
            tables.table2(0, sizes=(3,))

    def test_timing_columns_are_the_t_columns(self):
        columns = {*TABLE1_COLUMNS, *TABLE2_COLUMNS, *TABLE3_COLUMNS, *TABLE4_COLUMNS}
        assert {c for c in columns if c.startswith("t_")} == TIMING_COLUMNS == {
            "t_gamma", "t_gamma_D", "t_gamma_R", "t_gamma_R_Dr", "t_gamma_R_De"}

    @pytest.mark.parametrize("argv, timed", [
        (["table1", "--seed", "1"], {"t_gamma", "t_gamma_D"}),
        (["qr-componentwise", "--kahan", "6,0.3927", "--epsilon", "ge"],
         {"t_gamma", "t_gamma_dr", "t_gamma_de"}),
    ])
    def test_timings_are_rounded_to_3_decimals(self, argv, timed, capsys):
        # one rule for the rows of every command: a t_ column is a timing
        code, out, _ = run(argv + ["--output", "json"], capsys)
        assert code == 0
        for row in json.loads(out)["rows"]:
            assert {c for c in row if c.startswith("t_")} == timed
            assert all(row[c] == round(row[c], 3) for c in timed)

    def test_markdown_render(self, capsys):
        code, out, _ = run(["table2", "--seed", "1", "--output", "markdown",
                            "--no-timings"], capsys)
        assert code == 0
        assert out.startswith("| n |")
