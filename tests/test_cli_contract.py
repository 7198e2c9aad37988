"""The CLI contract, as a property over small matrices with extreme entries.

Every call of a bound command or of ``verify`` either exits 0 with valid
JSON (no ``Infinity`` or ``NaN``) and every ``rigorous_*`` and
``first_order_*`` field finite or null, or exits with a documented code
(1-5) and exactly one line on stderr. No exception escapes ``cli.main``.
Violation counts are not part of the property. The matrices come from CSV
files, and from the ``--kahan`` and ``--graded`` sources with extreme
arguments. Scaling a matrix by a power of two inside the window that the
CSV intake accepts changes no factorization failure: ``qr-normwise`` on
A 2^k exits 3 only where it does on A.
"""

import contextlib
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fperturb import cli
from fperturb.verify import EXPERIMENTS

#: entries mixed into the normal ones: signed zeros, subnormals, squares that
#: underflow or overflow, and the edge of the float64 range
SPECIAL_ENTRIES = (0.0, -0.0, 5e-324, 1e-310, 1e-160, 1e160, 1e300, -1e300, 1.7e308)

#: the size of each bound command and verify experiment, by its size field
SIZE_FLAGS = {"delta": ["--delta", "1e-8"], "epsilon": ["--epsilon", "ge"]}

#: Kahan angles and grading factors at the edges: zero and pi/2 (rejected),
#: subnormal, and powers that under- or overflow by order 4
SPECIAL_ANGLES = (0.0, 5e-324, 1e-160, 1e-8, math.pi / 2 - 1e-15, math.pi / 2)
SPECIAL_GRADINGS = (5e-324, 1e-160, 1e-100, 1e100, 1e160, 1e300)

#: the powers of two by which standard normal entries stay inside the intake
#: window: the Frobenius norm neither overflows nor underflows to 0
SCALE_EXPONENTS = (-537, 507)


@st.composite
def matrices(draw):
    """1-4 by 1-4 matrices of normal entries scaled by 1e-5..1e5, mixed with special ones."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    scale = 10.0 ** draw(st.integers(-5, 5))
    normal = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(rows * cols)
    entries = scale * normal
    for index, value in draw(st.lists(st.tuples(st.integers(0, rows * cols - 1),
                                                st.sampled_from(SPECIAL_ENTRIES)), max_size=3)):
        entries[index] = value
    return entries.reshape(rows, cols)


@st.composite
def generated_sources(draw):
    """``--kahan N,THETA`` or ``--graded N,D1,D2 --seed S`` with N in 1..4."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        theta = draw(st.one_of(st.sampled_from(SPECIAL_ANGLES), st.floats(0.0, math.pi / 2)))
        return ["--kahan", f"{n},{theta!r}"]
    d1, d2 = (draw(st.one_of(st.sampled_from(SPECIAL_GRADINGS), st.floats(1e-3, 1e3)))
              for _ in range(2))
    return ["--graded", f"{n},{d1!r},{d2!r}", "--seed", str(draw(st.integers(0, 2**32 - 1)))]


@st.composite
def scaled_matrices(draw):
    """(A, k): A 1-4 by 1-4 standard normal with some entries zeroed, k in
    ``SCALE_EXPONENTS``, whose ends, where the squares of the factor maps
    leave the float range, are drawn about as often as the rest."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    a = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(rows * cols)
    a[draw(st.lists(st.integers(0, rows * cols - 1), max_size=rows * cols // 2))] = 0.0
    k = draw(st.integers(*SCALE_EXPONENTS) | st.sampled_from(SCALE_EXPONENTS))
    return a.reshape(rows, cols), k


@st.composite
def sizes(draw):
    """(delta, delta1, epsilon): delta1 <= delta, and epsilon the repr of a float or "ge"."""
    delta = draw(st.floats(1e-14, 1.0))
    delta1 = delta * draw(st.floats(0.0, 1.0))
    epsilon = draw(st.just("ge") | st.floats(0.0, 1e-2).map(repr))
    return delta, delta1, epsilon


@pytest.fixture(scope="module")
def matrix_file(tmp_path_factory):
    return tmp_path_factory.mktemp("contract") / "a.csv"


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _no_constant(name):
    raise AssertionError(f"{name} is not a JSON number")


def _assert_contract(argv) -> int:
    code, out, err = _call(argv)
    if code != 0:
        assert 1 <= code <= 5, (argv, code, err)
        assert err.count("\n") == 1 and err.startswith("fperturb: error: "), (argv, err)
        return code
    for row in json.loads(out, parse_constant=_no_constant)["rows"]:
        for key, value in row.items():
            if key.startswith(("rigorous_", "first_order_")):
                assert value is None or math.isfinite(value), (argv, key, value)
    return code


def _write(path, a):
    path.write_text("".join(",".join(repr(float(x)) for x in row) + "\n" for row in a),
                    encoding="utf-8")


@settings(derandomize=True, max_examples=250, deadline=None)
@given(a=matrices(), experiment=st.sampled_from(sorted(EXPERIMENTS)))
def test_every_call_reports_or_exits_with_one_line(matrix_file, a, experiment):
    _write(matrix_file, a)
    common = ["--matrix", str(matrix_file), "--output", "json", "--no-timings"]
    for command, exp in EXPERIMENTS.items():    # each experiment has its bound command
        _assert_contract([command, *SIZE_FLAGS[exp.size], *common])
    _assert_contract(["verify", "--experiment", experiment, "--trials", "3",
                      "--delta-halving", "1", *SIZE_FLAGS[EXPERIMENTS[experiment].size]]
                     + common)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(source=generated_sources())
def test_generated_sources_report_or_exit_with_one_line(source):
    # any warning is an error here, not only a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for command, exp in EXPERIMENTS.items():
            _assert_contract([command, *SIZE_FLAGS[exp.size], *source,
                              "--output", "json", "--no-timings"])


@settings(derandomize=True, max_examples=100, deadline=None)
@given(scaled=scaled_matrices(), size=sizes(), experiment=st.sampled_from(sorted(EXPERIMENTS)))
def test_power_of_two_scaling_keeps_the_exit(matrix_file, scaled, size, experiment):
    a, k = scaled
    delta, delta1, epsilon = size
    common = ["--matrix", str(matrix_file), "--output", "json", "--no-timings"]

    def qr_normwise(scale):
        return _assert_contract(["qr-normwise", "--delta", repr(math.ldexp(delta, scale)),
                                 "--delta1", repr(math.ldexp(delta1, scale)), *common])

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _write(matrix_file, a)
        unscaled = qr_normwise(0)
        _write(matrix_file, np.ldexp(a, k))
        assert qr_normwise(k) != 3 or unscaled == 3, (a, k)
        sizes_of = {"delta": ["--delta", repr(math.ldexp(delta, k))],
                    "epsilon": ["--epsilon", epsilon]}
        for command, exp in EXPERIMENTS.items():
            if command != "qr-normwise":
                _assert_contract([command, *sizes_of[exp.size], *common])
        _assert_contract(["verify", "--experiment", experiment, "--trials", "3",
                          *sizes_of[EXPERIMENTS[experiment].size], *common])
