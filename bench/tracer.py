"""Spans around the public functions of each ``fperturb`` module.

The tracer wraps functions from outside the package. A wrapped name records
one span per call (name, start, end, parent) in memory; per-layer metrics are
computed from the spans afterwards. A span's self time is its duration minus
the time its direct child spans cover.

A function is wrapped wherever a module of the package holds it: as a module
attribute (``lu_bounds`` and ``qr_bounds`` import their names from
``structured``) or as a value of a module-level dict (``tables.TABLES``).
Methods of ``StructuredOperator`` are patched on the class. A name that no
longer exists is skipped, and its metrics read 0.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

MATVEC_COUNT = "structured.matvec.count"
NORM_SPAN = "structured.operator_spectral_norm"

#: (span name, module, attribute); several attributes may share one span name
TARGETS = (
    ("dense.lu_factor", "dense", "lu_factor"),
    ("dense.qr_factor", "dense", "qr_factor"),
    ("dense.triangular_inverse", "dense", "triangular_inverse"),
    ("dense.spectral_norm", "dense", "spectral_norm"),
    ("structured.operator_spectral_norm", "structured", "operator_spectral_norm"),
    ("structured.operator_materialize", "structured", "operator_materialize"),
    ("structured.abs_operator", "structured", "abs_operator"),
    ("structured.matvec", "structured", "StructuredOperator.apply"),
    ("structured.matvec", "structured", "StructuredOperator.apply_transpose"),
    ("lu_bounds.lu_normwise_bounds", "lu_bounds", "lu_normwise_bounds"),
    ("lu_bounds.lu_componentwise_bounds", "lu_bounds", "lu_componentwise_bounds"),
    ("lu_bounds.factor_operator", "lu_bounds", "lower_factor_operator"),
    ("lu_bounds.factor_operator", "lu_bounds", "upper_factor_operator"),
    ("lu_bounds.chang_stehle_lu", "lu_bounds", "chang_stehle_lu"),
    ("qr_bounds.qr_normwise_bounds", "qr_bounds", "qr_normwise_bounds"),
    ("qr_bounds.qr_componentwise_bounds", "qr_bounds", "qr_componentwise_bounds"),
    ("qr_bounds.componentwise_operator_norms", "qr_bounds", "componentwise_operator_norms"),
    ("qr_bounds.factor_operator", "qr_bounds", "r_factor_operator"),
    ("qr_bounds.factor_operator", "qr_bounds", "r_quadratic_operator"),
    ("qr_bounds.comparison", "qr_bounds", "chang_stehle_qr"),
    ("qr_bounds.comparison", "qr_bounds", "abs_scaling_ratio"),
    ("qr_bounds.comparison", "qr_bounds", "scaling_d_r"),
    ("qr_bounds.comparison", "qr_bounds", "scaling_d_e"),
    ("matgen.sample_perturbation", "matgen", "sample_perturbation"),
    ("verify.verify_bounds", "verify", "verify_bounds"),
    ("tables.table", "tables", "table1"),
    ("tables.table", "tables", "table2"),
    ("tables.table", "tables", "table3"),
    ("tables.table", "tables", "table4"),
    ("cli.main", "cli", "main"),
)

#: per-layer metrics, in report order: (name, unit)
LAYER_METRICS = (
    ("dense.lu_factor.calls", "count"),
    ("dense.lu_factor.self_s", "s"),
    ("dense.qr_factor.calls", "count"),
    ("dense.qr_factor.self_s", "s"),
    ("dense.triangular_inverse.calls", "count"),
    ("dense.triangular_inverse.self_s", "s"),
    ("dense.spectral_norm.calls", "count"),
    ("dense.spectral_norm.self_s", "s"),
    ("dense.spectral_norm.entries", "count"),
    ("structured.operator_spectral_norm.calls", "count"),
    ("structured.operator_spectral_norm.self_s", "s"),
    ("structured.operator_spectral_norm.matvecs", "count"),
    ("structured.operator_spectral_norm.failed", "count"),
    ("structured.matvec.count", "count"),
    ("structured.matvec.self_s", "s"),
    ("structured.operator_materialize.calls", "count"),
    ("structured.operator_materialize.self_s", "s"),
    ("structured.operator_materialize.entries", "count"),
    ("structured.abs_operator.calls", "count"),
    ("structured.abs_operator.self_s", "s"),
    ("lu_bounds.lu_normwise_bounds.calls", "count"),
    ("lu_bounds.lu_normwise_bounds.self_s", "s"),
    ("lu_bounds.lu_componentwise_bounds.calls", "count"),
    ("lu_bounds.lu_componentwise_bounds.self_s", "s"),
    ("lu_bounds.factor_operator.self_s", "s"),
    ("lu_bounds.chang_stehle_lu.self_s", "s"),
    ("qr_bounds.qr_normwise_bounds.calls", "count"),
    ("qr_bounds.qr_normwise_bounds.self_s", "s"),
    ("qr_bounds.qr_componentwise_bounds.calls", "count"),
    ("qr_bounds.qr_componentwise_bounds.self_s", "s"),
    ("qr_bounds.componentwise_operator_norms.self_s", "s"),
    ("qr_bounds.factor_operator.self_s", "s"),
    ("qr_bounds.comparison.self_s", "s"),
    ("matgen.sample_perturbation.calls", "count"),
    ("matgen.sample_perturbation.self_s", "s"),
    ("verify.verify_bounds.calls", "count"),
    ("verify.verify_bounds.self_s", "s"),
    ("verify.trials", "count"),
    ("verify.skipped", "count"),
    ("tables.table.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """Records spans and counters while installed on ``fperturb``."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._in_block_apply = False
        self._restore: list = []

    def reset(self):
        self.names.clear()
        self.starts.clear()
        self.ends.clear()
        self.parents.clear()
        self.counters.clear()
        self._stack.clear()

    # ------------------------------------------------------------------ install

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "fperturb" or name.startswith("fperturb."))]
        for span, module_name, attr in TARGETS:
            module = sys.modules.get(f"fperturb.{module_name}")
            if module is None:
                continue
            owner_name, _, member = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = vars(owner).get(member) if isinstance(owner, type) else None
                if original is not None:
                    self._set(owner, member, self._wrap(span, original))
                continue
            original = getattr(module, attr, None)
            if callable(original):
                self._replace_everywhere(modules, original, self._wrap(span, original))

        operator = getattr(sys.modules.get("fperturb.structured"), "StructuredOperator", None)
        if isinstance(operator, type):
            for member in ("apply2", "applyt2"):
                original = vars(operator).get(member)
                if original is not None:
                    self._set(operator, member, self._count_columns(original))

    def uninstall(self):
        for restore in reversed(self._restore):
            restore()
        self._restore.clear()

    def _set(self, owner, name, value):
        old = vars(owner)[name]
        setattr(owner, name, value)
        self._restore.append(lambda: setattr(owner, name, old))

    def _replace_everywhere(self, modules, original, wrapped):
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapped)
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            value[dkey] = wrapped
                            self._restore.append(
                                lambda d=value, k=dkey: d.__setitem__(k, original))

    # ------------------------------------------------------------------ wrappers

    def _wrap(self, span: str, fn):
        """Span around ``fn``, plus the counters of its layer."""
        traced = self._span(span, fn)
        if span == "structured.matvec":  # hot path: the span alone
            return traced
        if span == NORM_SPAN:
            return self._count_norm(traced)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = traced(*args, **kwargs)
            self._count_result(span, args, result)
            return result

        return counted

    def _count_norm(self, traced):
        """Count the matvecs and the failures of each operator norm estimate."""
        counters = self.counters

        @functools.wraps(traced)
        def counted(*args, **kwargs):
            matvecs_before = counters[MATVEC_COUNT]
            try:
                return traced(*args, **kwargs)
            except Exception:
                counters[f"{NORM_SPAN}.failed"] += 1
                raise
            finally:
                counters[f"{NORM_SPAN}.matvecs"] += counters[MATVEC_COUNT] - matvecs_before

        return counted

    def _span(self, span: str, fn):
        names, starts, ends, parents, stack = (self.names, self.starts, self.ends,
                                               self.parents, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(span)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def _count_result(self, span, args, result):
        if span == "dense.spectral_norm" and args:
            self.counters[f"{span}.entries"] += int(np.size(args[0]))
        elif span == "structured.operator_materialize":
            self.counters[f"{span}.entries"] += int(np.size(result))
        elif span == "verify.verify_bounds":
            self.counters["verify.trials"] += int(getattr(result, "trials", 0))
            self.counters["verify.skipped"] += len(getattr(result, "skipped", ()))

    def _count_columns(self, fn):
        """Count the columns pushed through an operator; a block of k counts as k.

        Only the outermost operator counts: composite stages apply nested
        operators to the same columns.
        """
        @functools.wraps(fn)
        def wrapper(op, v):
            if self._in_block_apply:
                return fn(op, v)
            self._in_block_apply = True
            try:
                self.counters[MATVEC_COUNT] += v.shape[1] if v.ndim == 2 else 1
                return fn(op, v)
            finally:
                self._in_block_apply = False

        return wrapper

    # ------------------------------------------------------------------ results

    def layer_metrics(self, time_scale: float) -> dict:
        """Per-layer metrics of the spans recorded since the last reset.

        Self times are multiplied by ``time_scale``, which converts the
        pass's wall seconds to reference seconds. ``trace.overhead_s`` is not
        known here and reads 0.
        """
        child_time = [0.0] * len(self.names)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += self.ends[idx] - self.starts[idx]
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        for idx, name in enumerate(self.names):
            calls[name] += 1
            self_s[name] += self.ends[idx] - self.starts[idx] - child_time[idx]
        values = {}
        for metric, _unit in LAYER_METRICS:
            span, _, kind = metric.rpartition(".")
            if kind == "calls":
                values[metric] = calls[span]
            elif kind == "self_s":
                values[metric] = self_s[span] * time_scale
            else:
                values[metric] = self.counters[metric]
        return values

    def write_spans(self, fh, pass_index: int):
        for idx, name in enumerate(self.names):
            fh.write(json.dumps({"pass": pass_index, "id": idx, "name": name,
                                 "start": self.starts[idx], "end": self.ends[idx],
                                 "parent": self.parents[idx]}) + "\n")
