"""Correctness check of workload outputs against references captured earlier.

Numbers must agree to a relative ``REL_TOL``, which is far above the error of
the power-iteration norm estimate (about 2e-10), so that a better norm
estimator still passes. Booleans, integers, strings and ``None`` must match
exactly. An item that raised when the reference was captured is an expected
failure: raising the same exception type again passes, and a success is
checked only for finite fields and for rigorous >= first-order bounds.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REL_TOL = 1e-6

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def load_reference(workload: str, input_seed: int) -> dict | None:
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))["seeds"].get(str(input_seed))


def violations(record: dict) -> int:
    return int(record.get("violations") or 0)


def problems(record: dict, reference: dict | None) -> list[str]:
    """Reasons why ``record`` is wrong; empty when it passes."""
    found = _invariants(record)
    if reference is None:
        return found
    if "error" in reference:
        if "error" in record and record["error"] != reference["error"]:
            found.append(f"raised {record['error']}, expected {reference['error']}")
        return found
    if "error" in record:
        return found + [f"raised {record['error']}"]
    return found + _compare(record, reference, "")


def _invariants(record: dict) -> list[str]:
    found = []
    if "error" in record:
        return found
    for path, value in _leaves(record, ""):
        if isinstance(value, float) and not math.isfinite(value):
            found.append(f"{path} is not finite")
    if violations(record):
        found.append(f"{violations(record)} rigorous-bound violations")
    for rigorous, first_order in (("rigorous_dl", "first_order_dl"),
                                  ("rigorous_du", "first_order_du"),
                                  ("rigorous_dr", "first_order_dr")):
        r, f = record.get(rigorous), record.get(first_order)
        if isinstance(r, float) and isinstance(f, float) and r < f:
            found.append(f"{rigorous} {r!r} < {first_order} {f!r}")
    return found


def _leaves(value, path):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}" if path else str(key))
    elif isinstance(value, list):
        for idx, item in enumerate(value):
            yield from _leaves(item, f"{path}[{idx}]")
    else:
        yield path, value


def _compare(value, ref, path) -> list[str]:
    if isinstance(ref, dict) or isinstance(value, dict):
        if not (isinstance(ref, dict) and isinstance(value, dict)) or ref.keys() != value.keys():
            return [f"{path or 'record'}: fields differ from the reference"]
        return [p for key in ref for p in _compare(value[key], ref[key], f"{path}.{key}")]
    if isinstance(ref, list) or isinstance(value, list):
        if not (isinstance(ref, list) and isinstance(value, list)) or len(ref) != len(value):
            return [f"{path}: length differs from the reference"]
        return [p for idx, (v, r) in enumerate(zip(value, ref))
                for p in _compare(v, r, f"{path}[{idx}]")]
    if isinstance(ref, float) and isinstance(value, float) and type(value) is type(ref):
        if math.isclose(value, ref, rel_tol=REL_TOL, abs_tol=0.0) or value == ref:
            return []
        return [f"{path}: {value!r} differs from reference {ref!r}"]
    if type(value) is not type(ref) or value != ref:
        return [f"{path}: {value!r} differs from reference {ref!r}"]
    return []
