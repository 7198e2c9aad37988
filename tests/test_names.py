"""Names across modules: private names stay private; the bench hooks and README imports resolve."""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

import fperturb

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fperturb"
MODULES = sorted(PACKAGE.glob("*.py"))
SIBLINGS = {path.stem for path in MODULES} - {"__init__"}
TEST_MODULES = sorted((ROOT / "tests").rglob("*.py"))

#: tracer targets whose functions were deleted or merged; their metrics read 0
GONE_TARGETS = {"abs_operator", "abs_scaling_ratio", "scaling_d_r",
                "chang_stehle_lu", "chang_stehle_qr"}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_imports(tree) -> list[str]:
    """Underscored names that ``from fperturb... import`` (or a relative import) brings in."""
    return [alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level > 0 or (node.module or "").startswith("fperturb"))
            for alias in node.names if _private(alias.name)]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_private_name_crosses_modules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    crossings = _private_imports(tree)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in SIBLINGS and _private(node.attr)):
            crossings.append(f"{node.value.id}.{node.attr}")
    assert crossings == []


@pytest.mark.parametrize("path", TEST_MODULES,
                         ids=[str(path.relative_to(ROOT)) for path in TEST_MODULES])
def test_tests_import_no_private_name(path):
    # a test may read a private attribute to monkeypatch it, but what it
    # imports is the public surface it relies on
    assert _private_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_tracer_targets_resolve():
    # the benchmark's tracer wraps functions by name, and a name it cannot
    # find is skipped silently, so a rename would zero its metrics
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = set()
    for _span, module_name, attr in tracer.TARGETS:
        owner = importlib.import_module(f"fperturb.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.add(attr)
    assert missing <= GONE_TARGETS


def test_readme_imports_resolve():
    # the package re-exports only the documented API, so each name that an
    # example of the README imports from it must be on that list
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    names = [alias.name for block in re.findall(r"```python\n(.*?)```", text, re.S)
             for node in ast.walk(ast.parse(block))
             if isinstance(node, ast.ImportFrom) and node.module == "fperturb"
             for alias in node.names]
    assert names
    assert [name for name in names if not hasattr(fperturb, name)] == []


def test_norm_range_is_tested_only_in_dense():
    # dense.euclidean_norm and dense.frobenius_norms are the only functions
    # that re-take a norm whose squares over- or underflow
    readers = [path.name for path in MODULES
               if path.stem != "dense" and "SQRT_TINY" in path.read_text(encoding="utf-8")]
    assert readers == []
    # and they guard their own floating-point status, so no caller silences it
    guarded = []
    for path in MODULES:
        if path.stem == "dense":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.With):
                contexts = [item.context_expr for item in node.items]
            elif isinstance(node, ast.FunctionDef):
                contexts = node.decorator_list
            else:
                continue
            if any(_calls(context, "errstate") for context in contexts) and any(
                    _calls(child, name) for child in node.body
                    for name in ("euclidean_norm", "frobenius_norms")):
                guarded.append(f"{path.name}:{node.lineno}")
    assert guarded == []


def _calls(tree, name: str) -> bool:
    """Whether ``tree`` calls a function named ``name``, plain or as an attribute."""
    return any(isinstance(node, ast.Call)
               and getattr(node.func, "id", getattr(node.func, "attr", None)) == name
               for node in ast.walk(tree))
