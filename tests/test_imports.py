"""Every imported name in the code base is used.

Package `__init__.py` files are skipped: their imports are re-exports.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    path
    for folder in ("src", "tests", "scripts")
    for path in (ROOT / folder).rglob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no expression refers to."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # names inside string annotations such as -> "TrainingHistory"
    annotations = [
        getattr(node, field)
        for node in ast.walk(tree)
        for field in ("annotation", "returns")
        if getattr(node, field, None) is not None
    ]
    for node in (sub for ann in annotations for sub in ast.walk(ann)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            expr = ast.parse(node.value, mode="eval")
            used |= {sub.id for sub in ast.walk(expr) if isinstance(sub, ast.Name)}
    unused = [(line, name) for name, line in imported.items() if name not in used]
    return [f"line {line}: {name}" for line, name in sorted(unused)]


def test_the_scan_finds_the_files():
    names = {path.name for path in SOURCES}
    assert {"runner.py", "conftest.py", "run_pipeline.py", "test_imports.py"} <= names


def test_the_scan_flags_an_unused_import():
    source = "import os\nimport numpy as np\nfrom a.b import c as d, e\nprint(np, e)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: d"]
    assert unused_imports('import x\ndef f() -> "x.Y": pass\n') == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
