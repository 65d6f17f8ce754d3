"""Every imported name in the code base is used, and every definition in
the package is.

Package `__init__.py` files are skipped by the import scan: their imports
are re-exports.  The definition scan counts them as references, and counts
no test: a function only the tests call is dead code.
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
PACKAGE = sorted((ROOT / "src").rglob("*.py"))
CALLERS = PACKAGE + sorted((ROOT / "scripts").rglob("*.py"))
_DEFINITIONS = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPES = (ast.Module, *_DEFINITIONS)


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


def definitions(source: str) -> dict[str, int]:
    """Functions, methods and classes a source defines, dunders aside, by
    the line of their first definition."""
    found = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DEFINITIONS) and not (node.name.startswith("__") and node.name.endswith("__")):
            found.setdefault(node.name, node.lineno)
    return found


def local_names(tree: ast.AST) -> set[str]:
    """Names some function of the tree binds as an argument or a local
    variable."""
    functions = [node for node in ast.walk(tree) if isinstance(node, (*_DEFINITIONS[1:], ast.Lambda))]
    return {
        node.arg if isinstance(node, ast.arg) else node.id
        for function in functions
        for node in ast.walk(function)
        if isinstance(node, ast.arg) or (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store))
    }


def references(source: str) -> set[str]:
    """Names a source refers to: by name, by attribute, by an imported name
    and by a string that is the name.  Docstrings do not count, nor does a
    name the source binds as an argument or a local variable anywhere: a
    local `loss` is not a use of a function `loss`."""
    tree = ast.parse(source)
    docstrings = {
        id(scope.body[0].value)
        for scope in ast.walk(tree)
        if isinstance(scope, _SCOPES) and scope.body and isinstance(scope.body[0], ast.Expr)
    }
    local = local_names(tree)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            if node.id not in local:
                found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
            found.add(node.value)
    return found


def unreferenced(defining: dict[str, str], calling: list[str]) -> list[str]:
    """`file:line name` of each definition in the `defining` sources (by
    file name) that none of the `calling` sources refers to."""
    used = set().union(*(references(source) for source in calling))
    return [
        f"{name}:{line} {defined}"
        for name, source in defining.items()
        for defined, line in sorted(definitions(source).items(), key=lambda item: item[1])
        if defined not in used
    ]


def test_the_scan_flags_an_unreferenced_definition():
    package = {
        "a.py": (
            'class A:\n    """f is not a use."""\n    def __init__(self): pass\n'
            "    def f(self): pass\n    def g(self): pass\n\n"
            "def h(): pass\ndef k(): pass\ndef m(): pass\n"
        ),
        "__init__.py": "from .a import A\n",
    }
    callers = [*package.values(), 'A().g()\nh\ngetattr(A, "k")\nprint("m is here")\n']
    assert unreferenced(package, callers) == ["a.py:4 f", "a.py:9 m"]
    # a local variable or an argument of the same name is no use of h
    shadows = "def f(h):\n    return h\n\ndef g():\n    h = 1\n    return h\n"
    assert unreferenced(package, [*package.values(), shadows, "A().g()\nk\nm\n"]) == ["a.py:4 f", "a.py:7 h"]
    assert unreferenced(package, [*package.values(), shadows, "A().g()\nk\nm\nmodule.h()\n"]) == ["a.py:4 f"]


def test_every_package_definition_is_used_by_the_package_or_its_scripts():
    package = {str(path.relative_to(ROOT / "src")): path.read_text() for path in PACKAGE}
    assert unreferenced(package, [path.read_text() for path in CALLERS]) == []
