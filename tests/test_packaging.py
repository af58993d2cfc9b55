"""Every runtime dependency declared in pyproject.toml imports, every
exported name resolves, and the package holds no function only tests call."""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import pytest

import zetalab

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
PACKAGE = Path(zetalab.__file__).resolve().parent

# Public functions whose callers live outside the package: the README's
# examples (hybrid_moment, error_term), the benchmark worker
# (dirichlet_identity_check) and argparse, which calls the CLI parser's
# error method.
OUTSIDE_ENTRY_POINTS = {"hybrid_moment", "error_term", "dirichlet_identity_check", "error"}


def test_declared_dependencies_import():
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    assert requirements
    for requirement in requirements:
        name = re.match(r"[A-Za-z0-9_.-]+", requirement).group(0)
        importlib.import_module(name.replace("-", "_"))


def test_exported_names_resolve():
    missing = [name for name in zetalab.__all__ if not hasattr(zetalab, name)]
    assert not missing


def _references(node: ast.AST) -> Counter:
    """Count of the names used in node, as a Name or an Attribute."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
    return names


def test_no_test_only_code():
    # a public function or method that nothing else in the package names is
    # either an entry point listed above or code only the tests run
    trees = [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))]
    used = sum((_references(tree) for tree in trees), Counter())
    exempt = set(zetalab.__all__) | OUTSIDE_ENTRY_POINTS
    unreferenced = sorted(
        node.name
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and node.name not in exempt
        and used[node.name] == _references(node)[node.name]
    )
    assert not unreferenced, f"only tests call: {unreferenced}"


def test_no_dead_config_field():
    # every RunConfig field but the dispatch and output ones must be read as
    # cfg.<field> by some cmd_* handler; a field no handler reads is a knob
    # that changes only the config hash
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    config = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "RunConfig")
    knobs = {
        n.target.id for n in config.body if isinstance(n, ast.AnnAssign)
    } - {"command", "fmt", "out", "extras"}
    read = {
        n.attr
        for handler in tree.body
        if isinstance(handler, ast.FunctionDef) and handler.name.startswith("cmd_")
        for n in ast.walk(handler)
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "cfg"
    }
    assert knobs and not knobs - read, f"no handler reads: {sorted(knobs - read)}"
