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
# (dirichlet_identity_check), the benchmark tracer, which sizes a ledger by
# its d4_table and dell_table properties, and argparse, which calls the CLI
# parser's error method.
OUTSIDE_ENTRY_POINTS = {
    "hybrid_moment", "error_term", "dirichlet_identity_check", "d4_table", "dell_table", "error",
}


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
    # every option a subcommand declares must be a parameter of its cmd_*
    # handler that the handler's body reads; an option no handler reads is
    # a knob that changes only the config hash. Each must also parse its
    # text, by choices or a type: a hashed raw string gives one value as
    # many hashes as it has spellings ("0.001" and "1e-3")
    from zetalab.cli import _COMMANDS

    tree = ast.parse((PACKAGE / "cli.py").read_text())
    handlers = {
        n.name: n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name.startswith("cmd_")
    }
    checked = 0
    for command, (handler, _, options) in _COMMANDS.items():
        node = handlers[handler.__name__]
        params = {arg.arg for arg in node.args.args}
        read = {
            n.id for stmt in node.body for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        for flag, kwargs in options.items():
            dest = flag.lstrip("-").replace("-", "_")
            assert dest in params, f"{command} {flag}: not a parameter of {node.name}"
            assert dest in read, f"{command} {flag}: {node.name} never reads {dest}"
            parsed = "choices" in kwargs or kwargs.get("type") not in (None, str)
            assert parsed, f"{command} {flag}: hashed as raw text"
            checked += 1
    assert checked == 16  # the settable values the configuration hash covers
