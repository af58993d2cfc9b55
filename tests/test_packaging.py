"""Every runtime dependency declared in pyproject.toml imports, every
exported name resolves, and the package holds no function only tests call,
no parameter its function never reads, no import its module never reads
and no argument type check outside errors.py."""

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

# Parameters their function may leave unread, as (function, parameter):
# render_csv's cfg keeps one signature for every renderer.
UNREAD_PARAMETERS = [("render_csv", "cfg")]


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


def _reads(node: ast.FunctionDef) -> set:
    """Names the body of node reads, nested functions included."""
    return {
        n.id for stmt in node.body for n in ast.walk(stmt)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }


def test_no_unread_parameter():
    # a parameter its function never reads is an argument every caller
    # passes for nothing. A method's self is exempt: an override such as
    # the CLI parser's error keeps its base class's signature
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                args = node.args
                params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
                read = _reads(node)
                unread += [(node.name, p.arg) for p in params if p and p.arg != "self" and p.arg not in read]
    assert sorted(unread) == UNREAD_PARAMETERS


def test_no_unused_import():
    # an imported name its module never reads is dead weight at every
    # import; __init__ re-exports the names in its __all__, and a
    # `from __future__` import changes how the module compiles
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        if path.name == "__init__.py":
            read |= set(zetalab.__all__)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound = [(alias.asname or alias.name).partition(".")[0] for alias in node.names]
                unused += [f"{path.name}: {name}" for name in bound if name not in read]
    assert not unused, f"imported but never read: {unused}"


def _raises_domain_error(handler: ast.ExceptHandler) -> bool:
    return any(
        isinstance(n, ast.Raise) and isinstance(n.exc, ast.Call) and getattr(n.exc.func, "id", None) == "DomainError"
        for n in ast.walk(handler)
    )


def _type_checks(tree: ast.AST) -> list:
    """Lines of tree that decide an argument's kind by hand: an
    isinstance(..., int), a sequence check isinstance(..., str) or
    isinstance(..., Iterable), or a float, complex, mpc or Fraction call
    inside a try whose handler raises DomainError."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            names = [getattr(k, "id", getattr(k, "attr", None)) for k in kinds]
            lines += [node.lineno for name in names if name in {"int", "str", "Iterable"}]
        elif isinstance(node, ast.Try) and any(_raises_domain_error(h) for h in node.handlers):
            lines += [
                n.lineno for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Call) and getattr(n.func, "id", None) in {"float", "complex", "mpc", "Fraction"}
            ]
    return sorted(lines)


def test_argument_kinds_checked_in_errors_only():
    # what counts as an integer, a real, a sequence of reals, a complex
    # number or an exact rational is decided by the rules in errors.py, so
    # that every entry point accepts and refuses the same kinds; a module
    # checks ranges only
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "errors.py"
        for line in _type_checks(ast.parse(path.read_text()))
    ]
    assert not found, f"argument kind checked outside errors.py: {found}"


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
        read = _reads(node)
        for flag, kwargs in options.items():
            dest = flag.lstrip("-").replace("-", "_")
            assert dest in params, f"{command} {flag}: not a parameter of {node.name}"
            assert dest in read, f"{command} {flag}: {node.name} never reads {dest}"
            parsed = "choices" in kwargs or kwargs.get("type") not in (None, str)
            assert parsed, f"{command} {flag}: hashed as raw text"
            checked += 1
    assert checked == 16  # the settable values the configuration hash covers
