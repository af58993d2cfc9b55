"""Every runtime dependency declared in pyproject.toml imports, and every
exported name resolves."""

import importlib
import re
from pathlib import Path

import pytest

import zetalab

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


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
