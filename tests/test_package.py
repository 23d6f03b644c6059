"""The public surface: every exported name resolves."""

from __future__ import annotations

import ast
from pathlib import Path

import qres
import qres.cli


def test_every_exported_name_resolves():
    missing = [name for name in qres.__all__ if not hasattr(qres, name)]
    assert missing == []
    assert len(set(qres.__all__)) == len(qres.__all__)


def test_star_import_is_clean():
    namespace: dict = {}
    exec("from qres import *", namespace)
    assert set(qres.__all__) <= namespace.keys()


def test_cli_takes_only_the_solver_entry_points():
    tree = ast.parse(Path(qres.cli.__file__).read_text(encoding="utf-8"))
    from_solver = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "solver"
        for alias in node.names
    }
    assert from_solver == {
        "ModelError",
        "Solution",
        "expected_cost",
        "solve_instance",
        "verify_solution",
    }
