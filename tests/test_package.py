"""The public surface: every exported name resolves."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qres
import qres.cli
from qres.instance import load_instance

REF = Path(__file__).parent / "data" / "reference.json"


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


# Runs one command in a fresh interpreter and prints the qres modules it loaded.
_LOADED = """
import sys
import qres.cli
code = qres.cli.run(sys.argv[1:])
print(" ".join(sorted(m for m in sys.modules if m.startswith("qres."))))
sys.exit(code)
"""


# Each command with the qres modules it must not load.
COMMANDS = [
    (["validate"], {"qres.extform", "qres.sweep"}),
    (["solve"], {"qres.extform", "qres.sweep"}),
    (["eval", "--reservations", "{reservations}"], {"qres.extform", "qres.sweep"}),
    (["sweep", "--grid", "0:30:10"], {"qres.extform"}),
    (["surface", "--grid", "0:30:10", "--waits", "0:0.01:0.005"], {"qres.extform"}),
    (["export-lp"], {"qres.sweep"}),
]


@pytest.mark.parametrize("command, unused", COMMANDS, ids=[c[0] for c, _ in COMMANDS])
def test_each_command_loads_only_what_it_runs(tmp_path, command, unused):
    reservations = tmp_path / "reservations.csv"
    reservations.write_text(
        "circuit_id,provider_id,machine_id,reserved\n"
        + "".join(f"{c},{p},{m},5\n" for c, p, m in load_instance(REF).triples()),
        encoding="utf-8",
    )
    argv = [a.format(reservations=reservations) for a in command]
    env = dict(os.environ, PYTHONPATH=str(Path(qres.__file__).parent.parent))
    done = subprocess.run(
        [sys.executable, "-c", _LOADED, argv[0], str(REF), *argv[1:],
         "-o", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, check=False,
    )
    assert (done.returncode, done.stderr) == (0, "")
    loaded = set(done.stdout.split())
    assert "qres.solver" in loaded
    assert loaded.isdisjoint(unused)
