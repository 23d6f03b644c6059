"""The public surface: every exported name resolves."""

from __future__ import annotations

import ast
import csv
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qres
import qres.cli
import qres.instance
import qres.oracles
import qres.solver
from qres.instance import load_instance

REF = Path(__file__).parent / "data" / "reference.json"


def test_every_exported_name_resolves():
    missing = [name for name in qres.__all__ if not hasattr(qres, name)]
    assert missing == []
    listed = [name for names in qres._SOURCES.values() for name in names]
    assert sorted(listed) == qres.__all__


def test_star_import_is_clean():
    namespace: dict = {}
    exec("from qres import *", namespace)
    assert set(qres.__all__) <= namespace.keys()


# Each named-tuple record: its module, its name, its fields in order, its defaults.
RECORDS = [
    ("instance", "Machine", ("provider_id", "machine_id", "capacity_qubits"), {}),
    (
        "instance",
        "Circuit",
        ("circuit_id", "label", "num_qubits", "encoded_value"),
        {"label": None, "num_qubits": None, "encoded_value": None},
    ),
    ("instance", "Diagnostic", ("severity", "location", "message"), {}),
    (
        "instance",
        "CostRates",
        (
            "reserve_per_qubit",
            "utilize_per_qubit",
            "on_demand_per_qubit",
            "penalty_per_second",
        ),
        {},
    ),
    ("scenarios", "Scenario", ("demand_qubits", "wait_time"), {}),
    ("extform", "ExtensiveForm", ("variables", "objective", "constraints"), {}),
    (
        "solver",
        "TripleCost",
        ("key", "reserved", "first_stage", "second_stage", "penalty"),
        {},
    ),
    (
        "solver",
        "Solution",
        (
            "reservations",
            "expected_first_stage",
            "expected_second_stage",
            "expected_penalty",
            "expected_total",
            "per_triple",
        ),
        {},
    ),
    (
        "solver",
        "CircuitTable",
        ("levels", "common", "survival", "demand_above", "wait_common", "waits"),
        {},
    ),
    (
        "sweep",
        "CurvePoint",
        ("reserved", "first_stage", "second_stage", "penalty", "total"),
        {},
    ),
    ("sweep", "CostCurve", ("points",), {}),
    ("sweep", "SurfaceRow", ("reserved", "arranged_wait", "total"), {}),
    ("sweep", "CostSurface", ("rows",), {}),
]


@pytest.mark.parametrize(
    "module, name, fields, defaults", RECORDS, ids=[r[1] for r in RECORDS]
)
def test_records_keep_their_fields_and_defaults(module, name, fields, defaults):
    record = getattr(importlib.import_module(f"qres.{module}"), name)
    assert record._fields == fields
    assert record._field_defaults == defaults


def test_only_instance_is_a_dataclass():
    # Every other record is a named tuple, or ScenarioSpace's slotted class.
    decorated = {
        (path.name, node.name)
        for path in Path(qres.__file__).parent.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
        for decorator in node.decorator_list
        if "dataclass" in ast.unparse(decorator)
    }
    assert decorated == {("instance.py", "Instance")}


def test_diagnostic_prints_as_before():
    diagnostic = qres.Diagnostic("error", "circuit c1", "duplicate id")
    assert str(diagnostic) == "error: circuit c1: duplicate id"


def test_cli_takes_only_the_solver_entry_points():
    # Only inside the bodies of the commands that run them, never at load.
    tree = ast.parse(Path(qres.cli.__file__).read_text(encoding="utf-8"))
    in_functions = {
        id(node)
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
    }
    imports = {
        module: [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == module
        ]
        for module in ("solver", "oracles")
    }
    names = {
        module: {alias.name for node in nodes for alias in node.names}
        for module, nodes in imports.items()
    }
    assert names == {
        "solver": {"expected_cost", "solve_instance"},
        "oracles": {"verify_solution"},
    }
    assert all(id(node) in in_functions for nodes in imports.values() for node in nodes)


def test_exact_weights_are_made_in_one_function():
    # A probability vector's exact form is made by instance.outcome_weights
    # alone: no other code takes an lcm or a numerator/denominator pair.
    tokens = ("math.lcm", ".as_integer_ratio()", "from math import")
    found = {
        (path.name, token)
        for path in Path(qres.__file__).parent.rglob("*.py")
        for token in tokens
        if token in path.read_text(encoding="utf-8")
    }
    assert found == {("instance.py", t) for t in tokens[:2]}
    source = Path(qres.instance.__file__).read_text(encoding="utf-8")
    (function,) = [
        node
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and node.name == "outcome_weights"
    ]
    body = ast.get_source_segment(source, function)
    assert [body.count(t) for t in tokens[:2]] == [source.count(t) for t in tokens[:2]]


def test_the_oracles_read_the_qubit_rule_only_through_qubit_costs():
    # oracles.py reads no demand and no qubit rate: every (scenario, level)
    # cost comes from qres.recourse.qubit_costs.
    tree = ast.parse(Path(qres.oracles.__file__).read_text(encoding="utf-8"))
    names = {
        node.attr if isinstance(node, ast.Attribute) else node.id
        for node in ast.walk(tree)
        if isinstance(node, (ast.Attribute, ast.Name))
    }
    assert "qubit_costs" in names
    assert names.isdisjoint(
        {"demand_qubits", "utilize_per_qubit", "on_demand_per_qubit"}
    )
    # Of the kernel's entry points, only the spot check's circuit_tables is
    # imported; the rest is the shared records, the vector check and sums.
    from_solver = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "solver"
        for alias in node.names
    }
    assert from_solver == {
        "Solution",
        "TripleCost",
        "_checked_levels",
        "_solution",
        "circuit_tables",
        "exact_sum",
    }
    assert names.isdisjoint({"qres", "solver"})  # no other way into the kernel


# Resolves each error class through the package in a fresh interpreter.
_ERRORS = """
import sys
import qres
errors = [getattr(qres, name) for name in sys.argv[1:]]
print(" ".join(sorted(m for m in sys.modules if m.startswith("qres."))))
import qres.oracles, qres.scenarios, qres.solver
home = {"ScenarioError": qres.scenarios, "GuardError": qres.oracles}
old = [getattr(home.get(n, qres.solver), n) for n in sys.argv[1:]]
print(all(a is b for a, b in zip(errors, old)))
"""


def test_error_classes_resolve_without_the_solver():
    names = ["CapacityError", "GuardError", "ModelError", "ScenarioError"]
    env = dict(os.environ, PYTHONPATH=str(Path(qres.__file__).parent.parent))
    done = subprocess.run(
        [sys.executable, "-c", _ERRORS, *names],
        capture_output=True, text=True, env=env, check=True,
    )
    assert done.stdout.splitlines() == ["qres.instance qres.units", "True"]
    assert qres.ModelError is qres.solver.ModelError


# Imports the kernel's sweep in a fresh interpreter, then the old oracle name.
_REEXPORT = """
import sys
import qres.sweep
print("qres.oracles" in sys.modules)
import qres.oracles, qres.solver
print(qres.solver.brute_force_triple is qres.oracles.brute_force_triple)
"""


def test_the_kernel_loads_no_oracle_and_keeps_one_old_name():
    env = dict(os.environ, PYTHONPATH=str(Path(qres.__file__).parent.parent))
    done = subprocess.run(
        [sys.executable, "-c", _REEXPORT],
        capture_output=True, text=True, env=env, check=True,
    )
    assert done.stdout.splitlines() == ["False", "True"]
    for name in ("verify_solution", "scenario_costs", "BRUTE_FORCE_WORK_GUARD"):
        with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
            getattr(qres.solver, name)


def test_check_capacity_is_one_function():
    assert qres.solver.check_capacity is qres.instance.check_capacity


# Runs one command in a fresh interpreter and prints the qres modules it loaded.
_LOADED = """
import sys
import qres.cli
code = qres.cli.run(sys.argv[1:])
print(" ".join(sorted(m for m in sys.modules if m.startswith("qres."))))
sys.exit(code)
"""

_BASE = {"qres.cli", "qres.instance", "qres.units"}
_KERNEL = _BASE | {"qres.solver"}
_SCENARIO_ROUTE = {"qres.recourse", "qres.scenarios"}

# Each command with exactly the qres modules it loads.
COMMANDS = [
    (["validate"], _BASE),
    (["solve"], _KERNEL),
    (["solve", "--oracle"], _KERNEL | _SCENARIO_ROUTE | {"qres.oracles"}),
    (["eval", "--reservations", "{reservations}"], _KERNEL | {"qres.csvio"}),
    (["sweep", "--grid", "0:30:10"], _KERNEL | {"qres.sweep"}),
    (
        ["surface", "--grid", "0:30:10", "--waits", "0:0.01:0.005"],
        _KERNEL | {"qres.sweep"},
    ),
    (["export-lp"], _BASE | {"qres.scenarios", "qres.lpplan"}),
]
COMMAND_IDS = [c[0] + "-oracle" * ("--oracle" in c) for c, _ in COMMANDS]


def inline_reference(tmp_path: Path) -> Path:
    """A copy of the reference instance with its execution times inline.

    The reference names an execution-time CSV, and reading one loads the
    CSV module whatever the command.
    """
    doc = json.loads(REF.read_text(encoding="utf-8"))
    times = REF.parent / doc.pop("exec_times_csv")
    with open(times, encoding="utf-8", newline="") as handle:
        doc["exec_times"] = [
            {"circuit": c, "provider": p, "machine": m, "seconds": float(seconds)}
            for c, p, m, seconds in list(csv.reader(handle))[1:]
        ]
    path = tmp_path / "inline.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert load_instance(path) == load_instance(REF)
    return path


def command_argv(command: list[str], tmp_path: Path) -> list[str]:
    """A command of :data:`COMMANDS` with its reservations file written."""
    reservations = tmp_path / "reservations.csv"
    reservations.write_text(
        "circuit_id,provider_id,machine_id,reserved\n"
        + "".join(f"{c},{p},{m},5\n" for c, p, m in load_instance(REF).triples()),
        encoding="utf-8",
    )
    return [a.format(reservations=reservations) for a in command]


@pytest.mark.parametrize("command, modules", COMMANDS, ids=COMMAND_IDS)
def test_each_command_loads_only_what_it_runs(tmp_path, command, modules):
    argv = command_argv(command, tmp_path)
    env = dict(os.environ, PYTHONPATH=str(Path(qres.__file__).parent.parent))
    done = subprocess.run(
        [sys.executable, "-c", _LOADED, argv[0], str(inline_reference(tmp_path)),
         *argv[1:], "-o", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, check=False,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert set(done.stdout.split()) == modules


# Runs one command in a fresh interpreter and reports on stderr whether it
# loaded any of the named stdlib modules (comma-separated). The child runs
# without site (-S), which on some systems imports tempfile itself through
# a .pth file.
_STDLIB = """
import sys
import qres.cli
modules, *argv = sys.argv[1:]
code = qres.cli.run(argv)
print(any(m in sys.modules for m in modules.split(",")), file=sys.stderr)
sys.exit(code)
"""


def _loads(modules: str, command: list[str], instance: Path = REF) -> tuple[int, str]:
    env = dict(os.environ, PYTHONPATH=str(Path(qres.__file__).parent.parent))
    done = subprocess.run(
        [sys.executable, "-S", "-c", _STDLIB, modules, command[0], str(instance),
         *command[1:]],
        capture_output=True, text=True, env=env, check=False,
    )
    return done.returncode, done.stderr


@pytest.mark.parametrize(
    "command",
    [["validate"], ["solve"], ["sweep", "--grid", "0:30:10"]],
    ids=lambda command: command[0],
)
def test_a_command_that_writes_to_stdout_loads_no_tempfile(command):
    assert _loads("tempfile", command) == (0, "False\n")


@pytest.mark.parametrize(
    "command",
    [
        ["validate"],
        ["solve"],
        ["sweep", "--grid", "0:30:10"],
        ["surface", "--grid", "0:30:10", "--waits", "0:0.01:0.005"],
        ["export-lp"],
    ],
    ids=lambda command: command[0],
)
def test_a_command_that_reads_no_csv_loads_no_csv_module(tmp_path, command):
    assert _loads("csv", command, inline_reference(tmp_path)) == (0, "False\n")


@pytest.mark.parametrize("command", [c for c, _ in COMMANDS], ids=COMMAND_IDS)
def test_no_command_loads_argparse_gettext_or_locale(tmp_path, command):
    argv = command_argv(command, tmp_path)
    assert _loads("argparse,gettext,locale", argv) == (0, "False\n")


@pytest.mark.parametrize("command", [c for c, _ in COMMANDS], ids=COMMAND_IDS)
def test_no_command_loads_pathlib(tmp_path, command):
    argv = command_argv(command, tmp_path)
    assert _loads("pathlib", argv) == (0, "False\n")
