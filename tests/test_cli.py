from __future__ import annotations

import dataclasses
import errno
import json
import os
import tracemalloc
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from helpers import audit_shaped_doc, documents_at_the_limits
from qres import cli, extform, lpplan, oracles, scenarios, solver
from qres import instance as instance_module
from qres.cli import run, write_atomic
from qres.extform import build_extensive_form, parse_lp, render_lp
from qres.instance import load_instance
from qres.solver import circuit_tables

REF = str(Path(__file__).parent / "data" / "reference.json")
CSV_HEADER = "circuit_id,provider_id,machine_id,seconds\n"
DELETE = object()


def write_doc(tmp_path: Path, doc: dict, name: str = "inst.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def single_triple_doc() -> dict:
    return {
        "circuits": [{"id": "c1", "demand_set": [5], "wait_set": [0.003]}],
        "providers": ["p1"],
        "machines": [{"provider": "p1", "machine": "m1", "capacity": 30}],
        "default_rates": {
            "reserve": 1.68,
            "utilize": 0.1,
            "on_demand": 7,
            "penalty": 10,
        },
        "exec_times": [
            {"circuit": "c1", "provider": "p1", "machine": "m1", "seconds": 0.005}
        ],
    }


# --- solve -------------------------------------------------------------------


def test_solve_reference(capsys):
    assert run(["solve", REF]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].startswith("circuit_id,provider_id,machine_id,reserved")
    triple_rows = [l for l in lines[1:] if not l.startswith("TOTAL")]
    assert len(triple_rows) == 6
    assert all(row.split(",")[3] == "19" for row in triple_rows)
    total = lines[-1].split(",")
    assert total[0] == "TOTAL"
    assert total[3] == str(6 * 19)


def test_solve_with_oracle(capsys):
    assert run(["solve", REF, "--oracle"]) == 0


def test_solve_with_oracle_and_seed(capsys):
    assert run(["solve", REF, "--oracle", "--seed", "7"]) == 0


def test_seed_without_oracle_is_a_usage_error(capsys):
    assert run(["solve", REF, "--seed", "7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: --seed needs --oracle\n"


def two_circuit_doc() -> dict:
    """Two circuits on two machines of one provider: four triples."""
    doc = single_triple_doc()
    doc["circuits"].append(
        {"id": "c2", "demand_set": [2, 4], "wait_set": [0.001, 0.004]}
    )
    doc["machines"].append({"provider": "p1", "machine": "m2", "capacity": 6})
    doc["exec_times"] = [
        {"circuit": c, "provider": "p1", "machine": m, "seconds": 0.002}
        for c in ("c1", "c2")
        for m in ("m1", "m2")
    ]
    return doc


def test_oracle_run_builds_each_table_and_space_once(tmp_path, monkeypatch, capsys):
    tables, spaces = [], []
    real_tables, real_space = solver.circuit_tables, scenarios.product_space

    def counted_tables(instance):
        tables.append(instance)
        return real_tables(instance)

    def counted_space(circuit_id, marginals):
        spaces.append(circuit_id)
        return real_space(circuit_id, marginals)

    monkeypatch.setattr(solver, "circuit_tables", counted_tables)
    monkeypatch.setattr(oracles, "circuit_tables", counted_tables)
    monkeypatch.setattr(scenarios, "product_space", counted_space)
    path = write_doc(tmp_path, two_circuit_doc())
    assert run(["solve", path, "--oracle", "--seed", "7", "-v"]) == 0
    # Each circuit is scanned over 31 + 7 levels: c1 has 1 scenario, c2 has 4.
    assert capsys.readouterr().err == (
        "oracle: brute force agrees on 4 triples "
        "(76 levels, 190 scenario evaluations)\n"
    )
    # One table pass to solve and one for the 20 spot-check vectors.
    assert len(tables) == 2
    assert spaces == ["c1", "c2"]


def test_export_lp_and_the_oracle_build_no_scenario_record(
    tmp_path, monkeypatch, capsys
):
    path = write_doc(tmp_path, audit_shaped_doc())
    commands = (
        ["export-lp", path, "-v"],
        ["solve", path, "--oracle", "--seed", "7", "-v"],
    )
    before = []
    for argv in commands:
        assert run(argv) == 0
        before.append(capsys.readouterr())

    def refused(*fields):
        raise AssertionError(f"Scenario{fields} built")

    monkeypatch.setattr(scenarios, "Scenario", refused)
    for argv, expected in zip(commands, before):
        assert run(argv) == 0
        assert capsys.readouterr() == expected


def test_each_written_probability_is_read_once_per_command(tmp_path, monkeypatch):
    calls, reads = [], []
    real = instance_module.outcome_weights

    def counted(demand, *args):
        calls.append(tuple(demand))
        return real(demand, *args)

    class Counted(Decimal):
        """A decimal of the document: each read of it makes its integer ratio."""

        def as_integer_ratio(self):
            reads.append(str(self))
            return super().as_integer_ratio()

    # The marginals are made in qres.instance, beside outcome_weights.
    monkeypatch.setattr(instance_module, "outcome_weights", counted)
    monkeypatch.setattr(instance_module, "Decimal", Counted)
    doc = two_circuit_doc()
    doc["circuits"][1].update(demand_probs=[0.25, 0.75], wait_probs=[0.5, 0.5])
    path = write_doc(tmp_path, doc)
    for command in ("solve", "export-lp"):
        calls.clear()
        reads.clear()
        assert run([command, path, "-o", str(tmp_path / "out")]) == 0
        # Each vector is read as it is loaded, as the one vector of outcomes
        # 0 and 1. Each circuit's outcomes are then checked once, and
        # validate and the marginals share that check.
        assert Counter(calls) == {(0, 1): 2, (5,): 1, (2, 4): 1}, command
        assert Counter(reads) == {"0.25": 1, "0.75": 1, "0.5": 2}, command


def test_verbose_oracle_counts_its_work_on_stderr_only(capsys):
    assert run(["solve", REF, "--oracle"]) == 0
    quiet = capsys.readouterr()
    assert run(["solve", REF, "--oracle", "-v"]) == 0
    verbose = capsys.readouterr()
    assert verbose.out == quiet.out
    # 6 triples x 31 levels, each over 13 demands x 9 waits.
    assert verbose.err == (
        "oracle: brute force agrees on 6 triples "
        "(186 levels, 21762 scenario evaluations)\n"
    )


def test_verbose_oracle_on_machines_of_unequal_capacity(tmp_path, capsys):
    # One provider's two machines share its rates: the levels priced up to
    # capacity 30 also serve the machine of capacity 3, listed first.
    doc = single_triple_doc()
    doc["circuits"][0].update(
        demand_set={"lo": 10, "hi": 22, "step": 1}, wait_set=[0.001, 0.004]
    )
    doc["machines"] = [
        {"provider": "p1", "machine": "m1", "capacity": 3},
        {"provider": "p1", "machine": "m2", "capacity": 30},
    ]
    doc["exec_times"] = [
        {"circuit": "c1", "provider": "p1", "machine": m, "seconds": seconds}
        for m, seconds in (("m1", 0.002), ("m2", 0.005))
    ]
    path = write_doc(tmp_path, doc)
    assert run(["solve", path]) == 0
    plain = capsys.readouterr().out
    assert [row.split(",")[3] for row in plain.splitlines()[1:3]] == ["3", "19"]
    assert run(["solve", path, "--oracle", "-v"]) == 0
    verbose = capsys.readouterr()
    assert verbose.out == plain
    # 4 + 31 levels, each over 13 demands x 2 waits.
    assert verbose.err == (
        "oracle: brute force agrees on 2 triples (35 levels, 910 scenario evaluations)\n"
    )


def test_solve_human_table(capsys):
    assert run(["solve", REF, "--human"]) == 0
    out = capsys.readouterr().out
    assert "circuit_id" in out and "," not in out.splitlines()[1]


def test_solve_output_file(tmp_path, capsys):
    target = tmp_path / "solution.csv"
    assert run(["solve", REF, "-o", str(target)]) == 0
    assert target.read_text().startswith("circuit_id")
    assert capsys.readouterr().out == ""


def test_solve_calls_the_solver_through_the_cli_global(tmp_path, monkeypatch):
    # A caller may wrap cli.solve_instance to time or record the solver.
    plain, wrapped = tmp_path / "plain.csv", tmp_path / "wrapped.csv"
    assert run(["solve", REF, "-o", str(plain)]) == 0
    calls = []
    real_solve = cli.solve_instance

    def counted(instance):
        calls.append(instance)
        return real_solve(instance)

    monkeypatch.setattr(cli, "solve_instance", counted)
    assert run(["solve", REF, "-o", str(wrapped)]) == 0
    assert len(calls) == 1
    assert wrapped.read_bytes() == plain.read_bytes()


def test_solve_is_byte_identical(capsys):
    run(["solve", REF])
    first = capsys.readouterr().out
    run(["solve", REF])
    assert capsys.readouterr().out == first


# --- validate ----------------------------------------------------------------


def test_validate_clean_instance(capsys):
    assert run(["validate", REF]) == 0
    assert capsys.readouterr().out == ""


def test_validate_probability_sum_error(tmp_path, capsys):
    doc = single_triple_doc()
    doc["circuits"][0]["demand_set"] = [1, 2]
    doc["circuits"][0]["demand_probs"] = [0.4, 0.5]
    path = write_doc(tmp_path, doc)
    assert run(["validate", path]) == 1
    assert "sum" in capsys.readouterr().out


def test_validate_warning_only_exits_zero(tmp_path, capsys):
    doc = single_triple_doc()
    doc["default_rates"]["utilize"] = 8
    path = write_doc(tmp_path, doc)
    assert run(["validate", path]) == 0
    assert "warning" in capsys.readouterr().out


def _duplicate_circuit(doc):
    doc["circuits"].append(dict(doc["circuits"][0]))
    return "circuit c1: duplicate id"


def _duplicate_machine(doc):
    doc["machines"].append(dict(doc["machines"][0]))
    return "machine p1/m1: duplicate (provider, machine)"


def _negative_demand(doc):
    doc["circuits"][0]["demand_set"] = [-1]
    return "circuit c1: negative demand value"


def _negative_wait(doc):
    doc["circuits"][0]["wait_set"] = [-0.001]
    return "circuit c1: negative wait time"


def _empty_demand(doc):
    doc["circuits"][0]["demand_set"] = []
    return "circuit c1: empty demand set"


def _empty_wait_range(doc):
    doc["circuits"][0]["wait_set"] = {"lo": 0.002, "hi": 0.001}
    return "circuit c1: empty wait set"


def _negative_rate(doc):
    doc["default_rates"]["reserve"] = -1
    return "rates[c1,p1]: negative reserve rate"


@pytest.mark.parametrize(
    "mutate",
    [
        _duplicate_circuit,
        _duplicate_machine,
        _negative_demand,
        _negative_wait,
        _empty_demand,
        _empty_wait_range,
        _negative_rate,
    ],
)
def test_validate_diagnostic_is_one_line_and_refused_by_solve(mutate, tmp_path, capsys):
    doc = single_triple_doc()
    message = mutate(doc)
    path = write_doc(tmp_path, doc)
    assert run(["validate", path]) == 1
    assert capsys.readouterr().out == f"error: {message}\n"
    assert run(["solve", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def _typo_in_document(doc):
    doc["defualt_rates"] = doc["default_rates"]
    return "document", "defualt_rates"


def _typo_in_circuit(doc):
    doc["circuits"][0]["demand_prob"] = [1]
    return "circuits[0]", "demand_prob"


def _typo_in_range(doc):
    doc["circuits"][0]["demand_set"] = {"lo": 5, "hi": 5, "stpe": 2}
    return "circuits[0].demand_set", "stpe"


def _typo_in_machine(doc):
    doc["machines"][0]["capacty"] = 3
    return "machines[0]", "capacty"


def _typo_in_default_rates(doc):
    doc["default_rates"]["penalti"] = 0
    return "default_rates", "penalti"


def _typo_in_rates(doc):
    doc["rates"] = [_rate_override("c1", "p1")]
    doc["rates"][0]["on_demnd"] = 1
    return "rates[0]", "on_demnd"


def _typo_in_exec_times_object(doc):
    _synthetic_timing(doc)
    doc["exec_times"]["synthetik"] = {"base": 1, "slope": 1}
    return "exec_times", "synthetik"


def _typo_in_synthetic(doc):
    _synthetic_timing(doc)
    doc["exec_times"]["synthetic"]["slop"] = 1
    return "exec_times.synthetic", "slop"


def _typo_in_exec_time_record(doc):
    doc["exec_times"][0]["second"] = 9
    return "exec_times[0]", "second"


@pytest.mark.parametrize(
    "mutate",
    [
        _typo_in_document,
        _typo_in_circuit,
        _typo_in_range,
        _typo_in_machine,
        _typo_in_default_rates,
        _typo_in_rates,
        _typo_in_exec_times_object,
        _typo_in_synthetic,
        _typo_in_exec_time_record,
    ],
)
def test_unknown_key_is_refused_by_every_command(mutate, tmp_path, capsys):
    doc = single_triple_doc()
    where, key = mutate(doc)
    path = write_doc(tmp_path, doc)
    vector = tmp_path / "vector.csv"
    vector.write_text("circuit_id,provider_id,machine_id,reserved\nc1,p1,m1,5\n")
    for args in (
        ["validate", path],
        ["solve", path],
        ["eval", path, "--reservations", str(vector)],
        ["sweep", path],
        ["surface", path, "--waits", "0:0.003:0.001"],
        ["export-lp", path],
    ):
        assert run(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {where}: unknown key '{key}'\n"


def _rate_override(circuit, provider) -> dict:
    rates = {"reserve": 2, "utilize": 0.2, "on_demand": 9, "penalty": 10}
    return {"circuit": circuit, "provider": provider, **rates}


def _rates_unknown_circuit(doc, tmp_path):
    doc["rates"] = [_rate_override("qtf", "p1")]
    return "rates[qtf,p1]: unknown circuit 'qtf'"


def _rates_unknown_provider(doc, tmp_path):
    doc["rates"] = [_rate_override("c1", "p9")]
    return "rates[c1,p9]: unknown provider 'p9'"


def _exec_time_unknown_circuit(doc, tmp_path):
    doc["exec_times"].append(
        {"circuit": "qtf", "provider": "p1", "machine": "m1", "seconds": 0.005}
    )
    return "exec_times[qtf,p1,m1]: unknown circuit 'qtf'"


def _exec_time_csv_unknown_machine(doc, tmp_path):
    del doc["exec_times"]
    (tmp_path / "times.csv").write_text(
        "circuit_id,provider_id,machine_id,seconds\n"
        "c1,p1,m1,0.005\n"
        "c1,p1,m2,0.005\n",
        encoding="utf-8",
    )
    doc["exec_times_csv"] = "times.csv"
    return "exec_times[c1,p1,m2]: unknown machine p1/m2"


@pytest.mark.parametrize(
    "mutate",
    [
        _rates_unknown_circuit,
        _rates_unknown_provider,
        _exec_time_unknown_circuit,
        _exec_time_csv_unknown_machine,
    ],
)
def test_validate_flags_entries_for_unknown_keys(mutate, tmp_path, capsys):
    doc = single_triple_doc()
    message = mutate(doc, tmp_path)
    path = write_doc(tmp_path, doc)
    assert run(["validate", path]) == 1
    assert capsys.readouterr().out == f"error: {message}\n"
    assert run(["solve", path]) == 1
    assert message in capsys.readouterr().err


def _synthetic_timing(doc, num_qubits=4, encoded_value=5):
    doc["circuits"][0].update(num_qubits=num_qubits, encoded_value=encoded_value)
    doc["exec_times"] = {"synthetic": {"base": 0.001, "slope": 0.0001}}


def _exec_times_csv(doc, tmp_path, data: bytes, name="times.csv"):
    del doc["exec_times"]
    (tmp_path / name).write_bytes(data)
    doc["exec_times_csv"] = name


def _machine_id_number(doc, tmp_path):
    doc["machines"][0]["machine"] = 7


def _machine_provider_list(doc, tmp_path):
    doc["machines"][0]["provider"] = ["p1"]


def _rates_circuit_not_a_string(doc, tmp_path):
    doc["rates"] = [_rate_override(5, "p1")]


def _rates_circuit_list(doc, tmp_path):
    doc["rates"] = [_rate_override(["c1"], "p1")]


def _exec_time_machine_list(doc, tmp_path):
    doc["exec_times"][0]["machine"] = ["m1"]


def _default_rates_number(doc, tmp_path):
    doc["default_rates"] = 5


def _rates_number(doc, tmp_path):
    doc["rates"] = 5


def _synthetic_number(doc, tmp_path):
    _synthetic_timing(doc)
    doc["exec_times"]["synthetic"] = 5


def _exec_times_csv_number(doc, tmp_path):
    del doc["exec_times"]
    doc["exec_times_csv"] = 5


def _exec_times_csv_nul_in_name(doc, tmp_path):
    del doc["exec_times"]
    doc["exec_times_csv"] = "times\u0000.csv"


def _exec_times_csv_field_too_long(doc, tmp_path):
    row = "c1,p1,m1," + "1" * 200_000 + "\n"
    _exec_times_csv(doc, tmp_path, (CSV_HEADER + row).encode())


def _num_qubits_string(doc, tmp_path):
    _synthetic_timing(doc, num_qubits="4")


def _num_qubits_boolean(doc, tmp_path):
    _synthetic_timing(doc, num_qubits=True, encoded_value=1)


def _label_number(doc, tmp_path):
    doc["circuits"][0]["label"] = 5


def _demand_probs_booleans(doc, tmp_path):
    doc["circuits"][0]["demand_set"] = [1, 2]
    doc["circuits"][0]["demand_probs"] = [True, False]


def _demand_probs_beyond_magnitude_limit(doc, tmp_path):
    doc["circuits"][0]["demand_probs"] = [10**400]


def _demand_probs_with_54_fraction_digits(doc, tmp_path):
    doc["circuits"][0]["demand_probs"] = ["PROB"]
    return json.dumps(doc).replace('"PROB"', "0." + "0" * 53 + "1")


def _demand_probs_with_a_billion_digit_exponent(doc, tmp_path):
    doc["circuits"][0]["demand_probs"] = ["PROB"]
    return json.dumps(doc).replace('"PROB"', "1e-999999999")


def _demand_range_step_boolean(doc, tmp_path):
    doc["circuits"][0]["demand_set"] = {"lo": 0, "hi": 5, "step": True}


def _rate_null(doc, tmp_path):
    doc["default_rates"]["penalty"] = None


def _rate_infinite(doc, tmp_path):
    doc["default_rates"]["reserve"] = float("inf")


def _seconds_list(doc, tmp_path):
    doc["exec_times"][0]["seconds"] = [0.005]


def _seconds_beyond_decimal_range(doc, tmp_path):
    return json.dumps(doc).replace("0.005}", "1e999999}")


def _integer_beyond_digit_limit(doc, tmp_path):
    return json.dumps(doc).replace('"capacity": 30', '"capacity": ' + "9" * 5000)


def _nested_too_deep(doc, tmp_path):
    return "[" * 100_000 + "]" * 100_000


def _penalty_beyond_magnitude_limit(doc, tmp_path):
    return json.dumps(doc).replace('"penalty": 10', '"penalty": 1e5000')


def _demand_and_rate_product_too_long_to_print(doc, tmp_path):
    doc["circuits"][0]["demand_set"] = [10**4299]
    doc["default_rates"]["on_demand"] = 10**10


def _money_with_a_million_digit_exponent(doc, tmp_path):
    return json.dumps(doc).replace('"reserve": 1.68', '"reserve": 1e999990')


def _demand_range_beyond_magnitude_limit(doc, tmp_path):
    doc["circuits"][0]["demand_set"] = {"lo": 0, "hi": 10**25, "step": 10**20}


def _capacity_beyond_magnitude_limit(doc, tmp_path):
    doc["machines"][0]["capacity"] = 10**25


def _num_qubits_beyond_magnitude_limit(doc, tmp_path):
    _synthetic_timing(doc, num_qubits=10**25)


def _money_text_with_underscore(doc, tmp_path):
    doc["default_rates"]["reserve"] = "1_0"


def _probability_text_with_whitespace(doc, tmp_path):
    doc["circuits"][0]["demand_probs"] = [" 1\n"]


def _seconds_text_with_non_ascii_digits(doc, tmp_path):
    doc["exec_times"][0]["seconds"] = "\u0665"  # ARABIC-INDIC DIGIT FIVE


def _exec_times_csv_underscore(doc, tmp_path):
    _exec_times_csv(doc, tmp_path, (CSV_HEADER + "c1,p1,m1,0.00_5\n").encode())


def _exec_times_csv_trailing_space(doc, tmp_path):
    _exec_times_csv(doc, tmp_path, (CSV_HEADER + "c1,p1,m1,0.005 \n").encode())


@pytest.mark.parametrize(
    "mutate",
    [
        _machine_id_number,
        _machine_provider_list,
        _rates_circuit_not_a_string,
        _rates_circuit_list,
        _exec_time_machine_list,
        _default_rates_number,
        _rates_number,
        _synthetic_number,
        _exec_times_csv_number,
        _exec_times_csv_nul_in_name,
        _exec_times_csv_field_too_long,
        _num_qubits_string,
        _num_qubits_boolean,
        _label_number,
        _demand_probs_booleans,
        _demand_probs_beyond_magnitude_limit,
        _demand_probs_with_54_fraction_digits,
        _demand_probs_with_a_billion_digit_exponent,
        _demand_range_step_boolean,
        _rate_null,
        _rate_infinite,
        _seconds_list,
        _seconds_beyond_decimal_range,
        _integer_beyond_digit_limit,
        _nested_too_deep,
        _penalty_beyond_magnitude_limit,
        _demand_and_rate_product_too_long_to_print,
        _money_with_a_million_digit_exponent,
        _demand_range_beyond_magnitude_limit,
        _capacity_beyond_magnitude_limit,
        _num_qubits_beyond_magnitude_limit,
        _money_text_with_underscore,
        _probability_text_with_whitespace,
        _seconds_text_with_non_ascii_digits,
        _exec_times_csv_underscore,
        _exec_times_csv_trailing_space,
    ],
)
def test_malformed_document_is_one_error_line(mutate, tmp_path, capsys):
    doc = single_triple_doc()
    text = mutate(doc, tmp_path)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc) if text is None else text, encoding="utf-8")
    for command in ("validate", "solve"):
        assert run([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1


def _root_list(doc, tmp_path):
    return "[]"


def _exec_times_and_csv(doc, tmp_path):
    doc["exec_times_csv"] = "times.csv"


def _exec_times_number(doc, tmp_path):
    doc["exec_times"] = 5


def _demand_set_number(doc, tmp_path):
    doc["circuits"][0]["demand_set"] = 5


def _demand_range_step_zero(doc, tmp_path):
    doc["circuits"][0]["demand_set"] = {"lo": 0, "hi": 5, "step": 0}


def _demand_probs_empty(doc, tmp_path):
    doc["circuits"][0]["demand_probs"] = []


def _synthetic_base_text(doc, tmp_path):
    _synthetic_timing(doc)
    doc["exec_times"]["synthetic"]["base"] = "abc"


def _synthetic_slope_zero(doc, tmp_path):
    _synthetic_timing(doc)
    doc["exec_times"]["synthetic"]["slope"] = 0


def _synthetic_no_qubits(doc, tmp_path):
    _synthetic_timing(doc, num_qubits=0, encoded_value=0)


def _synthetic_value_too_wide(doc, tmp_path):
    _synthetic_timing(doc, num_qubits=4, encoded_value=16)


READER_DIAGNOSTICS = [
    (_root_list, "document root must be an object"),
    (_exec_times_and_csv, "give either exec_times or exec_times_csv, not both"),
    (
        _exec_times_number,
        "exec_times must be a list of records or a {'synthetic': ...} object",
    ),
    (
        _demand_set_number,
        "circuits[0].demand_set: expected a list or a lo/hi/step object",
    ),
    (_demand_range_step_zero, "circuits[0].demand_set: step must be positive"),
    (
        _demand_probs_empty,
        "circuits[0].demand_probs: expected a non-empty list of probabilities",
    ),
    (
        _synthetic_base_text,
        "exec_times.synthetic: time value is not a number: 'abc'",
    ),
    (_synthetic_slope_zero, "exec_times.synthetic: base and slope must be positive"),
    (
        _synthetic_no_qubits,
        "exec_times.synthetic: circuit 'c1': num_qubits must be positive, got 0",
    ),
    (
        _synthetic_value_too_wide,
        "exec_times.synthetic: circuit 'c1': "
        "encoded value 16 out of range for 4 qubits",
    ),
]


@pytest.mark.parametrize(
    "mutate, message",
    READER_DIAGNOSTICS,
    ids=[mutate.__name__.lstrip("_") for mutate, _ in READER_DIAGNOSTICS],
)
def test_reader_diagnostic_is_pinned(mutate, message, tmp_path, capsys):
    doc = single_triple_doc()
    text = mutate(doc, tmp_path)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc) if text is None else text, encoding="utf-8")
    for command in ("validate", "solve"):
        assert run([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("key", ["reserve", "utilize", "on_demand", "penalty"])
@pytest.mark.parametrize(
    "value, problem",
    [
        ("1e30", "money value is larger than 1e+24 in magnitude"),
        ("NaN", "money value is not a finite number: NaN"),
        ("0.0000001", "money value has sub-micro precision: 1E-7"),
    ],
    ids=["too-large", "not-finite", "sub-micro"],
)
@pytest.mark.parametrize("block", ["default_rates", "rates[0]"])
def test_rate_error_names_the_rate(block, key, value, problem, tmp_path, capsys):
    doc = single_triple_doc()
    if block == "rates[0]":
        doc["rates"] = [_rate_override("c1", "p1")]
        doc["rates"][0][key] = "RATE"
    else:
        doc["default_rates"][key] = "RATE"
    path = write_doc(tmp_path, doc)
    Path(path).write_text(
        Path(path).read_text().replace('"RATE"', value), encoding="utf-8"
    )
    assert run(["solve", path]) == 1
    assert capsys.readouterr().err == f"error: {block}: {key}: {problem}\n"


def _huge_rates_doc(demand_set: list[int], demand_probs: str) -> str:
    """utilize and on_demand at 10^24 dollars; demand_probs as written."""
    doc = single_triple_doc()
    doc["circuits"][0]["demand_set"] = demand_set
    doc["circuits"][0]["demand_probs"] = "PROBS"
    doc["default_rates"].update(utilize=10**24, on_demand=10**24)
    return json.dumps(doc).replace('"PROBS"', demand_probs)


def test_vector_summing_above_1_is_refused_naming_the_exact_sum(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(_huge_rates_doc([5], "[1.0000000005]"), encoding="utf-8")
    problem = "probabilities sum to 2000000001/2000000000, not 1"
    assert run(["validate", str(path)]) == 1
    assert capsys.readouterr().out == f"error: circuit c1 demand_probs: {problem}\n"
    assert run(["export-lp", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: circuit c1 demand_probs: {problem}\n"


def test_exported_lp_at_the_rate_limit_parses_back(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(_huge_rates_doc([5, 6], "[0.3, 0.7]"), encoding="utf-8")
    assert run(["validate", str(path)]) == 0
    assert run(["export-lp", str(path)]) == 0
    text = capsys.readouterr().out
    assert parse_lp(text) == build_extensive_form(load_instance(path))


def test_ten_written_tenths_are_exact_kernel_masses(tmp_path):
    doc = single_triple_doc()
    doc["circuits"][0].update(
        demand_set=list(range(10)),
        demand_probs=[0.1] * 10,
        wait_set=[i / 1000 for i in range(10)],
        wait_probs=[0.1] * 10,
    )
    table = circuit_tables(load_instance(write_doc(tmp_path, doc)))["c1"]
    # The table holds integer masses over its common denominators.
    survival = table.survival
    masses = [Fraction(a - b, table.common) for a, b in zip(survival, survival[1:])]
    assert masses == [Fraction(1, 10)] * 10
    waits = [Fraction(mass, table.wait_common) for _, mass in table.waits]
    assert waits == [Fraction(1, 10)] * 10


def test_refused_instance_has_one_error_prefix(tmp_path, capsys):
    doc = single_triple_doc()
    doc["exec_times"][0]["seconds"] = -0.005
    path = write_doc(tmp_path, doc)
    assert run(["solve", path]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: exec_times[c1,p1,m1]: negative execution time\n"
    assert run(["validate", path]) == 1
    assert capsys.readouterr().out == (
        "error: exec_times[c1,p1,m1]: negative execution time\n"
    )


def test_product_space_guard_spares_the_kernel(tmp_path, capsys):
    doc = single_triple_doc()
    doc["circuits"][0]["demand_set"] = {"lo": 0, "hi": 1999}
    doc["circuits"][0]["wait_set"] = {"lo": 0.001, "hi": 1, "step": 0.001}
    path = write_doc(tmp_path, doc)
    for args in (["export-lp", path], ["solve", path, "--oracle"]):
        assert run(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "2000000 scenarios" in err
    for args in (["solve", path], ["sweep", path, "--grid", "0:2"]):
        assert run(args) == 0
    capsys.readouterr()


def test_document_over_the_total_guard_exits_1_naming_its_total(tmp_path, capsys):
    doc = single_triple_doc()
    doc["circuits"] = [
        {"id": cid, "demand_set": {"lo": 0, "hi": 10**6 - 1}, "wait_set": [0.003]}
        for cid in ("c1", "c2")
    ]
    path = write_doc(tmp_path, doc)
    for command in ("validate", "solve", "export-lp"):
        assert run([command, path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: circuits: 2000002 demand and wait outcomes in all, "
            "more than 2000000\n"
        )


def test_oracle_refuses_more_work_than_its_guard(tmp_path, monkeypatch, capsys):
    # 10001 levels x (10000 demands x 100 waits): about 10^10 evaluations.
    built = []
    monkeypatch.setattr(
        scenarios, "product_space", lambda cid, marginals: built.append(cid)
    )
    doc = single_triple_doc()
    doc["circuits"][0]["demand_set"] = {"lo": 0, "hi": 9999}
    doc["circuits"][0]["wait_set"] = {"lo": 0.001, "hi": 0.1, "step": 0.001}
    doc["machines"][0]["capacity"] = 10**4
    path = write_doc(tmp_path, doc)
    assert run(["solve", path, "--oracle"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: brute force needs 10001000000 scenario evaluations, "
        "more than guard 100000000\n"
    )
    assert built == []


def _paths(value, prefix=()):
    """Every key or index path inside a JSON value."""
    children = (
        value.items() if isinstance(value, dict)
        else enumerate(value) if isinstance(value, list)
        else ()
    )
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


SINGLE_TRIPLE_PATHS = list(_paths(single_triple_doc()))

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=5,
)


@settings(
    derandomize=True,
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    path=st.sampled_from(SINGLE_TRIPLE_PATHS),
    value=st.one_of(st.just(DELETE), json_values),
)
def test_any_field_of_any_type_exits_0_or_1(path, value, tmp_path, capsys):
    doc = single_triple_doc()
    *parents, last = path
    block = doc
    for key in parents:
        block = block[key]
    if value is DELETE:
        del block[last]
    else:
        block[last] = value
    target = write_doc(tmp_path, doc)
    for command in ("validate", "solve"):
        assert run([command, target]) in (0, 1)
    capsys.readouterr()


CSV_CELLS = st.sampled_from(
    ["circuit_id", "provider_id", "machine_id", "reserved", "qft", "p1", "m1",
     "p9", "0", "19", "31", "-1", "1.5", "x", "9" * 5000, ""]
) | st.text(max_size=3)
CSV_LINES = st.lists(
    st.lists(CSV_CELLS, max_size=5).map(",".join), max_size=4
).map(lambda lines: "".join(line + "\n" for line in lines))
GRID_NUMBERS = ["0", "1", "5", "30", "31", "-1", "1.5", "x", "", "inf", "nan", "1e1"]
WAIT_NUMBERS = ["0", "0.001", "0.002", "0.01", "-0.001", "0.0000001", "x", "", "inf"]


def _spec(numbers: list[str]) -> st.SearchStrategy:
    return st.lists(st.sampled_from(numbers), min_size=1, max_size=4).map(":".join)


@settings(
    derandomize=True,
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    command=st.sampled_from(["eval", "sweep", "surface"]),
    header=st.sampled_from(
        ["circuit_id,provider_id,machine_id,reserved\n", "reserved,machine_id\n", ""]
    ),
    rows=CSV_LINES,
    grid=_spec(GRID_NUMBERS),
    waits=_spec(WAIT_NUMBERS),
)
@example(
    command="eval",
    header="circuit_id,provider_id,machine_id,reserved\n",
    rows="qft,p1\n",
    grid="0:1",
    waits="0:0.001",
)
def test_cli_inputs_exit_0_1_or_2_with_one_error_line(
    command, header, rows, grid, waits, tmp_path, capsys
):
    vector = tmp_path / "vector.csv"
    vector.write_text(header + rows, encoding="utf-8")
    argv = {
        "eval": ["eval", REF, "--reservations", str(vector)],
        "sweep": ["sweep", REF, f"--grid={grid}"],
        "surface": ["surface", REF, f"--grid={grid}", f"--waits={waits}"],
    }[command]
    code = run(argv)
    captured = capsys.readouterr()
    assert code in (0, 1, 2)
    if code:
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: " if code == 1 else "usage error: ")


TIME_CELLS = st.sampled_from(
    ["circuit_id", "provider_id", "machine_id", "seconds", "c1", "p1", "m1", "m2",
     "0.005", " 0.005", "0.005 ", "0.00_5", "-0.001", "0.0000001", "1e999999",
     "nan", "x", "9" * 5000, '"0.005"', ""]
) | st.text(max_size=3)
TIME_CSVS = st.tuples(
    st.sampled_from(
        [CSV_HEADER, "circuit_id, provider_id, machine_id, seconds\n", "seconds\n", ""]
    ),
    st.lists(
        st.lists(TIME_CELLS, max_size=5).map(",".join), max_size=4
    ).map(lambda lines: "".join(line + "\n" for line in lines)),
).map("".join)


@settings(
    derandomize=True,
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    times=st.none() | TIME_CSVS,
    path=st.sampled_from(SINGLE_TRIPLE_PATHS),
    value=st.one_of(st.just(DELETE), json_values),
)
@example(times=CSV_HEADER + "c1,p1,m1,0.00_5\n", path=("providers",), value=["p1"])
def test_mutated_exec_times_csv_and_export_lp_exit_0_1_or_2(
    times, path, value, tmp_path, capsys
):
    doc = single_triple_doc()
    *parents, last = path
    block = doc
    for key in parents:
        block = block[key]
    if value is DELETE:
        del block[last]
    else:
        block[last] = value
    if times is not None:
        doc.pop("exec_times", None)
        (tmp_path / "times.csv").write_text(times, encoding="utf-8")
        doc["exec_times_csv"] = "times.csv"
    target = write_doc(tmp_path, doc)
    for command in ("solve", "export-lp"):
        code = run([command, target])
        captured = capsys.readouterr()
        assert code in (0, 1, 2)
        if code:
            assert captured.out == ""
            assert captured.err.count("\n") == 1
            assert captured.err.startswith("error: " if code == 1 else "usage error: ")


@pytest.mark.parametrize("which", ["instance", "exec_times_csv", "reservations"])
def test_undecodable_file_is_one_error_line(which, tmp_path, capsys):
    garbage = b"\xff\xfe" + "not utf-8".encode("utf-16-le")
    doc = single_triple_doc()
    if which == "exec_times_csv":
        _exec_times_csv(doc, tmp_path, garbage)
    path = write_doc(tmp_path, doc)
    if which == "instance":
        Path(path).write_bytes(garbage)
    vector = tmp_path / "vector.csv"
    vector.write_bytes(
        garbage if which == "reservations"
        else b"circuit_id,provider_id,machine_id,reserved\nc1,p1,m1,5\n"
    )
    assert run(["eval", path, "--reservations", str(vector)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "decode" in err and err.count("\n") == 1


def test_validate_missing_file(capsys):
    assert run(["validate", "no-such-file.json"]) == 1
    assert "error" in capsys.readouterr().err


# --- sweep / surface -----------------------------------------------------------


def test_sweep_row_count(capsys):
    assert run(["sweep", REF, "--grid", "0:30"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "reserved,first_stage,second_stage,penalty,total"
    assert len(lines) == 32


def test_sweep_grid_with_step(capsys):
    assert run(["sweep", REF, "--grid", "0:30:5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [l.split(",")[0] for l in lines[1:]] == ["0", "5", "10", "15", "20", "25", "30"]


def test_sweep_default_grid_spans_capacity(capsys):
    assert run(["sweep", REF]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 32


def test_sweep_bad_grid_is_usage_error(capsys):
    assert run(["sweep", REF, "--grid", "5"]) == 2
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["sweep", REF, "--grid", "0:5:1:1"],
        ["sweep", REF, "--grid", "a:5"],
        ["sweep", REF, "--grid", "0:5:0"],
        ["sweep", REF, "--grid", "5:0"],
        ["sweep", REF, "--grid=-1:5"],
        ["surface", REF, "--grid", "0:2", "--waits", "0.001"],
        ["surface", REF, "--grid", "0:2", "--waits", "0.001:x"],
        ["surface", REF, "--grid", "0:2", "--waits", "0:0.002:0"],
        ["surface", REF, "--grid", "0:2", "--waits", "0.002:0.001"],
        ["surface", REF, "--grid", "0:2", "--waits=-0.001:0.002"],
        ["surface", REF, "--grid", "0:2", "--waits", "0:0.0000001:0.0000001"],
        ["surface", REF, "--grid", "0:2", "--waits", "0:inf"],
        ["sweep", REF, "--grid", "0:3_0"],
        ["sweep", REF, "--grid", "0: 30"],
        ["surface", REF, "--grid", "0:2", "--waits", "0:0.00_2"],
    ],
    ids=[
        "grid-arity",
        "grid-non-numeric",
        "grid-zero-step",
        "grid-hi-below-lo",
        "grid-negative-lo",
        "waits-arity",
        "waits-non-numeric",
        "waits-zero-step",
        "waits-hi-below-lo",
        "waits-negative-lo",
        "waits-below-a-microsecond",
        "waits-infinite",
        "grid-underscore",
        "grid-space",
        "waits-underscore",
    ],
)
def test_malformed_grid_is_usage_error(args, capsys):
    assert run(args) == 2
    assert capsys.readouterr().err.startswith("usage error: ")


@pytest.mark.parametrize(
    "args, size",
    [
        (["sweep", REF, "--grid", "0:1000001"], "grid has 1000002 points"),
        (
            ["surface", REF, "--grid", "0:2", "--waits", "0:1.000001:0.000001"],
            "waits has 1000002 points",
        ),
        (
            ["surface", REF, "--grid", "0:30", "--waits", "0:0.04:0.000001"],
            "surface has 1240031 cells",
        ),
    ],
    ids=["grid", "waits", "surface"],
)
def test_oversized_grid_is_usage_error_naming_its_size(args, size, capsys):
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and size in err


def test_surface_rows(capsys):
    assert run(["surface", REF, "--grid", "0:4", "--waits", "0.001:0.003:0.001"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "reserved,arranged_wait,total"
    assert len(lines) == 1 + 5 * 3


def test_surface_default_wait_step(capsys):
    # reference wait set has 1 ms gaps
    assert run(["surface", REF, "--grid", "0:2", "--waits", "0.001:0.005"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1 + 3 * 5


def test_surface_default_wait_step_from_unsorted_wait_set(tmp_path, capsys):
    doc = single_triple_doc()
    doc["circuits"][0]["wait_set"] = [0.003, 0.001, 0.002]
    path = write_doc(tmp_path, doc)
    assert run(["surface", path, "--grid", "0:0", "--waits", "0:0.003"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    waits = [line.split(",")[1] for line in lines[1:]]
    assert waits == ["0.000000", "0.001000", "0.002000", "0.003000"]


def test_surface_default_wait_step_needs_a_gap(tmp_path, capsys):
    path = write_doc(tmp_path, single_triple_doc())  # its one wait set is [0.003]
    assert run(["surface", path, "--grid", "0:1", "--waits", "0:0.003"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "usage error: no wait-set gap to derive a step from; pass lo:hi:step\n"
    )


@pytest.mark.parametrize(
    "args, note",
    [
        (["sweep", REF, "--grid", "0:30"], "swept 31 reservation levels"),
        (
            ["surface", REF, "--grid", "0:4", "--waits", "0.001:0.003:0.001"],
            "evaluated 15 grid cells",
        ),
        (["export-lp", REF], "2112 variables, 2106 rows"),
    ],
    ids=["sweep", "surface", "export-lp"],
)
def test_verbose_note_goes_to_stderr_only(args, note, capsys):
    assert run(args) == 0
    quiet = capsys.readouterr()
    assert run([*args, "-v"]) == 0
    verbose = capsys.readouterr()
    assert verbose.out == quiet.out
    assert (quiet.err, verbose.err) == ("", note + "\n")


# --- export-lp / eval ----------------------------------------------------------


def test_export_lp_matches_golden(tmp_path, capsys, data_dir):
    path = write_doc(tmp_path, single_triple_doc())
    assert run(["export-lp", path]) == 0
    out = capsys.readouterr().out
    assert out == (data_dir / "golden_single.lp").read_text(encoding="utf-8")


@pytest.mark.parametrize("shape", ["reference", "audit-shaped"])
def test_export_lp_stdout_and_file_are_the_rendered_bytes(shape, tmp_path, capsys):
    path = REF if shape == "reference" else write_doc(tmp_path, audit_shaped_doc())
    target = tmp_path / "model.lp"
    assert run(["export-lp", path]) == 0
    assert run(["export-lp", path, "-o", str(target)]) == 0
    instance = load_instance(path)
    rendered = render_lp(build_extensive_form(instance)).encode("ascii")
    assert capsys.readouterr().out.encode("ascii") == target.read_bytes() == rendered
    # Written in several chunks, whose seams must not show.
    assert len(list(lpplan.plan_lp_chunks(lpplan.plan_form(instance)))) > 1


def _unwritable(plans):
    """The plans with a tag that makes only the longest row names of the last
    triple too long for the LP format: its wait rows from some scenario on."""
    *rest, last = plans
    tag = "t" * (256 - len(f"wait__s{len(last.space) - 1}"))
    return [*rest, last._replace(tag=tag)]


def test_export_lp_of_an_unwritable_form_writes_nothing(tmp_path, capsys, monkeypatch):
    plan_form = lpplan.plan_form
    monkeypatch.setattr(lpplan, "plan_form", lambda inst: _unwritable(plan_form(inst)))
    with pytest.raises(ValueError, match="constraint name not exportable"):
        run(["export-lp", REF])
    assert capsys.readouterr().out == ""
    target = tmp_path / "model.lp"
    target.write_bytes(b"old")
    with pytest.raises(ValueError, match="constraint name not exportable"):
        run(["export-lp", REF, "-o", str(target)])
    assert os.listdir(tmp_path) == ["model.lp"]
    assert target.read_bytes() == b"old"


@settings(
    derandomize=True,
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(doc=documents_at_the_limits())
def test_export_lp_of_a_loadable_instance_is_its_rendered_form(doc, tmp_path, capsys):
    path = write_doc(tmp_path, doc)
    target = tmp_path / "model.lp"
    assert run(["export-lp", path]) == 0
    assert run(["export-lp", path, "-o", str(target)]) == 0
    rendered = render_lp(build_extensive_form(load_instance(path))).encode("ascii")
    assert capsys.readouterr().out.encode("ascii") == target.read_bytes() == rendered


def test_export_lp_builds_no_extensive_form(tmp_path, capsys, monkeypatch):
    path = write_doc(tmp_path, audit_shaped_doc())
    expected = render_lp(build_extensive_form(load_instance(path)))
    builds = []
    monkeypatch.setattr(extform, "build_extensive_form", builds.append)
    # Any record built now fails: calling None is a TypeError.
    for record in ("Variable", "Row", "ExtensiveForm"):
        monkeypatch.setattr(extform, record, None)
    assert run(["export-lp", path, "-v"]) == 0
    captured = capsys.readouterr()
    assert builds == []
    assert captured.out == expected
    assert captured.err == "14412 variables, 14400 rows\n"


def test_export_lp_never_holds_a_second_copy_of_the_lp(tmp_path):
    path = write_doc(tmp_path, audit_shaped_doc())
    tracemalloc.start()
    try:
        form = build_extensive_form(load_instance(path))
        _, build_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    lp_size = len(render_lp(form))
    del form
    tracemalloc.start()
    try:
        assert run(["export-lp", path, "-o", str(tmp_path / "model.lp")]) == 0
        _, export_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (tmp_path / "model.lp").stat().st_size == lp_size
    # The LP is written from the plans, without the form's records.
    assert export_peak < build_peak / 2


def test_eval_reservation_vector(tmp_path, capsys):
    path = write_doc(tmp_path, single_triple_doc())
    vector = tmp_path / "vector.csv"
    vector.write_text(
        "circuit_id,provider_id,machine_id,reserved\nc1,p1,m1,5\n", encoding="utf-8"
    )
    assert run(["eval", path, "--reservations", str(vector)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    # 5 reserved at 1.68, 5 utilized at 0.1, 2 ms over-wait at 10 $/s
    assert lines[1] == "c1,p1,m1,5,8.400000,0.500000,0.020000,8.920000"


def test_eval_over_capacity_fails(tmp_path, capsys):
    doc = single_triple_doc()
    doc["machines"][0]["capacity"] = 3
    path = write_doc(tmp_path, doc)
    vector = tmp_path / "vector.csv"
    vector.write_text(
        "circuit_id,provider_id,machine_id,reserved\nc1,p1,m1,5\n", encoding="utf-8"
    )
    assert run(["eval", path, "--reservations", str(vector)]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "rows, message",
    [
        ("qft,p1\n", "line 2: malformed row (expected 4 columns)"),
        ("qft,p1,m1,3\nqft,p1,m1,4\n", "line 3: duplicate triple ('qft', 'p1', 'm1')"),
        ("qft,p1,m1,x\n", "line 2: invalid literal for int() with base 10: 'x'"),
        ("qft,p1,m1,1_9\n", "line 2: invalid literal for int() with base 10: '1_9'"),
        ("qft,p1,m1, 19\n", "line 2: invalid literal for int() with base 10: ' 19'"),
    ],
    ids=["short-row", "duplicate-triple", "not-an-integer", "underscore", "space"],
)
def test_eval_bad_row_is_one_error_line(rows, message, tmp_path, capsys):
    vector = tmp_path / "vector.csv"
    vector.write_text(
        "circuit_id,provider_id,machine_id,reserved\n" + rows, encoding="utf-8"
    )
    assert run(["eval", REF, "--reservations", str(vector)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_eval_reads_the_csv_that_solve_writes(tmp_path, capsys):
    solved = tmp_path / "solution.csv"
    assert run(["solve", REF]) == 0
    printed = capsys.readouterr().out
    assert run(["solve", REF, "-o", str(solved)]) == 0
    assert solved.read_text(encoding="utf-8") == printed
    assert run(["eval", REF, "--reservations", str(solved)]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (printed, "")


def test_eval_empty_field_names_its_column(tmp_path, capsys):
    vector = tmp_path / "vector.csv"
    vector.write_text(
        "circuit_id,provider_id,machine_id,reserved\nqft,p1,,3\n", encoding="utf-8"
    )
    assert run(["eval", REF, "--reservations", str(vector)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 2: empty machine_id\n"


def test_row_longer_than_its_header_is_one_error_line(tmp_path, capsys):
    doc = single_triple_doc()
    _exec_times_csv(doc, tmp_path, (CSV_HEADER + "c1,p1,m1,0.005,7\n").encode())
    vector = tmp_path / "vector.csv"
    vector.write_text(
        "circuit_id,provider_id,machine_id,reserved\nc1,p1,m1,19,9\n",
        encoding="utf-8",
    )
    good = write_doc(tmp_path, single_triple_doc(), "good.json")
    for args in (
        ["validate", write_doc(tmp_path, doc)],
        ["solve", write_doc(tmp_path, doc)],
        ["eval", good, "--reservations", str(vector)],
    ):
        assert run(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 2: malformed row (expected 4 columns)\n"


def test_eval_bad_header(tmp_path, capsys):
    path = write_doc(tmp_path, single_triple_doc())
    vector = tmp_path / "vector.csv"
    vector.write_text("a,b\n1,2\n", encoding="utf-8")
    assert run(["eval", path, "--reservations", str(vector)]) == 1


def test_eval_refuses_a_header_that_names_a_column_twice(tmp_path, capsys):
    path = write_doc(tmp_path, single_triple_doc())
    vector = tmp_path / "vector.csv"
    vector.write_text(
        "circuit_id,provider_id,machine_id,reserved,reserved\nc1,p1,m1,0,5\n",
        encoding="utf-8",
    )
    assert run(["eval", path, "--reservations", str(vector)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: reservations CSV header names reserved more than once\n"


# --- usage ---------------------------------------------------------------------


# Option values and instance paths: any text, but a path never starts with
# "-", which would make it an option.
ARG_TEXT = st.text(alphabet="ab0:.-=/ ", max_size=6)
PATH_TEXT = st.text(alphabet="ab0:.-=/ ", min_size=1, max_size=6).filter(
    lambda text: not text.startswith("-")
)


def spellings(flags: tuple[str, ...], value: str | None) -> list[list[str]]:
    """Every way to write an option: ``--opt v``, ``--opt=v`` and the short forms."""
    if value is None:
        return [[flag] for flag in flags]
    return [form for flag in flags for form in ([flag, value], [f"{flag}={value}"])]


@st.composite
def command_lines(draw):
    """An argv drawn from the command table, and the namespace it must parse to.

    Each option is given up to three times (a required one at least once),
    each time in a drawn spelling, in a drawn order, with INSTANCE at a
    drawn place among them; the last value given wins.
    """
    command = draw(st.sampled_from(list(cli.COMMANDS)))
    func, _, extra = cli.COMMANDS[command]
    options = cli._COMMON + extra
    expected = {flags[-1][2:]: None if read else False for flags, read, _, _ in options}
    written = []
    for flags, read, required, _ in options:
        for _ in range(draw(st.integers(1 if required else 0, 3))):
            if read is None:
                value, text = True, None
            elif read is int:
                value = draw(st.integers(-(10**6), 10**6))
                text = str(value)
            else:
                value = text = draw(ARG_TEXT)
            tokens = draw(st.sampled_from(spellings(flags, text)))
            written.append((flags[-1][2:], value, tokens))
    written = draw(st.permutations(written))
    at = draw(st.integers(0, len(written)))
    instance = draw(PATH_TEXT)
    argv = [command]
    for i, (dest, value, tokens) in enumerate(written):
        argv += [instance] * (i == at) + tokens
        expected[dest] = value
    argv += [instance] * (at == len(written))
    return argv, SimpleNamespace(func=func, instance=instance, **expected)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(command_lines())
@example((["solve", "--seed", "7", REF, "--oracle", "--seed=-3"], SimpleNamespace(
    func=cli._cmd_solve, instance=REF, output=None, verbose=False, oracle=True,
    seed=-3, human=False,
)))
def test_every_spelling_in_the_command_table_parses_as_the_table_says(case):
    argv, expected = case
    assert cli.parse_args(argv) == expected


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param([], id="no-command"),
        pytest.param(["frobnicate", REF], id="unknown-command"),
        pytest.param(["-v", "solve", REF], id="option-before-command"),
        pytest.param(["solve", REF, "--bogus"], id="unknown-option"),
        pytest.param(["solve"], id="no-instance"),
        pytest.param(["solve", REF, REF], id="two-instances"),
        pytest.param(["surface", REF, "--grid", "0:2"], id="missing-required-option"),
        pytest.param(["sweep", REF, "--grid"], id="value-option-at-the-end"),
        pytest.param(["solve", REF, "--oracle=1"], id="flag-given-a-value"),
        pytest.param(["solve", REF, "--oracle", "--seed", "x"], id="seed-not-an-int"),
        pytest.param(["solve", REF, "--ora"], id="abbreviated-option"),
        pytest.param(["solve", REF, "-vo", "out.csv"], id="combined-short-flags"),
        pytest.param(["solve", "--", REF], id="double-dash"),
    ],
)
def test_malformed_argv_is_one_usage_error_line(argv, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("usage error: ")


@pytest.mark.parametrize(
    "command", ["validate", "solve", "eval", "sweep", "surface", "export-lp"]
)
def test_help_documents_flags(command, capsys):
    assert run(["--help"]) == 0
    assert f"  {command} " in capsys.readouterr().out
    assert run([command, "--help"]) == 0
    text = capsys.readouterr().out
    assert "--output" in text
    if command in ("sweep", "surface"):
        assert "--grid" in text
    if command == "surface":
        assert "--waits" in text
    if command == "solve":
        assert "--oracle" in text and "--seed" in text and "--human" in text
    if command == "eval":
        assert "--reservations" in text


# --- write_atomic -------------------------------------------------------------


def test_write_atomic_returns_the_file_size(tmp_path):
    target = tmp_path / "out.csv"
    written = write_atomic(target, "reserved,total\n0,1.5\nqubit \u00b5s\n")
    assert written == target.stat().st_size == len(target.read_bytes())
    assert sorted(os.listdir(tmp_path)) == ["out.csv"]


def test_write_atomic_keeps_the_mode_of_a_plain_write(tmp_path):
    plain = tmp_path / "plain.txt"
    plain.write_text("x", encoding="utf-8")
    target = tmp_path / "atomic.txt"
    write_atomic(target, "x")
    assert target.stat().st_mode == plain.stat().st_mode


def test_write_atomic_leaves_an_old_tmp_file_alone(tmp_path):
    stale = tmp_path / "model.lp.tmp"
    stale.write_text("someone else's", encoding="utf-8")
    write_atomic(tmp_path / "model.lp", "End\n")
    assert stale.read_text(encoding="utf-8") == "someone else's"
    assert (tmp_path / "model.lp").read_text(encoding="utf-8") == "End\n"


def test_write_atomic_removes_its_temp_file_on_failure(tmp_path, monkeypatch):
    target = tmp_path / "out.csv"
    target.write_text("old", encoding="utf-8")

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        write_atomic(target, "new")
    assert sorted(os.listdir(tmp_path)) == ["out.csv"]
    assert target.read_text(encoding="utf-8") == "old"


def test_write_atomic_returns_the_bytes_of_every_chunk(tmp_path):
    target = tmp_path / "out.csv"
    chunks = ["reserved,total\n", "0,1.5\n", "", "qubit \u00b5s\n"]
    written = write_atomic(target, iter(chunks))
    assert written == target.stat().st_size == len("".join(chunks).encode("utf-8"))
    assert target.read_text(encoding="utf-8") == "".join(chunks)


def test_write_atomic_keeps_the_old_file_when_the_chunks_fail(tmp_path):
    target = tmp_path / "out.lp"
    target.write_bytes(b"old\n")

    def chunks():
        yield "Minimize\n"
        raise ValueError("bad form")

    with pytest.raises(ValueError, match="bad form"):
        write_atomic(target, chunks())
    assert sorted(os.listdir(tmp_path)) == ["out.lp"]
    assert target.read_bytes() == b"old\n"


def test_output_to_a_missing_directory_names_the_given_path(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    assert run(["solve", REF, "-o", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: '{target}'\n"
    )
    assert os.listdir(tmp_path) == []


def test_output_onto_a_directory_names_the_given_path(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    os.mkdir("somedir")
    assert run(["solve", REF, "-o", "somedir"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: 'somedir'\n"
    )
    assert os.listdir(tmp_path) == ["somedir"]
    assert os.listdir("somedir") == []


@pytest.mark.parametrize("given", ["./missing.json", "sub//./missing.json", "sub/"])
def test_an_unreadable_instance_is_named_as_pathlib_names_it(
    given, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    os.mkdir("sub")
    assert run(["solve", given]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno ") and err.endswith(f": '{Path(given)}'\n")


@pytest.mark.parametrize("csv_name", ["./missing.csv", ".//missing.csv"])
def test_a_missing_csv_is_named_as_pathlib_joins_it(
    csv_name, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    os.mkdir("sub")
    doc = single_triple_doc()
    del doc["exec_times"]
    write_doc(tmp_path / "sub", {**doc, "exec_times_csv": csv_name})
    given = "./sub/inst.json"
    assert run(["solve", given]) == 1
    missing = Path(given).parent / csv_name
    assert capsys.readouterr().err == (
        f"error: exec_times_csv: [Errno {errno.ENOENT}] "
        f"{os.strerror(errno.ENOENT)}: '{missing}'\n"
    )
