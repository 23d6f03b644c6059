from __future__ import annotations

import dataclasses
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import REF_RATES, make_instance, reference_vector_read
from qres import instance as instance_module
from qres.csvio import load_reservations
from qres.instance import (
    OUTCOME_GUARD,
    InstanceError,
    TripleKey,
    instance_from_document,
    load_instance,
    outcome_weights,
    popcount,
    synth_exec_time,
    validate,
)


def minimal_doc() -> dict:
    return {
        "circuits": [{"id": "c1", "demand_set": [1], "wait_set": [1.0]}],
        "providers": ["p1"],
        "machines": [{"provider": "p1", "machine": "m1", "capacity": 5}],
        "default_rates": {"reserve": 1, "utilize": 0.5, "on_demand": 2, "penalty": 3},
        "exec_times": [
            {"circuit": "c1", "provider": "p1", "machine": "m1", "seconds": 0.004}
        ],
    }


# --- load_instance ---------------------------------------------------------


def test_load_reference_instance(reference_instance):
    inst = reference_instance
    assert len(inst.machines) == 6
    assert inst.demand_sets["qft"] == tuple(range(10, 23))
    assert inst.wait_sets["qft"] == tuple(range(1000, 9001, 1000))
    rates = inst.rate("qft", "p1")
    assert rates.reserve_per_qubit == 1_680_000
    assert rates.utilize_per_qubit == 100_000
    assert rates.on_demand_per_qubit == 7_000_000
    assert rates.penalty_per_second == 10_000_000
    assert all(m.capacity_qubits == 30 for m in inst.machines)
    assert inst.exec_time("qft", "p2", "m2") == 5000


def test_machine_lookup_follows_replace(reference_instance):
    first, other = reference_instance.machines[:2]
    cut = dataclasses.replace(reference_instance, machines=(first,))
    assert cut.machine(first.provider_id, first.machine_id) == first
    with pytest.raises(KeyError, match="unknown machine"):
        cut.machine(other.provider_id, other.machine_id)


def test_load_minimal_single_triple():
    inst = instance_from_document(minimal_doc())
    assert inst.triples() == [("c1", "p1", "m1")]
    assert inst.wait_sets["c1"] == (1_000_000,)


def test_probability_sum_error():
    doc = minimal_doc()
    doc["circuits"][0]["demand_set"] = [1, 2]
    doc["circuits"][0]["demand_probs"] = [0.4, 0.5]
    with pytest.raises(InstanceError, match="sum"):
        instance_from_document(doc)


# Probabilities over mixed denominators: decimal, dyadic and others.
MIXED = st.builds(
    Fraction,
    st.integers(-3, 10**6),
    st.sampled_from([1, 3, 7, 2**53, 10**6, 10**53, 3 * 2**20, 5**9]),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(head=st.lists(MIXED, max_size=8), miss=st.sampled_from([-1, 0, 1]))
@example(head=[Fraction(1, 3), Fraction(1, 2**53)], miss=-1)
@example(head=[], miss=1)
def test_probability_sum_is_the_fraction_sum(head, miss):
    # The vector sums to exactly 1, then misses it by 2^-53 or not at all.
    probs = [*head, 1 - sum(head, Fraction(0)) + Fraction(miss, 2**53)]
    expected = []
    if any(p < 0 for p in probs):
        expected.append("probabilities must be non-negative")
    if (total := sum(probs, Fraction(0))) != 1:
        expected.append(f"probabilities sum to {total}, not 1")
    problems = outcome_weights(range(len(probs)), (0,), probs)[0]
    assert problems == [("demand_probs", problem) for problem in expected]


def _decimal_text(sign: str, whole: str, fraction: str) -> str:
    return sign + whole + ("." + fraction if fraction else "")


DECIMAL_TEXT = st.builds(
    _decimal_text,
    st.sampled_from(["", "-"]),
    st.sampled_from(["0", "1", "2", "999999999999999999999999", "1000000000000000000000000"]),
    st.text("0123456789", max_size=54),
)
SPECIAL_TEXT = st.sampled_from(
    ["1E-53", "5e-54", "1e-54", "-0", "0.0", "1e24", "1.0000000000000000000000001e24",
     "nan", "inf", "-inf", "1e-999999999"]
)
WRITTEN = st.one_of(
    st.builds(lambda kind, text: kind(text), st.sampled_from([str, Decimal]),
              st.one_of(DECIMAL_TEXT, SPECIAL_TEXT)),
    st.sampled_from([" 1", "1_0", "x", ""]),  # text that Decimal() alone would read
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0, 1, -1, 10**24, 10**24 + 1, -(10**24) - 1, True, False]),
    st.fractions(max_denominator=2**60),
    st.builds(Fraction, st.integers(-3, 10**6), st.sampled_from([1, 3, 2**53, 10**53])),
)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(probs=st.lists(WRITTEN, min_size=1, max_size=4))
@example(probs=["0." + "0" * 52 + "1", "0." + "9" * 53])
@example(probs=["0.1" + "0" * 53])
@example(probs=[Decimal("-0"), 1])
def test_each_value_is_read_as_the_fraction_route_reads_it(probs):
    problems, weights = reference_vector_read(probs)
    n = len(probs)
    # Called on the function, as an API instance is checked.
    found = outcome_weights(range(n), (0,), probs)
    assert found[1:] == (weights, None)
    assert found[0] == [("demand_probs", problem) for problem in problems]
    # Loaded from a document: a value that cannot be read is refused on
    # load; the rest are validate's problems, from weights read once.
    doc = minimal_doc()
    doc["circuits"][0].update(demand_set=list(range(n)), demand_probs=list(probs))
    if weights is None:
        with pytest.raises(InstanceError) as caught:
            instance_from_document(doc, check=False)
        assert str(caught.value) == f"circuits[0].demand_probs: {problems[0]}"
        return
    instance = instance_from_document(doc, check=False)
    assert instance.circuit_weights("c1")[1] == weights
    assert [str(d) for d in validate(instance) if d.severity == "error"] == [
        f"error: circuit c1 demand_probs: {problem}" for problem in problems
    ]


def test_capacity_defaults_to_30():
    doc = minimal_doc()
    del doc["machines"][0]["capacity"]
    inst = instance_from_document(doc)
    assert inst.machines[0].capacity_qubits == 30


def test_missing_rates_error():
    doc = minimal_doc()
    del doc["default_rates"]
    with pytest.raises(InstanceError, match="rates"):
        instance_from_document(doc)


def test_missing_exec_time_error():
    doc = minimal_doc()
    doc["exec_times"] = []
    with pytest.raises(InstanceError, match="execution time"):
        instance_from_document(doc)


def test_rates_record_overrides_default():
    doc = minimal_doc()
    doc["providers"] = ["p1", "p2"]
    doc["machines"].append({"provider": "p2", "machine": "m1", "capacity": 5})
    doc["exec_times"].append(
        {"circuit": "c1", "provider": "p2", "machine": "m1", "seconds": 0.004}
    )
    doc["rates"] = [
        {"circuit": "c1", "provider": "p2", "reserve": 0.5, "utilize": 0.25,
         "on_demand": 1, "penalty": 0}
    ]
    inst = instance_from_document(doc)
    assert inst.rate("c1", "p1").reserve_per_qubit == 1_000_000
    assert inst.rate("c1", "p2").reserve_per_qubit == 500_000


def test_invalid_json_reports_parse_error(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(InstanceError, match="invalid JSON"):
        load_instance(path)


def test_synthetic_exec_times_block():
    doc = minimal_doc()
    doc["circuits"][0]["num_qubits"] = 4
    doc["circuits"][0]["encoded_value"] = 5
    doc["exec_times"] = {"synthetic": {"base": 0.001, "slope": 0.0001}}
    inst = instance_from_document(doc)
    assert inst.exec_time("c1", "p1", "m1") == synth_exec_time(4, 5, 1000, 100)


def test_synthetic_exec_times_needs_metadata():
    doc = minimal_doc()
    doc["exec_times"] = {"synthetic": {"base": 0.001, "slope": 0.0001}}
    with pytest.raises(InstanceError, match="num_qubits"):
        instance_from_document(doc)


# --- validate --------------------------------------------------------------


def test_validate_reference_is_clean(reference_instance):
    assert validate(reference_instance) == []


def test_validate_pricing_warning():
    rates = REF_RATES._replace(utilize_per_qubit=8_000_000)
    diags = validate(make_instance(rates=rates))
    assert [d.severity for d in diags] == ["warning"]
    assert "c1,p1" in diags[0].location


def test_validate_reserve_not_below_on_demand_warns():
    rates = REF_RATES._replace(reserve_per_qubit=7_000_000)
    diags = validate(make_instance(rates=rates))
    assert [d.severity for d in diags] == ["warning"]


def test_validate_negative_capacity_error():
    inst = make_instance(capacity=-1)
    diags = validate(inst)
    assert [d.severity for d in diags] == ["error"]
    assert "capacity" in diags[0].message


def test_validate_empty_sets():
    diags = validate(make_instance(demand=(), wait=()))
    assert [str(d) for d in diags] == [
        "error: circuit c1: empty demand set",
        "error: circuit c1: empty wait set",
    ]


@pytest.mark.parametrize("field", ["demand_sets", "wait_sets", "demand_probs", "wait_probs"])
def test_validate_outcomes_keyed_by_an_unknown_circuit(field):
    inst = make_instance()
    inst = dataclasses.replace(inst, **{field: {**getattr(inst, field), "c9": (1,)}})
    assert [str(d) for d in validate(inst)] == [
        f"error: {field}[c9]: unknown circuit 'c9'"
    ]


def test_validate_missing_exec_time():
    inst = make_instance()
    broken = type(inst.exec_times)({})
    inst = dataclasses.replace(inst, exec_times=broken)
    diags = validate(inst)
    assert any("missing execution time" in d.message for d in diags)


# --- exec-time CSV ---------------------------------------------------------


CSV_HEADER = "circuit_id,provider_id,machine_id,seconds\n"


def csv_doc(tmp_path, text: str) -> dict:
    """The minimal document with its execution times in a CSV file."""
    (tmp_path / "times.csv").write_text(text, encoding="utf-8")
    doc = minimal_doc()
    del doc["exec_times"]
    doc["exec_times_csv"] = "times.csv"
    return doc


def test_load_exec_times_single_row(tmp_path):
    doc = csv_doc(tmp_path, CSV_HEADER + "c1,p1,m1,0.004\n")
    inst = instance_from_document(doc, tmp_path)
    assert inst.exec_times == {("c1", "p1", "m1"): 4000}


def test_load_exec_times_duplicate_triple(tmp_path):
    doc = csv_doc(tmp_path, CSV_HEADER + "c1,p1,m1,0.004\nc1,p1,m1,0.005\n")
    with pytest.raises(InstanceError, match="line 3: duplicate"):
        instance_from_document(doc, tmp_path)


def test_load_exec_times_negative(tmp_path):
    doc = csv_doc(tmp_path, CSV_HEADER + "c1,p1,m1,-0.004\n")
    with pytest.raises(
        InstanceError, match=r"exec_times\[c1,p1,m1\]: negative execution time"
    ):
        instance_from_document(doc, tmp_path)


def test_load_exec_times_malformed_row(tmp_path):
    doc = csv_doc(tmp_path, CSV_HEADER + "c1,p1\n")
    with pytest.raises(InstanceError, match="malformed"):
        instance_from_document(doc, tmp_path)


def test_load_exec_times_empty_is_empty_table(tmp_path):
    doc = csv_doc(tmp_path, CSV_HEADER)
    assert instance_from_document(doc, tmp_path, check=False).exec_times == {}


@pytest.mark.parametrize("row", [CSV_HEADER, ""], ids=["row", "header"])
def test_a_csv_field_over_the_reader_limit_is_an_instance_error(row, tmp_path):
    doc = csv_doc(tmp_path, row + "c1,p1,m1," + "9" * 200_000 + "\n")
    with pytest.raises(InstanceError, match=r"^field larger than field limit \(131072\)$"):
        instance_from_document(doc, tmp_path)



def test_a_reservations_field_over_the_reader_limit_is_an_instance_error(tmp_path):
    path = tmp_path / "vector.csv"
    header = "circuit_id,provider_id,machine_id,reserved\n"
    path.write_text(header + "c1,p1,m1," + "9" * 200_000 + "\n", encoding="utf-8")
    with pytest.raises(InstanceError, match=r"^field larger than field limit \(131072\)$"):
        load_reservations(path)


def test_load_exec_times_bad_header(tmp_path):
    doc = csv_doc(tmp_path, "a,b,c,d\n")
    with pytest.raises(InstanceError, match="header"):
        instance_from_document(doc, tmp_path)


def test_load_exec_times_ignores_a_space_after_each_comma(tmp_path):
    plain = csv_doc(tmp_path, CSV_HEADER + "c1,p1,m1,0.004\n")
    expected = instance_from_document(plain, tmp_path).exec_times
    spaced = csv_doc(
        tmp_path, "circuit_id, provider_id, machine_id, seconds\nc1, p1, m1, 0.004\n"
    )
    assert instance_from_document(spaced, tmp_path).exec_times == expected


@pytest.mark.parametrize(
    "header",
    [
        "circuit_id ,provider_id,machine_id,seconds",
        "circuit_id,provider_id,machine_id,seconds ",
    ],
)
def test_load_exec_times_other_stray_space_is_a_header_error(header, tmp_path):
    doc = csv_doc(tmp_path, header + "\nc1,p1,m1,0.004\n")
    with pytest.raises(InstanceError, match="header must be"):
        instance_from_document(doc, tmp_path)


# --- range guard -------------------------------------------------------------


@pytest.mark.parametrize(
    "field, spec, size",
    [
        ("demand_set", {"lo": 0, "hi": 10**6}, 10**6 + 1),
        ("demand_set", {"lo": 0, "hi": 10**9}, 10**9 + 1),
        ("wait_set", {"lo": 0, "hi": 1000, "step": 0.000001}, 10**9 + 1),
    ],
    ids=["just-above-the-guard", "a-billion-qubits", "microsecond-wait-step"],
)
def test_oversized_range_is_refused_naming_its_size(field, spec, size):
    doc = minimal_doc()
    doc["circuits"][0][field] = spec
    with pytest.raises(InstanceError, match=f"range has {size} values"):
        instance_from_document(doc)


def test_range_of_exactly_the_guard_loads():
    doc = minimal_doc()
    doc["circuits"][0]["demand_set"] = {"lo": 0, "hi": 10**6 - 1}
    inst = instance_from_document(doc)
    assert inst.demand_sets["c1"] == tuple(range(10**6))


# --- total-size guard --------------------------------------------------------


def two_range_doc(second_hi: int) -> dict:
    """Two circuits of one wait each: 10^6 demands, and second_hi + 1 more."""
    doc = minimal_doc()
    doc["circuits"] = [
        {"id": "c1", "demand_set": {"lo": 0, "hi": 10**6 - 1}, "wait_set": [1.0]},
        {"id": "c2", "demand_set": {"lo": 0, "hi": second_hi}, "wait_set": [1.0]},
    ]
    doc["exec_times"].append(
        {"circuit": "c2", "provider": "p1", "machine": "m1", "seconds": 0.004}
    )
    return doc


def test_outcomes_of_exactly_the_total_guard_load():
    assert OUTCOME_GUARD == 2 * 10**6
    inst = instance_from_document(two_range_doc(10**6 - 3))
    total = sum(len(inst.demand_sets[c]) + len(inst.wait_sets[c]) for c in ("c1", "c2"))
    assert total == OUTCOME_GUARD
    assert inst.demand_sets["c2"] == tuple(range(10**6 - 2))


def test_one_outcome_over_the_total_guard_is_refused_before_any_range_is_built():
    doc = two_range_doc(10**6 - 2)
    tracemalloc.start()
    try:
        with pytest.raises(InstanceError) as caught:
            instance_from_document(doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(caught.value) == (
        "circuits: 2000001 demand and wait outcomes in all, more than 2000000"
    )
    # Spelling out either range would take 8 MB for its tuple alone.
    assert peak < 2**20


def test_validate_counts_the_outcomes_of_circuits_that_have_a_triple(monkeypatch):
    monkeypatch.setattr(instance_module, "OUTCOME_GUARD", 3)
    inst = make_instance(demand=(1, 2), wait=(1000, 2000))
    assert [str(d) for d in validate(inst)] == [
        "error: circuits: 4 demand and wait outcomes in all, more than 3"
    ]
    monkeypatch.setattr(instance_module, "OUTCOME_GUARD", 4)
    assert validate(inst) == []
    monkeypatch.setattr(instance_module, "OUTCOME_GUARD", 3)
    # Without a machine no circuit has a triple, and nothing is counted.
    no_triple = dataclasses.replace(inst, machines=(), exec_times={})
    assert "circuits" not in [d.location for d in validate(no_triple)]


# --- magnitude limit ---------------------------------------------------------


def test_integers_at_the_magnitude_limit_load():
    doc = minimal_doc()
    doc["circuits"][0]["demand_set"] = [10**24]
    doc["machines"][0]["capacity"] = 10**24
    inst = instance_from_document(doc)
    assert inst.demand_sets["c1"] == (10**24,)


def test_synthetic_time_above_the_magnitude_limit_is_refused():
    doc = minimal_doc()
    doc["circuits"][0]["num_qubits"] = 10**24
    doc["circuits"][0]["encoded_value"] = 2**70 - 1
    doc["exec_times"] = {"synthetic": {"base": 1, "slope": 1}}
    with pytest.raises(InstanceError, match="runs longer than 1e\\+24 seconds"):
        instance_from_document(doc)


# --- synthetic timing ------------------------------------------------------


def test_synth_zero_popcount_gives_base():
    assert synth_exec_time(10, 0, 1000, 7) == 1000


def test_synth_all_ones_is_maximum():
    times = [synth_exec_time(10, v, 1000, 7) for v in range(1024)]
    assert times[1023] == max(times)


def test_synth_popcount_ordering():
    assert synth_exec_time(10, 512, 1000, 7) < synth_exec_time(10, 768, 1000, 7)


def test_synth_out_of_range():
    with pytest.raises(InstanceError, match="out of range"):
        synth_exec_time(4, 16, 1000, 7)


def test_synth_wide_register_is_cheap():
    # The range check must not build 2**num_qubits.
    assert synth_exec_time(10**12, 5, 1000, 7) == 1000 + 7 * 10**12 * 2
    doc = minimal_doc()
    doc["circuits"][0]["num_qubits"] = 10**12
    doc["circuits"][0]["encoded_value"] = 2**70 - 1
    doc["exec_times"] = {"synthetic": {"base": 0.001, "slope": 0.0001}}
    inst = instance_from_document(doc)
    assert inst.exec_time("c1", "p1", "m1") == 1000 + 100 * 10**12 * 70


def test_synth_monotone_everywhere():
    # For every width up to 16: time depends only on the ones count and
    # strictly increases with it; widening never shortens a circuit.
    base, slope = 100, 3
    for n in range(1, 17):
        by_popcount: dict[int, set[int]] = {}
        for v in range(2**n):
            by_popcount.setdefault(popcount(v), set()).add(
                synth_exec_time(n, v, base, slope)
            )
        classes = [by_popcount[pc] for pc in sorted(by_popcount)]
        assert all(len(c) == 1 for c in classes)
        values = [next(iter(c)) for c in classes]
        assert values == sorted(set(values))
        if n < 16:
            for v in (0, 1, 2**n - 1):
                assert synth_exec_time(n, v, base, slope) <= synth_exec_time(
                    n + 1, v, base, slope
                )


def test_load_instance_from_path(data_dir):
    inst = load_instance(data_dir / "reference.json")
    assert len(inst.triples()) == 6


def test_triples_are_named_keys_in_sorted_order(reference_instance):
    triples = reference_instance.triples()
    assert all(type(key) is TripleKey for key in triples)
    assert triples == sorted(triples)
    assert triples[1] == TripleKey("qft", "p1", "m2")
    assert triples[1].machine_id == "m2"
