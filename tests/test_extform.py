from __future__ import annotations

import collections
import dataclasses
import functools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    REF_RATES,
    WIDE_PEAK_LIMIT,
    audit_shaped_doc,
    certified_optimum,
    documents_at_the_limits,
    exact_probabilities,
    lp_form,
    make_instance,
    make_rates,
    random_instance,
    traced_peak,
    wide_single_triple,
)
from qres.extform import (
    SENSE_GE,
    SENSE_LE,
    ExtensiveForm,
    LpParseError,
    Row,
    Variable,
    build_extensive_form,
    check_certificate,
    optimality_certificate,
    parse_lp,
    render_lp,
)
from qres import extform, lpplan
from qres.scenarios import ScenarioError, space_for_circuit
from qres.solver import CapacityError, ModelError, expected_cost, solve_instance
from qres.instance import GuardError, instance_from_document, validate
from qres.units import MICRO, exact_decimal


def single_triple_instance():
    return make_instance(demand=(5,), wait=(3000,), exec_time=5000)


# --- structure ---------------------------------------------------------------


def test_counts_single_scenario():
    form = build_extensive_form(single_triple_instance())
    assert len(form.variables) == 4
    assert len(form.constraints) == 3
    names = [v.name for v in form.variables]
    assert names == ["xr_c0_p0_m0", "xu_c0_p0_m0_s0", "xo_c0_p0_m0_s0", "y_c0_p0_m0_s0"]


def test_counts_reference(reference_instance):
    form = build_extensive_form(reference_instance)
    assert len(form.variables) == 6 * (1 + 3 * 117)  # 2112
    assert len(form.constraints) == 6 * 3 * 117


def test_counts_random_instances():
    rng = random.Random(3100)
    for _ in range(10):
        inst = random_instance(rng)
        form = build_extensive_form(inst)
        triples = len(inst.triples())
        scenarios = len(inst.demand_sets["c1"]) * len(inst.wait_sets["c1"])
        assert len(form.variables) == triples * (1 + 3 * scenarios)
        assert len(form.constraints) == triples * 3 * scenarios


def test_objective_coefficients(reference_instance):
    form = build_extensive_form(reference_instance)
    by_name = {form.variables[i].name: coef for i, coef in form.objective}
    assert by_name["xr_c0_p0_m0"] == Fraction(168, 100)
    assert float(by_name["xo_c0_p0_m0_s0"]) == pytest.approx(7 / 117, rel=1e-12)
    assert float(by_name["y_c0_p0_m0_s0"]) == pytest.approx(10 / 117, rel=1e-12)


RATE_OF_KIND = {
    "xu": "utilize_per_qubit",
    "xo": "on_demand_per_qubit",
    "y": "penalty_per_second",
}


@pytest.mark.parametrize(
    "demand_probs, wait_probs",
    [
        (None, None),  # dyadic uniform on both sides
        (("0.1", "0.2", "0.7"), ("0.25", "0.75")),  # explicit decimals
        (("0.125", "0.375", "0.5"), None),  # decimal demand, dyadic wait
        (None, ("0.3", "0.7")),  # dyadic demand, decimal wait
    ],
    ids=["uniform", "explicit", "mixed-demand", "mixed-wait"],
)
@pytest.mark.parametrize(
    "rates", [REF_RATES, make_rates(3, 7, 11, 13)], ids=["reference", "odd-micro"]
)
def test_objective_coefficients_are_probability_times_rate(demand_probs, wait_probs, rates):
    inst = make_instance(
        demand=(1, 4, 9),
        wait=(1000, 8000),
        rates=rates,
        providers=2,
        demand_probs=demand_probs,
        wait_probs=wait_probs,
    )
    space = space_for_circuit(inst, "c1")
    form = build_extensive_form(inst)
    checked = 0
    for index, coef in form.objective:
        kind, _, rest = form.variables[index].name.partition("_")
        if kind == "xr":
            assert coef == Fraction(rates.reserve_per_qubit, MICRO)
            continue
        si = int(rest.rpartition("_s")[2])
        rate = getattr(rates, RATE_OF_KIND[kind])
        assert coef == exact_probabilities(space)[si] * Fraction(rate, MICRO)
        checked += 1
    assert checked == 2 * 3 * len(space)


def test_bounds_and_kinds():
    form = build_extensive_form(single_triple_instance())
    xr, xu, xo, y = form.variables
    assert (xr.kind, xr.lower, xr.upper) == ("integer", 0, Fraction(30))
    assert (xu.kind, xu.upper) == ("integer", None)
    assert (xo.kind, xo.upper) == ("integer", None)
    assert (y.kind, y.upper) == ("continuous", None)


def test_no_dangling_references(reference_instance):
    form = build_extensive_form(reference_instance)
    n = len(form.variables)
    assert all(0 <= i < n for row in form.constraints for i, _ in row.terms)
    assert all(0 <= i < n for i, _ in form.objective)
    assert len({v.name for v in form.variables}) == n


def test_build_is_deterministic(reference_instance):
    assert build_extensive_form(reference_instance) == build_extensive_form(
        reference_instance
    )


@pytest.mark.parametrize("shape", ["reference", "audit-shaped"])
def test_records_are_exactly_variables_and_rows(shape, reference_instance):
    if shape == "reference":
        instance = reference_instance
    else:
        instance = instance_from_document(audit_shaped_doc())
    form = build_extensive_form(instance)
    assert all(
        type(v) is Variable and len(v) == len(Variable._fields) for v in form.variables
    )
    assert all(type(r) is Row and len(r) == len(Row._fields) for r in form.constraints)
    assert parse_lp(render_lp(form)) == form


def test_oversized_form_is_refused_naming_its_size():
    # Each circuit space (600 x 1,000) is within the guard; the two
    # triples together are not.
    inst = make_instance(demand=range(600), wait=range(1000), providers=2)
    with pytest.raises(GuardError, match="1200000 scenarios"):
        build_extensive_form(inst)


def test_negative_capacity_is_refused_before_any_space(monkeypatch):
    monkeypatch.setattr(lpplan, "product_space", None)  # never reached
    with pytest.raises(CapacityError) as caught:
        build_extensive_form(make_instance(capacity=-1))
    assert str(caught.value) == "capacity must be non-negative, got -1"


def test_unknown_circuit_is_refused_like_solve_instance(monkeypatch):
    inst = dataclasses.replace(make_instance(), demand_sets={})
    assert [str(d) for d in validate(inst)] == ["error: circuit c1: empty demand set"]
    with pytest.raises(ScenarioError) as solved:
        solve_instance(inst)
    monkeypatch.setattr(lpplan, "product_space", None)  # never reached
    with pytest.raises(ScenarioError) as built:
        build_extensive_form(inst)
    assert str(built.value) == str(solved.value) == "unknown circuit 'c1'"


def test_missing_wait_set_is_refused_like_validate(monkeypatch):
    inst = dataclasses.replace(make_instance(), wait_sets={})
    assert [str(d) for d in validate(inst)] == ["error: circuit c1: empty wait set"]
    with pytest.raises(ScenarioError) as solved:
        solve_instance(inst)
    monkeypatch.setattr(lpplan, "product_space", None)  # never reached
    with pytest.raises(ScenarioError) as built:
        build_extensive_form(inst)
    assert str(built.value) == str(solved.value) == "c1: empty wait set"


# --- LP text -----------------------------------------------------------------


def test_golden_lp_file(data_dir):
    form = build_extensive_form(single_triple_instance())
    golden = (data_dir / "golden_single.lp").read_bytes()
    assert render_lp(form).encode("utf-8") == golden


def _reference_term(coef, name, first, decimal):
    mag = decimal(abs(coef))
    if first:
        return f"-{mag} {name}" if coef < 0 else f"{mag} {name}"
    return f"- {mag} {name}" if coef < 0 else f"+ {mag} {name}"


def reference_render_lp(form: ExtensiveForm) -> str:
    """The LP writer as it was before its format cache was keyed by integers."""
    decimal = functools.cache(exact_decimal)
    lines = ["Minimize"]
    for i, (index, coef) in enumerate(form.objective):
        term = _reference_term(coef, form.variables[index].name, i == 0, decimal)
        lines.append(f" obj: {term}" if i == 0 else f" {term}")
    lines.append("Subject To")
    for row in form.constraints:
        parts = [
            _reference_term(coef, form.variables[index].name, i == 0, decimal)
            for i, (index, coef) in enumerate(row.terms)
        ]
        lines.append(f" {row.name}: {' '.join(parts)} {row.sense} {decimal(row.rhs)}")
    lines.append("Bounds")
    for var in form.variables:
        if var.upper is not None:
            lines.append(f" {decimal(var.lower)} <= {var.name} <= {decimal(var.upper)}")
    lines.append("Generals")
    for var in form.variables:
        if var.kind == "integer":
            lines.append(f" {var.name}")
    lines.append("End")
    return "\n".join(lines) + "\n"


# Finite decimals: zero, integers, short decimals and values with the
# 112 fraction digits an LP number may have, of either sign.
LP_VALUES = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
    st.integers(-(10**24), 10**24).map(Fraction),
    st.builds(
        lambda n, twos, fives: Fraction(n, 2**twos * 5**fives),
        st.integers(-(10**9), 10**9),
        st.integers(0, 20),
        st.integers(0, 20),
    ),
    st.integers(-(10**40), 10**40).map(lambda n: Fraction(2 * n + 1, 2**112)),
    st.integers(-(10**40), 10**40).map(lambda n: Fraction(10 * n + 3, 10**112)),
)


# The ways to break a form so that parse_lp could not read its text back.
BREAKS = ("unbounded-lower", "omit", "twice", "swap")
# Names that parse_lp reads as a section keyword on a line of their own.
# A continuous variable or a row may still take one.
KEYWORD_NAMES = ("Minimize", "Bounds", "Generals", "End")


@st.composite
def hand_built_forms(draw) -> ExtensiveForm:
    """Forms of 1-5 variables; about one in three is broken by one of BREAKS.

    Some names are section keywords and some rows have no terms, so some
    forms that no break touched cannot be read back either.
    """
    n = draw(st.integers(1, 5))
    variables = []
    for i in range(n):
        upper = draw(st.none() | LP_VALUES)
        lower = Fraction(0) if upper is None else draw(LP_VALUES)
        kind = draw(st.sampled_from(["integer", "continuous"]))
        name = draw(st.sampled_from([f"v{i}"] * 6 + [*KEYWORD_NAMES]))
        variables.append(Variable(name, kind, lower, upper))
    objective = [(i, draw(LP_VALUES)) for i in range(n)]
    terms = st.lists(st.tuples(st.integers(0, n - 1), LP_VALUES), max_size=4)
    rows = tuple(
        Row(draw(st.sampled_from([f"r{i}"] * 6 + [*KEYWORD_NAMES])), tuple(draw(terms)),
            draw(st.sampled_from([SENSE_LE, SENSE_GE])), draw(LP_VALUES))
        for i in range(draw(st.integers(0, 4)))
    )
    broken = draw(st.sampled_from([None] * 8 + [*BREAKS]))
    i = draw(st.integers(0, n - 1))
    if broken == "unbounded-lower":
        lower = draw(LP_VALUES.filter(bool))
        variables[i] = variables[i]._replace(lower=lower, upper=None)
    elif broken == "omit":
        del objective[i]
    elif broken == "twice":
        objective.insert(draw(st.integers(0, n)), objective[i])
    elif broken == "swap" and i + 1 < n:
        objective[i], objective[i + 1] = objective[i + 1], objective[i]
    return ExtensiveForm(tuple(variables), tuple(objective), rows)


EVERY_KIND_OF_VALUE = ExtensiveForm(
    variables=(
        Variable("a", "integer", Fraction(-3), Fraction(7)),
        Variable("b", "continuous", Fraction(0), None),
        Variable("c", "integer", Fraction(1, 2**112), Fraction(10**24)),
    ),
    objective=((0, Fraction(-1, 2**112)), (1, Fraction(0)), (2, Fraction(-5))),
    constraints=(
        Row("r0", ((1, Fraction(0)), (0, Fraction(-1, 2**112)), (2, Fraction(3, 10**112))),
            SENSE_LE, Fraction(-9, 8)),
        Row("r1", ((2, Fraction(-12)), (1, Fraction(12)), (0, Fraction(-7, 4))),
            SENSE_GE, Fraction(0)),
    ),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(hand_built_forms())
@example(EVERY_KIND_OF_VALUE)
def test_render_lp_matches_the_reference_writer(form):
    # render_lp writes what the reference writes when parse_lp reads that
    # text back to the form, and refuses every other form.
    text = reference_render_lp(form)
    try:
        readable = parse_lp(text) == form
    except LpParseError:
        readable = False
    if readable:
        assert render_lp(form) == text
    else:
        with pytest.raises(ValueError, match="not exportable"):
            render_lp(form)


OBJECTIVE = "objective not exportable: not each variable once, in order"

# Two variables and a row that reads both, as render_lp accepts them.
TWO_VARIABLES = ExtensiveForm(
    variables=(
        Variable("a", "integer", Fraction(0), Fraction(4)),
        Variable("b", "continuous", Fraction(0), None),
    ),
    objective=((0, Fraction(1)), (1, Fraction(2))),
    constraints=(Row("r", ((0, Fraction(1)), (1, Fraction(1))), SENSE_GE, Fraction(1)),),
)


@pytest.mark.parametrize(
    "change, match",
    [
        pytest.param(
            {"variables": (TWO_VARIABLES.variables[0],
                           Variable("b", "continuous", Fraction(-3), None))},
            "variable bound not exportable: 'b' has lower -3, no upper",
            id="lower-bound-without-upper",
        ),
        pytest.param({"objective": ((0, Fraction(1)),)}, OBJECTIVE, id="omits-b"),
        pytest.param(
            {"objective": ((0, Fraction(1)), (1, Fraction(2)), (0, Fraction(3)))},
            OBJECTIVE,
            id="lists-a-twice",
        ),
        pytest.param(
            {"objective": ((1, Fraction(2)), (0, Fraction(1)))}, OBJECTIVE, id="b-first"
        ),
        pytest.param(
            {"variables": (TWO_VARIABLES.variables[0]._replace(name="End"),
                           TWO_VARIABLES.variables[1])},
            "variable name not exportable: 'End' is a keyword",
            id="integer-named-End",
        ),
        pytest.param(
            {"constraints": (Row("r", (), SENSE_GE, Fraction(1)),)},
            "constraint not exportable: 'r' has no terms",
            id="row-without-terms",
        ),
    ],
)
def test_render_lp_refuses_a_form_parse_lp_cannot_read_back(change, match):
    assert parse_lp(render_lp(TWO_VARIABLES)) == TWO_VARIABLES
    form = TWO_VARIABLES._replace(**change)
    with pytest.raises(ValueError, match=match):
        render_lp(form)


def _printed_values(form: ExtensiveForm) -> list[Fraction]:
    """Every value the LP text of a form prints, once per time it is printed."""
    values = [coef for _, coef in form.objective]
    values += [coef for row in form.constraints for _, coef in row.terms]
    values += [row.rhs for row in form.constraints]
    values += [b for v in form.variables if v.upper is not None for b in (v.lower, v.upper)]
    return values


def _count_formatting(monkeypatch) -> collections.Counter:
    """The values the LP writers format from now on, with their call counts."""
    calls = collections.Counter()

    def counted(value):
        calls[value] += 1
        return exact_decimal(value)

    monkeypatch.setattr(lpplan, "exact_decimal", counted)
    return calls


def test_render_lp_formats_each_distinct_value_once(reference_instance, monkeypatch):
    form = build_extensive_form(reference_instance)
    values = _printed_values(form)
    calls = _count_formatting(monkeypatch)
    text = render_lp(form)
    assert calls == collections.Counter(set(values))
    # The form repeats its values, so a per-term count would show.
    assert len(calls) < len(values) // 100
    monkeypatch.undo()
    assert text == reference_render_lp(form)


def test_plan_lp_chunks_formats_each_distinct_value_once(monkeypatch):
    instance = instance_from_document(audit_shaped_doc())
    form = build_extensive_form(instance)
    values = _printed_values(form)
    plans = lpplan.plan_form(instance)
    calls = _count_formatting(monkeypatch)
    text = "".join(lpplan.plan_lp_chunks(plans))
    assert calls == collections.Counter(set(values))
    assert len(calls) < len(values) // 100
    monkeypatch.undo()
    assert text == render_lp(form)


@pytest.mark.parametrize(
    "where, name",
    [
        pytest.param("variable", "x r", id="variable"),
        pytest.param("constraint", "1row", id="constraint"),
        # A regex "$" also matches before a final newline.
        pytest.param("variable", "x\n", id="variable-trailing-newline"),
        pytest.param("constraint", "r\n", id="constraint-trailing-newline"),
        # parse_lp could not read a name given twice back.
        pytest.param("variable", "xu_c0_p0_m0_s0", id="variable-repeated"),
        pytest.param("constraint", "dem_c0_p0_m0_s0", id="constraint-repeated"),
    ],
)
def test_render_lp_refuses_a_name_it_cannot_write(where, name):
    form = build_extensive_form(single_triple_instance())
    if where == "variable":
        bad = form.variables[0]._replace(name=name)
        form = form._replace(variables=(bad, *form.variables[1:]))
    else:
        bad = form.constraints[0]._replace(name=name)
        form = form._replace(constraints=(bad, *form.constraints[1:]))
    with pytest.raises(ValueError, match=f"{where} name not exportable"):
        render_lp(form)


def test_render_lp_checks_every_name_before_any_line(reference_instance, monkeypatch):
    form = build_extensive_form(reference_instance)
    bad = form.constraints[-1]._replace(name="1row")
    form = form._replace(constraints=(*form.constraints[:-1], bad))
    writes = []
    monkeypatch.setattr(extform, "_lp_lines", lambda *args: writes.append(args))
    with pytest.raises(ValueError, match="constraint name not exportable: '1row'"):
        render_lp(form)
    assert writes == []


@pytest.mark.parametrize(
    "bad_tag, what",
    [
        pytest.param(lambda n: "c0-p0", "variable", id="bad-character"),
        pytest.param(
            lambda n: "t" * (256 - len(f"xu__s{n - 1}")), "variable", id="long-variable"
        ),
        pytest.param(
            lambda n: "t" * (256 - len(f"wait__s{n - 1}")), "constraint", id="long-row"
        ),
    ],
)
def test_plan_lp_chunks_checks_every_name_as_lp_chunks_does(
    bad_tag, what, reference_instance, monkeypatch
):
    plan_form = lpplan.plan_form

    def altered(instance):
        *rest, last = plan_form(instance)
        return [*rest, last._replace(tag=bad_tag(len(last.space)))]

    monkeypatch.setattr(extform, "plan_form", altered)
    chunks = lpplan.plan_lp_chunks(altered(reference_instance))
    with pytest.raises(ValueError, match=f"{what} name not exportable") as streamed:
        next(chunks)
    with pytest.raises(ValueError) as rendered:
        render_lp(build_extensive_form(reference_instance))
    assert str(streamed.value) == str(rendered.value)


def test_plans_of_no_triple_write_the_empty_form():
    empty = ExtensiveForm(variables=(), objective=(), constraints=())
    assert "".join(lpplan.plan_lp_chunks([])) == render_lp(empty)
    assert lpplan.plan_size([]) == (0, 0)


def test_a_plan_holds_its_space_as_two_columns():
    inst = wide_single_triple()
    assert traced_peak(lambda: lpplan.plan_form(inst)) < WIDE_PEAK_LIMIT


def test_round_trip_identity(reference_instance):
    form = build_extensive_form(reference_instance)
    assert parse_lp(render_lp(form)) == form


def test_round_trip_random_forms():
    rng = random.Random(3101)
    for _ in range(10):
        form = build_extensive_form(random_instance(rng))
        assert parse_lp(render_lp(form)) == form


@settings(derandomize=True, max_examples=100, deadline=None)
@given(documents_at_the_limits())
def test_every_exported_lp_of_a_loadable_instance_parses_back(doc):
    form = build_extensive_form(instance_from_document(doc))
    assert parse_lp(render_lp(form)) == form


@pytest.mark.parametrize(
    "text, match",
    [
        ("Minimize\n obj: 1 x\nSubject To\n", "missing End"),
        ("junk\n", "before Minimize"),
        ("Minimize\n obj: 1\nEnd\n", "truncated term"),
        (
            "Minimize\n obj: 1 x\nSubject To\n r1: 1 z <= 0\nEnd\n",
            "unknown z",
        ),
        ("Minimize\n obj: 1 x\nBounds\n 0 <= w <= 1\nEnd\n", "unknown"),
        ("Minimize\n obj: inf x\nEnd\n", "bad coefficient"),
        ("Minimize\n obj: 1e999999999 x\nEnd\n", "bad coefficient"),
        ("Minimize\n obj: 1e-999999999 x\nEnd\n", "bad coefficient"),
        ("Minimize\n obj: 1 x\nSubject To\n r: 1 x <= -Infinity\nEnd\n", "bad rhs"),
        ("Minimize\n obj: 1 x\nSubject To\n r: 1 x >= nan\nEnd\n", "bad rhs"),
        ("Minimize\n obj: 1 x\nBounds\n 0 <= x <= Infinity\nEnd\n", "bad bound"),
        ("Minimize\n obj: 1 x\nBounds\n -1e999999999 <= x <= 1\nEnd\n", "bad bound"),
        ("Minimize\n obj: 1_0 x\nEnd\n", "bad coefficient"),
        ("Minimize\n obj: 1 x\nSubject To\n r: 1 x <= 1_0\nEnd\n", "bad rhs"),
        ("Minimize\n obj: 1 x\nBounds\n 0 <= x <= 1_0\nEnd\n", "bad bound"),
        (
            "Minimize\n obj: 1 x\nBounds\n 0 <= x <= 5\n 0 <= x <= 7\nEnd\n",
            "line 5: variable x bounded twice",
        ),
        (
            "Minimize\n obj: 1 x\nSubject To\n r: 1 x <= 0\n r: 1 x >= 0\nEnd\n",
            "line 5: constraint r named twice",
        ),
    ],
)
def test_parse_errors(text, match):
    with pytest.raises(LpParseError, match=match):
        parse_lp(text)


NASTY_NUMBERS = ("inf", "nan", "1e999999999", "-")
_NUMBER = re.compile(r"-?[0-9]")


@st.composite
def mutated_lp_text(draw) -> str:
    """render_lp output of a small instance with one line or token changed."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    inst = random_instance(
        rng, max_capacity=4, max_demand=4, max_outcomes=2, max_waits=2
    )
    lines = render_lp(build_extensive_form(inst)).splitlines()
    pick = st.integers(0, len(lines) - 1)
    i, j = draw(pick), draw(pick)
    kind = draw(st.sampled_from(["line", "token", "number"]))
    change = draw(st.sampled_from(["delete", "duplicate", "swap"]))
    if kind == "line":
        tokens = lines
    elif kind == "token":
        tokens = lines[i].split()
        j = draw(st.integers(0, len(tokens) - 1))
    else:
        numbers = [
            (li, ti)
            for li, line in enumerate(lines)
            for ti, token in enumerate(line.split())
            if _NUMBER.match(token)
        ]
        i, j = draw(st.sampled_from(numbers))
        tokens = lines[i].split()
        tokens[j] = draw(st.sampled_from(NASTY_NUMBERS))
        change = None
    if change == "delete":
        del tokens[j]
    elif change == "duplicate":
        tokens.insert(j, tokens[j])
    elif change == "swap":
        k = draw(st.integers(0, len(tokens) - 1))
        tokens[j], tokens[k] = tokens[k], tokens[j]
    if kind != "line":
        lines[i] = " " + " ".join(tokens)
    return "\n".join(lines) + "\n"


@settings(derandomize=True, max_examples=200, deadline=None)
@given(mutated_lp_text())
def test_mutated_lp_text_parses_or_raises_lp_parse_error(text):
    try:
        form = parse_lp(text)
    except LpParseError:
        return
    assert isinstance(form, ExtensiveForm)


def test_parse_reports_line_numbers():
    with pytest.raises(LpParseError, match="line 4"):
        parse_lp("Minimize\n obj: 1 x\nSubject To\n broken line here\nEnd\n")


# --- optimality certificate ---------------------------------------------------


def test_enumeration_matches_solver_cross_module():
    inst = make_instance(demand=(1, 2, 3, 4), wait=(3000, 6000), capacity=5)
    sol = solve_instance(inst)
    form = lp_form(inst)
    (key,) = inst.triples()
    assert certified_optimum(inst, sol.reservations, form) == sol.expected_total / MICRO
    for x in set(range(6)) - {sol.reservations[key]}:  # each costs strictly more
        with pytest.raises(ModelError, match="certificate objective"):
            certified_optimum(inst, {key: x}, form)


def test_enumeration_singleton_capacity_zero():
    inst = make_instance(demand=(5,), wait=(3000,), capacity=0, exec_time=5000)
    levels = solve_instance(inst).reservations
    # all on demand plus the unavoidable 2 ms over-wait at 10 $/s
    assert certified_optimum(inst, levels) == Fraction(5 * 7) + Fraction(10 * 2, 1000)
    values, _, _ = optimality_certificate(inst, levels)
    point = {var.name: value for var, value in zip(lp_form(inst).variables, values)}
    assert point["xr_c0_p0_m0"] == 0
    assert point["xo_c0_p0_m0_s0"] == 5
    assert point["y_c0_p0_m0_s0"] == Fraction(2, 1000)


def test_enumeration_zero_rates():
    inst = make_instance(rates=make_rates(), demand=(3,), wait=(1000,), capacity=2)
    (key,) = inst.triples()
    for x in range(3):
        assert certified_optimum(inst, {key: x}) == 0


def test_enumeration_random_instances_match_solver():
    rng = random.Random(3102)
    for _ in range(5):
        inst = random_instance(rng, max_capacity=4, max_demand=4)
        sol = solve_instance(inst)
        assert certified_optimum(inst, sol.reservations) == sol.expected_total / MICRO


@settings(derandomize=True, max_examples=100, deadline=None)
@given(documents_at_the_limits())
def test_kernel_levels_are_certified_on_every_exported_lp(doc):
    inst = instance_from_document(doc)
    sol = solve_instance(inst)
    assert certified_optimum(inst, sol.reservations) == sol.expected_total / MICRO


@pytest.mark.parametrize("shape", ["reference", "golden", "audit-shaped"])
def test_kernel_levels_are_certified_at_full_size(shape, reference_instance, data_dir):
    if shape == "reference":
        inst, form = reference_instance, None
    elif shape == "golden":
        inst = single_triple_instance()
        form = parse_lp((data_dir / "golden_single.lp").read_text(encoding="utf-8"))
    else:
        inst, form = instance_from_document(audit_shaped_doc()), None
    sol = solve_instance(inst)
    assert certified_optimum(inst, sol.reservations, form) == sol.expected_total / MICRO


def _tied_instances():
    # margin 2 against a reserve of 1: the unit that half the mass needs
    # exactly pays for itself, at a demand level (1, 2) and between two (0, 3).
    rates = make_rates(reserve=1, on_demand=2)
    yield make_instance(rates=rates, demand=(1, 2), wait=(1000,), capacity=3)
    yield make_instance(rates=rates, demand=(0, 3), wait=(1000,), capacity=4)


def test_certificate_refuses_every_costlier_level_and_certifies_every_tie():
    rng = random.Random(1776)
    instances = [random_instance(rng) for _ in range(100)] + list(_tied_instances())
    refused = ties = 0
    for inst in instances:
        sol = solve_instance(inst)
        form = lp_form(inst)
        for key in inst.triples():
            capacity = inst.machine(key.provider_id, key.machine_id).capacity_qubits
            for x in range(capacity + 1):
                levels = {**sol.reservations, key: x}
                cost = expected_cost(inst, levels).expected_total
                if cost > sol.expected_total:
                    with pytest.raises(ModelError, match="certificate objective"):
                        certified_optimum(inst, levels, form)
                    refused += 1
                else:
                    assert certified_optimum(inst, levels, form) == cost / MICRO
                    ties += x != sol.reservations[key]
    assert refused > 600 and ties >= 4


# Indices into the certificate of _MUTATED: variable 0 is the reservation
# (level 4 of capacity 5); scenario 0 (demand 1, wait 3 ms < 5 ms) owns
# variables 1-3 (xu, xo, y) and rows 0-2 (use, dem, wait).
_MUTATED = make_instance(demand=(1, 2, 3, 4), wait=(3000, 6000), capacity=5)


@pytest.mark.parametrize(
    "part, index, change, match",
    [
        ("values", None, None, "certificate sizes"),
        ("values", 0, lambda v: v + 2, "certificate bounds: xr_c0_p0_m0 = 6"),
        ("values", 1, lambda v: v + Fraction(1, 2), "certificate integrality: xu_"),
        ("values", 3, lambda v: 0, "certificate row: wait_c0_p0_m0_s0"),
        ("rows", 1, lambda pi: -pi, "certificate dual sign: dem_c0_p0_m0_s0"),
        ("bounds", 0, lambda s: s - 1, "certificate bound dual: xr_c0_p0_m0 has -1 < 0"),
        ("bounds", 1, lambda s: s + 1, "xu_c0_p0_m0_s0 has no upper bound"),
        ("rows", 1, lambda pi: pi + 100, "certificate reduced cost: xu_c0_p0_m0_s0"),
        ("values", 0, lambda v: v + 1, "certificate objective"),
    ],
    ids=[
        "sizes", "bound", "integrality", "row", "dual-sign", "negative-sigma",
        "sigma-unbounded", "reduced-cost", "objective-gap",
    ],
)
def test_each_checker_rule_refuses_its_mutation(part, index, change, match):
    form = lp_form(_MUTATED)
    certificate = optimality_certificate(_MUTATED, solve_instance(_MUTATED).reservations)
    assert check_certificate(form, *certificate) > 0
    pos = ("values", "rows", "bounds").index(part)
    vector = list(certificate[pos])
    if index is None:
        vector.pop()
    else:
        vector[index] = change(vector[index])
    mutated = (*certificate[:pos], tuple(vector), *certificate[pos + 1:])
    with pytest.raises(ModelError, match=match):
        check_certificate(form, *mutated)
