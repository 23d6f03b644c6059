from __future__ import annotations

import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import reference_decimal, reference_to_micro
from qres import units
from qres.units import (
    FRACTION_DIGITS_LIMIT,
    MICRO,
    PROBABILITY_DIGITS,
    UnitError,
    exact_decimal,
    exact_probability,
    format_micro,
    fraction_from_decimal,
    parse_integer,
    parse_money,
    parse_seconds,
)


@pytest.mark.parametrize(
    "value, micro",
    [
        (1.68, 1_680_000),
        ("0.1", 100_000),
        (7, 7_000_000),
        ("0.000001", 1),
        (0, 0),
    ],
)
def test_parse_money(value, micro):
    assert parse_money(value) == micro


def test_parse_money_rejects_sub_micro():
    with pytest.raises(UnitError):
        parse_money("0.0000001")


def test_parse_seconds():
    assert parse_seconds(0.001) == 1000
    assert parse_seconds("0.009") == 9000


def test_format_micro():
    assert format_micro(1_680_000) == "1.680000"
    assert format_micro(Fraction(62_200_000, 13)) == "4.784615"
    assert format_micro(0) == "0.000000"


def round_format_micro(value: Fraction) -> str:
    """format_micro's text with round() doing the rounding."""
    micro = round(value)
    sign = "-" if micro < 0 else ""
    whole, frac = divmod(abs(micro), MICRO)
    return f"{sign}{whole}.{frac:06d}"


@settings(derandomize=True, max_examples=500, deadline=None)
@given(
    st.one_of(
        st.fractions(),
        st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**30)),
        # Halves land on a tie at every odd numerator.
        st.builds(Fraction, st.integers(-(10**13), 10**13), st.just(2)),
    )
)
def test_format_micro_rounds_as_round_does(value):
    assert format_micro(value) == round_format_micro(value)


@pytest.mark.parametrize(
    "halves, text",
    [
        (1, "0.000000"),
        (-1, "0.000000"),
        (3, "0.000002"),
        (-3, "-0.000002"),
        (5, "0.000002"),
        (-5, "-0.000002"),
    ],
)
def test_format_micro_rounds_ties_to_even(halves, text):
    value = Fraction(halves, 2)  # ±0.5, ±1.5 and ±2.5 micro-units
    assert format_micro(value) == round_format_micro(value) == text


@pytest.mark.parametrize(
    "value, text",
    [
        (Fraction(168, 100), "1.68"),
        (Fraction(30), "30"),
        (Fraction(-3, 1000), "-0.003"),
        (Fraction(1, 8), "0.125"),
        (Fraction(0), "0"),
    ],
)
def test_exact_decimal(value, text):
    assert exact_decimal(value) == text


def test_exact_decimal_rejects_non_terminating():
    with pytest.raises(UnitError):
        exact_decimal(Fraction(1, 3))


def test_decimal_round_trip_on_float_products():
    # The LP writer prints probability x rate products; every one must
    # survive a text round trip unchanged.
    rng = random.Random(1105)
    for _ in range(200):
        value = Fraction(rng.random()) * Fraction(rng.randint(0, 10**7), 10**6)
        assert fraction_from_decimal(exact_decimal(value)) == value


# --- magnitude limit -----------------------------------------------------------


def test_money_at_the_magnitude_limit_is_exact():
    assert parse_money(10**24) == 10**30
    assert parse_money("999999999999999999999999.999999") == 10**30 - 1


def test_sub_micro_digit_past_28_digits_is_refused():
    with pytest.raises(UnitError, match="sub-micro"):
        parse_money("1.00000000000000000000000000001")


@pytest.mark.parametrize(
    "value", [10**24 + 1, "1e5000", "-1e5000", "1e999990", 1e300, Decimal("1e25")]
)
def test_money_above_the_magnitude_limit_is_refused(value):
    with pytest.raises(UnitError, match="larger than 1e\\+24 in magnitude"):
        parse_money(value)


def test_tiny_money_is_sub_micro():
    with pytest.raises(UnitError, match="sub-micro"):
        parse_seconds("1e-999990")


@pytest.mark.parametrize(
    "text",
    [
        "inf",
        "-Infinity",
        "nan",
        "sNaN",
        "1e999999999",
        "-1e999999999",
        "1e-999999999",
        "1e25",
        "1e-113",
        "1e-2155",
    ],
)
def test_fraction_from_decimal_refuses_what_it_cannot_build(text):
    with pytest.raises(UnitError):
        fraction_from_decimal(text)


def test_fraction_from_decimal_accepts_the_limits():
    assert fraction_from_decimal("-1e24") == -(10**24)
    assert fraction_from_decimal("1e-112") == Fraction(1, 10**112)
    # The smallest written coefficient: two dyadic uniform masses times a
    # micro-dollar.
    tiny = Fraction(1, 2**53) * Fraction(1, 2**53) / 10**6
    assert len(exact_decimal(tiny)) == 2 + FRACTION_DIGITS_LIMIT
    assert fraction_from_decimal(exact_decimal(tiny)) == tiny


# --- probabilities -------------------------------------------------------------


@pytest.mark.parametrize(
    "value, exact",
    [
        (0.3, Fraction(3, 10)),
        ("0.3", Fraction(3, 10)),
        (Decimal("0.1"), Fraction(1, 10)),
        (1, Fraction(1)),
        (Fraction(1, 3), Fraction(1, 3)),
        ("0." + "1" * PROBABILITY_DIGITS, Fraction(int("1" * 53), 10**53)),
    ],
)
def test_probability_is_the_decimal_written(value, exact):
    assert Fraction(exact_probability(value)) == exact


@pytest.mark.parametrize(
    "value, message",
    [
        (True, "boolean"),
        ("0." + "1" * (PROBABILITY_DIGITS + 1), "more than 53 fraction digits"),
        ("1e-999999999", "more than 53 fraction digits"),
        (float("nan"), "not a finite number"),
        ("inf", "not a finite number"),
        ("1e999999999", "larger than 1e\\+24"),
        ("half", "not a number"),
        (None, "must be a number"),
    ],
)
def test_probability_refusals(value, message):
    with pytest.raises(UnitError, match=message):
        Fraction(exact_probability(value))


# --- text must be plain decimal ------------------------------------------------

NOT_PLAIN = ["1_0", " 0.5\n", " 7 ", "7 ", "\t1", "\u0661\u0662"]


@pytest.mark.parametrize(
    "parse",
    [parse_money, parse_seconds, lambda value: Fraction(exact_probability(value))],
    ids=["parse_money", "parse_seconds", "parse_probability"],
)
@pytest.mark.parametrize("text", NOT_PLAIN)
def test_number_text_must_be_plain_decimal(parse, text):
    with pytest.raises(UnitError, match="not a plain decimal number"):
        parse(text)


@pytest.mark.parametrize(
    "text", NOT_PLAIN + ["", "+", "-", "1.0", "1e1", "x", "\u00b2"]
)
def test_parse_integer_refuses_what_is_not_plain(text):
    with pytest.raises(UnitError, match="invalid literal for int"):
        parse_integer(text)


@pytest.mark.parametrize(
    "text, value", [("0", 0), ("19", 19), ("+5", 5), ("-1", -1), ("007", 7)]
)
def test_parse_integer_reads_plain_integers(text, value):
    assert parse_integer(text) == value


@pytest.mark.parametrize("twos", [0, 1, 52, 53, 106, 300])
@pytest.mark.parametrize("fives", [0, 1, 6, 53])
def test_exact_decimal_round_trips_every_power_of_two_and_five(twos, fives):
    value = Fraction(3, 2**twos * 5**fives)
    text = exact_decimal(value)
    assert len(text.partition(".")[2]) == max(twos, fives)
    assert Fraction(Decimal(text)) == value


def _outcome(function, value):
    """What a reader gives for a value: its result, or its UnitError's text."""
    try:
        result = function(value, "value")
    except UnitError as exc:
        return "UnitError", str(exc)
    return type(result), str(result), result


NUMBERS_FROM_OUTSIDE = st.one_of(
    st.booleans(),
    st.integers(-(10**30), 10**30),
    st.floats(allow_nan=True, allow_infinity=True),
    st.decimals(allow_nan=True, allow_infinity=True),
    st.text(st.sampled_from("0123456789.-+eE_ x"), max_size=30),
    st.builds(
        lambda digits, exponent: Decimal(f"{digits}e{exponent}"),
        st.integers(-(10**30), 10**30),
        st.integers(-60, 40),
    ),
    st.sampled_from([None, [1], Fraction(1, 2)]),
)


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(NUMBERS_FROM_OUTSIDE)
@example(10**24)
@example(10**24 + 1)
@example(1e24)
@example(1.000001e24)
@example("1e24")
@example("1.000001e24")
@example("-1.000001E+24")
@example(Decimal("1e24"))
@example(Decimal("0E+30"))
@example("1e-999999999")
@example(Decimal("1e-999999999"))
@example("0.0000001")
@example(" 1")
def test_numbers_read_as_the_first_reader_read_them(value):
    assert _outcome(units._decimal, value) == _outcome(reference_decimal, value)
    assert _outcome(units._to_micro, value) == _outcome(reference_to_micro, value)
