"""Fixed-point units used throughout the package.

Money is held as integer micro-dollars and time as integer microseconds,
so every deterministic cost is exact integer arithmetic. Probabilities
are read as the exact decimal written (a float counts as its ``repr``)
and held as integer weights over one denominator per vector (see
:func:`qres.instance.outcome_weights`); expected values are exact
`fractions.Fraction`s, so two summation orders of the same terms
compare equal with `==`, which is what the oracle tests rely on.
"""

from __future__ import annotations

from decimal import MAX_PREC, Decimal, InvalidOperation, localcontext
from fractions import Fraction

MICRO = 10**6

# Largest magnitude of a number read from outside the program: money in
# dollars, times in seconds, qubit counts and LP numbers. It is checked
# before any large integer is built, and leaves room for the 70-bit
# encodings of wide registers.
MAGNITUDE_LIMIT = 10**24

# Most fraction digits a probability may have, as many as a dyadic k / 2^53.
PROBABILITY_DIGITS = 53

# Most fraction digits of an LP number: two probabilities times a micro-unit rate.
FRACTION_DIGITS_LIMIT = 2 * PROBABILITY_DIGITS + 6


class UnitError(ValueError):
    """A quantity cannot be represented in the fixed-point grid."""


def check_magnitude(value: int | Decimal, what: str) -> None:
    """Refuse a number above :data:`MAGNITUDE_LIMIT` before it is scaled."""
    # copy_abs, unlike abs, never rounds and so never overflows.
    size = value.copy_abs() if isinstance(value, Decimal) else abs(value)
    if size > MAGNITUDE_LIMIT:
        raise UnitError(f"{what} is larger than {MAGNITUDE_LIMIT:.0e} in magnitude")


def _decimal(value: int | float | str | Decimal, what: str) -> Decimal:
    """A number from outside as an exact, finite Decimal; never a boolean."""
    if isinstance(value, bool):
        raise UnitError(f"{what} must be a number, got a boolean")
    if isinstance(value, int):
        check_magnitude(value, what)
        value = Decimal(value)
    elif isinstance(value, float):
        # repr() of a float is its shortest round-tripping decimal: for a
        # written literal, that literal.
        value = Decimal(repr(value))
    elif isinstance(value, str):
        # Decimal() also reads underscores, surrounding whitespace and
        # non-ASCII digits; text from outside must be a plain decimal.
        if "_" in value or not value.isascii() or value != value.strip():
            raise UnitError(f"{what} is not a plain decimal number: {value!r}")
        try:
            value = Decimal(value)
        except InvalidOperation as exc:
            raise UnitError(f"{what} is not a number: {value!r}") from exc
    elif not isinstance(value, Decimal):
        raise UnitError(f"{what} must be a number, got {type(value).__name__}")
    if not value.is_finite():
        raise UnitError(f"{what} is not a finite number: {value}")
    check_magnitude(value, what)
    return value


def parse_integer(text: str) -> int:
    """An integer written as text: ASCII digits after an optional sign.

    Unlike ``int()``, refuses underscores, surrounding whitespace and
    non-ASCII digits.
    """
    digits = text[1:] if text.startswith(("+", "-")) else text
    if not (digits.isascii() and digits.isdigit()):
        raise UnitError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def _to_micro(value: int | float | str | Decimal, what: str) -> int:
    value = _decimal(value, what)
    # Exact: the default 28-digit context would round away sub-micro digits.
    with localcontext() as exact:
        exact.prec = MAX_PREC
        scaled = value * MICRO
    if scaled != scaled.to_integral_value():
        raise UnitError(f"{what} has sub-micro precision: {value}")
    return int(scaled)


def parse_money(value: int | float | str | Decimal) -> int:
    """Dollars -> integer micro-dollars, rejecting sub-micro precision."""
    return _to_micro(value, "money value")


def parse_seconds(value: int | float | str | Decimal) -> int:
    """Seconds -> integer microseconds, rejecting sub-micro precision."""
    return _to_micro(value, "time value")


def format_micro(value: int | Fraction) -> str:
    """Render a micro-unit quantity as a decimal with 6 fraction digits.

    Fractions are rounded to the nearest micro-unit (ties to even, as
    ``round()`` does) so the output is deterministic.
    """
    if isinstance(value, int):
        micro = value
    else:
        den = value.denominator
        micro, rest = divmod(value.numerator, den)
        if 2 * rest > den or (2 * rest == den and micro & 1):
            micro += 1
    sign = "-" if micro < 0 else ""
    whole, frac = divmod(abs(micro), MICRO)
    return f"{sign}{whole}.{frac:06d}"


def exact_decimal(value: Fraction | int) -> str:
    """Render an exact finite decimal for a rational with 2^a*5^b denominator.

    Used by the LP writer: every coefficient there is a product of
    probabilities (written decimals or dyadic uniform masses) and a
    micro-dollar integer / 10^6, whose denominator is of that form, so
    the printed text loses nothing and parses back to the same Fraction.
    """
    value = Fraction(value)
    num, den = value.numerator, value.denominator
    twos = (den & -den).bit_length() - 1  # trailing zero bits
    rest = den >> twos
    fives = 0
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest != 1:
        raise UnitError(f"{value} has no finite decimal expansion")
    digits = max(twos, fives)
    scaled = abs(num) * 10**digits // den
    sign = "-" if num < 0 else ""
    whole, frac = divmod(scaled, 10**digits)
    if digits == 0 or frac == 0:
        return f"{sign}{whole}"
    text = f"{frac:0{digits}d}".rstrip("0")
    return f"{sign}{whole}.{text}"


def checked_decimal(
    value: int | float | str | Decimal, digits: int = FRACTION_DIGITS_LIMIT
) -> Decimal:
    """A plain decimal number as an exact ``Decimal``.

    The number must be finite, at most :data:`MAGNITUDE_LIMIT` in size and
    have at most ``digits`` fraction digits; all are checked before any
    integer of its value is built.
    """
    value = _decimal(value, "value")
    if value.as_tuple().exponent < -digits:
        raise UnitError(f"value has more than {digits} fraction digits")
    return value


def fraction_from_decimal(value: int | float | str | Decimal) -> Fraction:
    """Exact inverse of :func:`exact_decimal`; see :func:`checked_decimal`."""
    return Fraction(checked_decimal(value))


def exact_probability(
    value: int | float | str | Decimal | Fraction,
) -> Decimal | Fraction:
    """A probability as read: a ``Fraction`` unchanged, else a checked ``Decimal``.

    Either one gives its value's integer ratio, so no ``Fraction`` is
    made for a written decimal.
    """
    if isinstance(value, Fraction):
        return value
    return checked_decimal(value, PROBABILITY_DIGITS)
