"""Deterministic-equivalent MILP: explicit matrix, LP text export, certificate.

The two-stage program is replicated per scenario into one mixed-integer
program: a reservation variable per triple, plus utilization, on-demand,
and over-wait variables per (triple, scenario), with scenario
probabilities multiplied into the objective coefficients. Coefficients
are exact rationals in dollars and seconds, and the LP writer prints them
as exact finite decimals, so export followed by parse reproduces the
form bit for bit.

This module is the reference route, and no command loads it.
`build_extensive_form` builds the explicit records from the per-triple
plans of :mod:`qres.lpplan`. `render_lp` writes a form, parsed or built
by hand, that `parse_lp` can read back, as one string; `export-lp`
writes the same bytes with :func:`qres.lpplan.plan_lp_chunks`, which
builds no record. Both writers format each distinct value once, through
the memo that :func:`qres.lpplan._formatter` makes for each call, and
both share that module's LP grammar.

Capacity is encoded as the reservation variable's upper bound rather
than a constraint row, so each (triple, scenario) contributes exactly
three rows: utilization cap, demand cover, and wait slack.

`check_certificate` proves a point optimal for any form by weak LP
duality, in exact arithmetic. `optimality_certificate` builds that point
and its duals from the plans for a vector of levels, so the kernel's
levels are proven optimal for the very form `export-lp` writes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Mapping, NamedTuple, Sequence

from .instance import Instance, ModelError
from .lpplan import (
    _MINUS_ONE,
    _NAME_RE,
    _ONE,
    _SECTIONS,
    _ZERO,
    SENSE_GE,
    SENSE_LE,
    TriplePlan,
    _formatter,
    plan_form,
)
from .units import fraction_from_decimal


class LpParseError(ValueError):
    """LP text does not conform to the emitted grammar."""


# A form holds tens of thousands of variables and rows, so both are named
# tuples.
class Variable(NamedTuple):
    name: str
    kind: str  # "integer" | "continuous"
    lower: Fraction
    upper: Fraction | None  # None = unbounded above


class Row(NamedTuple):
    name: str
    terms: tuple[tuple[int, Fraction], ...]  # (variable index, coefficient)
    sense: str
    rhs: Fraction


class ExtensiveForm(NamedTuple):
    variables: tuple[Variable, ...]
    objective: tuple[tuple[int, Fraction], ...]
    constraints: tuple[Row, ...]


def build_extensive_form(instance: Instance) -> ExtensiveForm:
    """Explicit deterministic equivalent of an instance, built from its plan.

    Variable order: triples sorted by id, and per triple the reservation
    variable followed by (utilize, on-demand, over-wait) per scenario.
    Refused as :func:`plan_form` refuses.
    """
    return _form(plan_form(instance))


def _form(plans: list[TriplePlan]) -> ExtensiveForm:
    variables: list[Variable] = []
    objective: list[tuple[int, Fraction]] = []
    rows: list[Row] = []

    for tag, reserve, capacity, space, coefs, demand_rhs, wait_rhs in plans:
        xr = len(variables)
        variables.append(Variable(f"xr_{tag}", "integer", _ZERO, capacity))
        objective.append((xr, reserve))
        for si, (d, a, w) in enumerate(space):
            cu, co, cp = coefs[w]
            xu = len(variables)
            xo, y = xu + 1, xu + 2
            suffix = f"{tag}_s{si}"
            variables += (
                Variable(f"xu_{suffix}", "integer", _ZERO, None),
                Variable(f"xo_{suffix}", "integer", _ZERO, None),
                Variable(f"y_{suffix}", "continuous", _ZERO, None),
            )
            objective += ((xu, cu), (xo, co), (y, cp))
            demand = demand_rhs[d]
            wait = wait_rhs[a]
            rows += (
                Row(f"use_{suffix}", ((xu, _ONE), (xr, _MINUS_ONE)), SENSE_LE, _ZERO),
                Row(f"dem_{suffix}", ((xu, _ONE), (xo, _ONE)), SENSE_GE, demand),
                Row(f"wait_{suffix}", ((y, _MINUS_ONE),), SENSE_LE, wait),
            )

    return ExtensiveForm(
        variables=tuple(variables),
        objective=tuple(objective),
        constraints=tuple(rows),
    )


# ---------------------------------------------------------------------------
# LP text format
# ---------------------------------------------------------------------------


def render_lp(form: ExtensiveForm) -> str:
    """The LP text for a form (LF line endings, ASCII).

    The form is checked before any line is made, for what :func:`parse_lp`
    could not read back: a name that is malformed or repeated, an
    objective that does not list each variable once, in order (the parser
    takes the variables from it), a non-zero lower bound with no upper
    bound (only a bounded variable gets a ``Bounds`` line), an integer
    variable named as a section keyword (its ``Generals`` line would read
    as the keyword) and a row with no terms.
    """
    names = [var.name for var in form.variables]
    row_names = [row.name for row in form.constraints]
    for what, listed in (("variable", names), ("constraint", row_names)):
        seen: set[str] = set()
        for name in listed:
            if not _NAME_RE.fullmatch(name):
                raise ValueError(f"{what} name not exportable: {name!r}")
            if name in seen:
                raise ValueError(f"{what} name not exportable: {name!r} is repeated")
            seen.add(name)
    if [index for index, _ in form.objective] != list(range(len(names))):
        raise ValueError("objective not exportable: not each variable once, in order")
    for name, kind, lower, upper in form.variables:
        if upper is None and lower != 0:
            raise ValueError(
                f"variable bound not exportable: {name!r} has lower {lower}, no upper"
            )
        if kind == "integer" and name in _SECTIONS:
            raise ValueError(f"variable name not exportable: {name!r} is a keyword")
    for row in form.constraints:
        if not row.terms:
            raise ValueError(f"constraint not exportable: {row.name!r} has no terms")
    return "\n".join(_lp_lines(form, names)) + "\n"


def _lp_lines(form: ExtensiveForm, names: list[str]) -> Iterator[str]:
    texts = _formatter()
    yield "Minimize"
    for i, (index, coef) in enumerate(form.objective):
        yield f" {'obj: ' if i == 0 else ''}{texts(coef)[i > 0]} {names[index]}"
    yield "Subject To"
    for name, terms, sense, rhs in form.constraints:
        parts = [
            f"{texts(coef)[i > 0]} {names[index]}" for i, (index, coef) in enumerate(terms)
        ]
        yield f" {name}: {' '.join(parts)} {sense} {texts(rhs)[0]}"
    yield "Bounds"
    integers = []
    for name, kind, lower, upper in form.variables:
        if upper is not None:
            yield f" {texts(lower)[0]} <= {name} <= {texts(upper)[0]}"
        if kind == "integer":
            integers.append(name)
    yield "Generals"
    for name in integers:
        yield f" {name}"
    yield "End"


def _number(
    numbers: dict[tuple[str, bool], Fraction], text: str, negate: bool = False
) -> Fraction:
    """The number a text reads as, negated if asked, read once per text and sign.

    A text that cannot be read raises at every reading.
    """
    value = numbers.get((text, negate))
    if value is None:
        value = fraction_from_decimal(text)
        value = numbers[text, negate] = -value if negate else value
    return value


def _parse_terms(
    tokens: list[str],
    line_no: int,
    numbers: dict[tuple[str, bool], Fraction],
) -> list[tuple[Fraction, str]]:
    terms: list[tuple[Fraction, str]] = []
    pos = 0
    while pos < len(tokens):
        negate = False
        tok = tokens[pos]
        if tok in ("+", "-"):
            negate = tok == "-"
            pos += 1
        if pos + 1 >= len(tokens):
            raise LpParseError(f"line {line_no}: truncated term")
        try:
            coef = _number(numbers, tokens[pos], negate)
        except ValueError as exc:
            raise LpParseError(f"line {line_no}: bad coefficient {tokens[pos]!r}") from exc
        name = tokens[pos + 1]
        if not _NAME_RE.fullmatch(name):
            raise LpParseError(f"line {line_no}: bad variable name {name!r}")
        terms.append((coef, name))
        pos += 2
    return terms


def parse_lp(text: str) -> ExtensiveForm:
    """Parse LP text produced by :func:`render_lp` back into a form.

    Only the emitted subset of the format is understood; variable order
    is recovered from the objective, which lists every variable. A
    constraint name used twice, or a variable bounded twice, is refused.
    """
    section = None
    objective_terms: list[tuple[Fraction, str]] = []
    raw_rows: list[tuple[str, list[tuple[Fraction, str]], str, Fraction]] = []
    bounds: dict[str, tuple[Fraction, Fraction]] = {}
    generals: set[str] = set()
    row_names: set[str] = set()
    saw_end = False
    numbers: dict[tuple[str, bool], Fraction] = {}  # see _number

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line in _SECTIONS:
            section = line
            saw_end = line == "End"
            continue
        if saw_end:
            raise LpParseError(f"line {line_no}: content after End")
        if section == "Minimize":
            if line.startswith("obj:"):
                if objective_terms:
                    raise LpParseError(f"line {line_no}: duplicate objective")
                tokens = line[len("obj:"):].split()
            else:
                tokens = line.split()
                if not objective_terms or tokens[0] not in ("+", "-"):
                    raise LpParseError(f"line {line_no}: expected objective term")
            terms = _parse_terms(tokens, line_no, numbers)
            objective_terms.extend(terms)
        elif section == "Subject To":
            if ":" not in line:
                raise LpParseError(f"line {line_no}: constraint without name")
            name, rest = line.split(":", 1)
            name = name.strip()
            if not _NAME_RE.fullmatch(name):
                raise LpParseError(f"line {line_no}: bad constraint name {name!r}")
            if name in row_names:
                raise LpParseError(f"line {line_no}: constraint {name} named twice")
            row_names.add(name)
            tokens = rest.split()
            sense_pos = None
            for i, tok in enumerate(tokens):
                if tok in (SENSE_LE, SENSE_GE):
                    sense_pos = i
                    break
            if sense_pos is None or sense_pos != len(tokens) - 2:
                raise LpParseError(f"line {line_no}: expected '<= rhs' or '>= rhs'")
            terms = _parse_terms(tokens[:sense_pos], line_no, numbers)
            if not terms:
                raise LpParseError(f"line {line_no}: constraint with no terms")
            try:
                rhs = _number(numbers, tokens[-1])
            except ValueError as exc:
                raise LpParseError(f"line {line_no}: bad rhs {tokens[-1]!r}") from exc
            raw_rows.append((name, terms, tokens[sense_pos], rhs))
        elif section == "Bounds":
            tokens = line.split()
            if len(tokens) != 5 or tokens[1] != SENSE_LE or tokens[3] != SENSE_LE:
                raise LpParseError(f"line {line_no}: expected 'lo <= var <= hi'")
            try:
                lo = _number(numbers, tokens[0])
                hi = _number(numbers, tokens[4])
            except ValueError as exc:
                raise LpParseError(f"line {line_no}: bad bound value") from exc
            if tokens[2] in bounds:
                raise LpParseError(f"line {line_no}: variable {tokens[2]} bounded twice")
            bounds[tokens[2]] = (lo, hi)
        elif section == "Generals":
            tokens = line.split()
            if len(tokens) != 1 or not _NAME_RE.fullmatch(tokens[0]):
                raise LpParseError(f"line {line_no}: expected a variable name")
            generals.add(tokens[0])
        else:
            raise LpParseError(f"line {line_no}: content before Minimize")

    if not saw_end:
        raise LpParseError("missing End marker")
    if not objective_terms:
        raise LpParseError("missing objective")

    index_of: dict[str, int] = {}
    variables: list[Variable] = []
    objective: list[tuple[int, Fraction]] = []
    unbounded = (_ZERO, None)
    for coef, name in objective_terms:
        if name in index_of:
            raise LpParseError(f"variable {name} listed twice in objective")
        index = index_of[name] = len(variables)
        kind = "integer" if name in generals else "continuous"
        variables.append(Variable(name, kind, *bounds.get(name, unbounded)))
        objective.append((index, coef))

    unknown_generals = generals - set(index_of)
    if unknown_generals:
        raise LpParseError(f"Generals lists unknown variables: {sorted(unknown_generals)}")
    unknown_bounds = set(bounds) - set(index_of)
    if unknown_bounds:
        raise LpParseError(f"Bounds lists unknown variables: {sorted(unknown_bounds)}")

    rows = []
    for name, terms, sense, rhs in raw_rows:
        indexed = []
        for coef, var_name in terms:
            if var_name not in index_of:
                raise LpParseError(f"constraint {name} references unknown {var_name}")
            indexed.append((index_of[var_name], coef))
        rows.append(Row(name, tuple(indexed), sense, rhs))

    return ExtensiveForm(
        variables=tuple(variables),
        objective=tuple(objective),
        constraints=tuple(rows),
    )


# ---------------------------------------------------------------------------
# Optimality certificate
# ---------------------------------------------------------------------------


def optimality_certificate(
    instance: Instance, levels: Mapping[tuple[str, str, str], int]
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...], tuple[Fraction, ...]]:
    """A primal point, row duals and bound duals for a vector of levels.

    Returns ``(values, row_duals, bound_duals)`` in the variable and row
    order of ``build_extensive_form(instance)``. Each triple reserves its
    level x and every scenario takes its cheapest recourse. The duals
    charge each demand row its marginal qubit rate and each wait row the
    penalty rate. A use row is charged the margin (on-demand minus
    utilize) where the demand exceeds x, and a share of it where the
    demand equals x, chosen to zero the reservation's reduced cost; what
    is left over is the reservation's bound dual.

    The relaxation's cost is convex and piecewise linear in each
    reservation, with kinks at the integer demands, so with non-negative
    rates an optimal level always has such a certificate and, as
    :func:`check_certificate` proves, a costlier level never has one.
    """
    values: list[Fraction] = []
    row_duals: list[Fraction] = []
    bound_duals: list[Fraction] = []
    for key, (_, reserve, _, space, coefs, _, wait_rhs) in zip(
        instance.triples(), plan_form(instance)
    ):
        x = levels[key]
        cases = [(d, *coefs[w], wait_rhs[a]) for d, a, w in space]
        # The margins at stake above the level and at it.
        above = sum((co - cu for d, cu, co, _, _ in cases if cu < co and d > x), _ZERO)
        at = sum((co - cu for d, cu, co, _, _ in cases if cu < co and d == x > 0), _ZERO)
        theta = min(max((reserve - above) / at, _ZERO), _ONE) if at else _ZERO
        xr = len(values)
        values.append(Fraction(x))
        bound_duals += [_ZERO] * (1 + 3 * len(cases))
        use_total = _ZERO
        for d, cu, co, cp, wait in cases:
            used = min(x, d) if cu <= co else 0
            values += (Fraction(used), Fraction(d - used), max(_ZERO, -wait))
            if cu < co and d > x:
                use, dem = cu - co, co
            elif cu < co and d == x > 0:
                use, dem = theta * (cu - co), cu + theta * (co - cu)
            elif d > 0:
                use, dem = _ZERO, min(cu, co)
            else:
                use, dem = _ZERO, _ZERO
            use_total += use
            row_duals += (use, dem, -cp if wait < 0 else _ZERO)
        bound_duals[xr] = max(_ZERO, -(reserve + use_total))
    return tuple(values), tuple(row_duals), tuple(bound_duals)


def check_certificate(
    form: ExtensiveForm,
    values: Sequence[Fraction],
    row_duals: Sequence[Fraction],
    bound_duals: Sequence[Fraction],
) -> Fraction:
    """The optimum of a form, proven by weak duality of its LP relaxation.

    ``values`` is a point x, ``row_duals`` a multiplier pi per row and
    ``bound_duals`` a multiplier sigma per variable's upper bound. In exact
    arithmetic and in this order, it checks that:

    - the sizes match the form;
    - each value is within its bounds, and integral where the kind is integer;
    - every row holds;
    - pi <= 0 on a <= row and pi >= 0 on a >= row;
    - sigma >= 0, and sigma == 0 on a variable with no upper bound;
    - every reduced cost c - A^T pi + sigma is >= 0;
    - c.x == b.pi - u.sigma + l.(c - A^T pi + sigma).

    The right side of the last check bounds c.x' from below for every
    point x' of the relaxation, so x is optimal for the relaxation and, as
    it is integral, for the MILP. Returns c.x; raises ModelError naming
    the first check that fails.
    """
    variables, rows = form.variables, form.constraints
    sizes = (len(values), len(row_duals), len(bound_duals))
    expected = (len(variables), len(rows), len(variables))
    if sizes != expected:
        raise ModelError(f"certificate sizes: {sizes} != {expected}")
    for var, value in zip(variables, values):
        if value < var.lower or (var.upper is not None and value > var.upper):
            raise ModelError(f"certificate bounds: {var.name} = {value} is outside")
        if var.kind == "integer" and value.denominator != 1:
            raise ModelError(f"certificate integrality: {var.name} = {value}")
    for row in rows:
        lhs = sum((coef * values[i] for i, coef in row.terms), _ZERO)
        if not (lhs <= row.rhs if row.sense == SENSE_LE else lhs >= row.rhs):
            raise ModelError(f"certificate row: {row.name} does not hold")
    for row, pi in zip(rows, row_duals):
        if pi > 0 if row.sense == SENSE_LE else pi < 0:
            raise ModelError(f"certificate dual sign: {row.name} has dual {pi}")
    for var, sigma in zip(variables, bound_duals):
        if sigma < 0:
            raise ModelError(f"certificate bound dual: {var.name} has {sigma} < 0")
        if sigma and var.upper is None:
            raise ModelError(f"certificate bound dual: {var.name} has no upper bound")

    reduced = list(bound_duals)
    for i, coef in form.objective:
        reduced[i] += coef
    cost = sum((coef * values[i] for i, coef in form.objective), _ZERO)
    dual = _ZERO
    for row, pi in zip(rows, row_duals):
        if pi:
            dual += row.rhs * pi
            for i, coef in row.terms:
                reduced[i] -= coef * pi
    for var, sigma, rc in zip(variables, bound_duals, reduced):
        if rc < 0:
            raise ModelError(f"certificate reduced cost: {var.name} has {rc} < 0")
        dual += var.lower * rc - (var.upper * sigma if sigma else _ZERO)
    if cost != dual:
        raise ModelError(f"certificate objective: primal {cost} != dual {dual}")
    return cost
