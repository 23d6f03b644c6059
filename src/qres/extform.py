"""Deterministic-equivalent MILP: explicit matrix, LP text export, enumeration.

The two-stage program is replicated per scenario into one mixed-integer
program: a reservation variable per triple, plus utilization, on-demand,
and over-wait variables per (triple, scenario), with scenario
probabilities multiplied into the objective coefficients. Coefficients
are exact rationals in dollars and seconds, and the LP writer prints them
as exact finite decimals, so export followed by parse reproduces the
form bit for bit.

A form has far fewer distinct values than terms. Everything the model
decides for a triple is computed once into its :class:`TriplePlan`: its
name tag, the reservation coefficient and capacity bound, its circuit's
scenario space, the coefficients per distinct scenario weight (the
integer weight times an integer micro-unit rate over the space's common
denominator times 10^6), and the rhs per distinct demand and wait. The
unit coefficients, zero rhs and lower bounds share one object each.

The plans have two consumers. `build_extensive_form` builds the explicit
records from them. `plan_lp_chunks` writes the LP text straight from
them, and `export-lp` uses it, so no record of the form is ever built
there; its bytes equal `render_lp(build_extensive_form(instance))`.
`lp_chunks` and `render_lp` write any form, parsed or built by hand.
Both writers format each distinct value once, check every name before
the first chunk, and yield the text in chunks of whole lines, so a
caller can write each chunk as it is made and never hold the whole LP.

Capacity is encoded as the reservation variable's upper bound rather
than a constraint row, so each (triple, scenario) contributes exactly
three rows: utilization cap, demand cover, and wait slack.

`solve_enumerative` is a verification path, not a MILP solver: it
enumerates the first-stage integer variables (names without a scenario
suffix), splits the rest into per-scenario blocks via shared rows,
enumerates each block within bounds implied by its rows, and resolves
each continuous variable to the smallest value its rows allow.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple

from .instance import GRID_GUARD, GuardError, Instance, ModelError, check_capacity
from .scenarios import ScenarioSpace, circuit_marginals, space_for_circuit
from .units import MICRO, exact_decimal, fraction_from_decimal

ENUMERATION_GUARD = 10**6

_SCENARIO_SUFFIX = re.compile(r"_s\d+$")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]{0,254}")
# Lines per chunk of LP text: enough to amortise each write, few enough
# that a chunk is a small fraction of the whole text.
_CHUNK_LINES = 4096

SENSE_LE = "<="
SENSE_GE = ">="

# Fractions are immutable, so every unit coefficient, zero rhs and lower
# bound of a form can be one shared object.
_ZERO, _ONE, _MINUS_ONE = Fraction(0), Fraction(1), Fraction(-1)


class LpParseError(ValueError):
    """LP text does not conform to the emitted grammar."""


# A form holds tens of thousands of variables and rows, so both are named
# tuples. The builder makes each with tuple.__new__, which yields exactly
# the named tuple without a call to its generated __new__.
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


@dataclass(frozen=True)
class ExtensiveForm:
    variables: tuple[Variable, ...]
    objective: tuple[tuple[int, Fraction], ...]
    constraints: tuple[Row, ...]


class TriplePlan(NamedTuple):
    """Everything the model decides for one triple, computed once.

    ``coefs`` maps each distinct scenario weight of the space to the
    (utilize, on-demand, over-wait) objective coefficients; ``demand_rhs``
    and ``wait_rhs`` map each distinct demand and wait to its row's rhs.
    """

    tag: str  # c{i}_p{j}_m{k}
    reserve: Fraction  # the reservation variable's objective coefficient
    capacity: Fraction  # and its upper bound
    space: ScenarioSpace
    coefs: dict[int, tuple[Fraction, Fraction, Fraction]]
    demand_rhs: dict[int, Fraction]
    wait_rhs: dict[int, Fraction]


def plan_form(instance: Instance) -> list[TriplePlan]:
    """The plan of every triple of an instance, in triple order.

    Names carry zero-based circuit/provider/machine positions; that naming
    is a frozen contract (golden files and the enumeration solver rely on
    it). A negative capacity, an unknown circuit, or a form of more than
    GRID_GUARD scenarios summed over all triples, is refused before any
    scenario space is built.
    """
    triples = instance.triples()
    for _, pid, mid in triples:
        check_capacity(instance.machine(pid, mid).capacity_qubits)
    outcomes = {
        cid: circuit_marginals(instance, cid)
        for cid in dict.fromkeys(cid for cid, _, _ in triples)
    }
    size = sum(
        len(outcomes[cid].demands) * len(outcomes[cid].waits) for cid, _, _ in triples
    )
    if size > GRID_GUARD:
        raise GuardError(
            f"extensive form has {size} scenarios over all triples, "
            f"more than {GRID_GUARD}"
        )
    circuit_pos = {c.circuit_id: i for i, c in enumerate(instance.circuits)}
    provider_pos = {p: i for i, p in enumerate(instance.providers)}
    machine_pos: dict[tuple[str, str], int] = {}
    per_provider: dict[str, int] = {}
    for m in instance.machines:
        machine_pos[(m.provider_id, m.machine_id)] = per_provider.get(m.provider_id, 0)
        per_provider[m.provider_id] = per_provider.get(m.provider_id, 0) + 1

    spaces = {cid: space_for_circuit(instance, cid) for cid in outcomes}

    plans = []
    for cid, pid, mid in triples:
        tag = f"c{circuit_pos[cid]}_p{provider_pos[pid]}_m{machine_pos[(pid, mid)]}"
        rates = instance.rate(cid, pid)
        exec_time = instance.exec_time(cid, pid, mid)
        space = spaces[cid]
        # p == w / L exactly, so p * rate / MICRO == w * rate / (L * MICRO).
        common, weights = space.weights
        scale = common * MICRO
        plans.append(
            TriplePlan(
                tag=tag,
                reserve=Fraction(rates.reserve_per_qubit, MICRO),
                capacity=Fraction(instance.machine(pid, mid).capacity_qubits),
                space=space,
                coefs={
                    w: (
                        Fraction(w * rates.utilize_per_qubit, scale),
                        Fraction(w * rates.on_demand_per_qubit, scale),
                        Fraction(w * rates.penalty_per_second, scale),
                    )
                    for w in set(weights)
                },
                demand_rhs={d: Fraction(d) for d in outcomes[cid].demands},
                wait_rhs={
                    a: Fraction(a - exec_time, MICRO) for a in outcomes[cid].waits
                },
            )
        )
    return plans


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
    new = tuple.__new__  # a record per term: skip the generated __new__ frame

    for tag, reserve, capacity, space, coefs, demand_rhs, wait_rhs in plans:
        xr = len(variables)
        variables.append(new(Variable, (f"xr_{tag}", "integer", _ZERO, capacity)))
        objective.append((xr, reserve))
        for si, (scenario, w) in enumerate(zip(space.scenarios, space.weights[1])):
            cu, co, cp = coefs[w]
            xu = len(variables)
            xo, y = xu + 1, xu + 2
            suffix = f"{tag}_s{si}"
            variables += (
                new(Variable, (f"xu_{suffix}", "integer", _ZERO, None)),
                new(Variable, (f"xo_{suffix}", "integer", _ZERO, None)),
                new(Variable, (f"y_{suffix}", "continuous", _ZERO, None)),
            )
            objective += ((xu, cu), (xo, co), (y, cp))
            demand = demand_rhs[scenario.demand_qubits]
            wait = wait_rhs[scenario.wait_time]
            rows += (
                new(Row, (f"use_{suffix}", ((xu, _ONE), (xr, _MINUS_ONE)), SENSE_LE, _ZERO)),
                new(Row, (f"dem_{suffix}", ((xu, _ONE), (xo, _ONE)), SENSE_GE, demand)),
                new(Row, (f"wait_{suffix}", ((y, _MINUS_ONE),), SENSE_LE, wait)),
            )

    return ExtensiveForm(
        variables=tuple(variables),
        objective=tuple(objective),
        constraints=tuple(rows),
    )


def plan_size(plans: list[TriplePlan]) -> tuple[int, int]:
    """The variables and rows of the form of these plans, counted from the spaces."""
    scenarios = sum(len(plan.space) for plan in plans)
    return len(plans) + 3 * scenarios, 3 * scenarios


# ---------------------------------------------------------------------------
# LP text format
# ---------------------------------------------------------------------------


def lp_chunks(form: ExtensiveForm) -> Iterator[str]:
    """The LP text for a form, in chunks of whole lines (LF endings, ASCII).

    Every variable and constraint name is checked before the first chunk
    is yielded, so a form that cannot be written yields nothing.
    """
    names = [var.name for var in form.variables]
    for name in names:
        if not _NAME_RE.fullmatch(name):
            raise ValueError(f"variable name not exportable: {name!r}")
    for row in form.constraints:
        if not _NAME_RE.fullmatch(row.name):
            raise ValueError(f"constraint name not exportable: {row.name!r}")
    yield from _chunks(_lp_lines(form, names))


def render_lp(form: ExtensiveForm) -> str:
    """The LP text for a form (LF line endings, ASCII)."""
    return "".join(lp_chunks(form))


def plan_lp_chunks(plans: list[TriplePlan]) -> Iterator[str]:
    """The LP text of the form of these plans, made without the form.

    The chunks join to ``render_lp(build_extensive_form(instance))`` for
    ``plans = plan_form(instance)``, and every name is checked as
    :func:`lp_chunks` checks it, before the first chunk.
    """
    # Within a triple every name is a short prefix, the tag and a scenario
    # suffix, and wait_{tag}_s{n-1} is the longest: when it can be written
    # every name of the triple can. When one cannot, the form's own check
    # names the first name that fails.
    if not all(_NAME_RE.fullmatch(f"wait_{p.tag}_s{len(p.space) - 1}") for p in plans):
        next(lp_chunks(_form(plans)))
    yield from _chunks(_plan_lines(plans))


def _chunks(lines: Iterator[str]) -> Iterator[str]:
    while batch := list(itertools.islice(lines, _CHUNK_LINES)):
        yield "\n".join(batch) + "\n"


def _texts(value: Fraction) -> tuple[str, str]:
    """A value's two texts, by whether a term precedes it in its sum.

    "-0.5" and "- 0.5", "2" and "+ 2".
    """
    text = exact_decimal(value)
    return text, f"- {text[1:]}" if text[0] == "-" else f"+ {text}"


def _lp_lines(form: ExtensiveForm, names: list[str]) -> Iterator[str]:
    # A form repeats few distinct values many times: format each once. The
    # form keeps every value alive while it is written, so a value's id is
    # a safe first key; equal values that are distinct objects meet under
    # their integers (hashing a Fraction costs a modular pow). The term
    # loops read by_id inline and call decimal() only for a value not seen
    # yet.
    by_id: dict[int, tuple[str, str]] = {}
    by_value: dict[tuple[int, int], tuple[str, str]] = {}

    def decimal(value: Fraction) -> tuple[str, str]:
        texts = by_id.get(id(value))
        if texts is None:
            key = value.numerator, value.denominator
            texts = by_value.get(key)
            if texts is None:
                texts = by_value[key] = _texts(value)
            by_id[id(value)] = texts
        return texts

    yield "Minimize"
    for i, (index, coef) in enumerate(form.objective):
        text = (by_id.get(id(coef)) or decimal(coef))[i > 0]
        yield f" {'obj: ' if i == 0 else ''}{text} {names[index]}"
    yield "Subject To"
    for name, terms, sense, rhs in form.constraints:
        parts = [
            f"{(by_id.get(id(coef)) or decimal(coef))[i > 0]} {names[index]}"
            for i, (index, coef) in enumerate(terms)
        ]
        yield f" {name}: {' '.join(parts)} {sense} {decimal(rhs)[0]}"
    yield "Bounds"
    integers = []
    for name, kind, lower, upper in form.variables:
        if upper is not None:
            yield f" {decimal(lower)[0]} <= {name} <= {decimal(upper)[0]}"
        if kind == "integer":
            integers.append(name)
    yield "Generals"
    for name in integers:
        yield f" {name}"
    yield "End"


def _plan_lines(plans: list[TriplePlan]) -> Iterator[str]:
    # The lines _lp_lines prints for the form of these plans, in its order
    # and layouts, each distinct value of a plan formatted once. The
    # layouts are written out here rather than shared with _lp_lines
    # through helpers: a call per line cost about 14% of this writer.
    by_value: dict[tuple[int, int], tuple[str, str]] = {}

    def texts(value: Fraction) -> tuple[str, str]:
        key = value.numerator, value.denominator
        found = by_value.get(key)
        if found is None:
            found = by_value[key] = _texts(value)
        return found

    zero, one, minus_one = texts(_ZERO)[0], texts(_ONE), texts(_MINUS_ONE)

    yield "Minimize"
    for i, plan in enumerate(plans):
        tag = plan.tag
        reserve = texts(plan.reserve)
        yield f" obj: {reserve[0]} xr_{tag}" if i == 0 else f" {reserve[1]} xr_{tag}"
        coefs = {w: [texts(c)[1] for c in cs] for w, cs in plan.coefs.items()}
        for si, w in enumerate(plan.space.weights[1]):
            cu, co, cp = coefs[w]
            yield f" {cu} xu_{tag}_s{si}"
            yield f" {co} xo_{tag}_s{si}"
            yield f" {cp} y_{tag}_s{si}"
    yield "Subject To"
    le, ge = SENSE_LE, SENSE_GE
    for plan in plans:
        tag = plan.tag
        demand = {d: texts(v)[0] for d, v in plan.demand_rhs.items()}
        wait = {a: texts(v)[0] for a, v in plan.wait_rhs.items()}
        for si, scenario in enumerate(plan.space.scenarios):
            s = f"{tag}_s{si}"
            yield f" use_{s}: {one[0]} xu_{s} {minus_one[1]} xr_{tag} {le} {zero}"
            yield (
                f" dem_{s}: {one[0]} xu_{s} {one[1]} xo_{s} {ge} "
                f"{demand[scenario.demand_qubits]}"
            )
            yield f" wait_{s}: {minus_one[0]} y_{s} {le} {wait[scenario.wait_time]}"
    yield "Bounds"
    for plan in plans:
        yield f" {zero} <= xr_{plan.tag} <= {texts(plan.capacity)[0]}"
    yield "Generals"
    for plan in plans:
        tag = plan.tag
        yield f" xr_{tag}"
        for si in range(len(plan.space)):
            yield f" xu_{tag}_s{si}"
            yield f" xo_{tag}_s{si}"
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
    names: set[str],
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
        if name not in names:
            if not _NAME_RE.fullmatch(name):
                raise LpParseError(f"line {line_no}: bad variable name {name!r}")
            names.add(name)
        terms.append((coef, name))
        pos += 2
    return terms


def parse_lp(text: str) -> ExtensiveForm:
    """Parse LP text produced by :func:`render_lp` back into a form.

    Only the emitted subset of the format is understood; variable order
    is recovered from the objective, which lists every variable.
    """
    section = None
    objective_terms: list[tuple[Fraction, str]] = []
    raw_rows: list[tuple[str, list[tuple[Fraction, str]], str, Fraction]] = []
    bounds: dict[str, tuple[Fraction, Fraction]] = {}
    generals: set[str] = set()
    saw_end = False
    numbers: dict[tuple[str, bool], Fraction] = {}  # see _number
    names: set[str] = set()  # variable names already found well formed

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line in ("Minimize", "Subject To", "Bounds", "Generals", "End"):
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
            terms = _parse_terms(tokens, line_no, numbers, names)
            objective_terms.extend(terms)
        elif section == "Subject To":
            if ":" not in line:
                raise LpParseError(f"line {line_no}: constraint without name")
            name, rest = line.split(":", 1)
            name = name.strip()
            if not _NAME_RE.fullmatch(name):
                raise LpParseError(f"line {line_no}: bad constraint name {name!r}")
            tokens = rest.split()
            sense_pos = None
            for i, tok in enumerate(tokens):
                if tok in (SENSE_LE, SENSE_GE):
                    sense_pos = i
                    break
            if sense_pos is None or sense_pos != len(tokens) - 2:
                raise LpParseError(f"line {line_no}: expected '<= rhs' or '>= rhs'")
            terms = _parse_terms(tokens[:sense_pos], line_no, numbers, names)
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
            bounds[tokens[2]] = (lo, hi)
        elif section == "Generals":
            tokens = line.split()
            if len(tokens) != 1 or (
                tokens[0] not in names and not _NAME_RE.fullmatch(tokens[0])
            ):
                raise LpParseError(f"line {line_no}: expected a variable name")
            generals.add(tokens[0])
        else:
            raise LpParseError(f"line {line_no}: content before Minimize")

    if not saw_end:
        raise LpParseError("missing End marker")
    if not objective_terms:
        raise LpParseError("missing objective")

    new = tuple.__new__  # a record per variable and row, as the builder makes them
    index_of: dict[str, int] = {}
    variables: list[Variable] = []
    objective: list[tuple[int, Fraction]] = []
    unbounded = (_ZERO, None)
    for coef, name in objective_terms:
        if name in index_of:
            raise LpParseError(f"variable {name} listed twice in objective")
        index = index_of[name] = len(variables)
        kind = "integer" if name in generals else "continuous"
        variables.append(new(Variable, (name, kind, *bounds.get(name, unbounded))))
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
        rows.append(new(Row, (name, tuple(indexed), sense, rhs)))

    return ExtensiveForm(
        variables=tuple(variables),
        objective=tuple(objective),
        constraints=tuple(rows),
    )


# ---------------------------------------------------------------------------
# Enumeration solver
# ---------------------------------------------------------------------------


def _is_second_stage(name: str) -> bool:
    return _SCENARIO_SUFFIX.search(name) is not None


def _blocks(form: ExtensiveForm, second_stage: list[int]) -> list[tuple[list[int], list[Row]]]:
    """Group second-stage variables into components joined by shared rows."""
    parent = {i: i for i in second_stage}

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(a: int, b: int) -> None:
        parent[find(a)] = find(b)

    row_members: list[list[int]] = []
    for row in form.constraints:
        members = [i for i, _ in row.terms if i in parent]
        row_members.append(members)
        for other in members[1:]:
            union(members[0], other)

    groups: dict[int, list[int]] = {}
    for i in second_stage:
        groups.setdefault(find(i), []).append(i)
    block_rows: dict[int, list[Row]] = {root: [] for root in groups}
    for row, members in zip(form.constraints, row_members):
        if members:
            block_rows[find(members[0])].append(row)
    return [(sorted(members), block_rows[root]) for root, members in sorted(groups.items())]


def solve_enumerative(
    form: ExtensiveForm,
) -> tuple[Fraction, dict[str, Fraction | int]]:
    """Exhaustive minimum of a form, for cross-checking the solver.

    Enumerates first-stage integer assignments (guarded), then minimizes
    each scenario block independently: block integers are enumerated
    within row-implied bounds, continuous variables take the smallest
    value their rows allow, and every row is re-checked exactly. Raises
    GuardError when the work bound is exceeded or when the form falls
    outside the shapes this enumerator understands.
    """
    n = len(form.variables)
    obj = [Fraction(0)] * n
    for index, coef in form.objective:
        obj[index] += coef

    second = [i for i, v in enumerate(form.variables) if _is_second_stage(v.name)]
    second_set = set(second)
    first = [i for i in range(n) if i not in second_set]

    for i in first:
        var = form.variables[i]
        if var.kind != "integer":
            raise GuardError(f"cannot enumerate continuous first-stage {var.name}")
        if var.upper is None:
            raise GuardError(f"first-stage {var.name} is unbounded")
    for i in second:
        if form.variables[i].kind == "continuous" and obj[i] < 0:
            raise GuardError(
                f"{form.variables[i].name}: negative-cost continuous variable"
            )

    outer = 1
    for i in first:
        var = form.variables[i]
        outer *= math.floor(var.upper) - math.ceil(var.lower) + 1
        if outer > ENUMERATION_GUARD:
            raise GuardError(
                f"first-stage enumeration needs {outer} > {ENUMERATION_GUARD} nodes"
            )

    blocks = _blocks(form, second)
    in_block = {i for members, _ in blocks for i in members}
    loose = [i for i in second if i not in in_block]  # vars in no row at all

    first_rows = [
        row
        for row in form.constraints
        if all(i not in second_set for i, _ in row.terms)
    ]

    best_total: Fraction | None = None
    best_assignment: dict[str, Fraction | int] | None = None

    first_ranges = [
        range(math.ceil(form.variables[i].lower), math.floor(form.variables[i].upper) + 1)
        for i in first
    ]
    for combo in itertools.product(*first_ranges):
        fixed: dict[int, Fraction] = {
            i: Fraction(value) for i, value in zip(first, combo)
        }
        if any(not _row_holds(row, fixed) for row in first_rows):
            continue
        total = sum((obj[i] * fixed[i] for i in first), Fraction(0))
        assignment: dict[str, Fraction | int] = {
            form.variables[i].name: value for i, value in zip(first, combo)
        }
        feasible = True
        for members, rows in blocks:
            result = _minimize_block(form, obj, members, rows, fixed)
            if result is None:
                feasible = False
                break
            block_cost, block_values = result
            total += block_cost
            assignment.update(block_values)
        if not feasible:
            continue
        for i in loose:
            var = form.variables[i]
            value = math.ceil(var.lower) if var.kind == "integer" else var.lower
            total += obj[i] * value
            assignment[var.name] = value
        if best_total is None or total < best_total:
            best_total, best_assignment = total, assignment

    if best_total is None or best_assignment is None:
        raise ModelError("no feasible assignment")
    return best_total, best_assignment


def _row_holds(row: Row, values: dict[int, Fraction]) -> bool:
    lhs = sum((coef * values[i] for i, coef in row.terms), Fraction(0))
    return lhs <= row.rhs if row.sense == SENSE_LE else lhs >= row.rhs


def _minimize_block(
    form: ExtensiveForm,
    obj: list[Fraction],
    members: list[int],
    rows: list[Row],
    fixed: dict[int, Fraction],
) -> tuple[Fraction, dict[str, Fraction | int]] | None:
    """Best cost of one block given the first-stage values, or None."""
    integers = [i for i in members if form.variables[i].kind == "integer"]
    continuous = [i for i in members if form.variables[i].kind == "continuous"]
    member_set = set(members)

    # Residual rhs once first-stage contributions are moved across.
    residuals: list[tuple[Row, Fraction, list[tuple[int, Fraction]]]] = []
    for row in rows:
        residual = row.rhs
        free_terms = []
        for i, coef in row.terms:
            if i in member_set:
                free_terms.append((i, coef))
            else:
                residual -= coef * fixed[i]
        residuals.append((row, residual, free_terms))

    lower: dict[int, int] = {}
    upper: dict[int, int | None] = {}
    for i in integers:
        var = form.variables[i]
        lower[i] = math.ceil(var.lower)
        upper[i] = None if var.upper is None else math.floor(var.upper)

    # Hard univariate bounds: rows reduced to a single free variable.
    for row, residual, free_terms in residuals:
        if len(free_terms) != 1 or free_terms[0][0] not in lower:
            continue
        i, coef = free_terms[0]
        limit = residual / coef
        at_most = (coef > 0) == (row.sense == SENSE_LE)
        if at_most:
            cap = math.floor(limit)
            upper[i] = cap if upper[i] is None else min(upper[i], cap)
        else:
            lower[i] = max(lower[i], math.ceil(limit))

    # Covering bounds: a variable only in all-nonnegative >= rows (over
    # variables with non-negative lower bounds) never needs to exceed the
    # largest single-row requirement.
    for i in integers:
        if upper[i] is not None:
            continue
        best_bound: int | None = None
        eligible = True
        for row, residual, free_terms in residuals:
            coefs = dict(free_terms)
            if i not in coefs:
                continue
            if (
                row.sense != SENSE_GE
                or coefs[i] <= 0
                or any(c < 0 for c in coefs.values())
                or any(form.variables[j].lower < 0 for j in coefs)
            ):
                eligible = False
                break
            need = math.ceil(residual / coefs[i])
            best_bound = need if best_bound is None else max(best_bound, need)
        if not eligible or best_bound is None:
            raise GuardError(
                f"cannot bound integer variable {form.variables[i].name}"
            )
        upper[i] = max(lower[i], best_bound)

    tight_upper: dict[int, int] = {}
    work = 1
    for i in integers:
        hi = upper[i]
        assert hi is not None
        if hi < lower[i]:
            return None
        tight_upper[i] = hi
        work *= hi - lower[i] + 1
        if work > ENUMERATION_GUARD:
            raise GuardError(
                f"block enumeration needs {work} > {ENUMERATION_GUARD} nodes"
            )

    best_cost: Fraction | None = None
    best_values: dict[str, Fraction | int] | None = None
    spans = [range(lower[i], tight_upper[i] + 1) for i in integers]
    for combo in itertools.product(*spans):
        values = dict(fixed)
        for i, value in zip(integers, combo):
            values[i] = Fraction(value)
        ok = True
        # Continuous variables: smallest value the rows allow.
        for i in continuous:
            var = form.variables[i]
            level = var.lower
            for row, _, free_terms in residuals:
                coefs = dict(free_terms)
                if i not in coefs:
                    continue
                others = [j for j in coefs if j != i and j not in values]
                if others:
                    raise GuardError(
                        f"cannot resolve coupled continuous variables in {row.name}"
                    )
                partial = sum(
                    (coef * values[j] for j, coef in row.terms if j != i), Fraction(0)
                )
                coef = coefs[i]
                if (coef > 0 and row.sense == SENSE_GE) or (
                    coef < 0 and row.sense == SENSE_LE
                ):
                    level = max(level, (row.rhs - partial) / coef)
            if var.upper is not None and level > var.upper:
                ok = False
                break
            values[i] = level
        if not ok:
            continue
        if any(not _row_holds(row, values) for row, _, _ in residuals):
            continue
        cost = sum((obj[i] * values[i] for i in members), Fraction(0))
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best_values = {
                form.variables[i].name: (
                    int(values[i]) if form.variables[i].kind == "integer" else values[i]
                )
                for i in members
            }
    if best_cost is None or best_values is None:
        return None
    return best_cost, best_values
