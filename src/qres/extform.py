"""Deterministic-equivalent MILP: explicit matrix, LP text export, enumeration.

The two-stage program is replicated per scenario into one mixed-integer
program: a reservation variable per triple, plus utilization, on-demand,
and over-wait variables per (triple, scenario), with scenario
probabilities multiplied into the objective coefficients. Coefficients
are exact rationals in dollars and seconds, and the LP writer prints them
as exact finite decimals, so export followed by parse reproduces the
form bit for bit.

A form has far fewer distinct values than terms. A scenario's
coefficient is its integer weight times an integer micro-unit rate over
the space's common denominator times 10^6, built once per distinct
weight of a triple; each rhs is built once per distinct demand and wait,
and the unit coefficients, zero rhs and lower bounds share one object
each. The writer formats each distinct value once, and yields the text
in chunks of whole lines (`lp_chunks`), so a caller can write each chunk
as it is made instead of holding the whole LP beside the form; every
name is checked before the first chunk.

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
from .scenarios import circuit_marginals, space_for_circuit
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


def build_extensive_form(instance: Instance) -> ExtensiveForm:
    """Explicit deterministic equivalent of an instance.

    Variable order: triples sorted by id, and per triple the reservation
    variable followed by (utilize, on-demand, over-wait) per scenario.
    Names carry zero-based circuit/provider/machine positions and the
    scenario index; that naming is a frozen contract (golden files and
    the enumeration solver rely on it). A negative capacity, an unknown
    circuit, or a form of more than GRID_GUARD scenarios summed over all
    triples, is refused before any scenario space is built.
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

    variables: list[Variable] = []
    objective: list[tuple[int, Fraction]] = []
    rows: list[Row] = []
    new = tuple.__new__  # a record per term: skip the generated __new__ frame

    for cid, pid, mid in triples:
        tag = f"c{circuit_pos[cid]}_p{provider_pos[pid]}_m{machine_pos[(pid, mid)]}"
        rates = instance.rate(cid, pid)
        capacity = instance.machine(pid, mid).capacity_qubits
        exec_time = instance.exec_time(cid, pid, mid)
        space = spaces[cid]
        # p == w / L exactly, so p * rate / MICRO == w * rate / (L * MICRO).
        common, weights = space.weights
        scale = common * MICRO
        coefs = {
            w: (
                Fraction(w * rates.utilize_per_qubit, scale),
                Fraction(w * rates.on_demand_per_qubit, scale),
                Fraction(w * rates.penalty_per_second, scale),
            )
            for w in set(weights)
        }
        demand_rhs = {d: Fraction(d) for d in outcomes[cid].demands}
        wait_rhs = {a: Fraction(a - exec_time, MICRO) for a in outcomes[cid].waits}

        xr = len(variables)
        variables.append(new(Variable, (f"xr_{tag}", "integer", _ZERO, Fraction(capacity))))
        objective.append((xr, Fraction(rates.reserve_per_qubit, MICRO)))
        for si, (scenario, w) in enumerate(zip(space.scenarios, weights)):
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
    lines = _lp_lines(form, names)
    while batch := list(itertools.islice(lines, _CHUNK_LINES)):
        yield "\n".join(batch) + "\n"


def render_lp(form: ExtensiveForm) -> str:
    """The LP text for a form (LF line endings, ASCII)."""
    return "".join(lp_chunks(form))


def _lp_lines(form: ExtensiveForm, names: list[str]) -> Iterator[str]:
    # A form repeats few distinct values many times: format each once. The
    # form keeps every value alive while it is written, so a value's id is
    # a safe first key; equal values that are distinct objects meet under
    # their integers (hashing a Fraction costs a modular pow). A value has
    # two texts, indexed by whether a term precedes it in its sum: "-0.5"
    # and "- 0.5", "2" and "+ 2". The term loops read by_id inline and
    # call decimal() only for a value not seen yet.
    by_id: dict[int, tuple[str, str]] = {}
    by_value: dict[tuple[int, int], tuple[str, str]] = {}

    def decimal(value: Fraction) -> tuple[str, str]:
        texts = by_id.get(id(value))
        if texts is None:
            key = value.numerator, value.denominator
            texts = by_value.get(key)
            if texts is None:
                text = exact_decimal(value)
                texts = text, f"- {text[1:]}" if text[0] == "-" else f"+ {text}"
                by_value[key] = texts
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


def _parse_terms(tokens: list[str], line_no: int) -> list[tuple[Fraction, str]]:
    terms: list[tuple[Fraction, str]] = []
    pos = 0
    while pos < len(tokens):
        sign = 1
        tok = tokens[pos]
        if tok in ("+", "-"):
            sign = -1 if tok == "-" else 1
            pos += 1
        if pos + 1 >= len(tokens):
            raise LpParseError(f"line {line_no}: truncated term")
        try:
            coef = sign * fraction_from_decimal(tokens[pos])
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
    is recovered from the objective, which lists every variable.
    """
    section = None
    objective_terms: list[tuple[Fraction, str]] = []
    raw_rows: list[tuple[str, list[tuple[Fraction, str]], str, Fraction]] = []
    bounds: dict[str, tuple[Fraction, Fraction]] = {}
    generals: set[str] = set()
    saw_end = False

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
            terms = _parse_terms(tokens, line_no)
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
            terms = _parse_terms(tokens[:sense_pos], line_no)
            if not terms:
                raise LpParseError(f"line {line_no}: constraint with no terms")
            try:
                rhs = fraction_from_decimal(tokens[-1])
            except ValueError as exc:
                raise LpParseError(f"line {line_no}: bad rhs {tokens[-1]!r}") from exc
            raw_rows.append((name, terms, tokens[sense_pos], rhs))
        elif section == "Bounds":
            tokens = line.split()
            if len(tokens) != 5 or tokens[1] != SENSE_LE or tokens[3] != SENSE_LE:
                raise LpParseError(f"line {line_no}: expected 'lo <= var <= hi'")
            try:
                lo = fraction_from_decimal(tokens[0])
                hi = fraction_from_decimal(tokens[4])
            except ValueError as exc:
                raise LpParseError(f"line {line_no}: bad bound value") from exc
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
    for coef, name in objective_terms:
        if name in index_of:
            raise LpParseError(f"variable {name} listed twice in objective")
        index_of[name] = len(variables)
        lower, upper = bounds.get(name, (Fraction(0), None))
        variables.append(
            Variable(
                name=name,
                kind="integer" if name in generals else "continuous",
                lower=lower,
                upper=upper,
            )
        )
        objective.append((index_of[name], coef))

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
        rows.append(Row(name=name, terms=tuple(indexed), sense=sense, rhs=rhs))

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
