"""The LP text of the deterministic equivalent, written straight from plans.

A form has far fewer distinct values than terms. Everything the model
decides for a triple is computed once into its :class:`TriplePlan`: its
name tag, the reservation coefficient and capacity bound, its circuit's
scenario space, the coefficients per distinct scenario weight (the
integer weight times an integer micro-unit rate over the space's common
denominator times 10^6), and the rhs per distinct demand and wait. The
space is read as the ``(demand, wait, weight)`` triples it yields, so no
scenario record is made. The unit coefficients, zero rhs and lower
bounds share one object each.

`plan_lp_chunks` writes the LP text from the plans, and `export-lp` runs
it, loading this module and not :mod:`qres.extform`, so no record of the
form is ever built there. It checks every name before the first chunk,
then makes each scenario's lines of a section with one format, a batch
of scenarios at a time, and yields the text in chunks of whole lines, so
the caller writes each chunk as it is made and never holds the whole LP.
Its bytes equal ``render_lp(build_extensive_form(instance))``, and like
`render_lp` it formats each distinct value once, through `_formatter`.

This module also holds the LP grammar that :mod:`qres.extform`'s writer
and parser share: the name pattern, the section keywords and the senses.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple

from .instance import GRID_GUARD, GuardError, Instance, check_capacity, circuit_marginals
from .scenarios import ScenarioSpace, product_space
from .units import MICRO, exact_decimal

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]{0,254}")
_SECTIONS = ("Minimize", "Subject To", "Bounds", "Generals", "End")
# Lines per chunk of LP text: enough to amortise each write, few enough
# that a chunk is a small fraction of the whole text.
_CHUNK_LINES = 4096

SENSE_LE = "<="
SENSE_GE = ">="

# Fractions are immutable, so every unit coefficient, zero rhs and lower
# bound of a form can be one shared object.
_ZERO, _ONE, _MINUS_ONE = Fraction(0), Fraction(1), Fraction(-1)


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
    is a frozen contract (golden files rely on it). A negative capacity, an
    unknown circuit, or a form of more than GRID_GUARD scenarios summed
    over all triples, is refused before any scenario space is built.
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

    spaces = {cid: product_space(cid, m) for cid, m in outcomes.items()}

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


def plan_size(plans: list[TriplePlan]) -> tuple[int, int]:
    """The variables and rows of the form of these plans, counted from the spaces."""
    scenarios = sum(len(plan.space) for plan in plans)
    return len(plans) + 3 * scenarios, 3 * scenarios


def _formatter() -> Callable[[Fraction], tuple[str, str]]:
    """A memo of each value's two texts, by whether a term precedes it in its sum.

    "-0.5" and "- 0.5", "2" and "+ 2". A form repeats few distinct values
    many times, so each is formatted once; the memo is keyed by a value's
    integers, as hashing a Fraction costs a modular pow.
    """
    memo: dict[tuple[int, int], tuple[str, str]] = {}

    def texts(value: Fraction) -> tuple[str, str]:
        key = value.numerator, value.denominator
        found = memo.get(key)
        if found is None:
            text = exact_decimal(value)
            found = memo[key] = text, f"- {text[1:]}" if text[0] == "-" else f"+ {text}"
        return found

    return texts


def plan_lp_chunks(plans: list[TriplePlan]) -> Iterator[str]:
    """The LP text of the form of these plans, made without the form.

    The chunks join to ``render_lp(build_extensive_form(instance))`` for
    ``plans = plan_form(instance)``, and every name is checked as
    :func:`~qres.extform.render_lp` checks it, before the first chunk.
    Each chunk is whole lines, at most ``_CHUNK_LINES`` of them.
    """
    # Within a triple every name is a short prefix, the tag and a scenario
    # suffix, and wait_{tag}_s{n-1} is the longest: when it can be written
    # every name of the triple can. When one cannot, the form's own check
    # names the first name that fails.
    if not all(_NAME_RE.fullmatch(f"wait_{p.tag}_s{len(p.space) - 1}") for p in plans):
        from .extform import _form, render_lp

        render_lp(_form(plans))
    chunk: list[str] = []
    size = 0
    for lines, text in _pieces(plans):
        if size + lines > _CHUNK_LINES:
            yield "".join(chunk)
            chunk, size = [], 0
        chunk.append(text)
        size += lines
    yield "".join(chunk)


def _pieces(plans: list[TriplePlan]) -> Iterator[tuple[int, str]]:
    # The lines render_lp prints for the form of these plans, in its order
    # and layouts, as (line count, text) pieces of at most _CHUNK_LINES
    # lines: a section keyword, a triple's reservation line, or the lines
    # of one batch of a triple's scenarios, which each scenario makes with
    # one format. Each distinct value of a plan is formatted once.
    texts = _formatter()
    zero, one, minus_one = texts(_ZERO)[0], texts(_ONE), texts(_MINUS_ONE)

    yield 1, "Minimize\n"
    for i, plan in enumerate(plans):
        tag, reserve = plan.tag, texts(plan.reserve)
        term = f" obj: {reserve[0]}" if i == 0 else f" {reserve[1]}"
        yield 1, f"{term} xr_{tag}\n"
        coefs = {w: [texts(c)[1] for c in cs] for w, cs in plan.coefs.items()}
        scenarios = map(coefs.__getitem__, plan.space.weights[1])
        for names in _batches(plan):
            lines = [
                f" {cu} xu_{s}\n {co} xo_{s}\n {cp} y_{s}\n"
                for s, (cu, co, cp) in zip(names, scenarios)
            ]
            yield 3 * len(lines), "".join(lines)
    yield 1, "Subject To\n"
    for plan in plans:
        demand = {d: texts(v)[0] for d, v in plan.demand_rhs.items()}
        wait = {a: texts(v)[0] for a, v in plan.wait_rhs.items()}
        # The text between a scenario's names in its three rows, made once
        # per triple, so that each scenario's rows fill few fields.
        use = f": {one[0]} xu_"
        use_end = f" {minus_one[1]} xr_{plan.tag} {SENSE_LE} {zero}\n dem_"
        over = f" {one[1]} xo_"
        slack = f": {minus_one[0]} y_"
        scenarios = iter(plan.space)
        for names in _batches(plan):
            lines = [
                f" use_{s}{use}{s}{use_end}{s}{use}{s}{over}{s} {SENSE_GE} {demand[d]}\n"
                f" wait_{s}{slack}{s} {SENSE_LE} {wait[a]}\n"
                for s, (d, a, _) in zip(names, scenarios)
            ]
            yield 3 * len(lines), "".join(lines)
    yield 1, "Bounds\n"
    for plan in plans:
        yield 1, f" {zero} <= xr_{plan.tag} <= {texts(plan.capacity)[0]}\n"
    yield 1, "Generals\n"
    for plan in plans:
        yield 1, f" xr_{plan.tag}\n"
        for names in _batches(plan):
            yield 2 * len(names), "".join([f" xu_{s}\n xo_{s}\n" for s in names])
    yield 1, "End\n"


def _batches(plan: TriplePlan) -> Iterator[list[str]]:
    """The name suffixes ``{tag}_s{i}`` of a triple's scenarios, a batch at a time.

    A batch's lines fill at most one chunk. Each scenario index is written
    out once per section, not once per name that holds it.
    """
    tag, n, batch = plan.tag, len(plan.space), _CHUNK_LINES // 3
    for start in range(0, n, batch):
        yield [f"{tag}_s{i}" for i in range(start, min(n, start + batch))]
