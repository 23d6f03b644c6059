"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import bisect
import math
import random
import tracemalloc
from dataclasses import replace
from decimal import MAX_PREC, Decimal, InvalidOperation, localcontext
from fractions import Fraction

from hypothesis import strategies as st

from qres.extform import (
    build_extensive_form,
    check_certificate,
    optimality_certificate,
    parse_lp,
    render_lp,
)
from qres.instance import CostRates, Circuit, Instance, Machine, penalty_time
from qres.recourse import RecourseDecision
from qres.solver import CircuitTable, Solution, TripleCost, circuit_tables, solve_instance
from qres.units import (
    MICRO,
    PROBABILITY_DIGITS,
    UnitError,
    check_magnitude,
    exact_decimal,
    parse_money,
)

REF_RATES = CostRates(
    reserve_per_qubit=parse_money("1.68"),
    utilize_per_qubit=parse_money("0.1"),
    on_demand_per_qubit=parse_money(7),
    penalty_per_second=parse_money(10),
)


def penalty_cost(penalty_per_second: int, over_wait: int) -> Fraction:
    """Exact penalty in micro-dollars for ``over_wait`` microseconds."""
    return Fraction(penalty_per_second * over_wait, MICRO)


def recourse_cost(rates: CostRates, decision: RecourseDecision) -> Fraction:
    """Exact cost of a recourse decision in micro-dollars."""
    return Fraction(
        rates.utilize_per_qubit * decision.utilized
        + rates.on_demand_per_qubit * decision.on_demand
    ) + penalty_cost(rates.penalty_per_second, decision.over_wait)


def exact_probabilities(space) -> tuple[Fraction, ...]:
    """Each scenario's probability, ``Fraction(w, L)`` over the space's weights."""
    common, weights = space.weights
    return tuple(Fraction(w, common) for w in weights)


def with_wait_singleton(instance: Instance, arranged_wait: int) -> Instance:
    """Copy of the instance with every wait set collapsed to one value."""
    if arranged_wait < 0:
        raise ValueError("arranged wait must be non-negative")
    return replace(
        instance,
        wait_sets={cid: (arranged_wait,) for cid in instance.wait_sets},
        wait_probs={},
    )


def usd(value) -> int:
    return parse_money(value)


def make_rates(reserve=0, utilize=0, on_demand=0, penalty=0) -> CostRates:
    """Rates from micro-dollar integers."""
    return CostRates(reserve, utilize, on_demand, penalty)


def make_instance(
    demand=(5,),
    wait=(3000,),
    *,
    rates: CostRates = REF_RATES,
    capacity: int = 30,
    exec_time: int = 5000,
    providers: int = 1,
    machines_per_provider: int = 1,
    demand_probs=None,
    wait_probs=None,
) -> Instance:
    """One-circuit instance with identical rates and timing on every triple."""
    provider_ids = tuple(f"p{i + 1}" for i in range(providers))
    machines = tuple(
        Machine(provider_id=p, machine_id=f"m{j + 1}", capacity_qubits=capacity)
        for p in provider_ids
        for j in range(machines_per_provider)
    )
    exec_times = {("c1", m.provider_id, m.machine_id): exec_time for m in machines}
    return Instance(
        circuits=(Circuit(circuit_id="c1"),),
        providers=provider_ids,
        machines=machines,
        rates={("c1", p): rates for p in provider_ids},
        exec_times=exec_times,
        demand_sets={"c1": tuple(demand)},
        wait_sets={"c1": tuple(wait)},
        demand_probs={"c1": tuple(demand_probs)} if demand_probs else {},
        wait_probs={"c1": tuple(wait_probs)} if wait_probs else {},
    )


def wide_single_triple() -> Instance:
    """One triple of 500 demands x 400 waits at capacity 0: 200,000 scenarios."""
    return make_instance(demand=range(500), wait=range(0, 400_000, 1000), capacity=0)


# A space of 200,000 scenarios holds a weight and a demand reference per
# scenario (about 11 MiB traced with its weight ints); one Scenario record
# per scenario more would bring it to about 25 MiB.
WIDE_PEAK_LIMIT = 14 * 2**20


def traced_peak(call) -> int:
    """The most memory tracemalloc sees allocated during one call."""
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - start


def audit_shaped_doc() -> dict:
    """12 triples of 40 demands x 10 waits: an LP of about 38,000 lines."""
    providers = ["p1", "p2"]
    machines = [
        {"provider": p, "machine": m, "capacity": 30}
        for p in providers
        for m in ("m1", "m2")
    ]
    circuits = [
        {
            "id": f"c{i}",
            "demand_set": {"lo": 2 * i, "hi": 2 * i + 39, "step": 1},
            "wait_set": [(1000 * i + 500 * k) / 10**6 for k in range(10)],
        }
        for i in range(3)
    ]
    return {
        "circuits": circuits,
        "providers": providers,
        "machines": machines,
        "default_rates": {"reserve": 1.68, "utilize": 0.1, "on_demand": 7, "penalty": 10},
        "exec_times": [
            {"circuit": c["id"], "provider": m["provider"], "machine": m["machine"],
             "seconds": 0.002 + 0.001 * i}
            for i, c in enumerate(circuits)
            for m in machines
        ],
    }


def solve_one_triple(
    rates: CostRates,
    demand,
    wait,
    exec_time: int,
    capacity: int,
    demand_probs=None,
    wait_probs=None,
) -> tuple[int, Fraction]:
    """Level and expected total that solve_instance gives one triple.

    Takes the seven arguments of brute_force_triple, so the two can be
    compared directly.
    """
    solution = solve_instance(
        make_instance(
            demand,
            wait,
            rates=rates,
            capacity=capacity,
            exec_time=exec_time,
            demand_probs=demand_probs,
            wait_probs=wait_probs,
        )
    )
    (level,) = solution.reservations.values()
    return level, solution.expected_total


def lp_form(instance: Instance):
    """The instance's extensive form as its LP text reads back."""
    return parse_lp(render_lp(build_extensive_form(instance)))


def certified_optimum(instance: Instance, levels, form=None) -> Fraction:
    """The optimum that the certificate of these levels proves, in dollars.

    Checked on ``form``, by default the form read back from the LP text;
    raises ModelError when the levels are not optimal.
    """
    form = lp_form(instance) if form is None else form
    return check_certificate(form, *optimality_certificate(instance, levels))


def random_probs(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    """n positive six-decimal probabilities that sum to exactly 1."""
    weights = [rng.randint(1, 1000) for _ in range(n)]
    total = sum(weights)
    micro = [max(1, w * MICRO // total) for w in weights]
    micro[micro.index(max(micro))] += MICRO - sum(micro)
    return tuple(Fraction(m, MICRO) for m in micro)


def probabilities(n: int) -> st.SearchStrategy:
    """Uniform (None), n masses of exactly 1/n, or random_probs."""
    return st.one_of(
        st.none(),
        st.just((Fraction(1, n),) * n),
        st.randoms(use_true_random=False).map(lambda rng: random_probs(rng, n)),
    )


def random_rates(rng: random.Random, max_dollars: int = 10) -> CostRates:
    """All four rates drawn from [0, max_dollars] on the micro grid."""
    hi = max_dollars * MICRO
    return CostRates(
        reserve_per_qubit=rng.randint(0, hi),
        utilize_per_qubit=rng.randint(0, hi),
        on_demand_per_qubit=rng.randint(0, hi),
        penalty_per_second=rng.randint(0, hi),
    )


def random_marginals(
    rng: random.Random, max_demand: int = 8, max_outcomes: int = 8, max_waits: int = 4
):
    n_demand = rng.randint(1, max_outcomes)
    demand = sorted(rng.sample(range(0, max_demand + 1), min(n_demand, max_demand + 1)))
    n_wait = rng.randint(1, max_waits)
    wait = sorted(rng.sample(range(0, 10001, 500), n_wait))
    demand_probs = random_probs(rng, len(demand)) if rng.random() < 0.5 else None
    wait_probs = random_probs(rng, len(wait)) if rng.random() < 0.5 else None
    return demand, wait, demand_probs, wait_probs


def random_instance(
    rng: random.Random,
    max_triples: int = 2,
    max_capacity: int = 8,
    max_demand: int = 5,
    max_outcomes: int = 4,
    max_waits: int = 3,
) -> Instance:
    """Small instance with one circuit and per-provider random rates."""
    n = rng.randint(1, max_triples)
    provider_ids = tuple(f"p{i + 1}" for i in range(n))
    machines = tuple(
        Machine(provider_id=p, machine_id="m1", capacity_qubits=rng.randint(0, max_capacity))
        for p in provider_ids
    )
    demand, wait, demand_probs, wait_probs = random_marginals(
        rng, max_demand, max_outcomes, max_waits
    )
    exec_times = {("c1", p, "m1"): rng.randint(0, 12000) for p in provider_ids}
    return Instance(
        circuits=(Circuit(circuit_id="c1"),),
        providers=provider_ids,
        machines=machines,
        rates={("c1", p): random_rates(rng) for p in provider_ids},
        exec_times=exec_times,
        demand_sets={"c1": tuple(demand)},
        wait_sets={"c1": tuple(wait)},
        demand_probs={"c1": demand_probs} if demand_probs else {},
        wait_probs={"c1": wait_probs} if wait_probs else {},
    )


def enumerate_recourse(
    reserved: int, beta: int, rates: CostRates, exec_time: int, wait_time: int
) -> tuple[int, int, Fraction]:
    """Independent oracle: exhaust integer (utilized, on_demand) pairs.

    The over-wait is decision-independent, so its (constant) cost is added
    after the scan; its independence is asserted separately.
    """
    over = penalty_time(exec_time, wait_time)
    pen = Fraction(rates.penalty_per_second * over, MICRO)
    best_pair: tuple[int, int] | None = None
    best_qubit_cost: int | None = None
    for used in range(reserved + 1):
        for extra in range(beta + 1):
            if used + extra < beta:
                continue
            cost = rates.utilize_per_qubit * used + rates.on_demand_per_qubit * extra
            if best_qubit_cost is None or cost < best_qubit_cost:
                best_pair, best_qubit_cost = (used, extra), cost
    assert best_pair is not None and best_qubit_cost is not None
    return best_pair[0], best_pair[1], Fraction(best_qubit_cost) + pen


# Money up to the 10^24-dollar limit, written with its micro digits.
LIMIT_MONEY = st.integers(0, 10**30).map(lambda m: exact_decimal(Fraction(m, MICRO)))


@st.composite
def written_probs(draw, n: int):
    """None (uniform), six-decimal weights, or 53-digit dyadic masses."""
    kind = draw(st.sampled_from(["uniform", "decimal", "dyadic"]))
    if kind == "uniform":
        return None
    if kind == "decimal":
        return [exact_decimal(p) for p in random_probs(draw(st.randoms()), n)]
    cuts = sorted(draw(st.lists(st.integers(0, 2**53), min_size=n - 1, max_size=n - 1)))
    edges = [0, *cuts, 2**53]
    return [exact_decimal(Fraction(b - a, 2**53)) for a, b in zip(edges, edges[1:])]


@st.composite
def documents_at_the_limits(draw) -> dict:
    demand = draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=3))
    wait = draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=3))
    circuit = {"id": "c1", "demand_set": demand, "wait_set": [w / MICRO for w in wait]}
    for name, n in (("demand_probs", len(demand)), ("wait_probs", len(wait))):
        probs = draw(written_probs(n))
        if probs is not None:
            circuit[name] = probs
    keys = ("reserve", "utilize", "on_demand", "penalty")
    return {
        "circuits": [circuit],
        "providers": ["p1"],
        "machines": [{"provider": "p1", "machine": "m1", "capacity": 3}],
        "default_rates": {key: draw(LIMIT_MONEY) for key in keys},
        "exec_times": [
            {"circuit": "c1", "provider": "p1", "machine": "m1",
             "seconds": draw(LIMIT_MONEY)}
        ],
    }


# --- the kernel's prices as Fraction sums --------------------------------------
# The kernel table prices in integers, and its callers add integers. These
# are the same closed forms, each made a Fraction and then summed as
# Fractions: an independent summation to compare the callers with.


def reference_qubit_cost(table: CircuitTable, rates: CostRates, reserved: int) -> Fraction:
    """Expected utilization plus on-demand cost at a level, as a Fraction."""
    if rates.utilize_per_qubit > rates.on_demand_per_qubit:
        return Fraction(rates.on_demand_per_qubit * table.demand_above[0], table.common)
    i = bisect.bisect_left(table.levels, reserved)
    covered = reserved * table.survival[i]
    above = table.demand_above[i]
    utilized = table.demand_above[0] - above + covered
    return Fraction(
        rates.utilize_per_qubit * utilized + rates.on_demand_per_qubit * (above - covered),
        table.common,
    )


def reference_penalty(table: CircuitTable, rates: CostRates, exec_time: int) -> Fraction:
    """Expected over-wait penalty, as a Fraction."""
    over_wait = sum(mass * penalty_time(exec_time, wait) for wait, mass in table.waits)
    return Fraction(rates.penalty_per_second * over_wait, table.wait_common * MICRO)


def reference_per_triple_costs(instance: Instance, reservations) -> list[TripleCost]:
    tables = circuit_tables(instance)
    rows = []
    for key in instance.triples():
        table = tables[key.circuit_id]
        rates = instance.rate(key.circuit_id, key.provider_id)
        reserved = reservations[key]
        rows.append(
            TripleCost(
                key,
                reserved,
                Fraction(rates.reserve_per_qubit * reserved),
                reference_qubit_cost(table, rates, reserved),
                reference_penalty(table, rates, instance.exec_time(*key)),
            )
        )
    return rows


def reference_expected_cost(instance: Instance, reservations) -> Solution:
    rows = tuple(reference_per_triple_costs(instance, reservations))
    first = sum((row.first_stage for row in rows), Fraction(0))
    second = sum((row.second_stage for row in rows), Fraction(0))
    penalty = sum((row.penalty for row in rows), Fraction(0))
    return Solution(
        {row.key: row.reserved for row in rows},
        first,
        second,
        penalty,
        first + second + penalty,
        rows,
    )


def reference_sweep(instance: Instance, grid) -> list[tuple]:
    """(reserved, first stage, qubit cost, penalty, total) at each level."""
    tables = circuit_tables(instance)
    triples = [
        (tables[cid], instance.rate(cid, pid), instance.exec_time(cid, pid, mid))
        for cid, pid, mid in instance.triples()
    ]
    penalty = sum(
        (reference_penalty(table, rates, t) for table, rates, t in triples), Fraction(0)
    )
    points = []
    for x in grid:
        first, second = Fraction(0), Fraction(0)
        for table, rates, _ in triples:
            first += rates.reserve_per_qubit * x
            second += reference_qubit_cost(table, rates, x)
        points.append((x, first, second, penalty, first + second + penalty))
    return points


def reference_surface(instance: Instance, x_grid, wait_grid) -> list[tuple]:
    """(reserved, arranged wait, total) at each pair, the waits certain."""
    curve = {x: first + second for x, first, second, _, _ in reference_sweep(instance, x_grid)}
    rates_and_times = [
        (instance.rate(cid, pid).penalty_per_second, instance.exec_time(cid, pid, mid))
        for cid, pid, mid in instance.triples()
    ]
    penalty = {
        wait: sum(
            (penalty_cost(rate, penalty_time(t, wait)) for rate, t in rates_and_times),
            Fraction(0),
        )
        for wait in wait_grid
    }
    return [(x, wait, curve[x] + penalty[wait]) for x in x_grid for wait in wait_grid]


def reference_decimal(value, what: str) -> Decimal:
    """A number from outside as an exact, finite Decimal, as first written.

    Each type is tested in turn, a Decimal last, and the magnitude of
    every value is checked against MAGNITUDE_LIMIT.
    """
    if isinstance(value, bool):
        raise UnitError(f"{what} must be a number, got a boolean")
    if isinstance(value, int):
        check_magnitude(value, what)
        value = Decimal(value)
    elif isinstance(value, float):
        value = Decimal(repr(value))
    elif isinstance(value, str):
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


def reference_to_micro(value, what: str) -> int:
    """Dollars or seconds in micro-units, scaled in a local exact context."""
    value = reference_decimal(value, what)
    with localcontext() as exact:
        exact.prec = MAX_PREC
        scaled = value * MICRO
    if scaled != scaled.to_integral_value():
        raise UnitError(f"{what} has sub-micro precision: {value}")
    return int(scaled)


def reference_probability(value) -> Fraction:
    """A probability read as the package read it before it skipped the Fraction.

    A ``Fraction`` is taken unchanged; anything else is made a checked
    ``Decimal`` (type, finiteness, magnitude), held to its written
    exponent, and only then made a ``Fraction``.
    """
    if isinstance(value, Fraction):
        return value
    value = reference_decimal(value, "value")
    if value.as_tuple().exponent < -PROBABILITY_DIGITS:
        raise UnitError(f"value has more than {PROBABILITY_DIGITS} fraction digits")
    return Fraction(value)


def reference_vector_read(probs) -> tuple[list[str], tuple | None]:
    """One probability vector read value by value into Fractions, then weighed.

    Each value through :func:`reference_probability`, then the vector
    over the lcm of the denominators. Returns (problems, (L, w)); an
    unreadable vector has one problem, the first value's, and no weights.
    """
    try:
        ratios = [reference_probability(p).as_integer_ratio() for p in probs]
    except UnitError as exc:
        return [str(exc)], None
    problems = []
    if any(n < 0 for n, _ in ratios):
        problems.append("probabilities must be non-negative")
    common = math.lcm(*(d for _, d in ratios))
    w = tuple(n * (common // d) for n, d in ratios)
    if sum(w) != common:
        problems.append(f"probabilities sum to {Fraction(sum(w), common)}, not 1")
    return problems, (common, w)
