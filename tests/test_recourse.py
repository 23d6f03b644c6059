from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import REF_RATES, enumerate_recourse, make_rates, recourse_cost
from qres.recourse import (
    RecourseDecision,
    optimal_recourse,
    penalty_time,
    qubit_costs,
)
from qres.scenarios import Scenario


def scen(beta: int, wait: int = 5000) -> Scenario:
    return Scenario(demand_qubits=beta, wait_time=wait)


def test_reservation_covers_demand():
    d = optimal_recourse(15, scen(12), REF_RATES, exec_time=5000)
    assert (d.utilized, d.on_demand, d.over_wait) == (12, 0, 0)
    assert recourse_cost(REF_RATES, d) == Fraction(1_200_000)  # 12 qubits at 0.1 $


def test_demand_exceeds_reservation():
    d = optimal_recourse(10, scen(22), REF_RATES, exec_time=5000)
    assert (d.utilized, d.on_demand, d.over_wait) == (10, 12, 0)
    assert recourse_cost(REF_RATES, d) == Fraction(85_000_000)  # 10*0.1 + 12*7 dollars


def test_over_waiting_charged():
    d = optimal_recourse(3, scen(5, wait=9000), REF_RATES, exec_time=12000)
    assert d.over_wait == 3000
    assert recourse_cost(REF_RATES, d) == (
        Fraction(100_000 * 3 + 7_000_000 * 2) + Fraction(30_000)
    )


def test_decision_holds_only_its_quantities():
    assert RecourseDecision._fields == ("utilized", "on_demand", "over_wait")
    d = optimal_recourse(10, scen(22), REF_RATES, exec_time=5000)
    assert d == RecourseDecision(10, 12, 0)


def test_penalty_time_examples():
    assert penalty_time(12000, 9000) == 3000
    assert penalty_time(4000, 9000) == 0
    assert penalty_time(7000, 7000) == 0


def test_penalty_time_rejects_negative():
    with pytest.raises(ValueError):
        penalty_time(-1, 0)


def test_tie_between_rates_prefers_utilization():
    rates = make_rates(utilize=5, on_demand=5, penalty=0)
    d = optimal_recourse(4, scen(9), rates, exec_time=0)
    assert (d.utilized, d.on_demand) == (4, 5)


def test_free_utilization_fills_reservation_first():
    rates = make_rates(utilize=0, on_demand=3, penalty=0)
    d = optimal_recourse(6, scen(4), rates, exec_time=0)
    assert (d.utilized, d.on_demand) == (4, 0)


def test_expensive_utilization_goes_all_on_demand():
    rates = make_rates(utilize=9, on_demand=5, penalty=0)
    d = optimal_recourse(6, scen(4), rates, exec_time=0)
    assert (d.utilized, d.on_demand) == (0, 4)


RATE_GRID = [0, 100_000, 1_000_000, 7_000_000, 10_000_000]


def test_matches_exhaustive_enumeration_small_grid():
    for reserved in range(5):
        for beta in range(5):
            for u in RATE_GRID:
                for o in RATE_GRID:
                    rates = make_rates(utilize=u, on_demand=o, penalty=10_000_000)
                    got = optimal_recourse(reserved, scen(beta), rates, exec_time=7000)
                    _, _, best = enumerate_recourse(reserved, beta, rates, 7000, 5000)
                    assert recourse_cost(rates, got) == best


def test_decisions_always_feasible_and_cost_exact():
    rng = random.Random(2101)
    for _ in range(300):
        rates = make_rates(
            utilize=rng.randint(0, 10**7),
            on_demand=rng.randint(0, 10**7),
            penalty=rng.randint(0, 10**7),
        )
        reserved = rng.randint(0, 12)
        s = scen(rng.randint(0, 12), wait=rng.randint(0, 10000))
        t = rng.randint(0, 12000)
        d = optimal_recourse(reserved, s, rates, t)
        assert 0 <= d.utilized <= reserved
        assert d.utilized + d.on_demand >= s.demand_qubits
        assert t <= s.wait_time + d.over_wait
        assert recourse_cost(rates, d) == Fraction(
            rates.utilize_per_qubit * d.utilized
            + rates.on_demand_per_qubit * d.on_demand
        ) + Fraction(rates.penalty_per_second * d.over_wait, 10**6)


def test_over_wait_independent_of_reservation():
    rates = REF_RATES
    for beta in range(6):
        waits = {
            optimal_recourse(reserved, scen(beta, wait=4000), rates, 9000).over_wait
            for reserved in range(9)
        }
        assert waits == {5000}


def test_cost_non_increasing_in_reservation_when_utilization_cheaper():
    rng = random.Random(2102)
    for _ in range(100):
        u = rng.randint(0, 5_000_000)
        o = rng.randint(u, 10_000_000)
        rates = make_rates(utilize=u, on_demand=o, penalty=rng.randint(0, 10**7))
        s = scen(rng.randint(0, 10), wait=rng.randint(0, 9000))
        t = rng.randint(0, 12000)
        costs = [
            recourse_cost(rates, optimal_recourse(r, s, rates, t)) for r in range(11)
        ]
        assert all(a >= b for a, b in zip(costs, costs[1:]))


# Small values make ties and off-by-one neighbours common; large ones stay in.
quantities = st.integers(0, 30) | st.integers(0, 10**9)
money = st.integers(0, 10**8)


@given(
    reserved=quantities,
    beta=quantities,
    wait=quantities,
    exec_time=quantities,
    utilize=money,
    on_demand=money,
)
@example(reserved=3, beta=5, wait=7000, exec_time=7000, utilize=9, on_demand=5)
@example(reserved=8, beta=5, wait=2000, exec_time=7000, utilize=5, on_demand=5)
def test_decision_is_the_textbook_tuple(reserved, beta, wait, exec_time, utilize, on_demand):
    rates = make_rates(utilize=utilize, on_demand=on_demand, penalty=10)
    d = optimal_recourse(reserved, scen(beta, wait), rates, exec_time)
    assert type(d) is RecourseDecision
    used = min(reserved, beta) if utilize <= on_demand else 0
    late = max(0, exec_time - wait)
    assert d == (used, beta - used, late)
    assert (d.utilized, d.on_demand, d.over_wait) == (used, beta - used, late)
    assert penalty_time(exec_time, wait) == late


def test_penalty_time_is_the_positive_part_on_a_small_grid():
    for exec_time, wait in itertools.product(range(6), repeat=2):
        late = max(0, exec_time - wait)
        assert penalty_time(exec_time, wait) == late
        assert optimal_recourse(2, scen(3, wait), REF_RATES, exec_time).over_wait == late


@given(negative=st.integers(max_value=-1), other=quantities)
def test_negative_time_or_reservation_raises(negative, other):
    with pytest.raises(ValueError):
        penalty_time(negative, other)
    with pytest.raises(ValueError):
        penalty_time(other, negative)
    with pytest.raises(ValueError):
        optimal_recourse(negative, scen(other, other), REF_RATES, other)
    with pytest.raises(ValueError):
        optimal_recourse(other, scen(other, negative), REF_RATES, other)
    with pytest.raises(ValueError):
        optimal_recourse(other, scen(other, other), REF_RATES, negative)


# Rates from 0 to 10^9 micro-dollars; small values make u == o and zeros common.
rates_up_to_1e9 = st.integers(0, 3) | st.integers(0, 10**9)


@settings(derandomize=True, max_examples=300)
@given(
    reserved=quantities,
    offsets=st.lists(st.integers(-3, 3), max_size=8),
    others=st.lists(quantities, max_size=8),
    utilize=rates_up_to_1e9,
    on_demand=rates_up_to_1e9,
    exec_time=quantities,
)
@example(reserved=4, offsets=[-1, 0, 1], others=[0, 0], utilize=5, on_demand=9, exec_time=7)
@example(reserved=4, offsets=[-1, 0, 1], others=[0, 0], utilize=9, on_demand=9, exec_time=7)
@example(reserved=4, offsets=[-1, 0, 1], others=[0, 0], utilize=9, on_demand=5, exec_time=7)
@example(reserved=4, offsets=[-1, 0, 1], others=[0, 0], utilize=0, on_demand=0, exec_time=7)
@example(reserved=0, offsets=[0, 1], others=[0], utilize=0, on_demand=10**9, exec_time=0)
def test_qubit_costs_price_the_optimal_decisions(
    reserved, offsets, others, utilize, on_demand, exec_time
):
    # Demands on both sides of the level, at it, at 0, and repeated.
    demands = [0, reserved, *(max(0, reserved + k) for k in offsets), *others, reserved]
    scenarios = [scen(beta, wait) for wait, beta in enumerate(demands)]
    rates = make_rates(utilize=utilize, on_demand=on_demand, penalty=10)
    costs = list(qubit_costs(reserved, demands, rates))
    assert len(costs) == len(scenarios)
    for cost, scenario in zip(costs, scenarios):
        d = optimal_recourse(reserved, scenario, rates, exec_time)
        assert cost == utilize * d.utilized + on_demand * d.on_demand


def test_qubit_costs_refuse_a_negative_level_when_called():
    # Raised by the call itself, before any demand is read.
    for rates in (REF_RATES, make_rates(utilize=9, on_demand=5)):
        demands = iter([3])
        with pytest.raises(ValueError, match="reserved must be non-negative, got -1"):
            qubit_costs(-1, demands, rates)
        assert next(demands) == 3
