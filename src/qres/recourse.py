"""Closed-form second stage: utilization, on-demand top-up, over-waiting.

Once a scenario is observed, the cheapest feasible recourse for one
(circuit, provider, machine) triple has a closed form. Utilized qubits are
capped by the reservation and by demand; whatever demand remains is bought
on demand; over-waiting is the positive part of execution time minus the
scenario's wait time and does not depend on any qubit decision.

Tie conventions (they keep outputs unique and comparable to brute force):
utilization wins when its rate equals the on-demand rate, utilization is
filled to min(reserved, demand) when it is free, and the over-wait is its
smallest feasible value even when the penalty rate is zero.

A decision is the named tuple ``(utilized, on_demand, over_wait)``; the
scenario-route oracles unpack it in that order. The oracle makes one
decision per (scenario, level), so :func:`optimal_recourse` builds it with
``tuple.__new__`` (still exactly a :class:`RecourseDecision`, without the
generated ``__new__`` frame) and :func:`penalty_time` takes the positive
part with a conditional rather than a ``max()`` call.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .instance import CostRates
from .scenarios import Scenario
from .units import MICRO


class RecourseDecision(NamedTuple):
    utilized: int
    on_demand: int
    over_wait: int  # microseconds


def penalty_time(exec_time: int, wait_time: int) -> int:
    """Over-waiting in microseconds: max(0, exec_time - wait_time)."""
    if exec_time < 0 or wait_time < 0:
        raise ValueError("times must be non-negative")
    return exec_time - wait_time if exec_time > wait_time else 0


def penalty_cost(penalty_per_second: int, over_wait: int) -> Fraction:
    """Exact penalty in micro-dollars for ``over_wait`` microseconds."""
    return Fraction(penalty_per_second * over_wait, MICRO)


def recourse_cost(rates: CostRates, decision: RecourseDecision) -> Fraction:
    """Exact cost of a decision in micro-dollars."""
    return Fraction(
        rates.utilize_per_qubit * decision.utilized
        + rates.on_demand_per_qubit * decision.on_demand
    ) + penalty_cost(rates.penalty_per_second, decision.over_wait)


def optimal_recourse(
    reserved: int, scenario: Scenario, rates: CostRates, exec_time: int
) -> RecourseDecision:
    """Cheapest feasible second-stage decision for one scenario.

    Demand is met exactly (utilized + on_demand equals the scenario
    demand): over-provisioning can never reduce cost at non-negative
    rates, and the convention makes the minimizer unique.
    """
    if reserved < 0:
        raise ValueError(f"reserved must be non-negative, got {reserved}")
    beta = scenario.demand_qubits
    utilized = 0
    if rates.utilize_per_qubit <= rates.on_demand_per_qubit:
        utilized = reserved if reserved < beta else beta
    return tuple.__new__(
        RecourseDecision,
        (utilized, beta - utilized, penalty_time(exec_time, scenario.wait_time)),
    )
