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

A decision is the named tuple ``(utilized, on_demand, over_wait)``.
:func:`qubit_costs` is the same rule in cost form: the utilization plus
on-demand cost of the optimal decision, for each scenario demand of a
sequence at one level. The scenario-route oracles (:mod:`qres.oracles`)
price through it, and through :func:`penalty_time` for the over-wait,
which takes no level. The kernel shares that rule, so it lives in
:mod:`qres.instance`, and no kernel command loads this module.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

from .instance import CostRates, penalty_time

if TYPE_CHECKING:
    from .scenarios import Scenario


class RecourseDecision(NamedTuple):
    utilized: int
    on_demand: int
    over_wait: int  # microseconds


def optimal_recourse(
    reserved: int, scenario: Scenario, rates: CostRates, exec_time: int
) -> RecourseDecision:
    """Cheapest feasible second-stage decision for one scenario.

    Demand is met exactly (utilized + on_demand equals the scenario
    demand): over-provisioning can never reduce cost at non-negative
    rates, and the convention makes the minimizer unique.
    """
    _check_reserved(reserved)
    beta = scenario.demand_qubits
    utilized = 0
    if rates.utilize_per_qubit <= rates.on_demand_per_qubit:
        utilized = min(reserved, beta)
    return RecourseDecision(
        utilized, beta - utilized, penalty_time(exec_time, scenario.wait_time)
    )


def qubit_costs(
    reserved: int, demands: Iterable[int], rates: CostRates
) -> Iterator[int]:
    """Utilization plus on-demand cost of the optimal recourse, per scenario.

    ``demands`` holds each scenario's demand beta, in scenario order.
    Yields, in that order, the integer micro-dollar cost of the qubits of
    :func:`optimal_recourse` at level ``reserved``: u * beta when the
    reservation covers demand beta, else o * beta - (o - u) * reserved,
    and o * beta when u > o. A negative level is refused here, before any
    demand is read.
    """
    _check_reserved(reserved)
    utilize, on_demand = rates.utilize_per_qubit, rates.on_demand_per_qubit
    if utilize > on_demand:
        return (on_demand * beta for beta in demands)
    rebate = (on_demand - utilize) * reserved
    return (
        utilize * beta if beta <= reserved else on_demand * beta - rebate
        for beta in demands
    )


def _check_reserved(reserved: int) -> None:
    if reserved < 0:
        raise ValueError(f"reserved must be non-negative, got {reserved}")
