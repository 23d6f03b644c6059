"""Scenario-route oracles: the checks of the kernel in :mod:`qres.solver`.

The scenario route prices every (demand, wait) scenario at every level
through the recourse rule: each level's qubit cost is one integer dot
product of the scenario weights with the costs that
:func:`~qres.recourse.qubit_costs` streams from the space's scenario
demands, and each triple's over-wait penalty is one sum of
:func:`~qres.recourse.penalty_time` over its scenarios, as the over-wait
takes no level. The qubit cost depends on the circuit, the rates and the
level, not on the machine, so :func:`verify_solution` prices each level
once per circuit and distinct rates, for all the machines that share
them. The route reads no kernel table and uses no survival or convexity
argument; only the ``--seed`` spot check of :func:`verify_solution`
prices random vectors with the kernel's :func:`~qres.solver.circuit_tables`.

:func:`brute_force_triple`, :func:`scenario_costs`,
:func:`joint_enumeration_oracle` and :func:`verify_solution`
(``qres solve --oracle``, the only command that loads this module) use
the route, and the tests compare it with the kernel. A brute-force check
is refused before any space is built when a capacity exceeds
BRUTE_FORCE_CAPACITY_GUARD or its scenario evaluations, the (level,
scenario) pairs it covers, exceed BRUTE_FORCE_WORK_GUARD. All
expectations are exact rationals (see :mod:`qres.units`), so the routes
are compared with ``==``.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from operator import attrgetter, mul
from typing import Mapping, Sequence

from .instance import (
    CostRates,
    GuardError,
    Instance,
    ModelError,
    TripleKey,
    check_capacity,
)
from .recourse import penalty_time, qubit_costs
from .scenarios import ScenarioSpace, build_space, space_for_circuit
from .solver import (
    Solution,
    TripleCost,
    _checked_levels,
    _solution,
    circuit_tables,
    exact_sum,
)
from .units import MICRO, format_micro

BRUTE_FORCE_CAPACITY_GUARD = 10**4
# Scenario evaluations in one brute-force check: the (level, scenario) pairs
# it covers, not the fewer it prices. Machines that share rates share
# their priced levels, so on audit seed 1 the check covers 148,800 pairs
# and prices 74,400.
BRUTE_FORCE_WORK_GUARD = 10**8
JOINT_ENUMERATION_GUARD = 10**6
SPOT_CHECK_VECTORS = 20


def _penalty_expectation(
    space: ScenarioSpace, rates: CostRates, exec_time: int
) -> Fraction:
    """Expected over-wait penalty in micro-dollars, scenario by scenario.

    The over-wait takes no level, so a triple takes this sum once.
    """
    common, weights = space.weights
    over_wait = sum(
        weight * penalty_time(exec_time, scenario.wait_time)
        for scenario, weight in zip(space.scenarios, weights)
    )
    return Fraction(rates.penalty_per_second * over_wait, common * MICRO)


def _qubit_numerators(
    space: ScenarioSpace, rates: CostRates, levels: Sequence[int]
) -> list[int]:
    """Each level's expected utilization plus on-demand cost, times L.

    L is the space's common denominator. This is the oracle's evaluation
    path, independent of the kernel's closed forms: per level, one integer
    dot product of the space's weights with the costs
    :func:`~qres.recourse.qubit_costs` streams from its scenario demands.
    The costs depend on the rates and the level only, so the machines that
    share rates share them.
    """
    _, weights = space.weights
    return [
        sum(map(mul, weights, qubit_costs(x, space.demands, rates))) for x in levels
    ]


def _scenario_rows(
    instance: Instance, space: ScenarioSpace, key: TripleKey, levels: Sequence[int]
) -> list[TripleCost]:
    """One triple's cost rows at some levels, priced scenario by scenario."""
    rates = instance.rate(key.circuit_id, key.provider_id)
    penalty = _penalty_expectation(space, rates, instance.exec_time(*key))
    common, _ = space.weights
    return [
        TripleCost(
            key=key,
            reserved=reserved,
            first_stage=Fraction(rates.reserve_per_qubit * reserved),
            second_stage=Fraction(numerator, common),
            penalty=penalty,
        )
        for reserved, numerator in zip(
            levels, _qubit_numerators(space, rates, levels)
        )
    ]


def scenario_costs(
    instance: Instance, reservations: Mapping[tuple[str, str, str], int]
) -> list[TripleCost]:
    """Oracle for :func:`~qres.solver.per_triple_costs`: the same rows, per scenario."""
    spaces: dict[str, ScenarioSpace] = {}
    rows = []
    for key, reserved, _ in _checked_levels(instance, reservations):
        if key.circuit_id not in spaces:
            spaces[key.circuit_id] = space_for_circuit(instance, key.circuit_id)
        rows += _scenario_rows(instance, spaces[key.circuit_id], key, (reserved,))
    return rows


def _check_scan(scans: list[tuple[int, int]]) -> None:
    """The brute-force guards over (capacity, scenario count) scans.

    Checked before any space is built: each capacity first, then the
    scenario evaluations of all the scans together. Those are the
    (level, scenario) pairs the scans cover, (capacity + 1) * size each,
    even where :func:`verify_solution` prices a level once for several
    machines: 148,800 pairs on audit seed 1, of which it prices 74,400.
    """
    for capacity, _ in scans:
        if capacity > BRUTE_FORCE_CAPACITY_GUARD:
            raise GuardError(
                f"capacity {capacity} exceeds guard {BRUTE_FORCE_CAPACITY_GUARD}"
            )
        check_capacity(capacity)
    work = sum((capacity + 1) * size for capacity, size in scans)
    if work > BRUTE_FORCE_WORK_GUARD:
        raise GuardError(
            f"brute force needs {work} scenario evaluations, "
            f"more than guard {BRUTE_FORCE_WORK_GUARD}"
        )


def _space_size(instance: Instance, circuit_id: str) -> int:
    """Scenarios in a circuit's product space, counted without building it."""
    demands = instance.demand_sets.get(circuit_id, ())
    return len(demands) * len(instance.wait_sets.get(circuit_id, ()))


def _cheapest(
    space: ScenarioSpace,
    rates: CostRates,
    exec_time: int,
    capacity: int,
    numerators: list[int],
) -> tuple[int, Fraction]:
    """Smallest argmin over [0, capacity] of the scenario-route total.

    ``numerators`` are the levels' qubit costs from :func:`_qubit_numerators`,
    at least up to ``capacity``. The levels are compared in integers over
    the space's common denominator; the over-wait penalty takes no level,
    so it is summed once and added to the winner only.
    """
    common, _ = space.weights
    reserve = rates.reserve_per_qubit * common
    best_x = min(range(capacity + 1), key=lambda x: reserve * x + numerators[x])
    qubits = Fraction(reserve * best_x + numerators[best_x], common)
    return best_x, qubits + _penalty_expectation(space, rates, exec_time)


def _scan(
    space: ScenarioSpace, rates: CostRates, exec_time: int, capacity: int
) -> tuple[int, Fraction]:
    """Price every level in [0, capacity], then take the smallest argmin."""
    numerators = _qubit_numerators(space, rates, range(capacity + 1))
    return _cheapest(space, rates, exec_time, capacity, numerators)


def brute_force_triple(
    rates: CostRates,
    demand_set,
    wait_set,
    exec_time: int,
    capacity: int,
    demand_probs=None,
    wait_probs=None,
) -> tuple[int, Fraction]:
    """Oracle for the kernel's level: scan every level in [0, capacity].

    The triple is given by its rates, marginals, execution time and
    capacity. Evaluates the full expectation over every scenario at every
    level through :func:`~qres.recourse.qubit_costs` and
    :func:`~qres.recourse.penalty_time` and keeps the smallest argmin,
    independently of the marginal analysis.
    """
    demand_set, wait_set = tuple(demand_set), tuple(wait_set)
    _check_scan([(capacity, len(demand_set) * len(wait_set))])
    space = build_space("triple", demand_set, wait_set, demand_probs, wait_probs)
    return _scan(space, rates, exec_time, capacity)


def verify_solution(
    instance: Instance, solution: Solution, seed: int | None = None
) -> tuple[int, int]:
    """Re-derive every level of a solution by brute force; raise on a mismatch.

    A solution of other triples is a mismatch. Each circuit's space is
    built once. Its levels are priced once per distinct rates, up to the
    largest capacity among the triples that share them, and each triple
    then takes the smallest argmin over its own levels, as
    :func:`brute_force_triple` does for one. With a seed, also price
    SPOT_CHECK_VECTORS random reservation vectors with the kernel and raise
    if one costs less than the solution. Returns how many levels the check
    covers and how many (level, scenario) pairs.
    """
    rows = {row.key: row for row in solution.per_triple}
    checked = _checked_levels(instance, {k: r.reserved for k, r in rows.items()})
    caps = {key: capacity for key, _, capacity in checked}
    _check_scan(
        [(cap, _space_size(instance, key.circuit_id)) for key, cap in caps.items()]
    )
    rates = {key: instance.rate(key.circuit_id, key.provider_id) for key in caps}
    levels = evaluations = 0
    for circuit_id, group in itertools.groupby(checked, lambda kr: kr[0].circuit_id):
        group = list(group)
        top: dict[CostRates, int] = {}
        for key, _, capacity in group:
            top[rates[key]] = max(top.get(rates[key], 0), capacity)
        space = space_for_circuit(instance, circuit_id)
        numerators = {
            shared: _qubit_numerators(space, shared, range(cap + 1))
            for shared, cap in top.items()
        }
        for key, reserved, capacity in group:
            row, shared = rows[key], rates[key]
            best_x, best_cost = _cheapest(
                space, shared, instance.exec_time(*key), capacity, numerators[shared]
            )
            levels += capacity + 1
            evaluations += (capacity + 1) * len(space)
            if best_x != reserved or best_cost != row.total:
                raise ModelError(
                    f"oracle mismatch on {key}: solver ({reserved}, "
                    f"{format_micro(row.total)}) vs brute force ({best_x}, "
                    f"{format_micro(best_cost)})"
                )
        del space  # triples come sorted by circuit: one space is held at a time
    if seed is not None:
        rng = random.Random(seed)
        tables = circuit_tables(instance)
        # Every vector pays the same penalty: it takes no level.
        penalty = exact_sum(
            (
                tables[key.circuit_id].wait_common * MICRO,
                tables[key.circuit_id].penalty(rates[key], instance.exec_time(*key)),
            )
            for key in caps
        )
        # Each drawn (triple, level) is priced once, times its table's L.
        staged: dict[tuple[TripleKey, int], tuple[int, int]] = {}
        for _ in range(SPOT_CHECK_VECTORS):
            vector = {key: rng.randint(0, cap) for key, cap in caps.items()}
            for key, x in vector.items():
                if (key, x) not in staged:
                    table, rate = tables[key.circuit_id], rates[key]
                    first = rate.reserve_per_qubit * x * table.common
                    staged[key, x] = table.common, first + table.qubit_cost(rate, x)
            cost = penalty + exact_sum(staged[item] for item in vector.items())
            if cost < solution.expected_total:
                raise ModelError(
                    f"random vector {vector} beats the solver: "
                    f"{format_micro(cost)} < {format_micro(solution.expected_total)}"
                )
    return levels, evaluations


def joint_enumeration_oracle(instance: Instance) -> Solution:
    """Oracle for :func:`~qres.solver.solve_instance`: enumerate whole vectors.

    Checks the separability argument by brute force, independently of the
    kernel: each (triple, level) is priced once through the scenario
    route, over each circuit's space built once, and a vector costs the
    sum of its rows. Ties break to the lexicographically smallest vector
    (enumeration order). The vector guard is checked first and the
    brute-force guards next, before any space is built.
    """
    triples = instance.triples()
    capacities = []
    total_vectors = 1
    for key in triples:
        capacity = instance.machine(key.provider_id, key.machine_id).capacity_qubits
        check_capacity(capacity)
        capacities.append(capacity)
        total_vectors *= capacity + 1
        if total_vectors > JOINT_ENUMERATION_GUARD:
            raise GuardError(
                f"joint enumeration needs {total_vectors} > "
                f"{JOINT_ENUMERATION_GUARD} vectors"
            )
    _check_scan(
        [
            (capacity, _space_size(instance, key.circuit_id))
            for key, capacity in zip(triples, capacities)
        ]
    )

    spaces = {
        cid: space_for_circuit(instance, cid)
        for cid in dict.fromkeys(key.circuit_id for key in triples)
    }
    priced = [
        _scenario_rows(instance, spaces[key.circuit_id], key, range(cap + 1))
        for key, cap in zip(triples, capacities)
    ]
    totals = [[row.total for row in rows] for rows in priced]
    best = min(
        itertools.product(*(range(cap + 1) for cap in capacities)),
        key=lambda vector: sum(t[x] for t, x in zip(totals, vector)),
    )
    chosen = [rows[x] for rows, x in zip(priced, best)]
    first, second, penalty = (
        sum(map(attrgetter(part), chosen), Fraction(0))
        for part in ("first_stage", "second_stage", "penalty")
    )
    return _solution(chosen, first, second, penalty)
