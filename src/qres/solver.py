"""Exact two-stage solver: a marginal kernel plus the oracles that check it.

No constraint couples two (circuit, provider, machine) triples: every
machine must cover the circuit's full demand in every scenario, and each
reservation is paid independently. The problem therefore decomposes into
one newsvendor problem per triple, and each needs only its circuit's
demand and wait marginals.

The kernel gives every answer. It builds one :class:`CircuitTable` per
circuit from its marginals alone: the distinct demand levels, the
survival ``Pr(demand >= level)``, the expected demand at or above each
level, and the grouped wait masses, all as sums of the marginals' integer
weights. Both marginals sum to exactly 1, so each mass equals its
product-space sum. The level reserves the x-th qubit while the saving
(on_demand - utilize) * Pr(demand >= x) strictly exceeds the reservation
rate, compared in integers; with no saving, only a negative rate fills
the capacity. Survival is constant between two demand levels, so the
search steps level by level. Costs come from closed forms over the same
table as integers over its denominators; callers add them as integers and
make one ``Fraction`` per value they report (see :func:`exact_sum`).
The over-wait penalty never depends on any decision, so it is excluded
from the argmin and added back to every reported cost.

The scenario route prices every (demand, wait) scenario at every level
through the recourse rule: each level's qubit cost is one integer dot
product of the scenario weights with the costs that
:func:`~qres.recourse.qubit_costs` streams, and each triple's over-wait
penalty is one sum of :func:`~qres.recourse.penalty_time` over its
scenarios, as the over-wait takes no level. The qubit cost depends on the
circuit, the rates and the level, not on the machine, so
:func:`verify_solution` prices each level once per circuit and distinct
rates, for all the machines that share them. It reads no kernel table and
uses no survival or convexity argument. It is the oracle:
:func:`brute_force_triple`, :func:`scenario_costs`,
:func:`joint_enumeration_oracle` and :func:`verify_solution`
(``qres solve --oracle``) use it, and the tests compare it with the
kernel. A brute-force check is refused before any space is built when a
capacity exceeds BRUTE_FORCE_CAPACITY_GUARD or its scenario evaluations,
the (level, scenario) pairs it covers, exceed BRUTE_FORCE_WORK_GUARD. All
expectations are exact rationals (see :mod:`qres.units`), so the routes
are compared with ``==``.
"""

from __future__ import annotations

import bisect
import itertools
import random
from fractions import Fraction
from operator import mul
from typing import Iterable, Mapping, NamedTuple, Sequence

from .instance import (
    CapacityError,
    CostRates,
    GuardError,
    Instance,
    ModelError,
    TripleKey,
    check_capacity,
    check_outcome_total,
)
from .recourse import penalty_time, qubit_costs
from .scenarios import (
    Marginals,
    ScenarioSpace,
    build_space,
    circuit_marginals,
    space_for_circuit,
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


class TripleCost(NamedTuple):
    key: TripleKey
    reserved: int
    first_stage: Fraction
    second_stage: Fraction
    penalty: Fraction

    @property
    def total(self) -> Fraction:
        return self.first_stage + self.second_stage + self.penalty


class Solution(NamedTuple):
    """Reservation levels plus the exact expected cost decomposition.

    ``expected_second_stage`` is the qubit part (utilization + on-demand)
    only; the over-wait penalty is reported separately and
    ``expected_total`` is the exact sum of the three parts. ``per_triple``
    holds the priced rows, in triple order, that the totals add up.
    """

    reservations: dict[TripleKey, int]
    expected_first_stage: Fraction
    expected_second_stage: Fraction
    expected_penalty: Fraction
    expected_total: Fraction
    per_triple: tuple[TripleCost, ...]


# --- the marginal kernel -----------------------------------------------------


class CircuitTable(NamedTuple):
    """One circuit's marginals as integers over common denominators.

    ``levels`` are the distinct demand values in ascending order and
    ``common`` is L, the denominator of the demand weights.
    ``survival[i]`` is L * Pr(demand >= levels[i]), so ``survival[0] == L``,
    and ``demand_above[i]`` is L * E[demand; demand >= levels[i]]; both end
    with a 0 entry for "above the largest level". ``waits`` pairs each
    distinct wait time with its mass times ``wait_common``, the
    denominator of the wait weights. The layout is private to this module;
    callers use the methods.
    """

    levels: tuple[int, ...]
    common: int
    survival: tuple[int, ...]
    demand_above: tuple[int, ...]
    wait_common: int
    waits: tuple[tuple[int, int], ...]

    def level(self, rates: CostRates, capacity: int) -> int:
        """Marginal analysis: largest level whose last unit strictly pays off.

        The x-th reserved unit saves (on_demand - utilize) * Pr(demand >= x)
        and costs the reservation rate; both sides are compared times L.
        Survival is constant on (levels[i-1], levels[i]] and non-increasing,
        so the first unit of each run decides the whole run and the scan
        stops at the first run that does not strictly improve. Resolving
        the zero-benefit tie downward matches the brute-force scan's
        smallest-argmin convention.
        """
        check_capacity(capacity)
        margin = rates.on_demand_per_qubit - rates.utilize_per_qubit
        if margin <= 0 or capacity == 0:
            # A reserved unit saves nothing, so it pays off only at a negative rate.
            return capacity if rates.reserve_per_qubit < 0 else 0
        cost = rates.reserve_per_qubit * self.common
        best = 0
        for top, survival in zip(self.levels, self.survival):
            if top < 1:  # no unit x >= 1 lies in this run
                continue
            if not margin * survival > cost:
                return best
            if top >= capacity:
                return capacity
            best = top
        # Above the largest level the survival is 0.
        return capacity if rates.reserve_per_qubit < 0 else best

    def qubit_cost(self, rates: CostRates, reserved: int) -> int:
        """Expected utilization plus on-demand cost at a level, times L."""
        if rates.utilize_per_qubit > rates.on_demand_per_qubit:
            return rates.on_demand_per_qubit * self.demand_above[0]
        i = bisect.bisect_left(self.levels, reserved)
        # Times L: E[reserved; demand >= reserved] and E[min(reserved, demand)].
        covered = reserved * self.survival[i]
        above = self.demand_above[i]
        utilized = self.demand_above[0] - above + covered
        return (
            rates.utilize_per_qubit * utilized
            + rates.on_demand_per_qubit * (above - covered)
        )

    def penalty(self, rates: CostRates, exec_time: int) -> int:
        """Expected over-wait penalty times ``wait_common * MICRO``.

        It does not depend on the level.
        """
        over_wait = sum(
            mass * penalty_time(exec_time, wait) for wait, mass in self.waits
        )
        return rates.penalty_per_second * over_wait


def exact_sum(terms: Iterable[tuple[int, int]]) -> Fraction:
    """The exact sum of n / d over ``(d, n)`` pairs of integers.

    The numerators over each denominator are added as integers first, so
    one ``Fraction`` is made per distinct denominator, not per term: a
    table's costs are over its own L, and circuits often share one.
    """
    sums: dict[int, int] = {}
    for common, numerator in terms:
        sums[common] = sums.get(common, 0) + numerator
    return sum((Fraction(n, d) for d, n in sums.items()), Fraction(0))


def _masses(values: tuple[int, ...], weights: tuple[int, ...]) -> dict[int, int]:
    """Each distinct value's weight: the sum of its outcomes' weights."""
    mass: dict[int, int] = {}
    for value, weight in zip(values, weights):
        mass[value] = mass.get(value, 0) + weight
    return mass


def _table(m: Marginals) -> CircuitTable:
    common, demand_weights = m.demand_weights
    wait_common, wait_weights = m.wait_weights
    demand_mass = _masses(m.demands, demand_weights)
    wait_mass = _masses(m.waits, wait_weights)
    levels = sorted(demand_mass)
    survival = [0] * (len(levels) + 1)
    demand_above = [0] * (len(levels) + 1)
    for i in range(len(levels) - 1, -1, -1):
        mass = demand_mass[levels[i]]
        survival[i] = survival[i + 1] + mass
        demand_above[i] = demand_above[i + 1] + mass * levels[i]
    return CircuitTable(
        levels=tuple(levels),
        common=common,
        survival=tuple(survival),
        demand_above=tuple(demand_above),
        wait_common=wait_common,
        waits=tuple(sorted(wait_mass.items())),
    )


def circuit_tables(instance: Instance) -> dict[str, CircuitTable]:
    """The kernel table of every circuit that has a triple.

    An instance of more than OUTCOME_GUARD outcomes is refused first.
    """
    check_outcome_total(instance)
    return {
        cid: _table(circuit_marginals(instance, cid))
        for cid in dict.fromkeys(cid for cid, _, _ in instance.triples())
    }


def _checked_levels(
    instance: Instance, reservations: Mapping[tuple[str, str, str], int]
) -> list[tuple[TripleKey, int, int]]:
    triples = instance.triples()
    missing = [key for key in triples if key not in reservations]
    if missing:
        raise ModelError(f"no reservation for triples: {missing}")
    extra = set(reservations) - set(triples)
    if extra:
        raise ModelError(f"reservations for unknown triples: {sorted(extra)}")
    out = []
    for key in triples:
        reserved = reservations[key]
        capacity = instance.machine(key.provider_id, key.machine_id).capacity_qubits
        if reserved < 0 or reserved > capacity:
            raise CapacityError(
                f"reservation {reserved} for {key} outside [0, {capacity}]"
            )
        out.append((key, reserved, capacity))
    return out


def _kernel_costs(
    instance: Instance,
    tables: Mapping[str, CircuitTable],
    reservations: Mapping[tuple[str, str, str], int],
) -> list[TripleCost]:
    rows = []
    for key, reserved, _ in _checked_levels(instance, reservations):
        table = tables[key.circuit_id]
        rates = instance.rate(key.circuit_id, key.provider_id)
        rows.append(
            TripleCost(
                key=key,
                reserved=reserved,
                first_stage=Fraction(rates.reserve_per_qubit * reserved),
                second_stage=Fraction(table.qubit_cost(rates, reserved), table.common),
                penalty=Fraction(
                    table.penalty(rates, instance.exec_time(*key)),
                    table.wait_common * MICRO,
                ),
            )
        )
    return rows


def _solution(rows: Iterable[TripleCost]) -> Solution:
    rows = tuple(rows)
    first = sum((row.first_stage for row in rows), Fraction(0))
    second = sum((row.second_stage for row in rows), Fraction(0))
    penalty = sum((row.penalty for row in rows), Fraction(0))
    return Solution(
        reservations={row.key: row.reserved for row in rows},
        expected_first_stage=first,
        expected_second_stage=second,
        expected_penalty=penalty,
        expected_total=first + second + penalty,
        per_triple=rows,
    )


def per_triple_costs(
    instance: Instance, reservations: Mapping[tuple[str, str, str], int]
) -> list[TripleCost]:
    """Exact cost decomposition of a reservation vector, priced by the kernel.

    The vector must assign a level to every triple of the instance and
    respect each machine's capacity.
    """
    return _kernel_costs(instance, circuit_tables(instance), reservations)


def expected_cost(
    instance: Instance, reservations: Mapping[tuple[str, str, str], int]
) -> Solution:
    """Exact expected cost of a given reservation vector."""
    return _solution(per_triple_costs(instance, reservations))


def solve_instance(instance: Instance) -> Solution:
    """Globally optimal reservations: one independent newsvendor per triple."""
    tables = circuit_tables(instance)
    levels = {}
    for key in instance.triples():
        cid, pid, mid = key
        levels[key] = tables[cid].level(
            instance.rate(cid, pid), instance.machine(pid, mid).capacity_qubits
        )
    return _solution(_kernel_costs(instance, tables, levels))


# --- the scenario route: oracles ---------------------------------------------


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
    :func:`~qres.recourse.qubit_costs` streams. The costs depend on the
    rates and the level only, so the machines that share rates share them.
    """
    _, weights = space.weights
    return [
        sum(map(mul, weights, qubit_costs(x, space.scenarios, rates))) for x in levels
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
    """Oracle for :func:`per_triple_costs`: the same rows, priced per scenario."""
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
    """Oracle for :func:`solve_instance`: enumerate whole reservation vectors.

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
    return _solution(rows[x] for rows, x in zip(priced, best))
