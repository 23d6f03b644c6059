"""Exact two-stage solver: the marginal kernel that gives every answer.

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
make one ``Fraction`` per value they report (see :func:`exact_sum`), the
solution's totals included. The over-wait penalty never depends on any
decision, so it is excluded from the argmin and added back to every
reported cost.

The oracles that check the kernel scenario by scenario live in
:mod:`qres.oracles`, which only ``qres solve --oracle`` loads.
``brute_force_triple`` is still importable from here, and loads that
module on first use.
"""

from __future__ import annotations

import bisect
import importlib
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

from .instance import (
    CapacityError,
    CostRates,
    Instance,
    ModelError,
    TripleKey,
    check_capacity,
    check_outcome_total,
)
from .recourse import penalty_time
from .scenarios import Marginals, circuit_marginals
from .units import MICRO


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
) -> Solution:
    """The kernel's rows of a reservation vector, and their totals.

    Each row's qubit cost and penalty are integers over its table's
    denominators; the totals add those integers (:func:`exact_sum`), not
    the rows' ``Fraction``s.
    """
    rows, first, second, penalty = [], 0, [], []
    for key, reserved, _ in _checked_levels(instance, reservations):
        table = tables[key.circuit_id]
        rates = instance.rate(key.circuit_id, key.provider_id)
        reserve = rates.reserve_per_qubit * reserved
        qubits = table.qubit_cost(rates, reserved)
        over_wait = table.penalty(rates, instance.exec_time(*key))
        first += reserve
        second.append((table.common, qubits))
        penalty.append((table.wait_common * MICRO, over_wait))
        rows.append(
            TripleCost(
                key=key,
                reserved=reserved,
                first_stage=Fraction(reserve),
                second_stage=Fraction(qubits, table.common),
                penalty=Fraction(over_wait, table.wait_common * MICRO),
            )
        )
    return _solution(rows, Fraction(first), exact_sum(second), exact_sum(penalty))


def _solution(
    rows: Sequence[TripleCost], first: Fraction, second: Fraction, penalty: Fraction
) -> Solution:
    """The solution of priced rows, given the exact sum of each of their parts."""
    return Solution(
        reservations={row.key: row.reserved for row in rows},
        expected_first_stage=first,
        expected_second_stage=second,
        expected_penalty=penalty,
        expected_total=first + second + penalty,
        per_triple=tuple(rows),
    )


def per_triple_costs(
    instance: Instance, reservations: Mapping[tuple[str, str, str], int]
) -> list[TripleCost]:
    """Exact cost decomposition of a reservation vector, priced by the kernel.

    The vector must assign a level to every triple of the instance and
    respect each machine's capacity.
    """
    return list(expected_cost(instance, reservations).per_triple)


def expected_cost(
    instance: Instance, reservations: Mapping[tuple[str, str, str], int]
) -> Solution:
    """Exact expected cost of a given reservation vector."""
    return _kernel_costs(instance, circuit_tables(instance), reservations)


def solve_instance(instance: Instance) -> Solution:
    """Globally optimal reservations: one independent newsvendor per triple."""
    tables = circuit_tables(instance)
    levels = {}
    for key in instance.triples():
        cid, pid, mid = key
        levels[key] = tables[cid].level(
            instance.rate(cid, pid), instance.machine(pid, mid).capacity_qubits
        )
    return _kernel_costs(instance, tables, levels)


def __getattr__(name: str):
    # The one name kept from before the oracles had their own module.
    if name != "brute_force_triple":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return importlib.import_module(".oracles", __package__).brute_force_triple
