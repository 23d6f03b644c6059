"""Experiment sweeps: cost versus forced reservation level and waiting time.

Both sweeps force one uniform reservation level on every triple (the
single experiment knob) and evaluate the exact expected cost with the
solver's marginal kernel. The reservation/waiting sweep additionally
replaces every circuit's random wait time with a single arranged value,
modelling the waiting time as a deterministic user choice; only the
penalty term reacts to it, so each cell is curve(x) + penalty(w).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import pairwise
from typing import Iterable, NamedTuple

from .instance import CapacityError, CostRates, Instance
from .recourse import penalty_time
from .solver import CircuitTable, circuit_tables, exact_sum
from .units import MICRO, format_micro


class CurvePoint(NamedTuple):
    reserved: int
    first_stage: Fraction  # micro-dollars
    second_stage: Fraction
    penalty: Fraction
    total: Fraction


class CostCurve(NamedTuple):
    points: tuple[CurvePoint, ...]


class SurfaceRow(NamedTuple):
    reserved: int
    arranged_wait: int  # microseconds
    total: Fraction


class CostSurface(NamedTuple):
    rows: tuple[SurfaceRow, ...]


def min_capacity(instance: Instance) -> int:
    return min(m.capacity_qubits for m in instance.machines)


def _increasing(values: Iterable[int], what: str) -> tuple[int, ...]:
    values = tuple(values)
    if not values:
        raise ValueError(f"empty {what}")
    if any(b <= a for a, b in pairwise(values)):
        raise ValueError(f"{what} must be strictly increasing")
    return values


def _reservation_grid(instance: Instance, grid: Iterable[int]) -> tuple[int, ...]:
    grid = _increasing(grid, "reservation grid")
    cap = min_capacity(instance)
    for x in grid:
        if x < 0 or x > cap:
            raise CapacityError(f"grid value {x} outside [0, {cap}]")
    return grid


def _priced_triples(instance: Instance) -> list[tuple[CircuitTable, CostRates, int]]:
    """Each triple's kernel table, rates and execution time, read once."""
    tables = circuit_tables(instance)
    return [
        (tables[cid], instance.rate(cid, pid), instance.exec_time(cid, pid, mid))
        for cid, pid, mid in instance.triples()
    ]


def _qubit_cost(
    triples: list[tuple[CircuitTable, CostRates, int]], reserved: int
) -> Fraction:
    """Expected qubit cost with every triple reserving ``reserved``."""
    return exact_sum(
        (table.common, table.qubit_cost(rates, reserved)) for table, rates, _ in triples
    )


def sweep_reservation(instance: Instance, grid: Iterable[int]) -> CostCurve:
    """Expected cost decomposition at each forced uniform reservation level."""
    grid = _reservation_grid(instance, grid)
    triples = _priced_triples(instance)
    reserve = sum(rates.reserve_per_qubit for _, rates, _ in triples)
    penalty = exact_sum(
        (table.wait_common * MICRO, table.penalty(rates, exec_time))
        for table, rates, exec_time in triples
    )
    points = []
    for x in grid:
        first, second = Fraction(reserve * x), _qubit_cost(triples, x)
        points.append(
            CurvePoint(
                reserved=x,
                first_stage=first,
                second_stage=second,
                penalty=penalty,
                total=first + second + penalty,
            )
        )
    return CostCurve(points=tuple(points))


def sweep_reservation_waiting(
    instance: Instance, x_grid: Iterable[int], wait_grid: Iterable[int]
) -> CostSurface:
    """Total expected cost over (reservation level, arranged wait) pairs."""
    x_grid = _reservation_grid(instance, x_grid)
    wait_grid = _increasing(wait_grid, "wait grid")
    triples = _priced_triples(instance)
    reserve = sum(rates.reserve_per_qubit for _, rates, _ in triples)
    curve = [reserve * x + _qubit_cost(triples, x) for x in x_grid]
    # An arranged wait is certain: each triple pays its penalty at that wait.
    penalty = [
        Fraction(
            sum(
                rates.penalty_per_second * penalty_time(exec_time, wait)
                for _, rates, exec_time in triples
            ),
            MICRO,
        )
        for wait in wait_grid
    ]
    rows = tuple(
        SurfaceRow(reserved=x, arranged_wait=wait, total=cost + over_wait)
        for x, cost in zip(x_grid, curve)
        for wait, over_wait in zip(wait_grid, penalty)
    )
    return CostSurface(rows=rows)


CURVE_HEADER = "reserved,first_stage,second_stage,penalty,total"
SURFACE_HEADER = "reserved,arranged_wait,total"


def render_csv(data: CostCurve | CostSurface) -> str:
    """Deterministic CSV text; money and times with 6 fraction digits."""
    if isinstance(data, CostCurve):
        lines = [CURVE_HEADER]
        for p in data.points:
            lines.append(
                f"{p.reserved},{format_micro(p.first_stage)},"
                f"{format_micro(p.second_stage)},{format_micro(p.penalty)},"
                f"{format_micro(p.total)}"
            )
    else:
        lines = [SURFACE_HEADER]
        for row in data.rows:
            lines.append(
                f"{row.reserved},{format_micro(row.arranged_wait)},"
                f"{format_micro(row.total)}"
            )
    return "\n".join(lines) + "\n"

