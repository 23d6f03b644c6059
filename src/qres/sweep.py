"""Experiment sweeps: cost versus forced reservation level and waiting time.

Both sweeps force one uniform reservation level on every triple (the
single experiment knob) and evaluate the exact expected cost with the
solver's marginal kernel. The reservation/waiting sweep additionally
replaces every circuit's random wait time with a single arranged value,
modelling the waiting time as a deterministic user choice; only the
penalty term reacts to it, so each cell is curve(x) + penalty(w). Both
make one pass over :func:`~qres.solver.triple_tables`, adding integers
per (grid point, denominator) and per arranged wait.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import pairwise
from typing import Iterable, NamedTuple

from .instance import CapacityError, Instance, penalty_time
from .solver import exact_sum, triple_tables
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


def _priced(
    instance: Instance, grid: tuple[int, ...], waits: tuple[int, ...] = ()
) -> tuple[int, list[Fraction], Fraction, list[Fraction]]:
    """What the sweeps add up, in one pass over the kernel's triples.

    That is the summed reservation rate, the qubit cost at each grid point,
    the expected penalty, and the penalty at each arranged wait, which is
    certain.
    """
    reserve, qubits, penalty = 0, [defaultdict(int) for _ in grid], defaultdict(int)
    arranged = [0] * len(waits)
    for _, table, rates, exec_time, _ in triple_tables(instance):
        reserve += rates.reserve_per_qubit
        for sums, x in zip(qubits, grid):
            sums[table.common] += table.qubit_cost(rates, x)
        penalty[table.wait_common * MICRO] += table.penalty(rates, exec_time)
        for i, wait in enumerate(waits):
            arranged[i] += rates.penalty_per_second * penalty_time(exec_time, wait)
    over_waits = [Fraction(n, MICRO) for n in arranged]
    return reserve, [exact_sum(sums) for sums in qubits], exact_sum(penalty), over_waits


def sweep_reservation(instance: Instance, grid: Iterable[int]) -> CostCurve:
    """Expected cost decomposition at each forced uniform reservation level."""
    grid = _reservation_grid(instance, grid)
    reserve, qubits, penalty, _ = _priced(instance, grid)
    points = []
    for x, second in zip(grid, qubits):
        first = Fraction(reserve * x)
        points.append(CurvePoint(x, first, second, penalty, first + second + penalty))
    return CostCurve(points=tuple(points))


def sweep_reservation_waiting(
    instance: Instance, x_grid: Iterable[int], wait_grid: Iterable[int]
) -> CostSurface:
    """Total expected cost over (reservation level, arranged wait) pairs."""
    x_grid = _reservation_grid(instance, x_grid)
    wait_grid = _increasing(wait_grid, "wait grid")
    reserve, qubits, _, penalty = _priced(instance, x_grid, wait_grid)
    curve = [reserve * x + second for x, second in zip(x_grid, qubits)]
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

