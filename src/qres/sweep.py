"""Experiment sweeps: cost versus forced reservation level and waiting time.

Both sweeps force one uniform reservation level on every triple (the
single experiment knob) and evaluate the exact expected cost with the
solver's marginal kernel. The reservation/waiting sweep additionally
replaces every circuit's random wait time with a single arranged value,
modelling the waiting time as a deterministic user choice; only the
penalty term reacts to it, so each cell is curve(x) + penalty(w).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import IO, Iterable

from .instance import Instance, write_atomic
from .solver import CapacityError, CircuitTable, circuit_tables
from .units import format_micro


@dataclass(frozen=True)
class CurvePoint:
    reserved: int
    first_stage: Fraction  # micro-dollars
    second_stage: Fraction
    penalty: Fraction
    total: Fraction


@dataclass(frozen=True)
class CostCurve:
    points: tuple[CurvePoint, ...]


@dataclass(frozen=True)
class SurfaceRow:
    reserved: int
    arranged_wait: int  # microseconds
    total: Fraction


@dataclass(frozen=True)
class CostSurface:
    rows: tuple[SurfaceRow, ...]
    reserved_grid: tuple[int, ...]
    wait_grid: tuple[int, ...]


def min_capacity(instance: Instance) -> int:
    return min(m.capacity_qubits for m in instance.machines)


def _check_grid(instance: Instance, grid: tuple[int, ...]) -> None:
    if not grid:
        raise ValueError("empty reservation grid")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("reservation grid must be strictly increasing")
    cap = min_capacity(instance)
    for x in grid:
        if x < 0 or x > cap:
            raise CapacityError(f"grid value {x} outside [0, {cap}]")


def _uniform_stages(
    instance: Instance, tables: dict[str, CircuitTable], reserved: int
) -> tuple[Fraction, Fraction]:
    """First-stage and qubit cost with every triple reserving ``reserved``."""
    first = Fraction(0)
    second = Fraction(0)
    for cid, pid, _ in instance.triples():
        rates = instance.rate(cid, pid)
        first += rates.reserve_per_qubit * reserved
        second += tables[cid].qubit_cost(rates, reserved)
    return first, second


def _penalty(instance: Instance, tables: dict[str, CircuitTable]) -> Fraction:
    total = Fraction(0)
    for cid, pid, mid in instance.triples():
        rates = instance.rate(cid, pid)
        total += tables[cid].penalty(rates, instance.exec_time(cid, pid, mid))
    return total


def sweep_reservation(instance: Instance, grid: Iterable[int]) -> CostCurve:
    """Expected cost decomposition at each forced uniform reservation level."""
    grid = tuple(grid)
    _check_grid(instance, grid)
    tables = circuit_tables(instance)
    penalty = _penalty(instance, tables)
    points = []
    for x in grid:
        first, second = _uniform_stages(instance, tables, x)
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


def with_wait_singleton(instance: Instance, arranged_wait: int) -> Instance:
    """Copy of the instance with every wait set collapsed to one value."""
    if arranged_wait < 0:
        raise ValueError("arranged wait must be non-negative")
    return replace(
        instance,
        wait_sets={cid: (arranged_wait,) for cid in instance.wait_sets},
        wait_probs={},
    )


def sweep_reservation_waiting(
    instance: Instance, x_grid: Iterable[int], wait_grid: Iterable[int]
) -> CostSurface:
    """Total expected cost over (reservation level, arranged wait) pairs."""
    x_grid = tuple(x_grid)
    wait_grid = tuple(wait_grid)
    _check_grid(instance, x_grid)
    if not wait_grid:
        raise ValueError("empty wait grid")
    if any(b <= a for a, b in zip(wait_grid, wait_grid[1:])):
        raise ValueError("wait grid must be strictly increasing")
    # Price both parts on the collapsed instance: there each circuit's one
    # wait has probability exactly 1, which scales the demand masses.
    collapsed = with_wait_singleton(instance, wait_grid[0])
    tables = circuit_tables(collapsed)
    curve = {x: sum(_uniform_stages(collapsed, tables, x)) for x in x_grid}
    penalty = {}
    for wait in wait_grid:
        # Moving the single wait keeps its mass: these are the tables of
        # with_wait_singleton(instance, wait).
        arranged = {}
        for cid, table in tables.items():
            ((_, mass),) = table.waits
            arranged[cid] = replace(table, waits=((wait, mass),))
        penalty[wait] = _penalty(collapsed, arranged)
    rows = tuple(
        SurfaceRow(reserved=x, arranged_wait=wait, total=curve[x] + penalty[wait])
        for x in x_grid
        for wait in wait_grid
    )
    return CostSurface(rows=rows, reserved_grid=x_grid, wait_grid=wait_grid)


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


def emit_csv(data: CostCurve | CostSurface, sink: str | Path | IO[str]) -> int:
    """Write the CSV to a path (atomically) or a stream; returns bytes."""
    text = render_csv(data)
    if isinstance(sink, (str, Path)):
        return write_atomic(sink, text)
    sink.write(text)
    return len(text.encode("utf-8"))
