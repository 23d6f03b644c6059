"""Cross-route checks: re-derive an answer in-process and compare exactly.

Each function returns a list of failure messages; an empty list means the
CLI's output agrees with the second route.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction

from qres.extform import build_extensive_form, parse_lp, render_lp
from qres.instance import Instance
from qres.solver import per_triple_costs
from qres.sweep import render_csv, sweep_reservation_waiting
from qres.units import format_micro

from checks import solve_levels


def plan_optimality(instance: Instance, solve_text: str) -> list[str]:
    """The printed levels are optimal and their printed costs exact.

    The cost of one triple is convex in its level, so a level is optimal
    when one unit less costs strictly more (ties resolve downward) and
    one unit more costs no less.
    """
    levels = solve_levels(solve_text)
    caps = {
        key: instance.machine(key[1], key[2]).capacity_qubits for key in levels
    }
    at = per_triple_costs(instance, levels)
    below = per_triple_costs(instance, {k: max(0, x - 1) for k, x in levels.items()})
    above = per_triple_costs(
        instance, {k: min(caps[k], x + 1) for k, x in levels.items()}
    )
    printed = {
        tuple(row[:3]): row[7]
        for row in list(csv.reader(io.StringIO(solve_text)))[1:-1]
    }
    errors = []
    for mid, low, high in zip(at, below, above):
        key, x = mid.key, mid.reserved
        if printed[tuple(key)] != format_micro(mid.total):
            errors.append(f"{key}: printed total {printed[tuple(key)]} is not "
                          f"{format_micro(mid.total)}")
        if x > 0 and not low.total > mid.total:
            errors.append(f"{key}: level {x - 1} is no dearer than {x}")
        if x < caps[key] and high.total < mid.total:
            errors.append(f"{key}: level {x + 1} is cheaper than {x}")
    return errors


def audit_round_trip(instance: Instance, lp_text: str) -> list[str]:
    """The CLI's LP equals the in-process render, which parses back to the form."""
    form = build_extensive_form(instance)
    text = render_lp(form)
    errors = []
    if text != lp_text:
        errors.append("exported LP differs from render_lp(build_extensive_form)")
    if parse_lp(text) != form:
        errors.append("parse_lp(render_lp(form)) != form")
    return errors


def surface_decomposition(
    instance: Instance, surface_text: str, x_grid: list[int], wait_grid: list[int]
) -> list[str]:
    """total(x, w) - total(x, w') is the same for every x, exactly.

    The penalty depends on the arranged wait only and the qubit cost on
    the level only, so the surface is curve(x) + penalty(w).
    """
    surface = sweep_reservation_waiting(instance, x_grid, wait_grid)
    errors = []
    if render_csv(surface) != surface_text:
        errors.append("surface CSV differs from the in-process surface")
    totals: dict[int, list[Fraction]] = {}
    for row in surface.rows:
        totals.setdefault(row.reserved, []).append(row.total)
    first = totals[x_grid[0]]
    base = [t - first[0] for t in first]
    for x, row in totals.items():
        if [t - row[0] for t in row] != base:
            errors.append(f"level {x}: wait differences differ from level {x_grid[0]}")
    return errors
