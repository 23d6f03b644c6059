"""Shape checks on one CLI output, run outside every timed region.

Each function returns a list of failure messages; an empty list means the
output has the expected layout. The headers are the CLI's output
contract, written out here rather than imported so that this module, and
the process that spawns the timed children, stays small.
"""

from __future__ import annotations

import csv
import io

SOLVE_HEADER = (
    "circuit_id,provider_id,machine_id,reserved,first_stage,second_stage,penalty,total"
)
CURVE_HEADER = "reserved,first_stage,second_stage,penalty,total"
SURFACE_HEADER = "reserved,arranged_wait,total"


def csv_shape(text: str, header: str, rows: int) -> list[str]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        return [f"header {lines[:1]} is not {header!r}"]
    if len(lines) - 1 != rows:
        return [f"{len(lines) - 1} rows, expected {rows}"]
    return []


def solve_shape(text: str, triples: int) -> list[str]:
    errors = csv_shape(text, SOLVE_HEADER, triples + 1)
    if not errors and not text.splitlines()[-1].startswith("TOTAL,"):
        errors.append("last row is not the TOTAL row")
    return errors


def curve_shape(text: str, levels: int) -> list[str]:
    return csv_shape(text, CURVE_HEADER, levels)


def surface_shape(text: str, cells: int) -> list[str]:
    return csv_shape(text, SURFACE_HEADER, cells)


def solve_levels(text: str) -> dict[tuple[str, str, str], int]:
    rows = list(csv.reader(io.StringIO(text)))[1:-1]
    return {(c, p, m): int(x) for c, p, m, x, *_ in rows}


def reservations_csv(solve_text: str) -> str:
    """The reservation vector that ``qres solve`` printed, as ``eval`` input."""
    lines = ["circuit_id,provider_id,machine_id,reserved"]
    for key, level in solve_levels(solve_text).items():
        lines.append(",".join((*key, str(level))))
    return "\n".join(lines) + "\n"
