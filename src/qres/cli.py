"""Command-line interface: validate, solve, sweep, surface, export-lp, eval.

Data outputs are plain CSV (or LP text) with no timestamps, so identical
inputs give byte-identical outputs. Exit codes: 0 success, 1 validation
or model error, 2 usage error. The solver, oracle, sweep and LP modules
are imported by the commands that use them, so no command loads code it
does not run: ``validate`` loads neither the solver nor the scenarios, and
only ``solve --oracle`` loads the oracles.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import tempfile
from itertools import pairwise
from pathlib import Path
from typing import Callable, Iterable

from .instance import (
    GRID_GUARD,
    Instance,
    InstanceError,
    ModelError,
    ScenarioError,
    load_instance,
    load_reservations,
    validate,
)
from .units import UnitError, format_micro, parse_integer, parse_seconds


class UsageError(ValueError):
    pass


def _parse_grid(
    spec: str, what: str, value: Callable[[str], int], default_step: Callable[[], int]
) -> range:
    """Parse 'lo:hi[:step]' into an inclusive grid of at most GRID_GUARD points."""
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        raise UsageError(f"{what} must be lo:hi[:step], got {spec!r}")
    try:
        lo, hi = value(parts[0]), value(parts[1])
        step = value(parts[2]) if len(parts) == 3 else None
    except ValueError as exc:
        raise UsageError(f"{what}: {exc}") from exc
    if step is None:
        step = default_step()
    if step <= 0 or hi < lo or lo < 0:
        raise UsageError(f"{what} needs 0 <= lo <= hi and step > 0: {spec!r}")
    size = (hi - lo) // step + 1
    if size > GRID_GUARD:
        raise UsageError(f"{what} has {size} points, more than {GRID_GUARD}")
    return range(lo, hi + 1, step)


def _reservation_grid(spec: str | None, instance: Instance) -> range:
    from .sweep import min_capacity

    return _parse_grid(
        spec or f"0:{min_capacity(instance)}", "grid", parse_integer, lambda: 1
    )


def _min_wait_gap(instance: Instance) -> int:
    gaps = [
        b - a
        for waits in instance.wait_sets.values()
        for a, b in pairwise(sorted(waits))
        if b > a
    ]
    if not gaps:
        raise UsageError("no wait-set gap to derive a step from; pass lo:hi:step")
    return min(gaps)


def write_atomic(path: str | Path, data: str | Iterable[str]) -> int:
    """Write text to ``path`` atomically; returns the number of bytes written.

    ``data`` is one string or an iterable of string chunks, encoded and
    written one chunk at a time, so a long text need never be held whole.
    The text goes to a new, uniquely named file in the same directory,
    which is flushed to disk and then renamed over ``path``, so a reader
    sees the old file or the whole new one and concurrent writers never
    share a temp file. The temp file is removed if anything fails,
    including the chunk iterable itself, and an error about a file names
    ``path``, never the temp file.
    """
    given = os.fspath(path)
    path = Path(path)
    chunks = [data] if isinstance(data, str) else data
    written = 0
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
        try:
            with os.fdopen(fd, "wb") as handle:
                # mkstemp creates the file owner-only; give it the mode a
                # plain open() would.
                os.fchmod(handle.fileno(), 0o666 & ~_umask())
                for chunk in chunks:
                    written += handle.write(chunk.encode("utf-8"))
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        if exc.filename is None:
            raise
        raise OSError(exc.errno, exc.strerror, given) from None
    return written


def _umask() -> int:
    mask = os.umask(0o022)
    os.umask(mask)
    return mask


def _write_output(data: str | Iterable[str], path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.writelines([data] if isinstance(data, str) else data)
    else:
        write_atomic(path, data)


def _solution_csv(solution) -> str:
    rows = solution.per_triple
    lines = [
        "circuit_id,provider_id,machine_id,reserved,"
        "first_stage,second_stage,penalty,total"
    ]
    for row in rows:
        lines.append(
            f"{row.key.circuit_id},{row.key.provider_id},{row.key.machine_id},"
            f"{row.reserved},{format_micro(row.first_stage)},"
            f"{format_micro(row.second_stage)},{format_micro(row.penalty)},"
            f"{format_micro(row.total)}"
        )
    lines.append(
        f"TOTAL,,,{sum(r.reserved for r in rows)},"
        f"{format_micro(solution.expected_first_stage)},"
        f"{format_micro(solution.expected_second_stage)},"
        f"{format_micro(solution.expected_penalty)},"
        f"{format_micro(solution.expected_total)}"
    )
    return "\n".join(lines) + "\n"


def _solution_table(solution) -> str:
    text = _solution_csv(solution)
    grid = [line.split(",") for line in text.strip().splitlines()]
    widths = [max(len(row[i]) for row in grid) for i in range(len(grid[0]))]
    out = []
    for row in grid:
        out.append(
            "  ".join(cell.rjust(w) for cell, w in zip(row, widths)).rstrip()
        )
    return "\n".join(out) + "\n"


def _cmd_validate(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance, check=False)
    diagnostics = validate(instance)
    lines = [str(d) for d in diagnostics]
    if lines:
        _write_output("\n".join(lines) + "\n", args.output)
    return 1 if any(d.severity == "error" for d in diagnostics) else 0


def solve_instance(instance: Instance):
    """The solver's answer; ``solve`` calls this global, so a caller may wrap it."""
    from .solver import solve_instance

    return solve_instance(instance)


def _cmd_solve(args: argparse.Namespace) -> int:
    if args.seed is not None and not args.oracle:
        raise UsageError("--seed needs --oracle")
    instance = load_instance(args.instance)
    solution = solve_instance(instance)
    if args.oracle:
        from .oracles import verify_solution

        levels, evaluations = verify_solution(instance, solution, args.seed)
        if args.verbose:
            print(
                f"oracle: brute force agrees on {len(solution.per_triple)} triples "
                f"({levels} levels, {evaluations} scenario evaluations)",
                file=sys.stderr,
            )
    render = _solution_table if args.human else _solution_csv
    _write_output(render(solution), args.output)
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    from .solver import expected_cost

    instance = load_instance(args.instance)
    solution = expected_cost(instance, load_reservations(args.reservations))
    render = _solution_table if args.human else _solution_csv
    _write_output(render(solution), args.output)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .sweep import render_csv, sweep_reservation

    instance = load_instance(args.instance)
    curve = sweep_reservation(instance, _reservation_grid(args.grid, instance))
    if args.verbose:
        print(f"swept {len(curve.points)} reservation levels", file=sys.stderr)
    _write_output(render_csv(curve), args.output)
    return 0


def _cmd_surface(args: argparse.Namespace) -> int:
    from .sweep import render_csv, sweep_reservation_waiting

    instance = load_instance(args.instance)
    grid = _reservation_grid(args.grid, instance)
    waits = _parse_grid(
        args.waits, "waits", parse_seconds, lambda: _min_wait_gap(instance)
    )
    if len(grid) * len(waits) > GRID_GUARD:
        raise UsageError(
            f"surface has {len(grid) * len(waits)} cells, more than {GRID_GUARD}"
        )
    surface = sweep_reservation_waiting(instance, grid, waits)
    if args.verbose:
        print(f"evaluated {len(surface.rows)} grid cells", file=sys.stderr)
    _write_output(render_csv(surface), args.output)
    return 0


def _cmd_export_lp(args: argparse.Namespace) -> int:
    from .extform import plan_form, plan_lp_chunks, plan_size

    plans = plan_form(load_instance(args.instance))
    if args.verbose:
        variables, rows = plan_size(plans)
        print(f"{variables} variables, {rows} rows", file=sys.stderr)
    _write_output(plan_lp_chunks(plans), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qres",
        description="Reserved/on-demand qubit provisioning under uncertain "
        "demand and waiting time.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("instance", help="instance JSON file")
        p.add_argument(
            "-o", "--output", default=None, help="output file (default: stdout)"
        )
        p.add_argument(
            "-v", "--verbose", action="store_true", help="progress notes on stderr"
        )

    p = sub.add_parser("validate", help="check an instance, print diagnostics")
    common(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("solve", help="optimal reservations and cost breakdown")
    common(p)
    p.add_argument(
        "--oracle",
        action="store_true",
        help="re-verify every reservation level by brute-force scan",
    )
    p.add_argument(
        "--seed",
        type=int,
        default=None,
        help="with --oracle: also spot-check optimality against random "
        "reservation vectors",
    )
    p.add_argument("--human", action="store_true", help="aligned table output")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("eval", help="cost breakdown of a given reservation vector")
    common(p)
    p.add_argument(
        "--reservations",
        required=True,
        help="CSV with circuit_id,provider_id,machine_id,reserved",
    )
    p.add_argument("--human", action="store_true", help="aligned table output")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", help="cost curve over forced reservation levels")
    common(p)
    p.add_argument(
        "--grid",
        default=None,
        help="reservation grid lo:hi[:step] (default 0:min capacity)",
    )
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "surface", help="cost over (reservation level, arranged waiting time)"
    )
    common(p)
    p.add_argument(
        "--grid",
        default=None,
        help="reservation grid lo:hi[:step] (default 0:min capacity)",
    )
    p.add_argument(
        "--waits",
        required=True,
        help="arranged-wait grid lo:hi[:step] in seconds "
        "(step defaults to the smallest wait-set gap)",
    )
    p.set_defaults(func=_cmd_surface)

    p = sub.add_parser("export-lp", help="write the deterministic equivalent as LP")
    common(p)
    p.set_defaults(func=_cmd_export_lp)

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed its message
        code = exc.code
        return code if isinstance(code, int) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (
        InstanceError,
        ScenarioError,
        ModelError,
        UnitError,
        OSError,
        UnicodeDecodeError,
        csv.Error,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
