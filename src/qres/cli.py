"""Command-line interface: validate, solve, sweep, surface, export-lp, eval.

Data outputs are plain CSV (or LP text) with no timestamps, so identical
inputs give byte-identical outputs. Exit codes: 0 success, 1 validation
or model error, 2 usage error. The solver, oracle, sweep, LP and CSV
modules are imported by the commands that use them, so no command loads
code it does not run: the kernel commands load no scenario space, and
only ``solve --oracle`` loads the oracles and only ``eval`` a CSV reader.
One table, :data:`COMMANDS`, describes every command and option; one loop,
:func:`parse_args`, reads argv from it and the help is printed from it, so
no command loads the standard library's argument parser, nor the
``gettext`` and ``locale`` modules it would bring.
"""

from __future__ import annotations

import os
import sys
from itertools import pairwise
from types import SimpleNamespace
from typing import Callable, Iterable

from .instance import (
    GRID_GUARD,
    Instance,
    InstanceError,
    ModelError,
    ScenarioError,
    _path_text,
    load_instance,
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


def write_atomic(path: str | os.PathLike[str], data: str | Iterable[str]) -> int:
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
    import tempfile

    given = os.fspath(path)
    path = _path_text(path)
    chunks = [data] if isinstance(data, str) else data
    written = 0
    try:
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path) or ".", prefix=os.path.basename(path) + "."
        )
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


def _cmd_validate(args: SimpleNamespace) -> int:
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


def _cmd_solve(args: SimpleNamespace) -> int:
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


def _cmd_eval(args: SimpleNamespace) -> int:
    from .csvio import load_reservations
    from .solver import expected_cost

    instance = load_instance(args.instance)
    solution = expected_cost(instance, load_reservations(args.reservations))
    render = _solution_table if args.human else _solution_csv
    _write_output(render(solution), args.output)
    return 0


def _cmd_sweep(args: SimpleNamespace) -> int:
    from .sweep import render_csv, sweep_reservation

    instance = load_instance(args.instance)
    curve = sweep_reservation(instance, _reservation_grid(args.grid, instance))
    if args.verbose:
        print(f"swept {len(curve.points)} reservation levels", file=sys.stderr)
    _write_output(render_csv(curve), args.output)
    return 0


def _cmd_surface(args: SimpleNamespace) -> int:
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


def _cmd_export_lp(args: SimpleNamespace) -> int:
    from .lpplan import plan_form, plan_lp_chunks, plan_size

    plans = plan_form(load_instance(args.instance))
    if args.verbose:
        variables, rows = plan_size(plans)
        print(f"{variables} variables, {rows} rows", file=sys.stderr)
    _write_output(plan_lp_chunks(plans), args.output)
    return 0


# Each command: its handler, its help line and its options beyond INSTANCE,
# -o/--output and -v/--verbose. Each option: its flags, long flag last, what
# reads its value (None for a flag, which takes none), whether it is
# required, and its help. An option's destination is its long flag's name.
_COMMON = (
    (("-o", "--output"), str, False, "output file (default: stdout)"),
    (("-v", "--verbose"), None, False, "progress notes on stderr"),
)
_HUMAN = (("--human",), None, False, "aligned table output")
_GRID = (("--grid",), str, False, "reservation grid lo:hi[:step] (default 0:min capacity)")
COMMANDS = {
    "validate": (_cmd_validate, "check an instance, print diagnostics", ()),
    "solve": (_cmd_solve, "optimal reservations and cost breakdown", (
        (("--oracle",), None, False,
         "re-verify every reservation level by brute-force scan"),
        (("--seed",), int, False,
         "with --oracle: also spot-check optimality against random reservation vectors"),
        _HUMAN,
    )),
    "eval": (_cmd_eval, "cost breakdown of a given reservation vector", (
        (("--reservations",), str, True,
         "CSV with circuit_id,provider_id,machine_id,reserved"),
        _HUMAN,
    )),
    "sweep": (_cmd_sweep, "cost curve over forced reservation levels", (_GRID,)),
    "surface": (_cmd_surface, "cost over (reservation level, arranged waiting time)", (
        _GRID,
        (("--waits",), str, True, "arranged-wait grid lo:hi[:step] in seconds "
         "(step defaults to the smallest wait-set gap)"),
    )),
    "export-lp": (_cmd_export_lp, "write the deterministic equivalent as LP", ()),
}
_HELP = ("-h", "--help")


def parse_args(argv: list[str]) -> SimpleNamespace | None:
    """The namespace the command's handler ``func`` reads; None once help is printed.

    Any argv that the command table does not describe raises :class:`UsageError`.
    """
    if not argv or argv[0] not in (*COMMANDS, *_HELP):
        got = f"unknown command {argv[0]!r}" if argv else "missing command"
        raise UsageError(f"{got}, expected one of: {', '.join(COMMANDS)}")
    command, *tokens = argv
    if command in _HELP or any(token in _HELP for token in tokens):
        print(_help(command if command in COMMANDS else None), end="")
        return None
    func, _, extra = COMMANDS[command]
    options = {option[0][-1][2:]: option for option in _COMMON + extra}
    by_flag = {flag: dest for dest, option in options.items() for flag in option[0]}
    values = {dest: None if option[1] else False for dest, option in options.items()}
    instances = []
    rest = iter(tokens)
    for token in rest:
        if not token.startswith("-"):
            instances.append(token)
            continue
        flag, eq, value = token.partition("=")
        if flag not in by_flag:
            raise UsageError(f"{command}: unknown option {flag!r}")
        dest = by_flag[flag]
        read = options[dest][1]
        if read is None and eq:
            raise UsageError(f"{flag} takes no value")
        if read and not eq and (value := next(rest, None)) is None:
            raise UsageError(f"{flag} needs a value")
        try:
            values[dest] = read(value) if read else True
        except ValueError:
            raise UsageError(f"{flag}: not an {read.__name__}: {value!r}") from None
    if len(instances) != 1:
        raise UsageError(f"{command} takes one INSTANCE, got {len(instances)}")
    for dest, (flags, _, required, _) in options.items():
        if required and values[dest] is None:
            raise UsageError(f"{command} needs {flags[-1]}")
    return SimpleNamespace(func=func, instance=instances[0], **values)


def _help(command: str | None) -> str:
    """The text of ``qres --help`` (no command) or of ``qres COMMAND --help``."""
    if command is None:
        rows = [(name, entry[1]) for name, entry in COMMANDS.items()]
        head = "usage: qres COMMAND INSTANCE [options]\n\ncommands:"
    else:
        _, line, extra = COMMANDS[command]
        options = ((_HELP, None, False, "print this help"), *_COMMON, *extra)
        rows = [(", ".join(flags) + f" {flags[-1][2:].upper()}" * bool(read), text)
                for flags, read, _, text in options]
        needed = "".join(f" {row[0]}" for row, option in zip(rows, options) if option[2])
        head = f"usage: qres {command} INSTANCE{needed} [options]\n\n{line}\n\noptions:"
    return "\n".join([head, *(f"  {name:<28} {text}" for name, text in rows), ""])


def run(argv: list[str]) -> int:
    try:
        args = parse_args(argv)
        return 0 if args is None else args.func(args)
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
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
