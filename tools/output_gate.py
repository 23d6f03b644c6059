"""Byte-identity gate: two source trees must print and write the same bytes.

    python3 tools/output_gate.py PARENT_SRC CHANGE_SRC [--seeds 1-10]

PARENT_SRC and CHANGE_SRC are directories that hold the ``qres`` package,
such as the ``src/`` of two checkouts. For each seed of each benchmark
workload, the instance comes from ``perfbench/workloads.py`` (imported,
never written), and both trees run, as ``python -m qres.cli`` children:
``validate``, every command of the workload, ``solve --oracle --seed N -v``,
``export-lp -o FILE -v`` (whose "N variables, M rows" line counts each
scenario space), ``export-lp`` to stdout (the LP is compared both as
written to a file and as streamed to stdout), ``eval`` of the vector that
their own ``solve`` printed, and ``sweep`` and ``surface`` over the
workload's grids, so the kernel's prices are compared over uniform, mixed
and explicit probability denominators alike. The workloads give every
machine the same capacity, so each seed also writes a copy of its instance
in which each provider's first machine has half the capacity, and runs
``solve`` and ``solve --oracle --seed N -v`` on it: machines that share
rates but not a capacity.
The grids would exceed the halved capacity, so no sweep runs on the copy.
Three commands run again in other spellings that the CLI accepts,
``sweep INSTANCE --grid=G``, ``surface --waits=W --grid G INSTANCE``
(options before INSTANCE) and ``solve --oracle --seed=N -v INSTANCE``,
so the two trees are shown to read ``--opt=value`` and options before
INSTANCE alike.
Each seed of a workload whose first circuit writes no probabilities (the
``audit`` workload) also writes a copy in which that circuit has more
scenarios than one chunk of LP text holds (1,365 scenarios' objective
lines or rows), and runs ``export-lp`` on it, to a file and to stdout, so
the seams between chunks inside one triple are compared byte for byte.
Each seed of a workload with written probabilities also writes copies of
its instance with the first one broken in one way (54 fraction digits,
``1e-54``, text that is no plain number, a negative value, a vector that
sums to 1 - 10^-53), and runs ``validate`` and ``solve`` on each: the
messages that refuse them are compared too. Each seed also writes a
copy whose ``exec_times`` records are moved to an ``exec_times_csv``
file, and runs ``validate`` and ``solve`` on it, so the CSV reader is
compared; and a broken copy whose CSV has a 200,000-character field,
over the ``csv`` module's field limit, whose refusal is compared the
same way. Each child runs in a
directory of its own tree with the same relative paths, so the bytes can be
compared as they are. Every difference in stdout, stderr, exit code or
written file is printed, and so is a command that fails in both trees,
except on a broken copy, where a command that succeeds is printed; the
exit status is 1 if there is one, 2 on a usage error, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from decimal import Context, Decimal
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave perfbench/ exactly as checked out
sys.path.insert(0, str(ROOT / "perfbench"))

from checks import reservations_csv  # noqa: E402
from workloads import WORKLOADS, Shape, generate  # noqa: E402

INSTANCE = "instance.json"
UNEQUAL = "unequal.json"
VECTOR = "reservations.csv"
CSV_TIMES = "csv-times.json"
LONG_FIELD = "broken-csv-field.json"
WIDE = "wide-first-circuit.json"
# More scenarios than one chunk of LP text holds: 4096 lines at three per
# scenario.
WIDE_SCENARIOS = 4096 // 3 + 1

# Each way to break the first written probability p, as the number text
# that replaces it.
BREAKS = {
    "digits54": lambda p: f"{p}{'0' * (54 - len(p.partition('.')[2]) - 1)}1",
    "tiny": lambda p: "1e-54",
    "text": lambda p: json.dumps(f" {p}"),
    "negative": lambda p: f"-{p}",
    "short-sum": lambda p: str(Context(prec=60).subtract(Decimal(p), Decimal("1e-53"))),
}


def commands(shape: Shape, seed: int) -> list[list[str]]:
    """The argument lists to compare, ``solve`` first: ``eval`` reads its vector."""
    workload = {
        "solve": ["solve", INSTANCE],
        "eval": ["eval", INSTANCE, "--reservations", VECTOR],
        "sweep": ["sweep", INSTANCE, "--grid", shape.sweep_grid],
        "surface": [
            "surface", INSTANCE, "--grid", shape.surface_grid,
            "--waits", shape.surface_waits,
        ],
        "export-lp": ["export-lp", INSTANCE, "-o", "export.lp", "-v"],
        "oracle": ["solve", INSTANCE, "--oracle", "--seed", str(seed)],
    }
    runs = [
        workload["solve"],
        ["validate", INSTANCE],
        *(workload[name] for name in shape.commands),
        ["solve", INSTANCE, "--oracle", "--seed", str(seed), "-v"],
        workload["export-lp"],
        ["export-lp", INSTANCE],
        workload["eval"],
        workload["sweep"],
        workload["surface"],
        ["solve", UNEQUAL],
        ["solve", UNEQUAL, "--oracle", "--seed", str(seed), "-v"],
        # The same commands in other spellings that every parser accepts.
        ["sweep", INSTANCE, f"--grid={shape.sweep_grid}"],
        ["surface", f"--waits={shape.surface_waits}", "--grid", shape.surface_grid,
         INSTANCE],
        ["solve", "--oracle", f"--seed={seed}", "-v", INSTANCE],
    ]
    unique: list[list[str]] = []
    for args in runs:
        if args not in unique:
            unique.append(args)
    return unique


def halve_first_machines(instance: Path) -> str:
    """The instance document with each provider's first machine at half capacity."""
    doc = json.loads(instance.read_text(encoding="utf-8"))
    seen = set()
    for machine in doc["machines"]:
        if machine["provider"] not in seen:
            seen.add(machine["provider"])
            machine["capacity"] //= 2
    return json.dumps(doc)


def widen_first_circuit(instance: Path) -> str | None:
    """The instance document with its first circuit past WIDE_SCENARIOS scenarios.

    None when that circuit writes probabilities, whose vectors fix its sets.
    """
    doc = json.loads(instance.read_text(encoding="utf-8"))
    circuit = doc["circuits"][0]
    if "demand_probs" in circuit or "wait_probs" in circuit:
        return None
    demands = -(-WIDE_SCENARIOS // len(circuit["wait_set"]))
    circuit["demand_set"]["hi"] = circuit["demand_set"]["lo"] + demands - 1
    return json.dumps(doc)


def broken_copies(instance: Path) -> dict[str, str]:
    """Documents with the first written probability broken, by file name.

    Empty when the instance writes no probability.
    """
    doc = json.loads(instance.read_text(encoding="utf-8"))
    circuit = next((c for c in doc["circuits"] if "demand_probs" in c), None)
    if circuit is None:
        return {}
    first = f"{circuit['demand_probs'][0]:.6f}"
    circuit["demand_probs"][0] = "BROKEN"
    text = json.dumps(doc)
    return {
        f"broken-{name}.json": text.replace('"BROKEN"', write(first))
        for name, write in BREAKS.items()
    }


def csv_copies(instance: Path) -> dict[str, str]:
    """The instance with its execution times in a CSV file, and a broken twin.

    By file name: the two documents (:data:`CSV_TIMES`, :data:`LONG_FIELD`)
    and the CSV file each names; the broken one's first row has a
    200,000-character field.
    """
    doc = json.loads(instance.read_text(encoding="utf-8"))
    rows = "".join(
        f"{r['circuit']},{r['provider']},{r['machine']},{r['seconds']}\n"
        for r in doc.pop("exec_times")
    )
    header = "circuit_id,provider_id,machine_id,seconds\n"
    return {
        "times.csv": header + rows,
        "long-field.csv": header + "c00,p0,m0," + "9" * 200_000 + "\n" + rows,
        CSV_TIMES: json.dumps({**doc, "exec_times_csv": "times.csv"}),
        LONG_FIELD: json.dumps({**doc, "exec_times_csv": "long-field.csv"}),
    }


def run(src: Path, cwd: Path, args: list[str]) -> tuple[int, bytes, bytes, bytes | None]:
    """Exit code, stdout, stderr and the ``-o`` file of one CLI child."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    output = cwd / args[args.index("-o") + 1] if "-o" in args else None
    if output is not None:
        output.unlink(missing_ok=True)
    done = subprocess.run(
        [sys.executable, "-m", "qres.cli", *args],
        cwd=cwd, env=env, capture_output=True, check=False,
    )
    written = output.read_bytes() if output is not None and output.exists() else None
    return done.returncode, done.stdout, done.stderr, written


def first_difference(a: bytes | None, b: bytes | None) -> str:
    if a is None or b is None:
        return "written by one tree only"
    for number, (left, right) in enumerate(zip(a.splitlines(), b.splitlines()), 1):
        if left != right:
            start = max(0, len(os.path.commonprefix([left, right])) - 20)
            return f"line {number}: {left[start:start + 60]!r} != {right[start:start + 60]!r}"
    return f"{len(a)} bytes != {len(b)} bytes"


def compare(trees: dict[str, Path], work: Path, name: str, seed: int) -> tuple[int, list[str]]:
    """Run one seed of one workload in both trees; return (comparisons, differences).

    A command that fails in both trees alike is a difference too: an
    identical error would make the comparison vacuous.
    """
    shape = WORKLOADS[name]
    dirs = {label: work / f"{name}-{seed}" / label for label in trees}
    for d in dirs.values():
        d.mkdir(parents=True)
    instance = generate(shape, seed, dirs["parent"])
    shutil.copy(instance, dirs["change"] / INSTANCE)
    unequal = halve_first_machines(instance)
    broken = broken_copies(instance)
    written = {UNEQUAL: unequal, **broken, **csv_copies(instance)}
    wide = widen_first_circuit(instance)
    if wide is not None:
        written[WIDE] = wide
    for d in dirs.values():
        for file, text in written.items():
            (d / file).write_text(text, encoding="utf-8")
    differences = []
    checked = ("validate", "solve")
    runs = commands(shape, seed) + [[command, CSV_TIMES] for command in checked]
    if wide is not None:
        runs += [["export-lp", WIDE, "-o", "wide.lp", "-v"], ["export-lp", WIDE]]
    refused = [[command, file] for file in [*broken, LONG_FIELD] for command in checked]
    for args in runs + refused:
        results = {label: run(src, dirs[label], args) for label, src in trees.items()}
        if args == ["solve", INSTANCE]:
            for label, (code, out, _, _) in results.items():
                text = reservations_csv(out.decode("utf-8")) if code == 0 else ""
                (dirs[label] / VECTOR).write_text(text, encoding="utf-8")
        parent, change = results["parent"], results["change"]
        if args in refused and parent[0] == 0:
            differences.append(f"{name} seed {seed}: qres {' '.join(args)}: "
                               f"a broken copy was not refused")
        elif args not in refused and parent[0] != 0 and parent == change:
            differences.append(f"{name} seed {seed}: qres {' '.join(args)}: "
                               f"exited {parent[0]} in both trees: {parent[2][-200:]!r}")
        for what, a, b in zip(("exit code", "stdout", "stderr", "written file"), parent, change):
            if a != b:
                detail = f"{a} != {b}" if what == "exit code" else first_difference(a, b)
                differences.append(f"{name} seed {seed}: qres {' '.join(args)}: {what}: {detail}")
    return len(runs) + len(refused), differences


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="e.g. 1-10")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent_src.resolve(), "change": args.change_src.resolve()}
    for src in trees.values():
        if not (src / "qres" / "__init__.py").is_file():
            print(f"error: no qres package under {src}", file=sys.stderr)
            return 2

    total, differences = 0, []
    with tempfile.TemporaryDirectory(prefix="output-gate-") as work:
        for name in WORKLOADS:
            for seed in args.seeds:
                count, found = compare(trees, Path(work), name, seed)
                total += count
                differences += found
                print(f"{name} seed {seed}: {count} commands, {len(found)} differences",
                      flush=True)
    for line in differences:
        print(f"DIFFERS {line}")
    print(f"{total} comparisons, {len(differences)} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
