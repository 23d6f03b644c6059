"""Benchmark of the qres CLI (end to end) and of its layers (traced).

    python3 perfbench/run.py --workload plan --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` and from nowhere else. The seed generates the workload's
instance into a scratch directory inside the checkout, so the program
only ever sees generated files.

``--trace 0`` drives the ``qres`` CLI as child processes, one at a time
(a closed loop with one client), for ``--seconds`` seconds, and reports
the end-to-end metrics. ``--trace 1`` runs every layer's public function
in-process with spans around each call, and reports self times and work
counts per layer. The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
(prefixed ``#``) carry the per-command samples and the run's stamp.
``--smoke`` swaps in tiny instances of the same workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import checks
from workloads import MICRO, SMOKE, WORKLOADS, Shape, generate, grid, surface_cells

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# setup_s is the median of fresh `qres validate` runs: this many first,
# then one before every command, so the samples span the whole run.
SETUP_CALLS = 5
MIN_PASSES = 2  # outputs are compared between passes, so at least two
# The speed of a shared machine can drift by half for minutes at a time,
# far more than the run-to-run noise. A fixed, stdlib-only program runs as
# a child before and after every timed child; end-to-end times are
# reported in seconds at the speed where it takes NOMINAL_CALIBRATION_S.
# A `validate` lasts about as long as one calibration run, so its sample
# is scaled by the run just before it. A command lasts seconds, over which
# the speed can change, so its sample is scaled by the mean of the runs
# either side. The program does not import qres, so no change to the
# package moves it.
CALIBRATION = (
    "from fractions import Fraction\n"
    "total = Fraction(0)\n"
    "for i in range(1, 12000):\n"
    "    total += Fraction(1, i % 97 + 1) * i\n"
)
NOMINAL_CALIBRATION_S = 0.1
RUN_LIMIT_S = 170  # children are killed past this, so a run ends within 180 s

COMMAND_METRICS = {
    "solve": "solve_s",
    "eval": "eval_s",
    "sweep": "sweep_s",
    "surface": "surface_s",
    "export-lp": "export_lp_s",
    "oracle": "oracle_s",
}


def stamp() -> dict:
    """Source revision, interpreter and core count the result belongs to."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        head = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        head = None
    return {
        "git_head": head,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
    }


def code_digest() -> str:
    """Digest of the package and benchmark sources: what "the same code" means."""
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *Path(__file__).parent.glob("*.py")]):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


class Children:
    """Runs ``python -m qres.cli`` children and tallies every operation.

    Wall time is taken around spawn and exit; peak RSS is the child's own,
    from ``os.wait4`` (not the cumulative RUSAGE_CHILDREN maximum).
    """

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.pop("QRES_THREADS", None)  # measure the default thread count
        self.samples: dict[str, list[float]] = {}
        self.peak_rss_mib = 0.0
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, metric: str, args: list[str], stdout: Path) -> str | None:
        """Run ``qres ARGS``; return its output text, or None if it failed."""
        return self.python(metric, ["-m", "qres.cli", *args], stdout)

    def python(self, metric: str, args: list[str], stdout: Path) -> str | None:
        self.attempted += 1
        with open(stdout, "wb") as out, open(stdout.with_suffix(".err"), "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args],
                stdout=out, stderr=err, env=self.env, cwd=ROOT,
            )
            signal.alarm(max(1, int(self.deadline - time.monotonic())))
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except _Timeout:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.alarm(0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mib = max(self.peak_rss_mib, usage.ru_maxrss / 1024)
        if proc.returncode != 0:
            message = stdout.with_suffix(".err").read_text(errors="replace").strip()
            self.failures.append(f"{metric} {args[0]} exited {proc.returncode}: {message[-300:]}")
            return None
        self.samples.setdefault(metric, []).append(wall)
        return stdout.read_text(encoding="utf-8")


def end_to_end(shape: Shape, seed: int, seconds: float, tmp: Path, deadline: float):
    path = generate(shape, seed, tmp)
    inst = str(path)
    kids = Children(deadline)

    def check(what: str, verdict, *args) -> None:
        """One checking operation; a check that raises has failed."""
        kids.attempted += 1
        try:
            errors = verdict(*args)
        except Exception:
            errors = [traceback.format_exc(limit=3)]
        if errors:
            kids.failures.append(f"{what}: {'; '.join(errors[:5])}")

    def calibrate() -> float | None:
        """Wall time of one calibration child, or None if it failed."""
        if kids.python("calibration_s", ["-c", CALIBRATION], tmp / "calibration.out") is None:
            return None
        return kids.samples["calibration_s"][-1]

    setup_scaled: list[float] = []
    calibrated: dict[str, list[float]] = {}

    def setup(before: float | None) -> None:
        out = kids.run("setup_s", ["validate", inst], tmp / "validate.out")
        if out:
            kids.failures.append(f"validate printed diagnostics: {out[:300]}")
        if out is not None and before:
            setup_scaled.append(kids.samples["setup_s"][-1] * NOMINAL_CALIBRATION_S / before)

    # Untimed warm-up: the first run of a checkout compiles the bytecode.
    kids.run("warmup", ["validate", inst], tmp / "validate.out")
    kids.samples.pop("warmup", None)
    before = calibrate()
    for _ in range(SETUP_CALLS):
        setup(before)
        before = calibrate()

    reservations = tmp / "reservations.csv"
    commands = {
        "solve": ["solve", inst],
        "eval": ["eval", inst, "--reservations", str(reservations)],
        "sweep": ["sweep", inst, "--grid", shape.sweep_grid],
        "surface": [
            "surface", inst, "--grid", shape.surface_grid,
            "--waits", shape.surface_waits,
        ],
        "export-lp": ["export-lp", inst, "-o", str(tmp / "export.lp")],
        "oracle": ["solve", inst, "--oracle", "--seed", str(seed)],
    }
    shape_checks = {
        "solve": lambda text: checks.solve_shape(text, shape.triples),
        "eval": lambda text: checks.solve_shape(text, shape.triples),
        "oracle": lambda text: checks.solve_shape(text, shape.triples),
        "sweep": lambda text: checks.curve_shape(text, len(grid(shape.sweep_grid))),
        "surface": lambda text: checks.surface_shape(text, surface_cells(shape)),
    }
    first: dict[str, str] = {}
    start = time.monotonic()
    passes = 0
    longest = 0.0
    while time.monotonic() < deadline and (
        passes < MIN_PASSES or time.monotonic() - start + longest <= seconds
    ):
        begun = time.monotonic()
        for name in shape.commands:
            setup(before)
            metric = COMMAND_METRICS[name]
            text = kids.run(metric, commands[name], tmp / f"{name}.out")
            after = calibrate()
            if text is not None and before and after:
                calibrated.setdefault(metric, []).append(
                    kids.samples[metric][-1] * 2 * NOMINAL_CALIBRATION_S / (before + after)
                )
            before = after
            if text is None:
                continue
            if name == "export-lp":
                text = (tmp / "export.lp").read_text(encoding="ascii")
            if name not in first:
                first[name] = text
                if name in shape_checks:  # the LP gets the exact round-trip check
                    check(name, shape_checks[name], text)
                if name == "solve" and "eval" in shape.commands:
                    reservations.write_text(checks.reservations_csv(text))
            elif text != first[name]:
                kids.failures.append(f"{name}: output differs from the first pass")
        passes += 1
        longest = max(longest, time.monotonic() - begun)

    # Cross-route checks, one per workload, after the last child has run:
    # importing the package here earlier would swell the parent, whose
    # resident pages a spawned child's peak RSS can inherit.
    import routes
    from qres.instance import load_instance

    instance = load_instance(path)
    if "eval" in first:
        check("eval", lambda: [] if first["eval"] == first["solve"] else
              ["eval of the solved vector differs from solve"])
    if "solve" in first:
        check("plan optimality", routes.plan_optimality, instance, first["solve"])
    if "export-lp" in first:
        check("LP round trip", routes.audit_round_trip, instance, first["export-lp"])
    if "surface" in first:
        check("surface decomposition", routes.surface_decomposition, instance,
              first["surface"], grid(shape.surface_grid), grid(shape.surface_waits, MICRO))

    task = sum(
        statistics.median(calibrated.get(COMMAND_METRICS[c], [0.0])) for c in shape.commands
    )
    metrics = {
        "setup_s": (statistics.median(setup_scaled) if setup_scaled else 0.0, "s"),
        "task_s": (task, "s"),
        "peak_rss_mib": (kids.peak_rss_mib, "MiB"),
    }
    detail = {
        "passes": passes,
        "samples": kids.samples,
        "calibrated": calibrated,
        "failed_ops": len(kids.failures) / kids.attempted,
        "failures": kids.failures,
    }
    return kids.attempted, len(kids.failures), metrics, detail


def traced(shape: Shape, seed: int, seconds: float, tmp: Path, key: str, deadline: float):
    # The in-process CLI reads QRES_THREADS; unset it as for the children,
    # so the layers are timed at the default thread count.
    os.environ.pop("QRES_THREADS", None)
    import layers

    path = generate(shape, seed, tmp)
    expected = layers.expected_counts(shape)
    failures: list[str] = []
    seen: list[dict[str, int]] = []

    def one_pass(tracer) -> float:
        """One operation: every layer once. It fails on any check or count miss."""
        begun = time.perf_counter()
        try:
            counts, errors = layers.layer_pass(tracer, shape, path, tmp)
        except Exception:
            counts, errors = {}, [traceback.format_exc(limit=3)]
        wall = time.perf_counter() - begun
        errors += [
            f"{name} = {counts.get(name)}, the shape implies {value}"
            for name, value in expected.items()
            if counts.get(name) != value
        ]
        if seen and counts != seen[0]:
            errors.append(f"work counts {counts} differ from the first pass {seen[0]}")
        seen.append(counts)
        if errors:
            failures.append(f"pass {len(seen)}: {'; '.join(errors[:5])}")
        return wall

    # The first pass runs without spans: its wall time against the traced
    # passes' is the tracing overhead.
    untraced_wall = one_pass(layers.NoTracer())
    tracer = layers.Tracer()
    start = time.monotonic()
    walls: list[float] = []
    while not walls or (
        time.monotonic() - start + max(walls) <= seconds and time.monotonic() < deadline
    ):
        tracer.trace = len(walls)
        walls.append(one_pass(tracer))
    counts = seen[0]

    # Work counts must also repeat across runs of the same code and seed.
    record = WORK / f"counts-{key}-{code_digest()}.json"
    if record.exists():
        earlier = json.loads(record.read_text())
        if earlier != counts:
            failures.append(f"work counts {counts} differ from an earlier run {earlier}")
    elif not failures:
        record.write_text(json.dumps(counts, sort_keys=True))

    per_pass = [tracer.self_times(i) for i in range(len(walls))]
    metrics = {
        metric: (statistics.median(p.get(span, 0.0) for p in per_pass), "s")
        for span, metric in layers.TIMED.items()
    }
    metrics.update({name: (counts.get(name, 0), unit) for name, unit in layers.COUNTS.items()})
    traced_wall = statistics.median(walls)
    spans_file = WORK / f"spans-{key}.json"
    spans_file.write_text(json.dumps({"stamp": stamp(), "spans": tracer.spans}))
    detail = {
        "passes": len(walls),
        "untraced_pass_s": untraced_wall,
        "traced_pass_s": traced_wall,
        "tracing_overhead_s": traced_wall - untraced_wall,
        "spans_file": str(spans_file.relative_to(ROOT)),
        "failures": failures,
    }
    # Each pass is one operation, and so is the comparison with earlier runs.
    return len(seen) + 1, len(failures), metrics, detail


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny instances")
    args = parser.parse_args(argv)

    if not (SRC / "qres" / "__init__.py").is_file():
        print(f"error: no qres package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = importlib.util.find_spec("qres")
    if spec is None or Path(spec.origin).resolve() != (SRC / "qres" / "__init__.py").resolve():
        print(f"error: qres does not resolve to {SRC}", file=sys.stderr)
        return 2

    shape = (SMOKE if args.smoke else WORKLOADS)[args.workload]
    key = f"{args.workload}-{args.seed}{'-smoke' if args.smoke else ''}"
    deadline = time.monotonic() + RUN_LIMIT_S
    signal.signal(signal.SIGALRM, _alarm)
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{key}-", dir=WORK))
    try:
        if args.trace:
            attempted, failed, metrics, detail = traced(
                shape, args.seed, args.seconds, tmp, key, deadline
            )
        else:
            attempted, failed, metrics, detail = end_to_end(
                shape, args.seed, args.seconds, tmp, deadline
            )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print("# stamp " + json.dumps(stamp()))
    print("# workload " + json.dumps({"name": args.workload, "seed": args.seed,
                                       "shape": shape.describe()}))
    print("# detail " + json.dumps(detail))
    for message in detail["failures"]:
        print(f"# FAILED {message}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
