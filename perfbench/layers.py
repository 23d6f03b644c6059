"""Traced in-process pass over the public function of every qres layer.

Spans are recorded from here, around the calls into each layer; the
package itself is not instrumented. The one nested span comes from
wrapping ``qres.cli.solve_instance`` for the duration of an in-process
``cli.run(["solve", ...])``, so the CLI's own time (argument parsing,
loading, the CSV writer's pricing pass, output) is its self time.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from pathlib import Path

from qres import cli
from qres.extform import build_extensive_form, parse_lp, render_lp
from qres.instance import Instance, load_instance, validate
from qres.recourse import optimal_recourse
from qres.scenarios import space_for_circuit
from qres.solver import TripleKey, brute_force_triple, per_triple_costs
from qres.sweep import render_csv, sweep_reservation, sweep_reservation_waiting
from qres.units import exact_decimal

from workloads import MICRO, Shape, grid, surface_cells

# Span name -> per-layer metric name (self time in seconds).
TIMED = {
    "instance.load": "instance.load_s",
    "instance.validate": "instance.validate_s",
    "scenarios.build": "scenarios.build_s",
    "recourse.pass": "recourse.pass_s",
    "solver.solve": "solver.solve_s",
    "solver.price": "solver.price_s",
    "solver.brute_force": "solver.brute_force_s",
    "sweep.curve": "sweep.curve_s",
    "sweep.surface": "sweep.surface_s",
    "sweep.render": "sweep.render_s",
    "extform.build": "extform.build_s",
    "extform.render": "extform.render_s",
    "extform.parse": "extform.parse_s",
    "units.exact_decimal": "units.exact_decimal_s",
    "cli.solve": "cli.solve_self_s",
}

# Work counts -> unit. They repeat exactly for one shape, seed and code.
COUNTS = {
    "scenarios.count": "count",
    "scenarios.triple_count": "count",
    "sweep.cells": "count",
    "extform.variables": "count",
    "extform.rows": "count",
    "extform.lp_bytes": "bytes",
}


class Tracer:
    """Spans (trace id, name, start, end, parent index) kept in memory."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.trace = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "trace": self.trace,
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def self_times(self, trace: int) -> dict[str, float]:
        """Per span name: total duration minus the time its children cover."""
        covered: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span["trace"] == trace and span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        out: dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            if span["trace"] == trace:
                out[span["name"]] += span["end"] - span["start"] - covered[index]
        return dict(out)


class NoTracer:
    def span(self, name: str):
        return nullcontext()


def first_triple(instance: Instance) -> Instance:
    """The instance cut down to its first circuit on its first machine."""
    machine = instance.machines[0]
    return replace(
        instance,
        circuits=instance.circuits[:1],
        providers=(machine.provider_id,),
        machines=(machine,),
    )


def expected_counts(shape: Shape) -> dict[str, int]:
    """Work counts the shape implies; ``extform.lp_bytes`` depends on values."""
    lp_triples = shape.triples if shape.whole_oracles else 1
    return {
        "scenarios.count": shape.circuits * shape.scenarios,
        "scenarios.triple_count": shape.triples * shape.scenarios,
        "sweep.cells": surface_cells(shape),
        "extform.variables": lp_triples * (1 + 3 * shape.scenarios),
        "extform.rows": lp_triples * 3 * shape.scenarios,
    }


def layer_pass(
    tracer: Tracer | NoTracer, shape: Shape, path: Path, out_dir: Path
) -> tuple[dict[str, int], list[str]]:
    """One call of each layer's public function; returns (counts, failures)."""
    span = tracer.span
    errors: list[str] = []
    counts: dict[str, int] = {}

    with span("instance.load"):
        instance = load_instance(path)
    with span("instance.validate"):
        diagnostics = validate(instance)
    if diagnostics:
        errors.append(f"validate reported {diagnostics[0]}")

    with span("scenarios.build"):
        spaces = {cid: space_for_circuit(instance, cid) for cid in instance.circuit_ids()}
    triples = [TripleKey(*key) for key in instance.triples()]
    counts["scenarios.count"] = sum(len(space) for space in spaces.values())
    counts["scenarios.triple_count"] = sum(len(spaces[k.circuit_id]) for k in triples)

    solved = []
    real_solve = cli.solve_instance

    def traced_solve(inst, **kwargs):
        with span("solver.solve"):
            solution = real_solve(inst, **kwargs)
        solved.append(solution)
        return solution

    cli.solve_instance = traced_solve
    try:
        with span("cli.solve"):
            code = cli.run(["solve", str(path), "-o", str(out_dir / "layer_solve.csv")])
    finally:
        cli.solve_instance = real_solve
    if code != 0 or len(solved) != 1:
        return counts, errors + [f"in-process solve exited {code}"]
    levels = solved[0].reservations

    with span("solver.price"):
        priced = per_triple_costs(instance, levels)
    if sum(row.total for row in priced) != solved[0].expected_total:
        errors.append("per_triple_costs does not add up to the solved total")

    with span("recourse.pass"):
        for key in triples:
            rates = instance.rate(key.circuit_id, key.provider_id)
            exec_time = instance.exec_time(*key)
            reserved = levels[key]
            for scenario in spaces[key.circuit_id].scenarios:
                optimal_recourse(reserved, scenario, rates, exec_time)

    oracle_instance = instance if shape.whole_oracles else first_triple(instance)
    with span("solver.brute_force"):
        for key in oracle_instance.triples():
            cid, pid, mid = key
            best, _ = brute_force_triple(
                instance.rate(cid, pid),
                instance.demand_sets[cid],
                instance.wait_sets[cid],
                instance.exec_time(*key),
                instance.machine(pid, mid).capacity_qubits,
                instance.demand_probs.get(cid),
                instance.wait_probs.get(cid),
            )
            if best != levels[TripleKey(*key)]:
                errors.append(f"{key}: brute force level {best} != {levels[key]}")

    with span("sweep.curve"):
        curve = sweep_reservation(instance, grid(shape.sweep_grid))
    with span("sweep.surface"):
        surface = sweep_reservation_waiting(
            instance, grid(shape.surface_grid), grid(shape.surface_waits, MICRO)
        )
    counts["sweep.cells"] = len(surface.rows)
    with span("sweep.render"):
        render_csv(curve)
        render_csv(surface)

    with span("extform.build"):
        form = build_extensive_form(oracle_instance)
    with span("extform.render"):
        text = render_lp(form)
    with span("units.exact_decimal"):
        for _, coef in form.objective:
            exact_decimal(abs(coef))
        for row in form.constraints:
            for _, coef in row.terms:
                exact_decimal(abs(coef))
            exact_decimal(row.rhs)
        for var in form.variables:
            if var.upper is not None:
                exact_decimal(var.lower)
                exact_decimal(var.upper)
    with span("extform.parse"):
        parsed = parse_lp(text)
    if parsed != form:
        errors.append("parse_lp(render_lp(form)) != form")
    counts["extform.variables"] = len(form.variables)
    counts["extform.rows"] = len(form.constraints)
    counts["extform.lp_bytes"] = len(text.encode("ascii"))
    return counts, errors
