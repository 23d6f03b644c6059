"""A third-party check of the exported LP: HiGHS, through scipy.optimize.milp.

The package needs nothing outside the standard library; this module runs
only where scipy is installed. HiGHS works in floating point, so this is
the suite's one tolerance check. It adds to the exact ``==`` oracles and
replaces none of them.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

pytest.importorskip("scipy")
from scipy.optimize import Bounds, LinearConstraint, milp  # noqa: E402
from scipy.sparse import coo_array  # noqa: E402

from helpers import random_instance  # noqa: E402
from qres import parse_lp, render_lp  # noqa: E402
from qres.cli import run  # noqa: E402
from qres.extform import SENSE_LE, build_extensive_form  # noqa: E402
from qres.instance import Instance, load_instance  # noqa: E402
from qres.solver import Solution, per_triple_costs, solve_instance  # noqa: E402
from qres.units import MICRO  # noqa: E402

DATA_DIR = Path(__file__).parent / "data"


def solve_with_highs(text: str) -> tuple[float, list[float]]:
    """Objective and the reservation (``xr_``) values of an LP, in form order."""
    form = parse_lp(text)
    n = len(form.variables)
    cost = [0.0] * n
    for index, coef in form.objective:
        cost[index] += float(coef)
    rows, cols, values, lower, upper = [], [], [], [], []
    for r, row in enumerate(form.constraints):
        for index, coef in row.terms:
            rows.append(r)
            cols.append(index)
            values.append(float(coef))
        rhs = float(row.rhs)
        lower.append(-math.inf if row.sense == SENSE_LE else rhs)
        upper.append(rhs if row.sense == SENSE_LE else math.inf)
    matrix = coo_array((values, (rows, cols)), shape=(len(form.constraints), n))
    result = milp(
        cost,
        constraints=LinearConstraint(matrix.tocsr(), lower, upper),
        bounds=Bounds(
            [float(v.lower) for v in form.variables],
            [math.inf if v.upper is None else float(v.upper)
             for v in form.variables],
        ),
        integrality=[1 if v.kind == "integer" else 0 for v in form.variables],
        options={"mip_rel_gap": 0},
    )
    assert result.status == 0, result.message
    reserved = [x for v, x in zip(form.variables, result.x) if v.name.startswith("xr_")]
    return result.fun, reserved


def unique_argmins(instance: Instance, solution: Solution) -> dict:
    """The kernel's level of each triple where it is the unique argmin.

    A level is unique when the triple's cost is strictly higher at x-1
    and at x+1 (a neighbour outside [0, capacity] does not count).
    """
    caps = {
        key: instance.machine(key.provider_id, key.machine_id).capacity_qubits
        for key in instance.triples()
    }

    def totals(shift: int) -> dict:
        vector = {
            key: min(max(level + shift, 0), caps[key])
            for key, level in solution.reservations.items()
        }
        return {row.key: row.total for row in per_triple_costs(instance, vector)}

    below, above = totals(-1), totals(1)
    return {
        row.key: row.reserved
        for row in solution.per_triple
        if (row.reserved == 0 or below[row.key] > row.total)
        and (row.reserved == caps[row.key] or above[row.key] > row.total)
    }


def check_against_highs(instance: Instance, text: str) -> dict:
    """Compare HiGHS with the kernel; returns the levels it pinned."""
    objective, reserved = solve_with_highs(text)
    solution = solve_instance(instance)
    assert math.isclose(objective, float(solution.expected_total / MICRO), rel_tol=1e-9)
    by_key = dict(zip(instance.triples(), reserved))
    pinned = unique_argmins(instance, solution)
    for key, level in pinned.items():
        assert round(by_key[key]) == level, key
    return pinned


def audit_smoke_doc(seed: int) -> dict:
    """The audit benchmark's smoke shape: 2 circuits x 1 provider x 2
    machines, |D| = 4 x |W| = 3, capacity 6, uniform probabilities."""
    rng = random.Random(seed)
    machines = [{"provider": "p0", "machine": f"m{k}", "capacity": 6} for k in range(2)]
    circuits, rates, exec_times = [], [], []
    for i in range(2):
        cid = f"c{i:02d}"
        lo = rng.randint(0, 1)
        step, first = rng.randint(1, 3) * 500, rng.randint(0, 4) * 1000
        waits = [(first + k * step) / MICRO for k in range(3)]
        circuits.append(
            {"id": cid, "demand_set": {"lo": lo, "hi": lo + 3}, "wait_set": waits}
        )
        rates.append(
            {
                "circuit": cid,
                "provider": "p0",
                "reserve": rng.randint(50, 350) / 100,
                "utilize": rng.randint(5, 30) / 100,
                "on_demand": rng.randint(500, 900) / 100,
                "penalty": rng.randint(500, 2000) / 100,
            }
        )
        for m in machines:
            seconds = rng.randint(first, first + 2 * step + 5000) / MICRO
            exec_times.append(
                {"circuit": cid, "provider": "p0", "machine": m["machine"],
                 "seconds": seconds}
            )
    return {
        "circuits": circuits,
        "providers": ["p0"],
        "machines": machines,
        "default_rates": {"reserve": 1.68, "utilize": 0.1, "on_demand": 7, "penalty": 10},
        "rates": rates,
        "exec_times": exec_times,
    }


def exported(path: Path, tmp_path: Path, capsys) -> str:
    target = tmp_path / "form.lp"
    assert run(["export-lp", str(path), "-o", str(target)]) == 0
    assert capsys.readouterr().out == ""
    return target.read_text(encoding="ascii")


@pytest.mark.parametrize("name", ["reference.json", "golden_single_instance.json"])
def test_highs_agrees_on_the_bundled_instances(name, tmp_path, capsys):
    path = DATA_DIR / name
    instance = load_instance(path)
    pinned = check_against_highs(instance, exported(path, tmp_path, capsys))
    # Every level of both is the unique argmin, so HiGHS pins them all.
    assert len(pinned) == len(instance.triples())


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_highs_agrees_on_the_audit_smoke_shape(seed, tmp_path, capsys):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(audit_smoke_doc(seed)), encoding="utf-8")
    instance = load_instance(path)
    pinned = check_against_highs(instance, exported(path, tmp_path, capsys))
    assert pinned


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_highs_agrees_on_small_random_instances(rng):
    instance = random_instance(rng, max_triples=3, max_capacity=6)
    check_against_highs(instance, render_lp(build_extensive_form(instance)))
