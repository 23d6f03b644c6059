"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance is pinned here; "exact" means Fraction equality on
fixed-point money.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import (
    REF_RATES,
    audit_shaped_doc,
    certified_optimum,
    enumerate_recourse,
    make_rates,
    random_instance,
    recourse_cost,
    with_wait_singleton,
)
from qres.cli import run
from qres.extform import build_extensive_form, parse_lp, render_lp
from qres.instance import instance_from_document, load_instance
from qres.recourse import optimal_recourse, penalty_time
from qres.scenarios import Scenario, build_space, space_for_circuit
from qres.oracles import brute_force_triple, joint_enumeration_oracle, scenario_costs
from qres.solver import expected_cost, solve_instance
from qres.sweep import sweep_reservation, sweep_reservation_waiting
from qres.units import MICRO

DATA = Path(__file__).parent / "data"
REF_PATH = str(DATA / "reference.json")


@contextmanager
def criterion(number: int, label: str):
    start = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        status = "PASS" if ok else "FAIL"
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE {status} [{number}] {label} ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def reference():
    return load_instance(REF_PATH)


def test_criterion_1_reference_solve_with_oracle(reference, capsys):
    with criterion(1, "reference instance: solve --oracle under 1 s, optimum 19"):
        start = time.perf_counter()
        assert run(["solve", REF_PATH, "--oracle"]) == 0
        elapsed = time.perf_counter() - start
        capsys.readouterr()
        assert elapsed < 1.0, f"solve --oracle took {elapsed:.3f}s"

        solution = solve_instance(reference)
        for row in solution.per_triple:
            key = row.key
            machine = reference.machine(key.provider_id, key.machine_id)
            brute_level, brute_cost = brute_force_triple(
                reference.rate(key.circuit_id, key.provider_id),
                reference.demand_sets[key.circuit_id],
                reference.wait_sets[key.circuit_id],
                reference.exec_time(*key),
                machine.capacity_qubits,
            )
            assert (row.reserved, row.total) == (brute_level, brute_cost)
        # frozen after the brute-force scan above confirmed it
        assert set(solution.reservations.values()) == {19}


RATE_GRID = (0, 100_000, 1_000_000, 7_000_000, 10_000_000)  # 0..10 dollars


def test_criterion_2_recourse_matches_exhaustive_enumeration():
    with criterion(2, "recourse equals exhaustive enumeration on the full grid"):
        start = time.perf_counter()
        exec_time, wait_time = 7000, 5000
        scenarios = [
            Scenario(demand_qubits=beta, wait_time=wait_time)
            for beta in range(9)
        ]
        mismatches = 0
        for utilize in RATE_GRID:
            for on_demand in RATE_GRID:
                for penalty in RATE_GRID:
                    rates = make_rates(
                        utilize=utilize, on_demand=on_demand, penalty=penalty
                    )
                    for reserved in range(9):
                        for scenario in scenarios:
                            got = optimal_recourse(
                                reserved, scenario, rates, exec_time
                            )
                            _, _, best = enumerate_recourse(
                                reserved,
                                scenario.demand_qubits,
                                rates,
                                exec_time,
                                wait_time,
                            )
                            if recourse_cost(rates, got) != best:
                                mismatches += 1
        assert mismatches == 0
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"grid took {elapsed:.3f}s"


def test_criterion_3_separability_on_random_instances():
    with criterion(3, "per-triple solve equals joint enumeration on 50 instances"):
        start = time.perf_counter()
        rng = random.Random(31337)
        for _ in range(50):
            inst = random_instance(rng, max_triples=2, max_capacity=8)
            fast = solve_instance(inst)
            oracle = joint_enumeration_oracle(inst)
            assert fast.reservations == oracle.reservations
            assert fast.expected_total == oracle.expected_total
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"50 instances took {elapsed:.3f}s"


def test_criterion_4_extensive_form_consistency():
    with criterion(4, "the extensive form's optimality certificate proves the solver"):
        rng = random.Random(2718)
        instances = [
            random_instance(
                rng, max_triples=2, max_capacity=4, max_demand=4, max_outcomes=3,
                max_waits=2,
            )
            for _ in range(20)
        ]
        for inst in [*instances, instance_from_document(audit_shaped_doc())]:
            sol = solve_instance(inst)
            assert certified_optimum(inst, sol.reservations) == sol.expected_total / MICRO


def test_criterion_5_reservation_curve_shape(reference):
    with criterion(5, "cost curve: linear first stage, falling convex second"):
        curve = sweep_reservation(reference, range(31))
        slope = Fraction(6 * 1_680_000)  # 10.08 dollars per uniform qubit
        for point in curve.points:
            assert point.first_stage == slope * point.reserved
        seconds = [p.second_stage for p in curve.points]
        assert all(a >= b for a, b in zip(seconds, seconds[1:]))
        totals = [p.total for p in curve.points]
        steps = [b - a for a, b in zip(totals, totals[1:])]
        assert all(s2 >= s1 for s1, s2 in zip(steps, steps[1:]))
        for x in range(22, 31):
            for cid, pid, mid in reference.triples():
                rates = reference.rate(cid, pid)
                exec_time = reference.exec_time(cid, pid, mid)
                for s in space_for_circuit(reference, cid).scenarios:
                    assert optimal_recourse(x, s, rates, exec_time).on_demand == 0


def test_criterion_6_reservation_waiting_surface(reference):
    with criterion(6, "surface: penalty independent of reservations, exact slope"):
        x_grid = range(31)
        wait_grid = range(1000, 10001, 1000)
        surface = sweep_reservation_waiting(reference, x_grid, wait_grid)
        penalties = {}
        for wait in wait_grid:
            collapsed = with_wait_singleton(reference, wait)
            per_wait = {
                expected_cost(
                    collapsed, {k: x for k in collapsed.triples()}
                ).expected_penalty
                for x in x_grid
            }
            assert len(per_wait) == 1  # independent of the reservation axis
            penalties[wait] = per_wait.pop()
        rows = {(r.reserved, r.arranged_wait): r.total for r in surface.rows}
        # each second of under-arrangement costs the sum of penalty rates
        total_rate = Fraction(6 * 10_000_000)
        for wait in (1000, 2000, 3000, 4000):
            drop = penalties[wait] - penalties[wait + 1000]
            assert drop == total_rate * Fraction(1000, MICRO)
            assert rows[(9, wait)] - rows[(9, wait + 1000)] == drop
        best = min(surface.rows, key=lambda r: r.total)
        optimum = solve_instance(reference)
        assert {best.reserved} == set(optimum.reservations.values())
        assert best.arranged_wait >= 5000
        assert penalties[best.arranged_wait] == 0


def test_criterion_7_expected_penalty_formula(reference):
    with criterion(7, "expected over-wait 0.010/9 s, penalty 10x that, per triple"):
        vector = {key: 0 for key in reference.triples()}
        rows = scenario_costs(reference, vector)
        per_triple_penalty = float(sum(row.penalty for row in rows) / 6) / MICRO
        assert per_triple_penalty == pytest.approx(10 * 0.010 / 9, abs=1e-12)
        space = space_for_circuit(reference, "qft")
        rates = reference.rate("qft", "p1")
        exec_time = reference.exec_time("qft", "p1", "m1")
        one_triple = [
            (s, optimal_recourse(0, s, rates, exec_time).over_wait)
            for s in space.scenarios
        ]
        expected_wait = sum(
            float(fp) * over / MICRO
            for (s, over), fp in zip(one_triple, space.exact_probabilities)
        )
        assert expected_wait == pytest.approx(0.010 / 9, abs=1e-12)
        assert all(
            over == penalty_time(5000, s.wait_time) for s, over in one_triple
        )


def test_criterion_8_lp_round_trip_and_golden(reference):
    with criterion(8, "LP export/parse identity and golden file"):
        rng = random.Random(1618)
        for _ in range(20):
            form = build_extensive_form(random_instance(rng))
            assert parse_lp(render_lp(form)) == form
        single = load_instance(DATA / "golden_single_instance.json")
        golden = (DATA / "golden_single.lp").read_bytes()
        assert render_lp(build_extensive_form(single)).encode("utf-8") == golden


def test_criterion_9_property_suites(reference):
    with criterion(9, "property suites with fixed seeds"):
        start = time.perf_counter()
        rng = random.Random(55901)

        # scenario normalization: uniform product spaces sum to exactly 1
        for _ in range(25):
            demand = sorted(rng.sample(range(0, 25), rng.randint(1, 6)))
            waits = sorted(rng.sample(range(0, 9001, 300), rng.randint(1, 5)))
            space = build_space("c", demand, waits)
            assert sum(space.exact_probabilities) == 1

        # recourse feasibility and cost monotonicity in the reservation
        for _ in range(100):
            rates = make_rates(
                utilize=rng.randint(0, 5_000_000),
                on_demand=rng.randint(5_000_000, 10_000_000),
                penalty=rng.randint(0, 10_000_000),
            )
            t = rng.randint(0, 12000)
            s = Scenario(
                demand_qubits=rng.randint(0, 10),
                wait_time=rng.randint(0, 9000),
            )
            previous = None
            for reserved in range(11):
                d = optimal_recourse(reserved, s, rates, t)
                assert d.utilized <= reserved
                assert d.utilized + d.on_demand == s.demand_qubits
                assert t <= s.wait_time + d.over_wait
                cost = recourse_cost(rates, d)
                if previous is not None:
                    assert cost <= previous
                previous = cost

        # uniform-reservation convexity and penalty invariance
        curve = sweep_reservation(reference, range(31))
        totals = [p.total for p in curve.points]
        steps = [b - a for a, b in zip(totals, totals[1:])]
        assert all(s2 >= s1 for s1, s2 in zip(steps, steps[1:]))
        assert len({p.penalty for p in curve.points}) == 1

        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"property suites took {elapsed:.3f}s"
