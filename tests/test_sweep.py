from __future__ import annotations

import random
from fractions import Fraction

import pytest

from helpers import make_instance, random_probs, random_rates, with_wait_singleton
from qres.instance import Circuit, Instance, Machine
from qres.solver import CapacityError, CircuitTable, expected_cost, solve_instance
from qres.sweep import (
    min_capacity,
    render_csv,
    sweep_reservation,
    sweep_reservation_waiting,
)

SLOPE = Fraction(6 * 1_680_000)  # six triples at 1.68 $/qubit


@pytest.fixture(scope="module")
def reference_curve(reference_instance):
    return sweep_reservation(reference_instance, range(31))


# --- reservation sweep -------------------------------------------------------


def test_first_stage_is_exactly_linear(reference_curve):
    for point in reference_curve.points:
        assert point.first_stage == SLOPE * point.reserved


def test_second_stage_never_increases(reference_curve):
    seconds = [p.second_stage for p in reference_curve.points]
    assert all(a >= b for a, b in zip(seconds, seconds[1:]))


def test_total_is_discretely_convex(reference_curve):
    totals = [p.total for p in reference_curve.points]
    steps = [b - a for a, b in zip(totals, totals[1:])]
    assert all(s2 >= s1 for s1, s2 in zip(steps, steps[1:]))


def test_each_point_adds_up(reference_curve):
    for p in reference_curve.points:
        assert p.total == p.first_stage + p.second_stage + p.penalty


def test_curve_argmin_matches_solver(reference_instance, reference_curve):
    best = min(reference_curve.points, key=lambda p: p.total)
    sol = solve_instance(reference_instance)
    assert set(sol.reservations.values()) == {best.reserved}
    assert sol.expected_total == best.total
    assert best.reserved == 19


def test_past_max_demand_only_reservation_grows(reference_curve):
    # from 22 qubits on, demand is always covered: the marginal cost of
    # one more reserved qubit is exactly the first-stage slope
    totals = {p.reserved: p.total for p in reference_curve.points}
    for x in range(22, 30):
        assert totals[x + 1] - totals[x] == SLOPE


def test_single_point_grid():
    inst = make_instance()
    curve = sweep_reservation(inst, [0])
    assert len(curve.points) == 1
    assert curve.points[0].first_stage == 0


def test_grid_must_fit_capacity():
    inst = make_instance(capacity=4)
    with pytest.raises(CapacityError):
        sweep_reservation(inst, [0, 5])


def test_grid_must_increase():
    inst = make_instance()
    with pytest.raises(ValueError, match="strictly increasing"):
        sweep_reservation(inst, [3, 3])


# --- reservation x waiting sweep ---------------------------------------------


@pytest.fixture(scope="module")
def reference_surface(reference_instance):
    return sweep_reservation_waiting(
        reference_instance, range(0, 31, 5), range(1000, 10001, 1000)
    )


def test_surface_shape_and_order(reference_surface):
    assert len(reference_surface.rows) == 7 * 10
    seen = [(r.reserved, r.arranged_wait) for r in reference_surface.rows]
    expected = [(x, w) for x in range(0, 31, 5) for w in range(1000, 10001, 1000)]
    assert seen == expected


def test_surface_penalty_shift_independent_of_reservation(reference_surface):
    # totals at two waits differ by the penalty change only, identically
    # for every reservation level
    rows = {(r.reserved, r.arranged_wait): r.total for r in reference_surface.rows}
    shifts = {
        x: rows[(x, 1000)] - rows[(x, 9000)] for x in range(0, 31, 5)
    }
    assert len(set(shifts.values())) == 1


def test_surface_marginal_penalty_below_exec_time(reference_surface):
    # all six triples run 5 ms; below that, each arranged millisecond
    # saves exactly 6 x 10 $/s x 0.001 s
    rows = {(r.reserved, r.arranged_wait): r.total for r in reference_surface.rows}
    for wait in (1000, 2000, 3000, 4000):
        assert rows[(10, wait)] - rows[(10, wait + 1000)] == Fraction(
            6 * 10_000_000 * 1000, 10**6
        )


def test_surface_no_penalty_at_or_above_exec_time(reference_instance, reference_surface):
    rows = {(r.reserved, r.arranged_wait): r.total for r in reference_surface.rows}
    for wait in (5000, 7000, 10000):
        relaxed = with_wait_singleton(reference_instance, wait)
        sol = expected_cost(relaxed, {k: 10 for k in relaxed.triples()})
        assert sol.expected_penalty == 0
        assert rows[(10, wait)] == sol.expected_total


def test_surface_minimum_at_solver_level_and_covered_wait(reference_instance):
    surface = sweep_reservation_waiting(
        reference_instance, range(31), range(1000, 10001, 1000)
    )
    best = min(surface.rows, key=lambda r: r.total)
    assert best.reserved == 19
    assert best.arranged_wait >= 5000
    floor = min(r.total for r in surface.rows)
    ties = [r for r in surface.rows if r.total == floor]
    assert {r.reserved for r in ties} == {19}
    assert {r.arranged_wait for r in ties} == {5000, 6000, 7000, 8000, 9000, 10000}


def test_sweeps_equal_cell_by_cell_route_with_explicit_probabilities():
    tenths = (0.1,) * 10  # each read as exactly 1/10
    inst = make_instance(
        demand=(2, 3, 3, 4, 5, 6, 7, 8, 9, 9),
        wait=tuple(range(1000, 10001, 1000)),
        demand_probs=tenths,
        wait_probs=tenths,
        providers=2,
        capacity=10,
    )
    x_grid, wait_grid = range(0, 11, 2), range(0, 12001, 1500)
    surface = sweep_reservation_waiting(inst, x_grid, wait_grid)
    cells = [
        expected_cost(
            with_wait_singleton(inst, w), {k: x for k in inst.triples()}
        ).expected_total
        for x in x_grid
        for w in wait_grid
    ]
    assert [row.total for row in surface.rows] == cells
    curve = sweep_reservation(inst, x_grid)
    points = [expected_cost(inst, {k: x for k in inst.triples()}) for x in x_grid]
    assert [
        (p.first_stage, p.second_stage, p.penalty, p.total) for p in curve.points
    ] == [
        (
            s.expected_first_stage,
            s.expected_second_stage,
            s.expected_penalty,
            s.expected_total,
        )
        for s in points
    ]


def test_surface_builds_only_the_instance_tables(monkeypatch):
    inst = make_instance(demand=(1, 4), wait=(1000, 2000), providers=2, capacity=4)
    built = []
    real_new = CircuitTable.__new__

    def counted(cls, *args, **kwargs):
        table = real_new(cls, *args, **kwargs)
        built.append(table)
        return table

    monkeypatch.setattr(CircuitTable, "__new__", counted)
    surface = sweep_reservation_waiting(inst, range(5), range(0, 6001, 500))
    assert len(surface.rows) == 5 * 13
    assert len(built) == len(inst.circuits)


def surface_shaped(providers: int, machines: int) -> Instance:
    """3 circuits of 30 demands x 12 waits on every machine, capacity 40.

    Every demand vector and the wait vectors of circuits 0 and 2 are
    written six-decimal probabilities, as in the surface benchmark.
    """
    rng = random.Random(2024)
    cids = ("c0", "c1", "c2")
    provider_ids = tuple(f"p{j}" for j in range(providers))
    machine_list = tuple(
        Machine(p, f"m{k}", 40) for p in provider_ids for k in range(machines)
    )
    return Instance(
        circuits=tuple(Circuit(cid) for cid in cids),
        providers=provider_ids,
        machines=machine_list,
        rates={(cid, p): random_rates(rng) for cid in cids for p in provider_ids},
        exec_times={
            (cid, m.provider_id, m.machine_id): rng.randint(0, 20) * 1000
            for cid in cids
            for m in machine_list
        },
        demand_sets={cid: tuple(range(i, i + 30)) for i, cid in enumerate(cids)},
        wait_sets={cid: tuple(range(0, 12000, 1000)) for cid in cids},
        demand_probs={cid: random_probs(rng, 30) for cid in cids},
        wait_probs={cid: random_probs(rng, 12) for cid in ("c0", "c2")},
    )


@pytest.mark.parametrize("providers, machines", [(3, 2), (1, 1), (6, 4)])
def test_surface_makes_one_fraction_per_cell(monkeypatch, providers, machines):
    # Each cell is made once from its level's cost and its wait's penalty.
    # A level's cost adds its triples as integers over each table's own
    # denominator, so the Fractions it makes are bounded by the circuits,
    # not the triples: at most two per circuit, plus two.
    inst = surface_shaped(providers, machines)
    x_grid, wait_grid = range(0, 41, 2), range(0, 20001, 1000)
    made = []
    real_new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(None)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    surface = sweep_reservation_waiting(inst, x_grid, wait_grid)
    monkeypatch.undo()
    cells = len(x_grid) * len(wait_grid)
    assert len(surface.rows) == cells
    per_level = 2 * len(inst.circuits) + 2
    assert len(made) <= cells + len(wait_grid) + per_level * len(x_grid)


def test_with_wait_singleton_keeps_demand(reference_instance):
    relaxed = with_wait_singleton(reference_instance, 1234)
    assert relaxed.wait_sets == {"qft": (1234,)}
    assert relaxed.demand_sets == reference_instance.demand_sets
    assert relaxed.wait_probs == {}


# --- CSV emission -------------------------------------------------------------


def test_csv_single_point_curve():
    inst = make_instance()
    text = render_csv(sweep_reservation(inst, [0]))
    lines = text.splitlines()
    assert lines[0] == "reserved,first_stage,second_stage,penalty,total"
    assert len(lines) == 2


def test_csv_surface_header(reference_surface):
    lines = render_csv(reference_surface).splitlines()
    assert lines[0] == "reserved,arranged_wait,total"
    assert lines[1].startswith("0,0.001000,")


def test_golden_reference_curve(data_dir, reference_curve):
    golden = (data_dir / "golden_curve.csv").read_text(encoding="utf-8")
    assert render_csv(reference_curve) == golden


def test_min_capacity(reference_instance):
    assert min_capacity(reference_instance) == 30
