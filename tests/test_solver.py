from __future__ import annotations

import itertools
import random
import re
import tracemalloc
import weakref
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    REF_RATES,
    WIDE_PEAK_LIMIT,
    audit_shaped_doc,
    exact_probabilities,
    make_instance,
    make_rates,
    penalty_cost,
    probabilities,
    random_instance,
    random_marginals,
    random_rates,
    recourse_cost,
    reference_expected_cost,
    reference_per_triple_costs,
    reference_surface,
    reference_sweep,
    solve_one_triple,
    traced_peak,
    wide_single_triple,
)
from qres import oracles, solver
from qres.instance import (
    CostRates,
    Circuit,
    GuardError,
    Instance,
    Machine,
    instance_from_document,
    penalty_time,
    validate,
)
from qres.recourse import optimal_recourse, qubit_costs
from qres.extform import build_extensive_form
from qres.scenarios import ScenarioError, build_space, space_for_circuit
from qres.oracles import (
    brute_force_triple,
    joint_enumeration_oracle,
    scenario_costs,
    verify_solution,
)
from qres.solver import (
    CapacityError,
    ModelError,
    TripleKey,
    expected_cost,
    per_triple_costs,
    solve_instance,
)
from qres.sweep import sweep_reservation, sweep_reservation_waiting

REF_DEMAND = tuple(range(10, 23))
REF_WAIT = tuple(range(1000, 9001, 1000))


# --- expected_cost ----------------------------------------------------------


def test_expected_cost_single_scenario_reservation_covers():
    inst = make_instance(demand=(5,), wait=(3000,), exec_time=3000)
    sol = expected_cost(inst, {("c1", "p1", "m1"): 5})
    assert sol.expected_first_stage == Fraction(5 * 1_680_000)
    assert sol.expected_second_stage == Fraction(5 * 100_000)
    assert sol.expected_penalty == 0
    assert sol.expected_total == Fraction(8_900_000)  # 8.9 dollars


def test_expected_cost_all_on_demand():
    inst = make_instance(demand=(5,), wait=(3000,), exec_time=3000)
    sol = expected_cost(inst, {("c1", "p1", "m1"): 0})
    assert sol.expected_total == Fraction(35_000_000)  # 5 qubits at 7 dollars


def test_expected_cost_full_reservation_never_buys_on_demand(reference_instance):
    # 22 is the largest demand: every scenario's recourse uses reservations.
    inst = reference_instance
    for cid, pid, mid in inst.triples():
        rates, exec_time = inst.rate(cid, pid), inst.exec_time(cid, pid, mid)
        for scenario in space_for_circuit(inst, cid).scenarios:
            decision = optimal_recourse(22, scenario, rates, exec_time)
            assert decision.on_demand == 0


def test_expected_cost_decomposition_adds_up(reference_instance):
    vector = {key: 7 for key in reference_instance.triples()}
    sol = expected_cost(reference_instance, vector)
    assert (
        sol.expected_total
        == sol.expected_first_stage + sol.expected_second_stage + sol.expected_penalty
    )


def test_expected_cost_rejects_capacity_violation():
    inst = make_instance(capacity=4)
    with pytest.raises(CapacityError):
        expected_cost(inst, {("c1", "p1", "m1"): 5})


def test_expected_cost_requires_every_triple(reference_instance):
    with pytest.raises(ModelError, match="no reservation"):
        expected_cost(reference_instance, {("qft", "p1", "m1"): 3})


def test_expected_cost_rejects_unknown_triples():
    inst = make_instance()
    with pytest.raises(ModelError, match="unknown"):
        expected_cost(inst, {("c1", "p1", "m1"): 1, ("c1", "p9", "m1"): 1})


# --- one triple: solve_instance vs brute force -------------------------------


def test_reference_triple_optimum_is_19():
    # Confirmed by the exhaustive scan before freezing the level: the
    # critical ratio 1.68/6.9 ~ 0.2435 lies between Pr(demand>=20)=3/13
    # and Pr(demand>=19)=4/13.
    best, cost = solve_one_triple(REF_RATES, REF_DEMAND, REF_WAIT, 5000, 30)
    brute_best, brute_cost = brute_force_triple(
        REF_RATES, REF_DEMAND, REF_WAIT, 5000, 30
    )
    assert (best, cost) == (brute_best, brute_cost)
    assert best == 19


def test_free_reservation_reserves_to_max_demand():
    rates = make_rates(reserve=0, utilize=100_000, on_demand=7_000_000)
    best, _ = solve_one_triple(rates, (2, 5, 9), (1000,), 1000, 30)
    assert best == 9
    best_capped, _ = solve_one_triple(rates, (2, 5, 9), (1000,), 1000, 6)
    assert best_capped == 6


def test_reservation_never_pays_off():
    rates = make_rates(reserve=8_000_000, utilize=100_000, on_demand=7_000_000)
    assert solve_one_triple(rates, REF_DEMAND, REF_WAIT, 5000, 30)[0] == 0


@pytest.mark.parametrize("capacity, level, cost", [(3, 3, 7), (0, 0, 10)])
@pytest.mark.parametrize(
    "utilize, on_demand", [(5, 2), (2, 2)], ids=["utilize-dearer", "equal-rates"]
)
def test_negative_reservation_rate_without_a_margin_fills_capacity(
    utilize, on_demand, capacity, level, cost
):
    # No reserved unit saves a recourse cost, yet each one earns its rate.
    rates = make_rates(reserve=-1, utilize=utilize, on_demand=on_demand)
    args = rates, (5,), (3000,), 5000, capacity
    assert solve_one_triple(*args) == brute_force_triple(*args) == (level, cost)


def test_deterministic_newsvendor_singleton():
    rates = make_rates(reserve=1_000_000, utilize=100_000, on_demand=7_000_000)
    best, _ = brute_force_triple(rates, (8,), (1000,), 1000, 30)
    assert best == 8


def test_brute_force_capacity_zero():
    best, cost = brute_force_triple(REF_RATES, (5,), (3000,), 3000, 0)
    assert best == 0
    assert cost == Fraction(35_000_000)


def test_kernel_refuses_an_instance_over_the_total_guard_before_any_table(monkeypatch):
    from qres import instance as instance_module

    monkeypatch.setattr(instance_module, "OUTCOME_GUARD", 3)
    monkeypatch.setattr(solver, "_table", None)  # never reached
    inst = make_instance(demand=(1, 2), wait=(1000, 2000))
    (diagnostic,) = validate(inst)
    with pytest.raises(ScenarioError) as caught:
        solver.solve_instance(inst)
    assert str(caught.value) == f"{diagnostic.location}: {diagnostic.message}"
    assert str(caught.value) == (
        "circuits: 4 demand and wait outcomes in all, more than 3"
    )


def test_brute_force_guard():
    with pytest.raises(GuardError):
        brute_force_triple(REF_RATES, (5,), (3000,), 3000, 10**4 + 1)


@pytest.mark.parametrize(
    "capacity, error", [(10**4 + 1, GuardError), (-1, CapacityError)]
)
def test_scan_guards_come_before_any_space(capacity, error):
    # 2000 x 600 scenarios is also past the product-space guard, whose
    # ScenarioError must not be the one raised.
    with pytest.raises(error):
        brute_force_triple(REF_RATES, range(2000), range(600), 0, capacity)


def test_brute_force_work_guard_comes_before_any_space(monkeypatch):
    built = []
    monkeypatch.setattr(oracles, "build_space", lambda *args: built.append(args))
    # 10001 levels x 10000 scenarios: one scan just over the guard.
    with pytest.raises(
        GuardError,
        match="brute force needs 100010000 scenario evaluations, "
        "more than guard 100000000",
    ):
        brute_force_triple(REF_RATES, range(1000), range(10), 0, 10**4)
    assert built == []


def test_verify_solution_guards_the_work_of_all_triples_together(monkeypatch):
    # Each of the two triples needs 10001 x 5000 evaluations, under the
    # guard on its own; together they are over it.
    built = []
    monkeypatch.setattr(
        oracles, "space_for_circuit", lambda inst, cid: built.append(cid)
    )
    inst = make_instance(
        range(100), range(0, 50000, 1000), capacity=10**4, machines_per_provider=2
    )
    with pytest.raises(GuardError, match="needs 100010000 scenario evaluations"):
        verify_solution(inst, solve_instance(inst))
    assert built == []


@pytest.mark.parametrize(
    "demand, wait, problem",
    [
        ((-3, 4), (3000,), "negative demand value"),
        ((5,), (-1000, 3000), "negative wait time"),
    ],
    ids=["demand", "wait"],
)
def test_every_route_refuses_a_negative_outcome(demand, wait, problem):
    # An instance built directly is never validated; each route checks the
    # circuit's outcomes with the rule validate reports.
    inst = make_instance(demand, wait)
    assert [d.message for d in validate(inst)] == [problem]
    routes = [
        lambda: solve_instance(inst),
        lambda: per_triple_costs(inst, {key: 0 for key in inst.triples()}),
        lambda: space_for_circuit(inst, "c1"),
        lambda: build_extensive_form(inst),
        lambda: brute_force_triple(REF_RATES, demand, wait, 5000, 30),
    ]
    for route in routes:
        with pytest.raises(ScenarioError) as caught:
            route()
        assert str(caught.value).endswith(f": {problem}")


def test_verify_solution_guards_before_any_space():
    inst = make_instance(range(2000), range(600), capacity=10**4 + 1, exec_time=0)
    with pytest.raises(GuardError, match="capacity 10001 exceeds guard 10000"):
        verify_solution(inst, solve_instance(inst))


def test_verify_solution_refuses_a_wrong_level(reference_instance):
    triples = reference_instance.triples()
    wrong = expected_cost(reference_instance, dict.fromkeys(triples, 18))
    with pytest.raises(ModelError, match=r"oracle mismatch on .*'m1'\): solver \(18, "):
        verify_solution(reference_instance, wrong)


def test_verify_solution_refuses_another_instances_solution(reference_instance):
    other = make_instance(demand=(1, 4), wait=(1000, 2000), capacity=5)
    with pytest.raises(ModelError, match="no reservation for triples"):
        verify_solution(reference_instance, solve_instance(other))


def test_verify_solution_guards_every_triple_before_any_space(monkeypatch):
    # Only the second triple is over the guard; the space its first triple
    # shares must not be built before that guard is checked.
    built = []
    monkeypatch.setattr(
        oracles, "space_for_circuit", lambda inst, cid: built.append(cid)
    )
    inst = make_instance(capacity=5, machines_per_provider=2)
    big = inst.machines[1]._replace(capacity_qubits=10**4 + 1)
    inst = replace(inst, machines=(inst.machines[0], big))
    solution = solve_instance(inst)
    with pytest.raises(GuardError, match="capacity 10001 exceeds guard 10000"):
        verify_solution(inst, solution)
    assert built == []


def test_verify_solution_holds_one_space_at_a_time(monkeypatch):
    cids = ("c1", "c2", "c3")
    inst = Instance(
        circuits=tuple(Circuit(circuit_id=cid) for cid in cids),
        providers=("p1",),
        machines=(Machine(provider_id="p1", machine_id="m1", capacity_qubits=6),),
        rates={(cid, "p1"): REF_RATES for cid in cids},
        exec_times={(cid, "p1", "m1"): 5000 for cid in cids},
        demand_sets={cid: (1, 4 + i) for i, cid in enumerate(cids)},
        wait_sets={cid: (1000, 2000) for cid in cids},
    )
    live = weakref.WeakSet()
    seen = []

    def tracked(inst, cid):
        seen.append(len(live))
        space = space_for_circuit(inst, cid)
        live.add(space)
        return space

    monkeypatch.setattr(oracles, "space_for_circuit", tracked)
    verify_solution(inst, solve_instance(inst))
    assert seen == [0, 0, 0]


def test_verify_solution_holds_a_space_as_two_columns():
    inst = wide_single_triple()
    solution = solve_instance(inst)
    assert traced_peak(lambda: verify_solution(inst, solution)) < WIDE_PEAK_LIMIT


def test_spot_check_refuses_a_cheaper_random_vector(reference_instance):
    solution = solve_instance(reference_instance)
    inflated = solution._replace(expected_total=solution.expected_total + 10**12)
    assert verify_solution(reference_instance, inflated) == (186, 21762)
    # Every vector beats the inflated total, so the first one drawn is named.
    rng = random.Random(7)
    first = {
        key: rng.randint(0, reference_instance.machine(*key[1:]).capacity_qubits)
        for key in reference_instance.triples()
    }
    with pytest.raises(ModelError) as caught:
        verify_solution(reference_instance, inflated, seed=7)
    assert str(caught.value).startswith(f"random vector {first} beats the solver: ")


def many_circuits(circuits: int = 12, demands: int = 2000, waits: int = 5) -> Instance:
    """Circuits of uniform marginals, each on two machines of one provider."""
    cids = tuple(f"c{i:02d}" for i in range(circuits))
    machines = (Machine("p1", "m1", 2400), Machine("p1", "m2", 2400))
    return Instance(
        circuits=tuple(Circuit(circuit_id=cid) for cid in cids),
        providers=("p1",),
        machines=machines,
        rates={(cid, "p1"): REF_RATES for cid in cids},
        exec_times={(cid, "p1", m.machine_id): 2500 for cid in cids for m in machines},
        demand_sets={cid: tuple(range(i, i + demands)) for i, cid in enumerate(cids)},
        wait_sets={cid: tuple(range(0, 1000 * waits, 1000)) for cid in cids},
    )


def test_the_kernel_holds_one_circuit_table_at_a_time():
    inst = many_circuits()
    # Solving once first reads each circuit's weights into the instance.
    levels = solve_instance(inst).reservations
    one_table = traced_peak(lambda: next(solver.triple_tables(inst)))
    grid = range(0, 2401, 240)
    calls = {
        "solve_instance": lambda: solve_instance(inst),
        "expected_cost": lambda: expected_cost(inst, levels),
        "sweep_reservation": lambda: sweep_reservation(inst, grid),
        "sweep_reservation_waiting": (
            lambda: sweep_reservation_waiting(inst, grid, range(0, 5001, 500))
        ),
    }
    # A pass holds the table it prices while the next circuit's is built,
    # never every circuit's table at once.
    for name, call in calls.items():
        assert traced_peak(call) < 2 * one_table, name


STEPS = st.integers(0, 12).map(lambda v: v * 1000)  # microseconds


@st.composite
def shared_rate_instances(draw) -> Instance:
    """1-2 circuits on 1-3 providers x 1-3 machines.

    Each provider's machines have distinct capacities, the smaller listed
    first, and execution times of their own; p2 has p1's rates.
    """
    providers = tuple(f"p{i}" for i in range(1, draw(st.integers(1, 3)) + 1))
    per_provider = draw(st.integers(1, 3))
    unique = st.lists(
        st.integers(0, 12), min_size=per_provider, max_size=per_provider, unique=True
    )
    machines = tuple(
        Machine(pid, f"m{j}", cap)
        for pid in providers
        for j, cap in enumerate(sorted(draw(unique)), 1)
    )
    cids = ("c1", "c2")[: draw(st.integers(1, 2))]
    rates = {}
    for cid, pid in itertools.product(cids, providers):
        own = CostRates(*(draw(MONEY) for _ in range(4)))
        rates[cid, pid] = rates[cid, "p1"] if pid == "p2" else own
    demand = {
        cid: tuple(sorted(draw(st.sets(st.integers(0, 14), min_size=1, max_size=6))))
        for cid in cids
    }
    wait = {cid: tuple(draw(st.sets(STEPS, min_size=1, max_size=3))) for cid in cids}
    demand_probs = {cid: draw(probabilities(len(demand[cid]))) for cid in cids}
    return Instance(
        circuits=tuple(Circuit(cid) for cid in cids),
        providers=providers,
        machines=machines,
        rates=rates,
        exec_times={
            (cid, m.provider_id, m.machine_id): draw(STEPS)
            for cid in cids
            for m in machines
        },
        demand_sets=demand,
        wait_sets=wait,
        demand_probs={cid: p for cid, p in demand_probs.items() if p},
    )


@settings(derandomize=True, max_examples=60, deadline=None)
@given(shared_rate_instances())
def test_verify_solution_accepts_the_kernel_and_refuses_each_level_off_by_one(inst):
    solution = solve_instance(inst)
    caps = {
        key: inst.machine(key.provider_id, key.machine_id).capacity_qubits
        for key in inst.triples()
    }
    assert verify_solution(inst, solution)[0] == sum(cap + 1 for cap in caps.values())
    for key, level in solution.reservations.items():
        for moved in (level - 1, level + 1):
            if 0 <= moved <= caps[key]:
                wrong = expected_cost(inst, {**solution.reservations, key: moved})
                with pytest.raises(
                    ModelError, match=re.escape(f"oracle mismatch on {key}: ")
                ):
                    verify_solution(inst, wrong)


def test_solve_matches_brute_force_on_500_random_triples():
    rng = random.Random(90210)
    for _ in range(500):
        rates = random_rates(rng)
        demand, wait, dp, wp = random_marginals(rng)
        exec_time = rng.randint(0, 12000)
        capacity = rng.randint(0, 40)
        fast = solve_one_triple(rates, demand, wait, exec_time, capacity, dp, wp)
        slow = brute_force_triple(rates, demand, wait, exec_time, capacity, dp, wp)
        assert fast == slow


# --- solve_instance ---------------------------------------------------------


def test_solve_reference_instance(reference_instance):
    sol = solve_instance(reference_instance)
    assert set(sol.reservations.values()) == {19}
    _, per_triple = solve_one_triple(REF_RATES, REF_DEMAND, REF_WAIT, 5000, 30)
    assert sol.expected_total == 6 * per_triple
    caps = {
        key: reference_instance.machine(key.provider_id, key.machine_id).capacity_qubits
        for key in sol.reservations
    }
    assert all(0 <= x <= caps[key] for key, x in sol.reservations.items())


def test_zero_capacity_forces_zero_reservations():
    inst = make_instance(demand=(3, 5), wait=(1000,), capacity=0, providers=2)
    sol = solve_instance(inst)
    assert set(sol.reservations.values()) == {0}
    assert sol.expected_first_stage == 0


def test_single_triple_singleton_matches_hand_solution():
    inst = make_instance(demand=(5,), wait=(3000,), exec_time=3000)
    sol = solve_instance(inst)
    assert sol.reservations[TripleKey("c1", "p1", "m1")] == 5
    assert sol.expected_total == Fraction(8_900_000)


def _count_the_recourse_rule(monkeypatch) -> dict[str, int]:
    """Count the entries oracles.qubit_costs yields and the penalty_time calls."""
    counts = {"entries": 0, "penalty_time": 0}

    def costs(*args):
        for cost in qubit_costs(*args):
            counts["entries"] += 1
            yield cost

    def late(*args):
        counts["penalty_time"] += 1
        return penalty_time(*args)

    monkeypatch.setattr(oracles, "qubit_costs", costs)
    monkeypatch.setattr(oracles, "penalty_time", late)
    return counts


def test_brute_force_prices_every_scenario_through_the_recourse_rule(monkeypatch):
    counts = _count_the_recourse_rule(monkeypatch)
    brute_force_triple(REF_RATES, REF_DEMAND, REF_WAIT, 5000, 30)
    assert counts == {
        "entries": 31 * len(REF_DEMAND) * len(REF_WAIT),
        "penalty_time": len(REF_DEMAND) * len(REF_WAIT),
    }


def _audit_shaped_with_own_rates() -> Instance:
    """The audit-shaped instance with p2 on rates of its own for each circuit."""
    doc = audit_shaped_doc()
    doc["rates"] = [
        {"circuit": c["id"], "provider": "p2", "reserve": 1.5, "utilize": 0.2,
         "on_demand": 6, "penalty": 12}
        for c in doc["circuits"]
    ]
    return instance_from_document(doc)


# (qubit_costs entries, scenario evaluations) of verify_solution.
STREAMED = {
    "reference": (31 * 117, 186 * 117),  # all three providers share rates
    "audit-shaped": (3 * 31 * 400, 12 * 31 * 400),  # both providers share rates
    "audit-shaped-own-rates": (6 * 31 * 400, 12 * 31 * 400),
}


@pytest.mark.parametrize("shape", list(STREAMED))
def test_verify_solution_prices_every_evaluation_through_the_recourse_rule(
    shape, reference_instance, monkeypatch
):
    if shape == "reference":
        instance = reference_instance
    elif shape == "audit-shaped":
        instance = instance_from_document(audit_shaped_doc())
    else:
        instance = _audit_shaped_with_own_rates()
    solution = solve_instance(instance)
    sizes = [len(space_for_circuit(instance, cid)) for cid, _, _ in instance.triples()]
    counts = _count_the_recourse_rule(monkeypatch)
    _, evaluations = verify_solution(instance, solution, seed=1)
    assert evaluations == sum(
        (instance.machine(pid, mid).capacity_qubits + 1) * size
        for (_, pid, mid), size in zip(instance.triples(), sizes)
    )
    # Each level is priced once per (circuit, rates), up to the largest
    # capacity among the machines that share them.
    top, size = {}, {}
    for (cid, pid, mid), n in zip(instance.triples(), sizes):
        group = (cid, instance.rate(cid, pid))
        cap = instance.machine(pid, mid).capacity_qubits
        top[group], size[group] = max(top.get(group, 0), cap), n
    assert counts["entries"] == sum((top[g] + 1) * size[g] for g in top)
    assert (counts["entries"], evaluations) == STREAMED[shape]
    # The kernel's spot check also takes over-waits, so the scan is counted alone.
    counts["penalty_time"] = 0
    verify_solution(instance, solution)
    assert counts["penalty_time"] == sum(sizes)


def test_the_scan_streams_its_columns():
    # A level's costs are summed as they are made: no list of len(space).
    space = build_space("c", range(200), range(0, 200_000, 1000))
    rates = make_rates(utilize=100_000, on_demand=7_000_000, penalty=10_000_000)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        oracles._scan(space, rates, 50_000, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < 64 * 1024


# --- joint enumeration oracle -----------------------------------------------


def test_joint_oracle_matches_solver_on_two_triples():
    rng = random.Random(4242)
    inst = random_instance(rng, max_triples=2, max_capacity=5)
    fast = solve_instance(inst)
    slow = joint_enumeration_oracle(inst)
    assert fast.reservations == slow.reservations
    assert fast.expected_total == slow.expected_total


def test_joint_oracle_single_triple_equals_brute_force():
    inst = make_instance(demand=(1, 4), wait=(1000, 2000), capacity=5)
    oracle = joint_enumeration_oracle(inst)
    best, cost = brute_force_triple(
        REF_RATES, (1, 4), (1000, 2000), 5000, 5
    )
    assert oracle.reservations[TripleKey("c1", "p1", "m1")] == best
    assert oracle.expected_total == cost


def test_joint_oracle_zero_rates():
    inst = make_instance(rates=make_rates(), demand=(1, 2), wait=(1000,), capacity=3)
    oracle = joint_enumeration_oracle(inst)
    assert oracle.expected_total == 0
    assert set(oracle.reservations.values()) == {0}  # smallest tie wins


def test_joint_oracle_guard():
    # Two triples of 1001 levels each: the running product trips the guard.
    inst = make_instance(capacity=1000, providers=2)
    with pytest.raises(GuardError, match="1002001 > 1000000"):
        joint_enumeration_oracle(inst)


def test_joint_oracle_refuses_a_negative_capacity_before_enumerating(monkeypatch):
    monkeypatch.setattr(oracles, "space_for_circuit", None)  # never reached
    with pytest.raises(CapacityError) as caught:
        joint_enumeration_oracle(make_instance(capacity=-1))
    assert str(caught.value) == "capacity must be non-negative, got -1"


def test_joint_oracle_builds_its_tables_once(monkeypatch):
    calls = []
    real = oracles.space_for_circuit

    def counted(instance, circuit_id):
        calls.append(circuit_id)
        return real(instance, circuit_id)

    inst = make_instance(demand=(1, 4), wait=(1000, 2000), capacity=5, providers=2)
    kernel = solve_instance(inst)
    monkeypatch.setattr(oracles, "space_for_circuit", counted)
    monkeypatch.setattr(oracles, "triple_tables", None)  # never called
    monkeypatch.setattr(solver, "_kernel_costs", None)  # never called
    oracle = joint_enumeration_oracle(inst)
    assert calls == ["c1"]
    assert oracle == kernel


# --- structural invariants ---------------------------------------------------


def test_first_stage_cost_is_linear(reference_instance):
    for x in (0, 5, 13, 30):
        vector = {key: x for key in reference_instance.triples()}
        sol = expected_cost(reference_instance, vector)
        assert sol.expected_first_stage == Fraction(6 * 1_680_000 * x)


def test_uniform_reservation_cost_is_discretely_convex(reference_instance):
    totals = []
    for x in range(31):
        vector = {key: x for key in reference_instance.triples()}
        totals.append(expected_cost(reference_instance, vector).expected_total)
    steps = [b - a for a, b in zip(totals, totals[1:])]
    assert all(s2 >= s1 for s1, s2 in zip(steps, steps[1:]))


def test_expected_penalty_ignores_reservations():
    rng = random.Random(777)
    inst = random_instance(rng, max_triples=2, max_capacity=6)
    triples = inst.triples()
    caps = [inst.machine(p, m).capacity_qubits for _, p, m in triples]
    penalties = set()
    for _ in range(10):
        vector = {
            key: rng.randint(0, cap) for key, cap in zip(triples, caps)
        }
        penalties.add(expected_cost(inst, vector).expected_penalty)
    assert len(penalties) == 1


def test_per_triple_costs_match_solution(reference_instance):
    vector = {key: 11 for key in reference_instance.triples()}
    rows = per_triple_costs(reference_instance, vector)
    sol = expected_cost(reference_instance, vector)
    assert sum((r.total for r in rows), Fraction(0)) == sol.expected_total
    assert len(rows) == 6


# --- kernel against the scenario route and brute force ------------------------

# Coarse money steps, so utilize == on_demand and exact ties occur often.
MONEY = st.integers(0, 8).map(lambda v: v * 500_000)


def one_circuit(demand, wait, demand_probs, wait_probs, triples) -> Instance:
    """One circuit on a machine per (rates, capacity, exec_time) entry."""
    machines = tuple(
        Machine(f"p{i}", "m", capacity) for i, (_, capacity, _) in enumerate(triples)
    )
    return Instance(
        circuits=(Circuit("c"),),
        providers=tuple(m.provider_id for m in machines),
        machines=machines,
        rates={("c", f"p{i}"): rates for i, (rates, _, _) in enumerate(triples)},
        exec_times={("c", f"p{i}", "m"): t for i, (_, _, t) in enumerate(triples)},
        demand_sets={"c": tuple(demand)},
        wait_sets={"c": tuple(wait)},
        demand_probs={"c": demand_probs} if demand_probs else {},
        wait_probs={"c": wait_probs} if wait_probs else {},
    )


@st.composite
def small_instances(draw) -> Instance:
    demand = draw(st.lists(st.integers(0, 8), min_size=1, max_size=10))
    wait = draw(
        st.lists(st.integers(0, 10).map(lambda v: v * 1000), min_size=1, max_size=4)
    )
    triple = st.tuples(
        st.builds(CostRates, MONEY, MONEY, MONEY, MONEY),
        st.integers(0, 10),
        st.integers(0, 12).map(lambda v: v * 1000),
    )
    return one_circuit(
        demand,
        wait,
        draw(probabilities(len(demand))),
        draw(probabilities(len(wait))),
        draw(st.lists(triple, min_size=1, max_size=2)),
    )


TENTHS = (0.1,) * 10  # each read as exactly 1/10


@settings(derandomize=True, max_examples=100, deadline=None)
@given(small_instances())
@example(  # duplicate demand and wait values, capacity 0
    one_circuit(
        (3, 1, 3, 5),
        (2000, 2000),
        None,
        None,
        [(REF_RATES, 0, 3000), (REF_RATES, 6, 3000)],
    )
)
@example(  # utilize > on_demand, explicit probabilities written as floats
    one_circuit(
        tuple(range(10)),
        (1000, 5000),
        TENTHS,
        (0.5, 0.5),
        [(make_rates(1_000_000, 3_000_000, 2_000_000, 10_000_000), 9, 4000)],
    )
)
@example(  # utilize == on_demand, both marginals written as floats
    one_circuit(
        (1, 1, 2, 2, 3, 3, 4, 4, 5, 5),
        tuple(range(0, 10000, 1000)),
        TENTHS,
        TENTHS,
        [(make_rates(500_000, 2_000_000, 2_000_000, 1_000_000), 7, 4500)],
    )
)
def test_kernel_equals_scenario_route_and_brute_force(inst):
    triples = inst.triples()
    caps = {key: inst.machine(key[1], key[2]).capacity_qubits for key in triples}
    for x in range(max(caps.values()) + 1):
        vector = {key: min(x, cap) for key, cap in caps.items()}
        assert per_triple_costs(inst, vector) == scenario_costs(inst, vector)
    for cid, pid, mid in triples:
        args = (
            inst.rate(cid, pid),
            inst.demand_sets[cid],
            inst.wait_sets[cid],
            inst.exec_time(cid, pid, mid),
            caps[(cid, pid, mid)],
            inst.demand_probs.get(cid),
            inst.wait_probs.get(cid),
        )
        assert solve_one_triple(*args) == brute_force_triple(*args)


# --- the scenario route's integer weights on mixed denominators ----------------


def _written_probs(digits: int) -> st.SearchStrategy:
    """Positive probabilities of ``digits`` fraction digits that sum to exactly 1."""
    one = 10**digits
    cuts = st.lists(st.integers(1, one - 1), min_size=1, max_size=3, unique=True)
    return cuts.map(
        lambda c: tuple(
            Fraction(b - a, one) for a, b in itertools.pairwise([0, *sorted(c), one])
        )
    )


# Each kind of marginal as (number of outcomes, probabilities or None).
MARGINALS = {
    "2-digit": _written_probs(2).map(lambda probs: (len(probs), probs)),
    "53-digit": _written_probs(53).map(lambda probs: (len(probs), probs)),
    "uniform": st.integers(1, 7).map(lambda n: (n, None)),
}


@st.composite
def mixed_denominator_instances(draw) -> Instance:
    """Two circuits whose four marginals mix 2-digit, 53-digit and dyadic masses."""
    first, second, third = draw(st.permutations(list(MARGINALS)))
    kinds = {"a": (first, second), "b": (third, first)}
    circuits = ("a", "b")
    demand_sets, wait_sets, demand_probs, wait_probs = {}, {}, {}, {}
    for cid in circuits:
        for kind, sets, probs, scale in zip(
            kinds[cid], (demand_sets, wait_sets), (demand_probs, wait_probs), (1, 1000)
        ):
            size, drawn = draw(MARGINALS[kind])
            values = draw(st.lists(st.integers(0, 8), min_size=size, max_size=size))
            sets[cid] = tuple(v * scale for v in values)
            if drawn is not None:
                probs[cid] = drawn
    machines = tuple(Machine(p, "m", draw(st.integers(0, 8))) for p in ("p0", "p1"))
    rates = {
        (cid, m.provider_id): draw(st.builds(CostRates, MONEY, MONEY, MONEY, MONEY))
        for cid in circuits
        for m in machines
    }
    return Instance(
        circuits=tuple(Circuit(cid) for cid in circuits),
        providers=("p0", "p1"),
        machines=machines,
        rates=rates,
        exec_times={
            (cid, m.provider_id, "m"): draw(st.integers(0, 12)) * 1000
            for cid in circuits
            for m in machines
        },
        demand_sets=demand_sets,
        wait_sets=wait_sets,
        demand_probs=demand_probs,
        wait_probs=wait_probs,
    )


@settings(derandomize=True, max_examples=40, deadline=None)
@given(mixed_denominator_instances())
def test_integer_weight_oracle_on_mixed_denominators(inst):
    for cid in inst.circuit_ids():
        space = space_for_circuit(inst, cid)
        common, weights = space.weights
        assert sum(weights) == common
        exact = [Fraction(w, common) for w in weights]
        assert exact == list(exact_probabilities(space))
    triples = inst.triples()
    caps = {key: inst.machine(key[1], key[2]).capacity_qubits for key in triples}
    for x in range(max(caps.values()) + 1):
        vector = {key: min(x, cap) for key, cap in caps.items()}
        assert per_triple_costs(inst, vector) == scenario_costs(inst, vector)
    solution = solve_instance(inst)
    for row in solution.per_triple:
        cid, pid, mid = row.key
        level = brute_force_triple(
            inst.rate(cid, pid),
            inst.demand_sets[cid],
            inst.wait_sets[cid],
            inst.exec_time(cid, pid, mid),
            caps[row.key],
            inst.demand_probs.get(cid),
            inst.wait_probs.get(cid),
        )
        assert level == (row.reserved, row.total)


def _assert_rows_are_textbook_expectations(inst: Instance) -> None:
    """Each scenario_costs row at every level equals the probability-weighted
    sum of each scenario's decision, priced by field name."""
    triples = inst.triples()
    caps = {key: inst.machine(key[1], key[2]).capacity_qubits for key in triples}
    spaces = {cid: space_for_circuit(inst, cid) for cid in inst.circuit_ids()}
    for x in range(max(caps.values()) + 1):
        vector = {key: min(x, cap) for key, cap in caps.items()}
        for row in scenario_costs(inst, vector):
            cid, pid, mid = row.key
            rates = inst.rate(cid, pid)
            space = spaces[cid]
            decisions = [
                optimal_recourse(row.reserved, s, rates, inst.exec_time(cid, pid, mid))
                for s in space.scenarios
            ]
            probs = exact_probabilities(space)
            assert row.second_stage + row.penalty == sum(
                p * recourse_cost(rates, d) for p, d in zip(probs, decisions)
            )
            assert row.penalty == sum(
                p * penalty_cost(rates.penalty_per_second, d.over_wait)
                for p, d in zip(probs, decisions)
            )


def test_scenario_rows_are_textbook_expectations_on_the_reference(
    reference_instance,
):
    _assert_rows_are_textbook_expectations(reference_instance)


def test_scenario_rows_are_textbook_expectations_when_utilize_exceeds_on_demand():
    inst = make_instance(
        (0, 3, 3, 7, 12),
        (1000, 4000, 9000),
        rates=make_rates(1_000_000, 3_000_000, 2_000_000, 10_000_000),
        capacity=9,
        exec_time=5000,
        demand_probs=(0.1, 0.2, 0.3, 0.25, 0.15),
        wait_probs=(0.5, 0.25, 0.25),
    )
    _assert_rows_are_textbook_expectations(inst)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(mixed_denominator_instances())
def test_scenario_rows_are_textbook_expectations_on_mixed_denominators(inst):
    _assert_rows_are_textbook_expectations(inst)


def _assert_integer_table(table: solver.CircuitTable) -> None:
    numbers = [
        *table.levels,
        table.common,
        *table.survival,
        *table.demand_above,
        table.wait_common,
        *(n for pair in table.waits for n in pair),
    ]
    assert all(type(n) is int for n in numbers)
    assert table.survival[0] == table.common
    assert sum(mass for _, mass in table.waits) == table.wait_common


@pytest.mark.parametrize(
    "demand_probs, wait_probs",
    [
        (None, None),  # uniform: dyadic masses over 2^53
        ((Fraction(1, 10),) * 3 + (Fraction(7, 10),), (Fraction(1, 4),) * 4),
        ((Fraction(1, 3), Fraction(1, 6), Fraction(1, 5), Fraction(3, 10)), None),
    ],
    ids=["uniform", "explicit", "mixed"],
)
def test_kernel_table_holds_integers_over_its_denominators(demand_probs, wait_probs):
    inst = make_instance(
        demand=(4, 1, 4, 9),
        wait=(0, 2000, 2000, 5000),
        demand_probs=demand_probs,
        wait_probs=wait_probs,
    )
    ((_, table, _, _, _),) = solver.triple_tables(inst)
    _assert_integer_table(table)
    assert table.levels == (1, 4, 9)
    assert [wait for wait, _ in table.waits] == [0, 2000, 5000]


@settings(derandomize=True, max_examples=20, deadline=None)
@given(mixed_denominator_instances())
def test_kernel_table_holds_integers_on_mixed_denominators(inst):
    for _, table, _, _, _ in solver.triple_tables(inst):
        _assert_integer_table(table)


# --- integer prices against the Fraction-summing reference ----------------------


def _assert_priced_as_fraction_sums(inst: Instance) -> None:
    """The kernel's callers price each level as the reference's Fraction sums.

    Every reported number must also still be a Fraction.
    """
    caps = {
        key: inst.machine(key.provider_id, key.machine_id).capacity_qubits
        for key in inst.triples()
    }
    for x in range(max(caps.values()) + 1):
        vector = {key: min(x, cap) for key, cap in caps.items()}
        rows = per_triple_costs(inst, vector)
        assert rows == reference_per_triple_costs(inst, vector)
        assert all(type(n) is Fraction for row in rows for n in row[2:])
        solution = expected_cost(inst, vector)
        assert solution == reference_expected_cost(inst, vector)
    grid = range(min(caps.values()) + 1)
    points = sweep_reservation(inst, grid).points
    assert list(points) == reference_sweep(inst, grid)
    assert all(type(n) is Fraction for point in points for n in point[1:])
    times = set(inst.exec_times.values())
    waits = sorted({0, *times, *(t + 500 for t in times)})
    rows = sweep_reservation_waiting(inst, grid, waits).rows
    assert list(rows) == reference_surface(inst, grid, waits)
    assert all(type(row.total) is Fraction for row in rows)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.one_of(small_instances(), mixed_denominator_instances(), shared_rate_instances()))
def test_integer_prices_equal_fraction_sums(inst):
    _assert_priced_as_fraction_sums(inst)


def test_integer_prices_equal_fraction_sums_over_thirds_and_sevenths():
    # Denominators that no written decimal has, and both signs of margin:
    # p1 charges more to utilize than on demand, p2 pays to reserve.
    cids = ("c1", "c2")
    machines = (Machine("p1", "m1", 5), Machine("p2", "m1", 7), Machine("p2", "m2", 9))
    inst = Instance(
        circuits=tuple(Circuit(cid) for cid in cids),
        providers=("p1", "p2"),
        machines=machines,
        rates={
            ("c1", "p1"): make_rates(1_000_000, 3_000_000, 2_000_000, 10_000_000),
            ("c1", "p2"): make_rates(-250_000, 100_000, 7_000_000, 1_000_000),
            ("c2", "p1"): make_rates(2_000_000, 8_000_000, 7_000_000, 3_000_000),
            ("c2", "p2"): REF_RATES,
        },
        exec_times={
            (cid, m.provider_id, m.machine_id): 1000 * (i + j)
            for i, cid in enumerate(cids)
            for j, m in enumerate(machines)
        },
        demand_sets={"c1": (0, 2, 5), "c2": (1, 3, 4, 8)},
        wait_sets={"c1": (0, 1500, 3000), "c2": (500, 2500)},
        demand_probs={
            "c1": (Fraction(1, 3),) * 3,
            "c2": (Fraction(1, 7), Fraction(2, 7), Fraction(3, 7), Fraction(1, 7)),
        },
        wait_probs={"c1": (Fraction(1, 7), Fraction(4, 7), Fraction(2, 7))},
    )
    _assert_priced_as_fraction_sums(inst)
