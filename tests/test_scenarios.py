from __future__ import annotations

import math
import random
import weakref
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import exact_probabilities, make_instance, random_probs, traced_peak
from qres import scenarios
from qres.instance import marginals, outcome_weights, validate
from qres.scenarios import ScenarioError, build_space, space_for_circuit
from qres.units import PROBABILITY_DIGITS, exact_decimal, exact_probability

REF_DEMAND = tuple(range(10, 23))
REF_WAIT = tuple(range(1000, 9001, 1000))


def reference_space():
    return build_space("qft", REF_DEMAND, REF_WAIT)


def test_reference_space_size_and_probabilities():
    space = reference_space()
    assert len(space) == 117
    assert all(float(p) == pytest.approx(1 / 117) for p in exact_probabilities(space))
    assert sum(exact_probabilities(space)) == 1


def test_singleton_product():
    space = build_space("c", [5], [2000])
    assert len(space) == 1
    assert exact_probabilities(space) == (1,)
    assert space.scenarios[0].demand_qubits == 5
    assert space.scenarios[0].wait_time == 2000


def test_marginal_product_probabilities():
    space = build_space("c", [1, 2], [1_000_000], demand_probs=[0.3, 0.7])
    assert exact_probabilities(space) == (Fraction(3, 10), Fraction(7, 10))


def test_ordering_is_demand_major_and_deterministic():
    space = build_space("c", [1, 2], [10, 20])
    seen = [(s.demand_qubits, s.wait_time) for s in space.scenarios]
    assert seen == [(1, 10), (1, 20), (2, 10), (2, 20)]
    assert build_space("c", [1, 2], [10, 20]) == space


def test_a_space_is_a_slotted_record_of_its_scenarios():
    probs = {"demand_probs": [0.25, 0.75], "wait_probs": [0.5, 0.25, 0.25]}
    space = build_space("c", [1, 2], [10, 20, 30], **probs)
    assert len(space) == 6  # the scenarios, not the two fields
    assert not hasattr(space, "__dict__")
    assert weakref.ref(space)() is space
    same = build_space("c", [1, 2], [10, 20, 30], **probs)
    assert same == space and hash(same) == hash(space)
    assert build_space("c", [1, 2], [10, 20, 30]) != space
    assert space != (space.scenarios, space.weights)
    assert exact_probabilities(space)[:3] == (
        Fraction(1, 8), Fraction(1, 16), Fraction(1, 16)
    )


def test_the_weight_column_is_the_product_of_the_marginal_weights():
    m = marginals("c", [1, 2, 3], [10, 20], [0.25, 0.5, 0.25], [0.75, 0.25])
    (demand_common, demand_weights), (wait_common, wait_weights) = (
        m.demand_weights, m.wait_weights
    )
    expected = tuple(wd * ww for wd in demand_weights for ww in wait_weights)
    assert scenarios.ScenarioSpace(m).weights == (demand_common * wait_common, expected)


def test_equal_weights_share_one_object():
    # A uniform 1,000 x 1,000 space has 3 distinct weights. Sharing them
    # leaves about 15 MiB, the weight and demand columns' references; an
    # int object per scenario made 54 MiB.
    assert traced_peak(lambda: build_space("c", range(1000), range(1000))) < 25 * 2**20
    # Two distinct demand weights: two rows of four weights.
    space = build_space("c", range(3), range(4), demand_probs=[0.5, 0.25, 0.25])
    assert len({id(w) for w in space.weights[1]}) == 2 * 4


def test_oversized_product_space_is_refused_naming_its_size():
    with pytest.raises(ScenarioError, match="2000000 scenarios"):
        build_space("c", range(2000), range(1000))


def test_product_space_just_past_the_guard_is_refused():
    with pytest.raises(ScenarioError, match="1001000 scenarios, more than 1000000"):
        build_space("c", range(1001), range(1000))


def test_product_space_of_exactly_the_guard_is_built(monkeypatch):
    # A guard of 12 pins the accepting side (12 scenarios build) and the
    # refusing side (13 do not) without building 10^6 scenarios.
    monkeypatch.setattr(scenarios, "GRID_GUARD", 12)
    space = build_space("c", range(3), range(4))
    assert len(space) == 12
    assert sum(exact_probabilities(space)) == 1
    with pytest.raises(ScenarioError, match="13 scenarios, more than 12"):
        build_space("c", range(13), range(1))


def test_empty_set_rejected():
    with pytest.raises(ScenarioError, match="empty"):
        build_space("c", [], [10])
    with pytest.raises(ScenarioError, match="empty"):
        build_space("c", [1], [])


def test_probability_length_mismatch():
    with pytest.raises(ScenarioError, match="probabilities"):
        build_space("c", [1, 2], [10], demand_probs=[1.0])


def test_probability_normalization_failure():
    with pytest.raises(ScenarioError, match="sum"):
        build_space("c", [1, 2], [10], demand_probs=[0.4, 0.5])


def test_space_for_circuit(reference_instance):
    space = space_for_circuit(reference_instance, "qft")
    assert len(space) == 117
    with pytest.raises(ScenarioError, match="unknown circuit"):
        space_for_circuit(reference_instance, "nope")


def test_probabilities_always_normalized_property():
    rng = random.Random(716)
    for _ in range(50):
        n_d, n_w = rng.randint(1, 7), rng.randint(1, 7)
        space = build_space(
            "c",
            list(range(n_d)),
            [100 * (i + 1) for i in range(n_w)],
            demand_probs=random_probs(rng, n_d),
        )
        assert len(space) == n_d * n_w
        assert sum(exact_probabilities(space)) == 1


PROB = st.one_of(
    st.sampled_from([-0.25, 0.0, 0.1, 0.2, 0.25, 0.3, 0.5, 0.7, 1.0]),
    st.floats(min_value=-0.5, max_value=1.5),
    st.just(float("nan")),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    demand=st.lists(st.integers(-2, 3), max_size=4),
    wait=st.lists(st.sampled_from([-1000, 0, 1000, 2000]), max_size=4),
    demand_probs=st.none() | st.lists(PROB, min_size=1, max_size=5),
    wait_probs=st.none() | st.lists(PROB, min_size=1, max_size=5),
)
@example(demand=[0, 1], wait=[1000], demand_probs=[-0.5, 0.25], wait_probs=None)
@example(demand=[0], wait=list(range(1000, 10001, 1000)), demand_probs=None,
         wait_probs=[0.1] * 10)
@example(demand=[], wait=[], demand_probs=None, wait_probs=None)
@example(demand=[-3, 4], wait=[1000], demand_probs=None, wait_probs=None)
@example(demand=[4], wait=[-1000], demand_probs=None, wait_probs=None)
def test_validate_flags_probs_exactly_when_build_space_rejects(
    demand, wait, demand_probs, wait_probs
):
    # The whole outcome rule: sets, signs and vectors. The builder raises
    # exactly when validate flags the circuit, with its first diagnostic.
    inst = make_instance(demand, wait, demand_probs=demand_probs, wait_probs=wait_probs)
    flagged = [d for d in validate(inst) if d.location.startswith("circuit c1")]
    assert all(d.severity == "error" for d in flagged)
    try:
        build_space("c1", demand, wait, demand_probs, wait_probs)
    except ScenarioError as exc:
        assert flagged
        first = flagged[0]
        assert str(exc) == f"{first.location.removeprefix('circuit ')}: {first.message}"
    else:
        assert not flagged


# --- the exact form of a probability vector --------------------------------


@st.composite
def distributions(draw, values):
    """A value list (repeats allowed) and its vector: absent, written or Fraction."""
    outcomes = draw(st.lists(values, min_size=1, max_size=6))
    shares = draw(
        st.lists(st.integers(0, 10**6), min_size=len(outcomes), max_size=len(outcomes))
        .filter(any)
    )
    total = sum(shares)
    style = draw(st.sampled_from(["absent", "written", "fraction"]))
    if style == "absent":
        return outcomes, None
    if style == "fraction":  # denominators such as 3 or 7 that no decimal has
        return outcomes, [Fraction(share, total) for share in shares]
    digits = draw(st.integers(0, PROBABILITY_DIGITS))
    units = [share * 10**digits // total for share in shares]
    units[0] += 10**digits - sum(units)
    written = [exact_decimal(Fraction(u, 10**digits)) for u in units]
    # Text, Decimal and (where it round-trips) float are all read as written.
    kind = draw(st.sampled_from([str, Decimal, float]))
    if kind is float and any(repr(float(text)) != text for text in written):
        kind = str
    return outcomes, [kind(text) for text in written]


def _exact(probs, n):
    """The probabilities a vector stands for; an absent one is dyadic uniform."""
    if probs is not None:
        return [Fraction(exact_probability(p)) for p in probs]
    one = 2**PROBABILITY_DIGITS
    return [Fraction(one // n + (i < one % n), one) for i in range(n)]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    demand=distributions(st.integers(0, 4)),
    wait=distributions(st.sampled_from([0, 1000, 2500])),
)
@example(demand=([1, 2, 3], [Fraction(1, 3)] * 3), wait=([0, 0], None))
@example(
    demand=([7], ["1"]), wait=([0, 1000], ["0." + "0" * 52 + "1", "0." + "9" * 53])
)
def test_each_vector_has_one_exact_form(demand, wait):
    (demands, demand_probs), (waits, wait_probs) = demand, wait
    problems, *forms = outcome_weights(demands, waits, demand_probs, wait_probs)
    assert problems == []
    m = marginals("c", demands, waits, demand_probs, wait_probs)
    exact = []
    for probs, form, weights, n in (
        (demand_probs, forms[0], m.demand_weights, len(demands)),
        (wait_probs, forms[1], m.wait_weights, len(waits)),
    ):
        p = _exact(probs, n)
        assert form == (None if probs is None else weights)
        common, w = weights
        assert sum(w) == common
        assert [Fraction(wi, common) for wi in w] == p
        if probs is not None:  # over the lcm of the reduced denominators
            assert common == math.lcm(*(pi.denominator for pi in p))
        exact.append(p)
    space = build_space("c", demands, waits, demand_probs, wait_probs)
    assert sum(space.weights[1]) == space.weights[0]
    assert exact_probabilities(space) == tuple(
        pd * pw for pd in exact[0] for pw in exact[1]
    )
    # Iterating the space yields each (demand, wait) pair, demand-major,
    # with the product of its two weights.
    (_, demand_weights), (_, wait_weights) = m.demand_weights, m.wait_weights
    assert list(space) == [
        (d, a, wd * ww)
        for d, wd in zip(demands, demand_weights)
        for a, ww in zip(waits, wait_weights)
    ]
    assert sum(w for _, _, w in space) == space.weights[0]


def test_an_empty_set_with_an_empty_vector_keeps_both_problems():
    problems, demand_weights, wait_weights = outcome_weights([], [1000], [], None)
    assert problems == [
        ("", "empty demand set"),
        ("demand_probs", "probabilities sum to 0, not 1"),
    ]
    assert wait_weights is None
    with pytest.raises(ScenarioError, match="^c: empty demand set$"):
        build_space("c", [], [1000], [])
