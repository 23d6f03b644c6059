"""Finite scenario spaces over (demand, wait-time) outcomes.

A circuit's uncertainty is the Cartesian product of its finite demand set
and finite wait-time set. Scenario probabilities are the products of the
marginal probabilities (the marginals are treated as independent; a joint
table can be had by building a space per joint cell). Ordering is
demand-major lexicographic and deterministic, so downstream CSV output and
golden tests are reproducible.

The solver's marginal kernel needs only the checked marginals
(:func:`marginals`, :func:`circuit_marginals`); the product space itself
serves the scenario-route oracles and the extensive form. Each vector is
held as exact integer weights ``(L, w)``, ``Pr[i] == w[i] / L``: a written
one as :func:`qres.instance.outcome_weights` reads it, an absent one as
the dyadic uniform weights over 2^53 (1/n has no finite decimal for the
LP). A space's weights are the products of its marginals' over L_d * L_w.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple

from .instance import (
    GRID_GUARD,
    Instance,
    OutcomeWeights,
    ScenarioError,
    Weights,
    outcome_weights,
)
from .units import PROBABILITY_DIGITS

_DYADIC_ONE = 1 << PROBABILITY_DIGITS


class Scenario(NamedTuple):
    demand_qubits: int
    wait_time: int  # microseconds


class ScenarioSpace:
    """The scenarios of a product space, demand-major, with exact weights.

    ``demands`` holds each scenario's demand, in scenario order, so a
    pass over the space at one level reads no scenario record. A class
    with slots rather than a named tuple: its ``len()`` is its scenario
    count, which a tuple's own length would contradict.
    """

    __slots__ = ("scenarios", "weights", "demands", "__weakref__")

    def __init__(self, scenarios: tuple[Scenario, ...], weights: Weights) -> None:
        self.scenarios = scenarios
        self.weights = weights
        self.demands = tuple(scenario.demand_qubits for scenario in scenarios)

    def __len__(self) -> int:
        return len(self.scenarios)

    def __eq__(self, other: object) -> bool:
        if type(other) is not ScenarioSpace:
            return NotImplemented
        return (self.scenarios, self.weights) == (other.scenarios, other.weights)

    def __hash__(self) -> int:
        return hash((self.scenarios, self.weights))

    def __repr__(self) -> str:
        return f"ScenarioSpace(scenarios={self.scenarios!r}, weights={self.weights!r})"

    @property
    def exact_probabilities(self) -> tuple[Fraction, ...]:
        common, weights = self.weights
        return tuple(Fraction(w, common) for w in weights)


def _uniform(n: int) -> Weights:
    """The dyadic uniform weights of n outcomes over 2^53."""
    base, extra = divmod(_DYADIC_ONE, n)
    return _DYADIC_ONE, tuple(base + 1 if i < extra else base for i in range(n))


class Marginals(NamedTuple):
    """Checked demand and wait outcomes of one circuit, with exact weights."""

    demands: tuple[int, ...]
    demand_weights: Weights
    waits: tuple[int, ...]  # microseconds
    wait_weights: Weights


def marginals(
    circuit_id: str,
    demand_set: Iterable[int],
    wait_set: Iterable[int],
    demand_probs: Iterable | None = None,
    wait_probs: Iterable | None = None,
) -> Marginals:
    """Check one circuit's outcomes by validate's rule; attach exact weights."""
    demands, waits = tuple(demand_set), tuple(wait_set)
    demand_probs, wait_probs = (
        None if p is None else tuple(p) for p in (demand_probs, wait_probs)
    )
    return _checked(
        circuit_id,
        demands,
        waits,
        outcome_weights(demands, waits, demand_probs, wait_probs),
    )


def _checked(
    circuit_id: str,
    demands: tuple[int, ...],
    waits: tuple[int, ...],
    weights: OutcomeWeights,
) -> Marginals:
    """The marginals, or the first of the problems that outcome_weights found."""
    problems, demand_weights, wait_weights = weights
    for name, problem in problems:
        where = f"{circuit_id} {name}" if name else circuit_id
        raise ScenarioError(f"{where}: {problem}")
    return Marginals(
        demands,
        demand_weights or _uniform(len(demands)),
        waits,
        wait_weights or _uniform(len(waits)),
    )


def circuit_marginals(instance: Instance, circuit_id: str) -> Marginals:
    """The marginals of one circuit of an instance, from its checked weights.

    A circuit without a wait set is refused as validate refuses it: its
    wait set is empty.
    """
    if circuit_id not in instance.demand_sets:
        raise ScenarioError(f"unknown circuit '{circuit_id}'")
    return _checked(
        circuit_id,
        tuple(instance.demand_sets[circuit_id]),
        tuple(instance.wait_sets.get(circuit_id, ())),
        instance.circuit_weights(circuit_id),
    )


def product_space(circuit_id: str, m: Marginals) -> ScenarioSpace:
    """The product space of checked marginals, refused over GRID_GUARD scenarios."""
    size = len(m.demands) * len(m.waits)
    if size > GRID_GUARD:
        raise ScenarioError(
            f"{circuit_id}: product space has {size} scenarios, more than {GRID_GUARD}"
        )
    demand_common, demand_weights = m.demand_weights
    wait_common, wait_weights = m.wait_weights
    scenarios = tuple(Scenario(beta, alpha) for beta in m.demands for alpha in m.waits)
    weights = tuple(wd * ww for wd in demand_weights for ww in wait_weights)
    return ScenarioSpace(scenarios, (demand_common * wait_common, weights))


def build_space(
    circuit_id: str,
    demand_set: Iterable[int],
    wait_set: Iterable[int],
    demand_probs: Iterable | None = None,
    wait_probs: Iterable | None = None,
) -> ScenarioSpace:
    """Product space of demand x wait outcomes with product probabilities.

    A space of more than GRID_GUARD scenarios is refused before it is built.
    """
    return product_space(
        circuit_id,
        marginals(circuit_id, demand_set, wait_set, demand_probs, wait_probs),
    )


def space_for_circuit(instance: Instance, circuit_id: str) -> ScenarioSpace:
    """Build the scenario space of one circuit of an instance."""
    return product_space(circuit_id, circuit_marginals(instance, circuit_id))
