"""Finite scenario spaces over (demand, wait-time) outcomes.

A circuit's uncertainty is the Cartesian product of its finite demand set
and finite wait-time set. Scenario probabilities are the products of the
marginal probabilities (the marginals are treated as independent; a joint
table can be had by building a space per joint cell). Ordering is
demand-major lexicographic and deterministic, so downstream CSV output and
golden tests are reproducible.

The solver's marginal kernel needs only the checked marginals
(:func:`marginals`, :func:`circuit_marginals`); the product space itself
serves the scenario-route oracles and the extensive form. Probabilities
are exact rationals: an explicit vector holds each written decimal and
sums to exactly 1, and a uniform marginal is made of dyadic rationals
within one part in 2^53 of 1/n (which has no finite decimal for the LP)
that sum to exactly 1. Equality tests downstream are therefore exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, NamedTuple

from .instance import GRID_GUARD, Instance, ScenarioError, outcome_problems
from .units import PROBABILITY_DIGITS, parse_probability

_DYADIC_ONE = 1 << PROBABILITY_DIGITS


@dataclass(frozen=True)
class Scenario:
    demand_qubits: int
    wait_time: int  # microseconds


@dataclass(frozen=True)
class ScenarioSpace:
    scenarios: tuple[Scenario, ...]
    exact_probabilities: tuple[Fraction, ...]

    def __len__(self) -> int:
        return len(self.scenarios)

    @cached_property
    def weights(self) -> tuple[int, tuple[int, ...]]:
        """``(L, w)``: each probability as ``w[i] / L`` over one common denominator.

        L is the lcm of the probabilities' denominators, so ``sum(w) == L``
        and an expectation over the space is an integer sum divided by L.
        """
        common = math.lcm(*(p.denominator for p in self.exact_probabilities))
        return common, tuple(
            p.numerator * (common // p.denominator) for p in self.exact_probabilities
        )


def _exact(probs: tuple | None, n: int) -> tuple[Fraction, ...]:
    """A checked vector as written, or the dyadic uniform one if none is given."""
    if probs is not None:
        return tuple(map(parse_probability, probs))
    base, extra = divmod(_DYADIC_ONE, n)
    return tuple(
        Fraction(base + (1 if i < extra else 0), _DYADIC_ONE) for i in range(n)
    )


class Marginals(NamedTuple):
    """Checked demand and wait outcomes of one circuit, exact probabilities."""

    demands: tuple[int, ...]
    demand_probs: tuple[Fraction, ...]
    waits: tuple[int, ...]  # microseconds
    wait_probs: tuple[Fraction, ...]


def marginals(
    circuit_id: str,
    demand_set: Iterable[int],
    wait_set: Iterable[int],
    demand_probs: Iterable | None = None,
    wait_probs: Iterable | None = None,
) -> Marginals:
    """Check one circuit's outcomes by validate's rule; attach exact probabilities."""
    demands, waits = tuple(demand_set), tuple(wait_set)
    demand_probs, wait_probs = (
        None if p is None else tuple(p) for p in (demand_probs, wait_probs)
    )
    for name, problem in outcome_problems(demands, waits, demand_probs, wait_probs):
        where = f"{circuit_id} {name}" if name else circuit_id
        raise ScenarioError(f"{where}: {problem}")
    return Marginals(
        demands,
        _exact(demand_probs, len(demands)),
        waits,
        _exact(wait_probs, len(waits)),
    )


def circuit_marginals(instance: Instance, circuit_id: str) -> Marginals:
    """The marginals of one circuit of an instance.

    A circuit without a wait set is refused as validate refuses it: its
    wait set is empty.
    """
    if circuit_id not in instance.demand_sets:
        raise ScenarioError(f"unknown circuit '{circuit_id}'")
    return marginals(
        circuit_id,
        instance.demand_sets[circuit_id],
        instance.wait_sets.get(circuit_id, ()),
        instance.demand_probs.get(circuit_id),
        instance.wait_probs.get(circuit_id),
    )


def _product_space(circuit_id: str, m: Marginals) -> ScenarioSpace:
    size = len(m.demands) * len(m.waits)
    if size > GRID_GUARD:
        raise ScenarioError(
            f"{circuit_id}: product space has {size} scenarios, more than {GRID_GUARD}"
        )
    scenarios = []
    exact = []
    for beta, pd in zip(m.demands, m.demand_probs):
        for alpha, pw in zip(m.waits, m.wait_probs):
            scenarios.append(Scenario(demand_qubits=beta, wait_time=alpha))
            exact.append(pd * pw)
    return ScenarioSpace(scenarios=tuple(scenarios), exact_probabilities=tuple(exact))


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
    return _product_space(
        circuit_id,
        marginals(circuit_id, demand_set, wait_set, demand_probs, wait_probs),
    )


def space_for_circuit(instance: Instance, circuit_id: str) -> ScenarioSpace:
    """Build the scenario space of one circuit of an instance."""
    return _product_space(circuit_id, circuit_marginals(instance, circuit_id))
