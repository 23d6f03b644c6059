"""Finite scenario spaces over (demand, wait-time) outcomes.

A circuit's uncertainty is the Cartesian product of its finite demand set
and finite wait-time set. Scenario probabilities are the products of the
marginal probabilities (the marginals are treated as independent; a joint
table can be had by building a space per joint cell). Ordering is
demand-major lexicographic and deterministic, so downstream CSV output and
golden tests are reproducible.

The solver's marginal kernel needs only the checked marginals, which
live in :mod:`qres.instance`; the product space serves the oracles and
the extensive form, so only ``solve --oracle`` and ``export-lp`` load
this module. Each vector is held as exact integer
weights ``(L, w)``, ``Pr[i] == w[i] / L``: a written one as
:func:`qres.instance.outcome_weights` reads it, an absent one as the dyadic
uniform weights over 2^53 (1/n has no finite decimal for the LP). A
space's weights are the products of its marginals' over L_d * L_w. A
space is a view over its marginals, so no command builds a :class:`Scenario`.
"""

from __future__ import annotations

from itertools import chain, cycle, repeat
from typing import Iterable, Iterator, NamedTuple

from .instance import (
    GRID_GUARD,
    Instance,
    Marginals,
    ScenarioError,
    circuit_marginals,
    marginals,
)


class Scenario(NamedTuple):
    demand_qubits: int
    wait_time: int  # microseconds


class ScenarioSpace:
    """The product space of checked marginals, demand-major, with exact weights.

    Beside its :class:`Marginals` it stores the two columns a pass at one
    level streams: the weights ``(L, w)`` and each scenario's demand.
    Iterating yields ``(demand, wait, weight)`` per scenario, the wait read
    off ``cycle(marginals.waits)``. A class with slots rather than a named
    tuple: its ``len()`` is its scenario count, which a tuple's own length
    would contradict.
    """

    __slots__ = ("marginals", "weights", "demands", "__weakref__")

    def __init__(self, marginals: Marginals) -> None:
        demand_common, demand_weights = marginals.demand_weights
        wait_common, wait_weights = marginals.wait_weights
        n = len(marginals.waits)
        # One row of products per distinct demand weight, so that equal
        # products share one int object: a uniform space has few.
        rows = {wd: tuple(wd * ww for ww in wait_weights) for wd in set(demand_weights)}
        self.marginals = marginals
        self.weights = (
            demand_common * wait_common,
            tuple(chain.from_iterable(map(rows.__getitem__, demand_weights))),
        )
        self.demands = tuple(
            chain.from_iterable(map(repeat, marginals.demands, repeat(n)))
        )

    def __len__(self) -> int:
        return len(self.demands)

    def __iter__(self) -> Iterator[tuple[int, int, int]]:
        return zip(self.demands, cycle(self.marginals.waits), self.weights[1])

    def __eq__(self, other: object) -> bool:
        if type(other) is not ScenarioSpace:
            return NotImplemented
        key = self.demands, self.marginals.waits, self.weights
        return key == (other.demands, other.marginals.waits, other.weights)

    def __hash__(self) -> int:
        return hash((self.demands, self.marginals.waits, self.weights))

    def __repr__(self) -> str:
        return f"ScenarioSpace({self.marginals!r})"

    @property
    def scenarios(self) -> tuple[Scenario, ...]:
        """A new tuple of one :class:`Scenario` per pair; no command reads it."""
        return tuple(map(Scenario, self.demands, cycle(self.marginals.waits)))


def product_space(circuit_id: str, m: Marginals) -> ScenarioSpace:
    """The product space of checked marginals, refused over GRID_GUARD scenarios."""
    size = len(m.demands) * len(m.waits)
    if size > GRID_GUARD:
        raise ScenarioError(
            f"{circuit_id}: product space has {size} scenarios, more than {GRID_GUARD}"
        )
    return ScenarioSpace(m)


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
