"""Problem instance: circuits, providers, machines, costs, and timing data.

An :class:`Instance` is the immutable input to everything else in the
package. It is normally built from a JSON document (see ``load_instance``)
plus an optional execution-time CSV (:mod:`qres.csvio`). Construction
and validation are separate: the records can be assembled with
inconsistent data, and :func:`validate` reports every violation as a
diagnostic instead of raising, so the CLI can show all problems at once.
The rules every route shares live here too: the checked
:class:`Marginals`, the capacity check and :func:`penalty_time`.

Units follow :mod:`qres.units`: money fields are integer micro-dollars,
time fields integer microseconds.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from typing import Any, Callable, Collection, Iterable, Iterator, NamedTuple, Sequence

from .units import (
    MAGNITUDE_LIMIT,
    MICRO,
    PROBABILITY_DIGITS,
    UnitError,
    check_magnitude,
    exact_probability,
    parse_integer,
    parse_money,
    parse_seconds,
)

DEFAULT_CAPACITY = 30


Weights = tuple[int, tuple[int, ...]]  # (L, w): Pr[i] == w[i] / L, sum(w) == L
# (problems, demand weights, wait weights); see outcome_weights.
OutcomeWeights = tuple[list[tuple[str, str]], Weights | None, Weights | None]


class InstanceError(ValueError):
    """Raised when a document or CSV cannot be turned into a valid Instance."""


class ScenarioError(ValueError):
    """Invalid inputs for building a scenario space."""


class ModelError(ValueError):
    """A reservation vector does not fit the instance."""


class CapacityError(ModelError):
    """A reservation exceeds its machine's qubit capacity."""


class GuardError(ModelError):
    """An enumeration oracle was asked for more work than its guard allows."""


def check_capacity(capacity: int) -> None:
    """Refuse a negative machine capacity before any route reads it."""
    if capacity < 0:
        raise CapacityError(f"capacity must be non-negative, got {capacity}")


def penalty_time(exec_time: int, wait_time: int) -> int:
    """Over-waiting in microseconds: max(0, exec_time - wait_time)."""
    if exec_time < 0 or wait_time < 0:
        raise ValueError("times must be non-negative")
    return exec_time - wait_time if exec_time > wait_time else 0


class CostRates(NamedTuple):
    """Per-qubit rates charged by one provider for one circuit (micro-dollars)."""

    reserve_per_qubit: int
    utilize_per_qubit: int
    on_demand_per_qubit: int
    penalty_per_second: int  # micro-dollars per second of over-waiting


class Machine(NamedTuple):
    provider_id: str
    machine_id: str
    capacity_qubits: int


class Circuit(NamedTuple):
    circuit_id: str
    label: str | None = None
    num_qubits: int | None = None
    encoded_value: int | None = None


class TripleKey(NamedTuple):
    circuit_id: str
    provider_id: str
    machine_id: str


class WrittenProbabilities(tuple):
    """A probability vector as a document wrote it, and the weights read from it.

    ``weights`` is the vector's ``(L, w)``, read once when the document
    is loaded; :func:`outcome_weights` takes it instead of reading the
    values again. The values cannot change, so neither can their weights.
    """

    weights: Weights | None = None


class Diagnostic(NamedTuple):
    severity: str  # "error" | "warning"
    location: str
    message: str

    def __str__(self) -> str:
        return f"{self.severity}: {self.location}: {self.message}"


@dataclass(frozen=True)
class Instance:
    """Full static problem data. Immutable after construction.

    A probability vector is a sequence of probabilities as written (see
    :func:`qres.units.exact_probability`). Each circuit's vectors are
    checked and made exact once per instance, by :meth:`circuit_weights`.
    """

    circuits: tuple[Circuit, ...]
    providers: tuple[str, ...]
    machines: tuple[Machine, ...]
    rates: dict[tuple[str, str], CostRates]  # (circuit_id, provider_id)
    exec_times: dict[tuple[str, str, str], int]  # (circuit, provider, machine)
    demand_sets: dict[str, tuple[int, ...]]  # circuit_id -> qubit counts
    wait_sets: dict[str, tuple[int, ...]]  # circuit_id -> microseconds
    demand_probs: dict[str, Sequence] = field(default_factory=dict)
    wait_probs: dict[str, Sequence] = field(default_factory=dict)
    _machines_by_key: dict[tuple[str, str], Machine] = field(
        init=False, repr=False, compare=False
    )
    _weights: dict[str, OutcomeWeights] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        # Reversed so that, like a scan, a duplicate key finds its first entry.
        index = {(m.provider_id, m.machine_id): m for m in reversed(self.machines)}
        object.__setattr__(self, "_machines_by_key", index)

    def circuit_ids(self) -> tuple[str, ...]:
        return tuple(c.circuit_id for c in self.circuits)

    def triples(self) -> list[TripleKey]:
        """All (circuit, provider, machine) combinations, sorted."""
        return sorted(
            TripleKey(c.circuit_id, m.provider_id, m.machine_id)
            for c in self.circuits
            for m in self.machines
        )

    def machine(self, provider_id: str, machine_id: str) -> Machine:
        try:
            return self._machines_by_key[(provider_id, machine_id)]
        except KeyError:
            raise KeyError(f"unknown machine {provider_id}/{machine_id}") from None

    def circuit_weights(self, circuit_id: str) -> OutcomeWeights:
        """:func:`outcome_weights` of one circuit's outcomes, made on first use."""
        weights = self._weights.get(circuit_id)
        if weights is None:
            weights = self._weights[circuit_id] = outcome_weights(
                self.demand_sets.get(circuit_id, ()),
                self.wait_sets.get(circuit_id, ()),
                self.demand_probs.get(circuit_id),
                self.wait_probs.get(circuit_id),
            )
        return weights

    def rate(self, circuit_id: str, provider_id: str) -> CostRates:
        return self.rates[(circuit_id, provider_id)]

    def exec_time(self, circuit_id: str, provider_id: str, machine_id: str) -> int:
        try:
            return self.exec_times[(circuit_id, provider_id, machine_id)]
        except KeyError:
            raise KeyError(
                f"no execution time for ({circuit_id}, {provider_id}, {machine_id})"
            ) from None


def popcount(value: int) -> int:
    return bin(value).count("1")


def synth_exec_time(num_qubits: int, encoded_value: int, base: int, slope: int) -> int:
    """Synthetic execution time (microseconds) for an encoded-number circuit.

    The surrogate is ``base + slope * num_qubits * popcount(encoded_value)``:
    strictly increasing in the number of one bits for a fixed width, and
    non-decreasing in the width, so wider and denser encodings never get
    cheaper.
    """
    if num_qubits <= 0:
        raise InstanceError(f"num_qubits must be positive, got {num_qubits}")
    if base <= 0 or slope <= 0:
        raise InstanceError("base and slope must be positive")
    if encoded_value < 0 or encoded_value.bit_length() > num_qubits:
        raise InstanceError(
            f"encoded value {encoded_value} out of range for {num_qubits} qubits"
        )
    return base + slope * num_qubits * popcount(encoded_value)


# ---------------------------------------------------------------------------
# Reading an instance file
# ---------------------------------------------------------------------------

# Largest set a {lo, hi, step} range may spell out, and largest CLI grid or
# surface; checked before anything is built.
GRID_GUARD = 10**6

# Most demand and wait outcomes, summed over the circuits that have a
# triple, that one instance may hold: each range is within GRID_GUARD, and
# this keeps a few kilobytes of ranges from taking gigabytes. Counted
# before any range is spelt out or any table is built.
OUTCOME_GUARD = 2 * 10**6

# The keys each block of a document may hold; any other key is an error.
_DOCUMENT_KEYS = (
    "circuits",
    "providers",
    "machines",
    "default_rates",
    "rates",
    "exec_times",
    "exec_times_csv",
)
_CIRCUIT_KEYS = (
    "id",
    "label",
    "num_qubits",
    "encoded_value",
    "demand_set",
    "wait_set",
    "demand_probs",
    "wait_probs",
)
_RANGE_KEYS = ("lo", "hi", "step")
_MACHINE_KEYS = ("provider", "machine", "capacity")
_RATE_KEYS = ("reserve", "utilize", "on_demand", "penalty")
_RATE_ENTRY_KEYS = ("circuit", "provider", *_RATE_KEYS)
_SYNTHETIC_KEYS = ("base", "slope")
_RECORD_KEYS = ("circuit", "provider", "machine", "seconds")


def _require(doc: dict, key: str, where: str) -> Any:
    if key not in doc:
        raise InstanceError(f"{where}: missing required key '{key}'")
    return doc[key]


def _known(block: dict, keys: Collection[str], where: str) -> dict:
    """The block, once each of its keys is found among ``keys``."""
    for key in block:
        if key not in keys:
            raise InstanceError(f"{where}: unknown key {key!r}")
    return block


def _object(value: Any, where: str, keys: Collection[str]) -> dict:
    """A JSON object whose keys are all among ``keys``."""
    if not isinstance(value, dict):
        raise InstanceError(f"{where}: expected an object")
    return _known(value, keys, where)


def _objects(
    value: Any, where: str, keys: Collection[str]
) -> Iterator[tuple[str, dict]]:
    """The objects of a JSON list, each with its location."""
    if not isinstance(value, list):
        raise InstanceError(f"{where}: expected a list of objects")
    for i, entry in enumerate(value):
        yield f"{where}[{i}]", _object(entry, f"{where}[{i}]", keys)


def _id(value: Any, what: str) -> str:
    """A non-empty string: an id or a file name."""
    if not isinstance(value, str) or not value:
        raise InstanceError(f"{what} must be a non-empty string")
    return value


def _ids(block: dict, keys: tuple[str, ...], where: str) -> tuple[str, ...]:
    return tuple(_id(_require(block, key, where), f"{where}: {key}") for key in keys)


def _integer(value: Any, what: str = "value") -> int:
    """A JSON integer of at most MAGNITUDE_LIMIT; a boolean is not one."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InstanceError(f"{what} must be an integer")
    try:
        check_magnitude(value, what)
    except UnitError as exc:
        raise InstanceError(str(exc)) from None
    return value


def _optional_integer(block: dict, key: str, where: str) -> int | None:
    value = block.get(key)
    return None if value is None else _integer(value, f"{where}: {key}")


def _parse_set(
    spec: Any, where: str, value: Callable[[Any], int]
) -> tuple[int, ...] | range:
    """A list, or an inclusive lo/hi/step range of at most GRID_GUARD values.

    A range is returned as a ``range``, not yet spelt out.
    """
    if isinstance(spec, dict):
        _known(spec, _RANGE_KEYS, where)
        raw = [_require(spec, "lo", where), _require(spec, "hi", where)]
        raw.append(spec.get("step", 1))
    elif isinstance(spec, list):
        raw = spec
    else:
        raise InstanceError(f"{where}: expected a list or a lo/hi/step object")
    try:
        values = tuple(value(v) for v in raw)
    except ValueError as exc:
        raise InstanceError(f"{where}: {exc}") from exc
    if isinstance(spec, dict):
        lo, hi, step = values
        if step <= 0:
            raise InstanceError(f"{where}: step must be positive")
        size = (hi - lo) // step + 1
        if size > GRID_GUARD:
            raise InstanceError(
                f"{where}: range has {size} values, more than {GRID_GUARD}"
            )
        return range(lo, hi + 1, step)
    return values


def _parse_probs(spec: Any, where: str) -> WrittenProbabilities:
    if not isinstance(spec, list) or not spec:
        raise InstanceError(f"{where}: expected a non-empty list of probabilities")
    # Read as the vector of outcomes 0..n-1, where only a value can fail.
    problems, weights, _ = outcome_weights(range(len(spec)), (0,), spec)
    if weights is None:
        raise InstanceError(f"{where}: {problems[0][1]}")
    vector = WrittenProbabilities(spec)
    vector.weights = weights
    return vector


def _parse_rates(block: dict, where: str) -> CostRates:
    rates = []
    for key in _RATE_KEYS:
        value = _require(block, key, where)
        try:
            rates.append(parse_money(value))
        except UnitError as exc:
            raise InstanceError(f"{where}: {key}: {exc}") from exc
    return CostRates(*rates)


def _parse_circuit(entry: dict, where: str) -> Circuit:
    label = entry.get("label")
    if label is not None and not isinstance(label, str):
        raise InstanceError(f"{where}: label must be a string")
    return Circuit(
        circuit_id=_id(_require(entry, "id", where), f"{where}: id"),
        label=label,
        num_qubits=_optional_integer(entry, "num_qubits", where),
        encoded_value=_optional_integer(entry, "encoded_value", where),
    )


def _triple_entries(
    records: Iterable[tuple[str, dict]],
    keys: tuple[str, ...],
    value: Callable[[Any], int],
) -> dict[tuple[str, str, str], int]:
    """One value per triple from inline records or CSV rows.

    ``keys`` names the circuit, provider, machine and value fields.
    """
    entries: dict[tuple[str, str, str], int] = {}
    for where, record in records:
        key = _ids(record, keys[:3], where)
        if key in entries:
            raise InstanceError(f"{where}: duplicate triple {key}")
        raw = _require(record, keys[3], where)
        try:
            entries[key] = value(raw)
        except ValueError as exc:
            raise InstanceError(f"{where}: {exc}") from exc
    return entries


def _synthesize_exec_times(
    circuits: tuple[Circuit, ...], machines: tuple[Machine, ...], block: dict
) -> dict[tuple[str, str, str], int]:
    where = "exec_times.synthetic"
    try:
        base = parse_seconds(_require(block, "base", where))
        slope = parse_seconds(_require(block, "slope", where))
    except UnitError as exc:
        raise InstanceError(f"{where}: {exc}") from exc
    if base <= 0 or slope <= 0:
        raise InstanceError(f"{where}: base and slope must be positive")
    entries: dict[tuple[str, str, str], int] = {}
    for circuit in circuits:
        what = f"{where}: circuit '{circuit.circuit_id}'"
        if circuit.num_qubits is None or circuit.encoded_value is None:
            raise InstanceError(
                f"{what} needs num_qubits and encoded_value for synthetic timing"
            )
        try:
            micro = synth_exec_time(
                circuit.num_qubits, circuit.encoded_value, base, slope
            )
        except InstanceError as exc:
            raise InstanceError(f"{what}: {exc}") from None
        if micro > MAGNITUDE_LIMIT * MICRO:
            raise InstanceError(
                f"{what} runs longer than {MAGNITUDE_LIMIT:.0e} seconds"
            )
        for m in machines:
            entries[(circuit.circuit_id, m.provider_id, m.machine_id)] = micro
    return entries


def _read_exec_times(
    doc: dict,
    circuits: tuple[Circuit, ...],
    machines: tuple[Machine, ...],
    base_dir: str | os.PathLike[str] | None,
) -> dict[tuple[str, str, str], int]:
    """Execution times from the inline records, the CSV file or the model."""
    exec_block = doc.get("exec_times")
    csv_path = doc.get("exec_times_csv")
    if exec_block is not None and csv_path is not None:
        raise InstanceError("give either exec_times or exec_times_csv, not both")
    if csv_path is not None:
        from .csvio import read_exec_times_csv

        path = _id(csv_path, "exec_times_csv")
        if base_dir is not None:
            path = os.path.join(os.fspath(base_dir), path)
        return read_exec_times_csv(path)
    if isinstance(exec_block, dict) and exec_block:
        # Once checked, a non-empty object holds "synthetic" and nothing else.
        synthetic = _known(exec_block, ("synthetic",), "exec_times")["synthetic"]
        block = _object(synthetic, "exec_times.synthetic", _SYNTHETIC_KEYS)
        return _synthesize_exec_times(circuits, machines, block)
    if isinstance(exec_block, list):
        records = _objects(exec_block, "exec_times", _RECORD_KEYS)
        return _triple_entries(records, _RECORD_KEYS, parse_seconds)
    if exec_block is None:
        return {}
    raise InstanceError(
        "exec_times must be a list of records or a {'synthetic': ...} object"
    )


def instance_from_document(
    doc: dict,
    base_dir: str | os.PathLike[str] | None = None,
    *,
    check: bool = True,
) -> Instance:
    """Build an Instance from a parsed JSON document.

    Every field is type-checked as it is read; a field of the wrong type
    raises :class:`InstanceError`. ``base_dir`` resolves a relative
    ``exec_times_csv`` path. With ``check=True`` (the default) any
    error-severity diagnostic raises :class:`InstanceError`;
    ``check=False`` returns the instance as-is so callers can inspect the
    diagnostics themselves.
    """
    if not isinstance(doc, dict):
        raise InstanceError("document root must be an object")
    _known(doc, _DOCUMENT_KEYS, "document")

    raw_circuits = _require(doc, "circuits", "document")
    if not isinstance(raw_circuits, list) or not raw_circuits:
        raise InstanceError("circuits: expected a non-empty list")
    circuits = []
    demand_sets: dict[str, Sequence[int]] = {}
    wait_sets: dict[str, Sequence[int]] = {}
    demand_probs: dict[str, WrittenProbabilities] = {}
    wait_probs: dict[str, WrittenProbabilities] = {}
    for where, entry in _objects(raw_circuits, "circuits", _CIRCUIT_KEYS):
        circuit = _parse_circuit(entry, where)
        circuits.append(circuit)
        cid = circuit.circuit_id
        demand_sets[cid] = _parse_set(
            _require(entry, "demand_set", where), f"{where}.demand_set", _integer
        )
        wait_sets[cid] = _parse_set(
            _require(entry, "wait_set", where), f"{where}.wait_set", parse_seconds
        )
        for name, probs in (("demand_probs", demand_probs), ("wait_probs", wait_probs)):
            if name in entry:
                probs[cid] = _parse_probs(entry[name], f"{where}.{name}")
    circuits = tuple(circuits)
    # A loadable document has machines, so every circuit has a triple.
    problem = outcome_total_problem(
        len(demand_sets[cid]) + len(wait_sets[cid]) for cid in demand_sets
    )
    if problem:
        raise InstanceError(f"circuits: {problem}")
    demand_sets = {cid: tuple(values) for cid, values in demand_sets.items()}
    wait_sets = {cid: tuple(values) for cid, values in wait_sets.items()}

    providers = _require(doc, "providers", "document")
    if not isinstance(providers, list) or not all(
        isinstance(p, str) and p for p in providers
    ):
        raise InstanceError("providers: expected a list of non-empty strings")
    providers = tuple(providers)

    raw_machines = _require(doc, "machines", "document")
    if not isinstance(raw_machines, list) or not raw_machines:
        raise InstanceError("machines: expected a non-empty list")
    machines = tuple(
        Machine(
            *_ids(entry, ("provider", "machine"), where),
            capacity_qubits=_integer(
                entry.get("capacity", DEFAULT_CAPACITY), f"{where}: capacity"
            ),
        )
        for where, entry in _objects(raw_machines, "machines", _MACHINE_KEYS)
    )

    # Rates: explicit per-pair records override the default block.
    rates: dict[tuple[str, str], CostRates] = {}
    default_block = doc.get("default_rates")
    if default_block is not None:
        block = _object(default_block, "default_rates", _RATE_KEYS)
        default = _parse_rates(block, "default_rates")
        for circuit in circuits:
            for provider in providers:
                rates[(circuit.circuit_id, provider)] = default
    for where, entry in _objects(doc.get("rates", []), "rates", _RATE_ENTRY_KEYS):
        rates[_ids(entry, ("circuit", "provider"), where)] = _parse_rates(entry, where)

    instance = Instance(
        circuits=circuits,
        providers=providers,
        machines=machines,
        rates=rates,
        exec_times=_read_exec_times(doc, circuits, machines, base_dir),
        demand_sets=demand_sets,
        wait_sets=wait_sets,
        demand_probs=demand_probs,
        wait_probs=wait_probs,
    )
    if check:
        errors = [d for d in validate(instance) if d.severity == "error"]
        if errors:
            raise InstanceError(
                "; ".join(f"{d.location}: {d.message}" for d in errors)
            )
    return instance


def load_instance(path: str | os.PathLike[str], *, check: bool = True) -> Instance:
    """Load an instance from a JSON file; see :func:`instance_from_document`.

    Floats in the document are parsed as decimal literals, so values such
    as 1.68 land exactly on the micro-dollar grid. A relative
    ``exec_times_csv`` is resolved against the file's directory. Both paths
    are opened as written, so an error names a file as ``open()`` does.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        doc = json.loads(text, parse_float=Decimal)
    # ValueError also covers integers past the int-string digit limit and
    # RecursionError nesting too deep for the decoder.
    except (ValueError, RecursionError) as exc:
        raise InstanceError(f"invalid JSON: {exc}") from exc
    return instance_from_document(doc, os.path.dirname(path), check=check)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def outcome_weights(
    demand: Sequence[int], wait: Sequence[int], demand_probs=None, wait_probs=None
) -> OutcomeWeights:
    """``(problems, demand_weights, wait_weights)`` of a circuit's outcomes.

    ``problems`` says why they are not two distributions, as (field,
    problem) with ``field`` ``""`` for a set, else the vector's name. A
    vector that was read is ``(L, w)``, over L the lcm of its reduced
    denominators; an absent or unreadable one is ``None``. Each value is
    read straight to its integer ratio (a written decimal makes no
    ``Fraction``), and a :class:`WrittenProbabilities` is not read again.
    """
    problems = []
    if not demand:
        problems.append(("", "empty demand set"))
    if not wait:
        problems.append(("", "empty wait set"))
    if min(demand, default=0) < 0:
        problems.append(("", "negative demand value"))
    if min(wait, default=0) < 0:
        problems.append(("", "negative wait time"))
    weights: dict[str, Weights] = {}
    for name, probs, n in (
        ("demand_probs", demand_probs, len(demand)),
        ("wait_probs", wait_probs, len(wait)),
    ):
        if probs is None:
            continue
        if len(probs) != n:
            problems.append((name, f"expected {n} probabilities, got {len(probs)}"))
            continue
        if isinstance(probs, WrittenProbabilities) and probs.weights is not None:
            common, w = probs.weights
        else:
            try:
                ratios = [exact_probability(p).as_integer_ratio() for p in probs]
            except UnitError as exc:
                problems.append((name, str(exc)))
                continue
            common = math.lcm(*(d for _, d in ratios))
            w = tuple(n * (common // d) for n, d in ratios)
        if any(n < 0 for n in w):
            problems.append((name, "probabilities must be non-negative"))
        if (total := sum(w)) != common:
            total = Fraction(total, common)
            problems.append((name, f"probabilities sum to {total}, not 1"))
        weights[name] = common, w
    return problems, weights.get("demand_probs"), weights.get("wait_probs")


def outcome_total_problem(counts: Iterable[int]) -> str | None:
    """Why circuits of these |D| + |W| outcome counts are too many, or None."""
    total = sum(counts)
    if total > OUTCOME_GUARD:
        return f"{total} demand and wait outcomes in all, more than {OUTCOME_GUARD}"
    return None


def check_outcome_total(instance: Instance) -> None:
    """Refuse an instance over OUTCOME_GUARD before any of its tables is built."""
    problem = outcome_total_problem(_outcome_counts(instance))
    if problem:
        raise ScenarioError(f"circuits: {problem}")


def _outcome_counts(instance: Instance) -> Iterator[int]:
    """|D| + |W| of each circuit that has a triple."""
    if not instance.machines:
        return
    for cid in dict.fromkeys(c.circuit_id for c in instance.circuits):
        yield len(instance.demand_sets.get(cid, ())) + len(instance.wait_sets.get(cid, ()))


def _uniform(n: int) -> Weights:
    """The dyadic uniform weights of n outcomes over 2^53."""
    one = 1 << PROBABILITY_DIGITS
    base, extra = divmod(one, n)
    return one, tuple(base + 1 if i < extra else base for i in range(n))


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
    weights = outcome_weights(demands, waits, demand_probs, wait_probs)
    return _checked(circuit_id, demands, waits, weights)


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


def validate(instance: Instance) -> list[Diagnostic]:
    """Check every instance invariant; errors and warnings, never raises.

    The pricing-sanity rule (utilization dearer than on-demand, or
    reservation at least as dear as on-demand) only warns: such instances
    are economically odd but still well-posed.
    """
    out: list[Diagnostic] = []

    seen_circuits: set[str] = set()
    for c in instance.circuits:
        if c.circuit_id in seen_circuits:
            out.append(Diagnostic("error", f"circuit {c.circuit_id}", "duplicate id"))
        seen_circuits.add(c.circuit_id)

    seen_providers: set[str] = set()
    for p in instance.providers:
        if p in seen_providers:
            out.append(Diagnostic("error", f"provider {p}", "duplicate id"))
        seen_providers.add(p)

    seen_machines: set[tuple[str, str]] = set()
    for m in instance.machines:
        where = f"machine {m.provider_id}/{m.machine_id}"
        if (m.provider_id, m.machine_id) in seen_machines:
            out.append(Diagnostic("error", where, "duplicate (provider, machine)"))
        seen_machines.add((m.provider_id, m.machine_id))
        if m.capacity_qubits < 0:
            out.append(
                Diagnostic("error", where, f"negative capacity {m.capacity_qubits}")
            )
        if m.provider_id not in instance.providers:
            out.append(Diagnostic("error", where, "unknown provider"))

    for c in instance.circuits:
        cid = c.circuit_id
        for name, problem in instance.circuit_weights(cid)[0]:
            where = f"circuit {cid} {name}" if name else f"circuit {cid}"
            out.append(Diagnostic("error", where, problem))
    if problem := outcome_total_problem(_outcome_counts(instance)):
        out.append(Diagnostic("error", "circuits", problem))

    for c in instance.circuits:
        for p in instance.providers:
            key = (c.circuit_id, p)
            where = f"rates[{c.circuit_id},{p}]"
            if key not in instance.rates:
                out.append(Diagnostic("error", where, "no rates for this pair"))
                continue
            r = instance.rates[key]
            for name, value in (
                ("reserve", r.reserve_per_qubit),
                ("utilize", r.utilize_per_qubit),
                ("on_demand", r.on_demand_per_qubit),
                ("penalty", r.penalty_per_second),
            ):
                if value < 0:
                    out.append(Diagnostic("error", where, f"negative {name} rate"))
            if r.utilize_per_qubit > r.on_demand_per_qubit:
                out.append(
                    Diagnostic(
                        "warning", where, "utilization rate exceeds on-demand rate"
                    )
                )
            if r.reserve_per_qubit >= r.on_demand_per_qubit:
                out.append(
                    Diagnostic(
                        "warning",
                        where,
                        "reservation rate is not below the on-demand rate",
                    )
                )

    # Overrides and timings for keys outside the instance would be ignored.
    for cid, pid in instance.rates:
        where = f"rates[{cid},{pid}]"
        if cid not in seen_circuits:
            out.append(Diagnostic("error", where, f"unknown circuit '{cid}'"))
        if pid not in instance.providers:
            out.append(Diagnostic("error", where, f"unknown provider '{pid}'"))
    for cid, pid, mid in instance.exec_times:
        where = f"exec_times[{cid},{pid},{mid}]"
        if cid not in seen_circuits:
            out.append(Diagnostic("error", where, f"unknown circuit '{cid}'"))
        if (pid, mid) not in seen_machines:
            out.append(Diagnostic("error", where, f"unknown machine {pid}/{mid}"))
    for name in ("demand_sets", "wait_sets", "demand_probs", "wait_probs"):
        for cid in getattr(instance, name):
            if cid not in seen_circuits:
                where = f"{name}[{cid}]"
                out.append(Diagnostic("error", where, f"unknown circuit '{cid}'"))

    for c in instance.circuits:
        for m in instance.machines:
            key = (c.circuit_id, m.provider_id, m.machine_id)
            t = instance.exec_times.get(key)
            where = f"exec_times[{','.join(key)}]"
            if t is None:
                out.append(Diagnostic("error", where, "missing execution time"))
            elif t < 0:
                out.append(Diagnostic("error", where, "negative execution time"))

    return out

