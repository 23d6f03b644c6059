"""Workload shapes and the deterministic instance generator.

A workload fixes the *shape* of its instance (how many circuits,
machines, demand and wait outcomes, the capacity and the grids), so the
work counts are the same for every seed. The seed only draws the values:
demand offsets, wait times, probabilities, rates and execution times.
The same (shape, seed) always gives byte-identical files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path

MICRO = 1_000_000


@dataclass(frozen=True)
class Shape:
    circuits: int
    providers: int
    machines_per_provider: int
    demand_levels: int  # |D| per circuit
    wait_levels: int  # |W| per circuit
    capacity: int  # every machine
    explicit_demand_every: int  # circuit i has demand_probs iff i % n == 0; 0 = none
    explicit_wait_every: int  # the same for wait_probs
    commands: tuple[str, ...]  # CLI commands of one pass, in order
    sweep_grid: str  # qres sweep --grid
    surface_grid: str  # qres surface --grid
    surface_waits: str  # qres surface --waits, always with an explicit step
    # Traced run: brute force and the extensive form cover the whole
    # instance, or only its first triple where the whole would take minutes.
    whole_oracles: bool

    @property
    def triples(self) -> int:
        return self.circuits * self.providers * self.machines_per_provider

    @property
    def scenarios(self) -> int:
        return self.demand_levels * self.wait_levels

    def describe(self) -> str:
        explicit = {
            "demand": _explicit_ids(self.circuits, self.explicit_demand_every),
            "wait": _explicit_ids(self.circuits, self.explicit_wait_every),
        }
        return (
            f"{self.circuits} circuits x {self.providers} providers x "
            f"{self.machines_per_provider} machines = {self.triples} triples, "
            f"|D|={self.demand_levels} x |W|={self.wait_levels}, "
            f"capacity {self.capacity}, explicit probs {explicit}, "
            f"commands {list(self.commands)}"
        )


def _explicit_ids(circuits: int, every: int) -> list[int]:
    return [i for i in range(circuits) if every and i % every == 0]


def grid(spec: str, scale: int = 1) -> list[int]:
    """The values of a CLI grid 'lo:hi:step'; ``scale`` turns seconds into
    microseconds."""
    lo, hi, step = (int(Decimal(part) * scale) for part in spec.split(":"))
    return list(range(lo, hi + 1, step))


def surface_cells(shape: Shape) -> int:
    return len(grid(shape.surface_grid)) * len(grid(shape.surface_waits, MICRO))


# Why each workload exists is recorded next to its name in BENCHMARK.json.
WORKLOADS: dict[str, Shape] = {
    # Per-scenario Fraction pricing dominates: solve, eval and sweep each
    # price 40 triples x 1,000 scenarios. No LP work runs.
    "plan": Shape(
        circuits=10,
        providers=2,
        machines_per_provider=2,
        demand_levels=100,
        wait_levels=10,
        capacity=120,
        explicit_demand_every=2,
        explicit_wait_every=2,
        commands=("solve", "eval", "sweep"),
        sweep_grid="0:120:60",
        surface_grid="0:120:60",
        surface_waits="0:0.02:0.01",
        whole_oracles=False,
    ),
    # Extensive-form build, LP rendering and the brute-force oracle
    # dominate. Uniform probabilities only, so a change to probability
    # parsing leaves the exported LP untouched: the no-change control.
    "audit": Shape(
        circuits=3,
        providers=2,
        machines_per_provider=2,
        demand_levels=40,
        wait_levels=10,
        capacity=30,
        explicit_demand_every=0,
        explicit_wait_every=0,
        commands=("export-lp", "oracle"),
        sweep_grid="0:30:15",
        surface_grid="0:30:15",
        surface_waits="0:0.02:0.01",
        whole_oracles=True,
    ),
    # Hundreds of small expected_cost calls on collapsed wait sets: 21
    # reservation levels x 21 arranged waits.
    "surface": Shape(
        circuits=3,
        providers=3,
        machines_per_provider=2,
        demand_levels=30,
        wait_levels=12,
        capacity=40,
        explicit_demand_every=1,
        explicit_wait_every=2,
        commands=("surface",),
        sweep_grid="0:40:20",
        surface_grid="0:40:2",
        surface_waits="0:0.02:0.001",
        whole_oracles=True,
    ),
}

# Reduced sizes with the same commands, for the harness's own test.
SMOKE: dict[str, Shape] = {
    name: Shape(
        circuits=2,
        providers=1,
        machines_per_provider=2,
        demand_levels=4,
        wait_levels=3,
        capacity=6,
        explicit_demand_every=shape.explicit_demand_every and 2,
        explicit_wait_every=shape.explicit_wait_every and 2,
        commands=shape.commands,
        sweep_grid="0:6:3",
        surface_grid="0:6:3",
        surface_waits="0:0.004:0.002",
        whole_oracles=shape.whole_oracles,
    )
    for name, shape in WORKLOADS.items()
}


def _decimal_probs(rng: random.Random, n: int) -> list[float]:
    """n positive probabilities with six decimals that sum to exactly 1."""
    weights = [rng.randint(1, 1000) for _ in range(n)]
    total = sum(weights)
    micro = [max(1, w * MICRO // total) for w in weights]
    micro[micro.index(max(micro))] += MICRO - sum(micro)
    return [m / MICRO for m in micro]


def _money(rng: random.Random, lo: float, hi: float) -> float:
    return rng.randint(round(lo * 100), round(hi * 100)) / 100


def generate(shape: Shape, seed: int, directory: Path) -> Path:
    """Write the instance of ``shape`` for ``seed`` and return its path."""
    rng = random.Random(seed)
    providers = [f"p{j}" for j in range(shape.providers)]
    machines = [
        {"provider": p, "machine": f"m{k}", "capacity": shape.capacity}
        for p in providers
        for k in range(shape.machines_per_provider)
    ]
    circuits = []
    rates = []
    exec_times = []
    for i in range(shape.circuits):
        cid = f"c{i:02d}"
        # The demand range ends near the capacity, so a few levels clamp
        # while most optimal levels sit strictly inside [0, capacity].
        lo = rng.randint(0, shape.capacity // 4)
        wait_step = rng.randint(1, 3) * 500  # microseconds
        wait_lo = rng.randint(0, 4) * 1000
        waits = [(wait_lo + k * wait_step) / MICRO for k in range(shape.wait_levels)]
        entry = {
            "id": cid,
            "demand_set": {"lo": lo, "hi": lo + shape.demand_levels - 1, "step": 1},
            "wait_set": waits,
        }
        if shape.explicit_demand_every and i % shape.explicit_demand_every == 0:
            entry["demand_probs"] = _decimal_probs(rng, shape.demand_levels)
        if shape.explicit_wait_every and i % shape.explicit_wait_every == 0:
            entry["wait_probs"] = _decimal_probs(rng, shape.wait_levels)
        circuits.append(entry)
        for p in providers:
            rates.append(
                {
                    "circuit": cid,
                    "provider": p,
                    "reserve": _money(rng, 0.5, 3.5),
                    "utilize": _money(rng, 0.05, 0.3),
                    "on_demand": _money(rng, 5, 9),
                    "penalty": _money(rng, 5, 20),
                }
            )
        wait_hi = round(waits[-1] * MICRO)
        for m in machines:
            exec_times.append(
                {
                    "circuit": cid,
                    "provider": m["provider"],
                    "machine": m["machine"],
                    "seconds": rng.randint(wait_lo, wait_hi + 5000) / MICRO,
                }
            )
    doc = {
        "circuits": circuits,
        "providers": providers,
        "machines": machines,
        "default_rates": {"reserve": 1.68, "utilize": 0.1, "on_demand": 7, "penalty": 10},
        "rates": rates,
        "exec_times": exec_times,
    }
    path = Path(directory) / "instance.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return path
