"""Two-stage provisioning of reserved, utilized, and on-demand qubits.

Given finite uncertainty sets for each circuit's qubit demand and waiting
time, the package decides how many qubits to reserve per (circuit,
provider, machine) so that the expected total of reservation, utilization,
on-demand, and over-waiting-penalty cost is minimal. It ships an exact
solver with brute-force oracles, an extensive-form MILP exporter in LP
text format, experiment sweeps, and a CLI.
"""

import importlib

# Each exported name, sorted into ``__all__``, and the submodule that
# defines it. A submodule is imported on the first access to one of its
# names (PEP 562), so ``python -m qres.cli`` loads only what the command
# runs.
_SOURCES = {
    "extform": (
        "ExtensiveForm",
        "LpParseError",
        "Row",
        "Variable",
        "build_extensive_form",
        "check_certificate",
        "optimality_certificate",
        "parse_lp",
        "render_lp",
    ),
    "instance": (
        "CapacityError",
        "CostRates",
        "Circuit",
        "Diagnostic",
        "GuardError",
        "Instance",
        "InstanceError",
        "Machine",
        "ModelError",
        "ScenarioError",
        "TripleKey",
        "instance_from_document",
        "load_instance",
        "synth_exec_time",
        "validate",
    ),
    "oracles": ("brute_force_triple", "joint_enumeration_oracle", "scenario_costs"),
    "recourse": ("RecourseDecision", "optimal_recourse", "penalty_time"),
    "scenarios": (
        "Scenario",
        "ScenarioSpace",
        "build_space",
        "space_for_circuit",
    ),
    "solver": ("Solution", "expected_cost", "per_triple_costs", "solve_instance"),
    "sweep": (
        "CostCurve",
        "CostSurface",
        "sweep_reservation",
        "sweep_reservation_waiting",
    ),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
