"""Desk-scale laboratory for spin-photon dynamics.

An exact truncated-Fock quantum oracle, a semiclassical Maxwell-Bloch
hierarchy for expansion coefficients of evolved observables, a
finite-dimensional Wick/anti-Wick/heat symbol calculus, and an experiment
harness that measures the order of the semiclassical error numerically.

The top level re-exports what the demos and the benchmark import from it;
everything else is reached through its module.
"""

from blochlab.model import Model, PhaseVector, minimal_grid_config
from blochlab.oracle import ObservableSpec
from blochlab.harness import (
    ExperimentPlan,
    default_plan_dict,
    run_convergence,
    run_crosscheck,
)

__all__ = [
    "Model",
    "PhaseVector",
    "minimal_grid_config",
    "ObservableSpec",
    "ExperimentPlan",
    "default_plan_dict",
    "run_convergence",
    "run_crosscheck",
]
