"""Desk-scale laboratory for spin-photon dynamics.

An exact truncated-Fock quantum oracle, a semiclassical Maxwell-Bloch
hierarchy for expansion coefficients of evolved observables, a
finite-dimensional Wick/anti-Wick/heat symbol calculus, and an experiment
harness that measures the order of the semiclassical error numerically.
"""

from blochlab.model import (
    Model,
    ModelConfig,
    ModeGrid,
    PhaseVector,
    build_grid,
    minimal_grid_config,
)
from blochlab.fock import FockBasis
from blochlab.oracle import Hamiltonian, ObservableSpec
from blochlab.hierarchy import (
    compute_hierarchy,
    photon_rate_expansion,
)
from blochlab.harness import (
    ExperimentPlan,
    default_plan_dict,
    run_calculus_selftest,
    run_convergence,
    run_crosscheck,
)

__all__ = [
    "Model",
    "ModelConfig",
    "ModeGrid",
    "PhaseVector",
    "FockBasis",
    "Hamiltonian",
    "ObservableSpec",
    "compute_hierarchy",
    "photon_rate_expansion",
    "ExperimentPlan",
    "default_plan_dict",
    "run_calculus_selftest",
    "run_convergence",
    "run_crosscheck",
    "build_grid",
    "minimal_grid_config",
]
