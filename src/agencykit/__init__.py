"""Exact finite-state engine for agency metrics over controlled stochastic kernels.

Provides:

- ``kernel``: validated row-stochastic controlled kernels and their one-step algebra
- ``feasibility``: ledger-gated action sets and budgeted open-loop sequence enumeration
- ``viability``: robust viability kernels as greatest fixed points
- ``empowerment``: action-sequence channels, Blahut-Arimoto capacity, medians, TV distances
- ``packaging``: empirical packaging endomaps over macro labels and their idempotence defect
- ``environments``: ring-world family and calibrated null environments
- ``experiments``: the six exhibit runners
- ``artifacts``: canonical serialization, stable config hashing, artifact writing, auditing
- ``cli``: command-line entry point (run / audit / plot)
"""

from agencykit.kernel import ControlledKernel, Policy, validate_kernel
from agencykit.feasibility import FeasibilityGate, feasible_sequences
from agencykit.viability import SafetyPredicate, viability_kernel
from agencykit.empowerment import (Lens, channel_capacities, channel_capacity, feasible_empowerment,
                                   median_empowerments)
from agencykit.packaging import packaging_endomap, idempotence_defect
from agencykit.environments import RingWorldConfig, build_ringworld

__version__ = "0.1.0"

__all__ = [
    "ControlledKernel",
    "Policy",
    "validate_kernel",
    "FeasibilityGate",
    "feasible_sequences",
    "SafetyPredicate",
    "viability_kernel",
    "Lens",
    "channel_capacities",
    "median_empowerments",
    "channel_capacity",
    "feasible_empowerment",
    "packaging_endomap",
    "idempotence_defect",
    "RingWorldConfig",
    "build_ringworld",
    "__version__",
]
