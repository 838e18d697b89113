"""Empirical packaging endomap over macro labels and its idempotence defect.

For each macro label the hidden microstate is randomized uniformly over the
label's fiber, the policy-closed dynamics run for tau steps, and the modal
macro label at time tau (ties broken by smallest label) defines an endomap
E : X -> X. The idempotence defect |{x : E(E(x)) != E(x)}| / |X| measures
whether the macro labels compose like stable objects under that lens and
maintenance policy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from agencykit.empowerment import Lens
from agencykit.kernel import ControlledKernel, Policy, _check_count, check_fits, policy_successors


@dataclass
class Endomap:
    """Modal macro-label map at horizon tau under one maintenance policy.

    The domain covers exactly the labels with nonempty fibers; ``reach_mass``
    records the modal label's probability mass so auditors can distinguish
    confident modes from near-ties.
    """

    policy_name: str
    mapping: dict[int, int]
    reach_mass: dict[int, float]

    @property
    def domain(self) -> list[int]:
        return sorted(self.mapping)


def packaging_endomap(
    k: ControlledKernel,
    pi: Lens,
    mu: Policy,
    tau: int,
    policy_name: str = "policy",
) -> Endomap:
    """Roll uniform fiber distributions tau steps and take the modal label.

    Each fiber's distribution is held as sparse (fiber, state, mass) triplets
    and pushed through the policy's successor lists; every member starts with
    mass 1, and masses are divided by the fiber size only at the end. Labels
    with empty fibers are excluded from the domain (the uniform
    initialization is undefined there). The modal label always has positive
    mass, hence a nonempty fiber, so the endomap is closed on its domain.
    ``tau`` must be an integer >= 0.
    """
    _check_count("tau", tau, 0)
    check_fits(k, lens=pi)
    succ, weights = policy_successors(k, mu)
    n = k.n_states
    fib, state, mass = pi.project, np.arange(n), np.ones(n)
    for _ in range(tau):
        w = weights[state]
        live = w != 0
        keys, merged = np.unique((fib[:, None] * n + succ[state])[live], return_inverse=True)
        mass = np.bincount(merged, weights=(mass[:, None] * w)[live])
        fib, state = np.divmod(keys, n)
    keys, merged = np.unique(fib * pi.n_labels + pi.project[state], return_inverse=True)
    mass = np.bincount(merged, weights=mass)
    fib, label = np.divmod(keys, pi.n_labels)
    # per fiber: largest mass first, then the smallest label (the tie-break)
    order = np.lexsort((label, -mass, fib))
    first = order[np.r_[True, fib[order][1:] != fib[order][:-1]]]
    if first.size == 0:
        raise ValueError("lens has no nonempty fibers")
    sizes = np.bincount(pi.project, minlength=pi.n_labels)
    domain = fib[first].tolist()
    return Endomap(
        policy_name=policy_name,
        mapping=dict(zip(domain, label[first].tolist())),
        reach_mass=dict(zip(domain, (mass[first] / sizes[fib[first]]).tolist())),
    )


def idempotence_defect(e: Endomap) -> float:
    """Fraction of domain labels x with E(E(x)) != E(x)."""
    domain = e.mapping
    failures = sum(1 for x in domain if domain[domain[x]] != domain[x])
    return failures / len(domain)
