"""Empirical packaging endomap over macro labels and its idempotence defect.

For each macro label the hidden microstate is randomized uniformly over the
label's fiber, the policy-closed dynamics run for tau steps, and the modal
macro label at time tau (ties broken by smallest label) defines an endomap
E : X -> X. The idempotence defect |{x : E(E(x)) != E(x)}| / |X| measures
whether the macro labels compose like stable objects under that lens and
maintenance policy.

With ``P = S / B`` the smallest shift of states that maps the policy-closed
chain onto itself and raises labels by ``X / B`` (``_block_period``, ``X``
labels), fiber ``x + y * X / B`` is fiber ``x`` moved by ``y`` blocks: only
fibers below ``X / B`` are pushed, the rest are shifted copies. ``P = S``
always qualifies; on a ring world ``P`` is one ring position, and the
endomap is translation-exact by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from agencykit.empowerment import Lens
from agencykit.kernel import (ControlledKernel, Policy, _block_period, _check_count, _freeze,
                              check_fits, policy_successors)


@dataclass(frozen=True)
class Endomap:
    """Modal macro-label map at horizon tau under one maintenance policy.

    The domain covers exactly the labels with nonempty fibers; ``reach_mass``
    records the modal label's probability mass so auditors can distinguish
    confident modes from near-ties. An empty mapping, or one with an image
    outside its domain, raises ValueError. Immutable: both dicts are copied
    into read-only views, so the map stays closed for its whole life.
    """

    policy_name: str
    mapping: dict[int, int]
    reach_mass: dict[int, float]

    def __post_init__(self):
        _freeze(self, mapping=self.mapping, reach_mass=self.reach_mass)
        if not self.mapping or not set(self.mapping.values()).issubset(self.mapping):
            raise ValueError(f"endomap mapping must be nonempty and closed, not {self.mapping}")

    def __reduce__(self):
        # read-only views do not pickle; the constructor freezes plain copies again
        return Endomap, (self.policy_name, dict(self.mapping), dict(self.reach_mass))

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

    The fibers below ``X / B``, with ``B = S / _block_period(...)`` blocks
    (``B = 1`` without a symmetry), are pushed as sparse (fiber,
    state, mass) triplets through the policy's successor lists, every member
    starting with mass 1; the other fibers are their shifted copies. Masses
    are divided by the fiber size only at the end. Labels with empty fibers
    are excluded from the domain (the uniform initialization is undefined
    there). The modal label always has positive mass, hence a nonempty fiber,
    so the endomap is closed on its domain. ``tau`` must be an integer >= 0.
    """
    _check_count("tau", tau, 0)
    check_fits(k, lens=pi)
    succ, weights = policy_successors(k, mu)
    n, n_labels = k.n_states, pi.n_labels
    blocks = n // _block_period(succ, weights, pi.project, n_labels)
    step = n_labels // blocks
    state = np.flatnonzero(pi.project < step)
    fib, mass = pi.project[state], np.ones(len(state))
    for _ in range(tau):
        w = weights[state]
        live = w != 0
        keys, merged = np.unique((fib[:, None] * n + succ[state])[live], return_inverse=True)
        mass = np.bincount(merged, weights=(mass[:, None] * w)[live])
        fib, state = np.divmod(keys, n)
    keys, merged = np.unique(fib * n_labels + pi.project[state], return_inverse=True)
    mass = np.bincount(merged, weights=mass)
    fib, label = np.divmod(keys, n_labels)
    # fiber x + y * step is fiber x moved by y blocks, its labels raised by y * step
    y = np.arange(blocks)[:, None] * step
    fib, label, mass = (fib + y).ravel(), ((label + y) % n_labels).ravel(), np.tile(mass, blocks)
    # per fiber: largest mass first, then the smallest label (the tie-break)
    order = np.lexsort((label, -mass, fib))
    first = order[np.r_[True, fib[order][1:] != fib[order][:-1]]]
    sizes = np.bincount(pi.project, minlength=n_labels)
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
