"""Controlled stochastic kernels: construction, validation, one-step algebra.

A controlled kernel is a stack of row-stochastic matrices, one per action,
stored as padded successor lists. This demo builds a tiny 3-state example by
hand and walks through the core operations: the successor lists themselves,
pushing a distribution one step under every action at once, closing the
kernel under a policy, and the check that refuses a broken kernel at
construction.
"""

import numpy as np

from agencykit.kernel import (
    ControlledKernel,
    Policy,
    policy_successors,
    predecessor_lists,
    pull,
)

# Two actions on three states: STAY (action 0) is the identity, DRIFT
# (action 1) moves right with probability 0.75 and stays put otherwise.
STAY, DRIFT = 0, 1
stay = np.eye(3)
drift = np.array([
    [0.25, 0.75, 0.00],
    [0.00, 0.25, 0.75],
    [0.75, 0.00, 0.25],
])
kernel = ControlledKernel(n_states=3, n_actions=2, probs=np.stack([stay, drift]))

# The dense tensor is converted once into successor lists; the slots with
# nonzero weight are the worst-case outcome sets used by viability.
for a, name in ((DRIFT, "DRIFT"), (STAY, "STAY")):
    live = kernel.weights[a, 0] > 0
    print(f"successors of (state 0, {name}):", kernel.succ[a, 0][live].tolist(),
          "with weights", kernel.weights[a, 0][live].tolist())

# Push a point mass at state 0 through two DRIFT steps. One pull steps the
# distribution under every action at once; row DRIFT is the one we follow.
# The in-lists cover a region of sources, here every state.
step = predecessor_lists(kernel, np.arange(kernel.n_states))
d = np.array([1.0, 0.0, 0.0])
for t in range(2):
    d = pull(step, d[:, None]).reshape(kernel.n_actions, kernel.n_states)[DRIFT]
    print(f"after DRIFT step {t + 1}: {np.round(d, 4)}")

# A stochastic policy mixes the actions state by state; the closed chain is
# again a set of successor lists, one slot per (action, successor).
mu = Policy(kind="stochastic", table={s: np.array([0.5, 0.5]) for s in range(3)})
succ, weights = policy_successors(kernel, mu)
T = np.zeros((3, 3))
np.add.at(T, (np.arange(3)[:, None], succ), weights)
print("half-and-half policy closure:")
print(np.round(T, 4))

# A broken kernel is never built: construction raises, naming the first
# offending (action, state) row.
try:
    ControlledKernel(n_states=2, n_actions=1, probs=np.array([[[0.5, 0.6], [0, 1]]]))
except ValueError as exc:
    print("a bad kernel is refused:", exc)
