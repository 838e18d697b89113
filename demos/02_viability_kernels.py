"""Robust viability kernels: greatest fixed points under worst-case outcomes.

A state is viable when some affordable action keeps every nonzero-probability
successor inside the viable set. The kernel of all such states is computed by
iterating a contracting set operator downward from the safe set, and the
result is a fixed point of that operator.
"""

import numpy as np

from agencykit.environments import RingWorldConfig, build_ringworld
from agencykit.feasibility import FeasibilityGate
from agencykit.kernel import ControlledKernel
from agencykit.viability import SafetyPredicate, viability_kernel, viability_step

# A 5-state corridor: LEFT/RIGHT move deterministically, the ends are lava.
n = 5
left = np.zeros((n, n))
right = np.zeros((n, n))
for s in range(n):
    left[s, max(s - 1, 0)] = 1.0
    right[s, min(s + 1, n - 1)] = 1.0
corridor = ControlledKernel(n_states=n, n_actions=2, probs=np.stack([left, right]))
gate = FeasibilityGate(ledger=np.ones(n), costs=np.zeros(2))
safe = SafetyPredicate(safe=np.array([False, True, True, True, False]), name="not_lava")

result = viability_kernel(corridor, gate, safe)
print("corridor viable states:", result.indices)
print("iteration trace (set sizes):", result.trace)

again = viability_step(corridor, gate, safe, result.kernel)
print("one more sweep leaves it unchanged:", bool(np.array_equal(again, result.kernel)))

# The ring world couples viability to a maintenance economy: each damaged
# step leaks budget, income arrives every step, and repair costs one unit.
cfg = RingWorldConfig(cost_left=1, cost_right=1, damage_leak=2,
                      ledger_gain=1, gain_every_step=True)
env = build_ringworld(cfg)
with_repair = viability_kernel(env.kernel, env.gate, env.safety_ledger_only)
print(f"\nring world with repair: |K| = {with_repair.size} of {env.n_states}")

no_repair = build_ringworld(
    RingWorldConfig(cost_left=1, cost_right=1, damage_leak=2,
                    ledger_gain=1, gain_every_step=True, repair_enabled=False)
)
without = viability_kernel(no_repair.kernel, no_repair.gate, no_repair.safety_ledger_only)
print(f"same economy, repair disabled: |K| = {without.size}")
print("without a way to pay off damage, no state can stay budgeted forever.")
