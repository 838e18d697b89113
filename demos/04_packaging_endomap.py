"""Packaging endomaps: do coarse labels behave like objects under composition?

Pick a macro lens that hides the damage bit, randomize the hidden microstate
uniformly inside each label's fiber, roll the policy-closed dynamics forward
tau steps, and record the modal macro label. The fraction of labels x with
E(E(x)) != E(x) is the idempotence defect: zero means the labels compose like
stable objects, one means the lens fails to package anything.
"""

import numpy as np

from agencykit.environments import RingWorldConfig, build_ringworld
from agencykit.packaging import idempotence_defect, packaging_endomap

cfg = RingWorldConfig()  # movement costs 2, repair costs 1, income on phase wrap
env = build_ringworld(cfg)

print(f"macro lens '{env.macro_lens.name}' has {env.macro_lens.n_labels} labels;")
fiber = np.flatnonzero(env.macro_lens.project == 0)
damage = env.state_fields[1, fiber]  # field 1 is the damage bit u
print(f"each fiber hides the damage bit: fiber(0) = {fiber.tolist()}, u = {damage.tolist()}")

print("\ndefect by horizon (repair policy vs always-right policy):")
print(" tau   repair_on   repair_off")
for tau in range(5):
    on = packaging_endomap(env.kernel, env.macro_lens,
                           env.policies["repair_then_right"], tau, "repair_then_right")
    off = packaging_endomap(env.kernel, env.macro_lens,
                            env.policies["always_right"], tau, "always_right")
    print(f"  {tau}      {idempotence_defect(on):.3f}       {idempotence_defect(off):.3f}")

print("""
At tau = 2 (one full phase cycle) the maintained system is perfectly
idempotent: paying for repair pins every label onto a fixed budget-phase
orbit. The unmaintained system keeps drifting, so no label composes stably.
Odd horizons are never idempotent because the phase coordinate is mid-cycle.
""")

e = packaging_endomap(env.kernel, env.macro_lens,
                      env.policies["repair_then_right"], 2, "repair_then_right")
sample = e.domain[:6]
print("sample of the tau=2 endomap (label -> label, modal mass):")
for x in sample:
    print(f"  {x:3d} -> {e.mapping[x]:3d}   mass {e.reach_mass[x]:.3f}")
