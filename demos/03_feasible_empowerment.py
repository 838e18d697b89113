"""Feasible empowerment: channel capacity of budget-gated action sequences.

Empowerment measures how many distinguishable futures the action interface
can reach: build the channel from length-H action sequences to an output
label, then solve its capacity with Blahut-Arimoto. Restricting the input
alphabet to sequences the initial budget can afford gives the feasible
variant.
"""

import numpy as np

from agencykit.empowerment import (
    build_channel,
    channel_capacity,
    feasible_empowerment,
    total_variation,
)
from agencykit.environments import RingWorldConfig, build_ringworld, ring_state_index

# Free movement on the ring so budgets do not interfere at first.
cfg = RingWorldConfig(cost_left=0, cost_right=0, p_slip=0.1)
env = build_ringworld(cfg)
s0 = ring_state_index(cfg, y=0, u=0, phi=0, r=2)

channel = build_channel(env.kernel, env.gate, s0, horizon=2, f=env.output_lens)
print(f"H=2 channel: {channel.shape[0]} sequence rows x {channel.shape[1]} outputs")
res = channel_capacity(channel)
print(f"capacity = {res.capacity_bits:.4f} bits "
      f"({res.iterations} iterations, bound gap {res.gap:.1e})")

# Budgets shrink the input alphabet: with movement at cost 2 and only one
# unit in the ledger, no move is affordable and the channel collapses.
tight = build_ringworld(RingWorldConfig())  # movement costs 2
for r in (0, 1, 2):
    s = ring_state_index(RingWorldConfig(), y=0, u=0, phi=0, r=r)
    cap = feasible_empowerment(tight.kernel, tight.gate, s, 2, tight.output_lens)
    print(f"budget r={r}: feasible empowerment = {cap:.4f} bits")

# Order of composition matters when the protocol is on: compare the output
# distributions of (RIGHT, LEFT) vs (LEFT, RIGHT) from a staged phase.
from agencykit.empowerment import rollout_output_distribution
from agencykit.environments import LEFT, RIGHT

s_star = ring_state_index(cfg, y=0, u=0, phi=1, r=2)
w_rl = rollout_output_distribution(env.kernel, s_star, (RIGHT, LEFT), env.output_lens)
w_lr = rollout_output_distribution(env.kernel, s_star, (LEFT, RIGHT), env.output_lens)
print(f"\nTV((R,L), (L,R)) with protocol on:  {total_variation(w_rl, w_lr):.4f}")

off = build_ringworld(RingWorldConfig(cost_left=0, cost_right=0, p_slip=0.1,
                                      protocol_on=False))
w_rl = rollout_output_distribution(off.kernel, s_star, (RIGHT, LEFT), off.output_lens)
w_lr = rollout_output_distribution(off.kernel, s_star, (LEFT, RIGHT), off.output_lens)
print(f"TV((R,L), (L,R)) with protocol off: {total_variation(w_rl, w_lr):.4f}")
