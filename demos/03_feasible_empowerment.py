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
    channel_capacities,
    median_empowerments,
    total_variation,
)
from agencykit.environments import RingWorldConfig, build_ringworld, ring_state_index
from agencykit.viability import viability_kernel

# Free movement on the ring so budgets do not interfere at first.
cfg = RingWorldConfig(cost_left=0, cost_right=0, p_slip=0.1)
env = build_ringworld(cfg)
s0 = ring_state_index(cfg, y=0, u=0, phi=0, r=2)

channel = build_channel(env.kernel, env.gate, s0, horizon=2, f=env.output_lens)
print(f"H=2 channel: {channel.shape[0]} sequence rows x {channel.shape[1]} outputs")
(res,) = channel_capacities([channel])
print(f"capacity = {res.capacity_bits:.4f} bits "
      f"({res.iterations} iterations, bound gap {res.gap:.1e})")

# Budgets shrink the input alphabet: with movement at cost 2 and only one
# unit in the ledger, no move is affordable and the channel collapses. One
# channel_capacities call solves every channel; each result is the same as
# when solved alone.
tight = build_ringworld(RingWorldConfig())  # movement costs 2
starts = [ring_state_index(RingWorldConfig(), y=0, u=0, phi=0, r=r) for r in (0, 1, 2)]
channels = [build_channel(tight.kernel, tight.gate, s, 2, tight.output_lens) for s in starts]
for r, res in enumerate(channel_capacities(channels)):
    print(f"budget r={r}: feasible empowerment = {res.capacity_bits:.4f} bits")

# The exhibits report the lower median over a viability kernel, here of the
# free-movement ring. Each problem is (kernel, gate, state mask, horizon,
# lens); states that are ring translates of one another share one solve.
viable = viability_kernel(env.kernel, env.gate, env.safety_ledger_only)
(med,) = median_empowerments([(env.kernel, env.gate, viable.kernel, 2, env.output_lens)])
print(f"median over {len(med.values)} viable states = {med.median_bits:.4f} bits "
      f"({len(med.solved)} solves, rule {med.subset_rule})")

# Order of composition matters when the protocol is on: compare the output
# distributions of (RIGHT, LEFT) vs (LEFT, RIGHT) from a staged phase. Each
# is a row of the H=2 channel, found by its position among the feasible
# sequences.
from agencykit.environments import LEFT, RIGHT
from agencykit.feasibility import feasible_sequences

s_star = ring_state_index(cfg, y=0, u=0, phi=1, r=2)
off = build_ringworld(RingWorldConfig(cost_left=0, cost_right=0, p_slip=0.1,
                                      protocol_on=False))
print()
for label, e in (("on: ", env), ("off:", off)):
    w = build_channel(e.kernel, e.gate, s_star, horizon=2, f=e.output_lens)
    seqs = feasible_sequences(e.gate, s_star, 2).tolist()
    w_rl, w_lr = w[seqs.index([RIGHT, LEFT])], w[seqs.index([LEFT, RIGHT])]
    print(f"TV((R,L), (L,R)) with protocol {label} {total_variation(w_rl, w_lr):.4f}")
