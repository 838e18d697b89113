"""Constructors for the ring-world family and the two calibrated null regimes.

Ring-world microstate: outside ring position ``y``, internal damage bit ``u``,
staged phase ``phi`` (period ``m_phi``), ledger ``r``, and an optional static
skill sector ``theta``. State indices use the mixed-radix encoding

    idx = (((y * 2 + u) * m_phi + phi) * (ledger_max + 1) + r) * theta_levels + theta

(theta_levels = 1 when learning is off). The encoding is echoed into every
artifact as a machine-readable ``state_layout`` block.

Per-step dynamics, composed in this fixed order:

1. command gating: an action whose cost exceeds the current ledger collapses
   to a no-op (it executes as NOOP and pays NOOP's cost) -- infeasible
   interface commands are not actions at this layer;
2. movement: LEFT/RIGHT displace by -1/+1, doubled to -2/+2 when the protocol
   toggle is on and phi == 1; with probability ``p_slip_eff`` the displacement
   is 0 instead; y wraps modulo ring_size;
3. damage: u flips 0 -> 1 with probability ``p_flip``;
4. repair: an executed REPAIR resets u to 0 with probability
   ``repair_success`` (applied after the flip);
5. phase: phi advances by 1 mod m_phi;
6. ledger: r' = clamp(r - cost(executed action) - damage_leak * [u' = 1]
   + ledger_gain * [income due], 0, ledger_max), where income is due every
   step when ``gain_every_step`` else only on phase wrap (new phi == 0).

All transition rows are accumulated in exact rational arithmetic and only
converted to float at the end, so row sums are exact. Since the dynamics are
the same at every ring position, the rows of one position are computed and
shifted around the ring into the kernel's successor lists.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, asdict
from fractions import Fraction

import numpy as np

from agencykit.empowerment import Lens
from agencykit.feasibility import FeasibilityGate
from agencykit.kernel import ControlledKernel, Policy
from agencykit.viability import SafetyPredicate

ACTION_NAMES = ("LEFT", "RIGHT", "REPAIR", "NOOP")
LEFT, RIGHT, REPAIR, NOOP = 0, 1, 2, 3


@dataclass(frozen=True)
class RingWorldConfig:
    """Full parameterization of one ring-world kernel (one skill sector set)."""

    ring_size: int = 8
    phase_period: int = 2
    ledger_max: int = 2
    p_flip: float = 0.1
    p_slip: float = 0.08
    repair_success: float = 1.0
    cost_left: int = 2
    cost_right: int = 2
    cost_repair: int = 1
    cost_noop: int = 0
    ledger_gain: int = 1
    gain_every_step: bool = False
    damage_leak: int = 0
    protocol_on: bool = True
    repair_enabled: bool = True
    learning_on: bool = False
    theta_levels: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.ring_size < 3:
            raise ValueError("ring_size must be >= 3")
        if self.phase_period < 1:
            raise ValueError("phase_period must be >= 1")
        if self.ledger_max < 0:
            raise ValueError("ledger_max must be >= 0")
        for name in ("p_flip", "p_slip", "repair_success"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        for name in ("cost_left", "cost_right", "cost_repair", "cost_noop",
                     "ledger_gain", "damage_leak"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.learning_on and self.theta_levels < 2:
            raise ValueError("learning_on requires theta_levels >= 2")

    @property
    def n_theta(self) -> int:
        return self.theta_levels if self.learning_on else 1

    @property
    def n_states(self) -> int:
        return self.ring_size * 2 * self.phase_period * (self.ledger_max + 1) * self.n_theta

    @property
    def costs(self) -> tuple[int, int, int, int]:
        return (self.cost_left, self.cost_right, self.cost_repair, self.cost_noop)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Environment:
    """A constructed environment: kernel + gate + lenses + safety + policies."""

    kernel: ControlledKernel
    gate: FeasibilityGate
    output_lens: Lens
    macro_lens: Lens
    safety_ledger_only: SafetyPredicate
    safety_coherent: SafetyPredicate
    policies: dict[str, Policy]
    config_echo: dict
    state_layout: dict
    state_tuples: tuple = field(default=(), repr=False)

    @property
    def n_states(self) -> int:
        return self.kernel.n_states


def _exact(p: float) -> Fraction:
    """Exact rational value of a float probability."""
    return Fraction(p)


class _RingLayout:
    """Mixed-radix index arithmetic for ring-world states."""

    def __init__(self, cfg: RingWorldConfig):
        self.cfg = cfg
        self.n_theta = cfg.n_theta

    def index(self, y: int, u: int, phi: int, r: int, theta: int = 0) -> int:
        c = self.cfg
        return ((((y * 2 + u) * c.phase_period + phi) * (c.ledger_max + 1)) + r) * self.n_theta + theta

    def tuples(self):
        c = self.cfg
        for y, u, phi, r, theta in itertools.product(
            range(c.ring_size), range(2), range(c.phase_period),
            range(c.ledger_max + 1), range(self.n_theta),
        ):
            yield (y, u, phi, r, theta)

    def describe(self) -> dict:
        c = self.cfg
        return {
            "fields": ["y", "u", "phi", "r", "theta"],
            "radices": [c.ring_size, 2, c.phase_period, c.ledger_max + 1, self.n_theta],
            "order": "y slowest, theta fastest",
            "formula": "idx = (((y*2 + u)*m_phi + phi)*(R_max+1) + r)*n_theta + theta",
        }


def _slip_eff(cfg: RingWorldConfig, theta: int) -> Fraction:
    slip = _exact(cfg.p_slip)
    if cfg.learning_on:
        top = cfg.theta_levels - 1
        slip = slip * (1 - Fraction(theta, top))
    return slip


def _local_rows(cfg: RingWorldConfig) -> list[list[dict[tuple[int, int], Fraction]]]:
    """Exact transition rows of one ring position, per action and local state.

    Nothing in the dynamics depends on ``y`` except where it lands, so each
    row maps (shift, local target) to its probability, where the shift is the
    move mod ring_size and the local state is the index with y = 0.
    """
    layout = _RingLayout(cfg)
    flip = _exact(cfg.p_flip)
    q = _exact(cfg.repair_success)
    costs = cfg.costs
    rows: list[list[dict[tuple[int, int], Fraction]]] = [[] for _ in ACTION_NAMES]

    for u, phi, r, theta in itertools.product(
        range(2), range(cfg.phase_period), range(cfg.ledger_max + 1), range(layout.n_theta)
    ):
        slip = _slip_eff(cfg, theta)
        for a in range(len(ACTION_NAMES)):
            # infeasible commands collapse to no-ops at this layer
            e = a if costs[a] <= r else NOOP
            row: dict[tuple[int, int], Fraction] = {}

            if e in (LEFT, RIGHT):
                mag = 2 if (cfg.protocol_on and phi == 1) else 1
                delta = mag if e == RIGHT else -mag
                move_branches = [(delta, 1 - slip), (0, slip)]
            else:
                move_branches = [(0, Fraction(1))]

            if u == 0:
                flip_branches = [(1, flip), (0, 1 - flip)]
            else:
                flip_branches = [(1, Fraction(1))]

            for delta, p_move in move_branches:
                if p_move == 0:
                    continue
                for u_flipped, p_flip_branch in flip_branches:
                    if p_flip_branch == 0:
                        continue
                    if e == REPAIR and cfg.repair_enabled and u_flipped == 1:
                        repair_branches = [(0, q), (1, 1 - q)]
                    else:
                        repair_branches = [(u_flipped, Fraction(1))]
                    for u2, p_rep in repair_branches:
                        if p_rep == 0:
                            continue
                        phi2 = (phi + 1) % cfg.phase_period
                        wrapped = phi2 == 0
                        income = cfg.ledger_gain if (cfg.gain_every_step or wrapped) else 0
                        raw = r - costs[e] - cfg.damage_leak * u2 + income
                        r2 = min(cfg.ledger_max, max(0, raw))
                        t = (delta % cfg.ring_size, layout.index(0, u2, phi2, r2, theta))
                        row[t] = row.get(t, Fraction(0)) + p_move * p_flip_branch * p_rep

            assert sum(row.values()) == 1
            rows[a].append(row)
    return rows


def _ring_transitions(cfg: RingWorldConfig) -> tuple[np.ndarray, np.ndarray]:
    """Padded successor lists (succ, weights) for every (action, state) pair.

    Each local row is converted to float once and placed at every ring
    position by shifting its targets, so all positions carry bit-identical
    weights in the same slot order.
    """
    rows = _local_rows(cfg)
    n_actions, n_local = len(rows), len(rows[0])
    width = max(len(row) for action_rows in rows for row in action_rows)
    shift = np.zeros((n_actions, n_local, width), dtype=np.int64)
    target = np.tile(np.arange(n_local)[None, :, None], (n_actions, 1, width))
    weights = np.zeros((n_actions, n_local, width))
    for a, action_rows in enumerate(rows):
        for s, row in enumerate(action_rows):
            # ascending probability, so the largest entry is summed last
            items = sorted(row.items(), key=lambda item: item[1])
            for j, ((dy, t), mass) in enumerate(items):
                shift[a, s, j], target[a, s, j] = dy, t
                weights[a, s, j] = float(mass)
            # the largest entry absorbs the float conversion residual: set to
            # 1 - (float sum of the entries before it), it makes the row sum
            # to exactly 1.0 in slot order, at every ring position alike
            last = len(items) - 1
            weights[a, s, last] = 1.0 - weights[a, s, :last].sum()

    ring = np.arange(cfg.ring_size)[None, :, None, None]
    succ = ((ring + shift[:, None]) % cfg.ring_size) * n_local + target[:, None]
    n = cfg.n_states
    weights = np.broadcast_to(weights[:, None], succ.shape)
    return succ.reshape(n_actions, n, width), weights.reshape(n_actions, n, width)


def _ring_policies(cfg: RingWorldConfig, layout: _RingLayout) -> dict[str, Policy]:
    always_right: dict[int, int] = {}
    repair_then_right: dict[int, int] = {}
    for (y, u, phi, r, theta) in layout.tuples():
        s = layout.index(y, u, phi, r, theta)
        always_right[s] = RIGHT
        use_repair = (
            u == 1 and cfg.repair_enabled and cfg.cost_repair <= r
        )
        repair_then_right[s] = REPAIR if use_repair else RIGHT
    return {
        "always_right": Policy(kind="deterministic", table=always_right),
        "repair_then_right": Policy(kind="deterministic", table=repair_then_right),
    }


def build_ringworld(cfg: RingWorldConfig) -> Environment:
    """Construct the full ring-world environment for one configuration."""
    layout = _RingLayout(cfg)
    tuples = tuple(layout.tuples())
    succ, weights = _ring_transitions(cfg)
    kernel = ControlledKernel(
        n_states=cfg.n_states,
        n_actions=len(ACTION_NAMES),
        action_names=ACTION_NAMES,
        succ=succ,
        weights=weights,
    )

    ledger = np.array([r for (_, _, _, r, _) in tuples], dtype=np.float64)
    gate = FeasibilityGate(ledger=ledger, costs=np.array(cfg.costs, dtype=np.float64))

    y_of = np.array([y for (y, _, _, _, _) in tuples], dtype=np.int64)
    output_lens = Lens(name="outside_position", project=y_of, n_labels=cfg.ring_size)

    macro_labels = np.array(
        [
            (y * (cfg.ledger_max + 1) + r) * cfg.phase_period + phi
            for (y, _, phi, r, _) in tuples
        ],
        dtype=np.int64,
    )
    macro_lens = Lens(
        name="macro_y_r_phi",
        project=macro_labels,
        n_labels=cfg.ring_size * (cfg.ledger_max + 1) * cfg.phase_period,
    )

    r_of = np.array([r for (_, _, _, r, _) in tuples])
    u_of = np.array([u for (_, u, _, _, _) in tuples])
    safety_ledger_only = SafetyPredicate(safe=r_of >= 1, name="ledger_only")
    safety_coherent = SafetyPredicate(safe=(r_of >= 1) & (u_of == 0), name="ledger_and_coherent")

    return Environment(
        kernel=kernel,
        gate=gate,
        output_lens=output_lens,
        macro_lens=macro_lens,
        safety_ledger_only=safety_ledger_only,
        safety_coherent=safety_coherent,
        policies=_ring_policies(cfg, layout),
        config_echo={"environment": "ringworld", **cfg.to_dict()},
        state_layout=layout.describe(),
        state_tuples=tuples,
    )


def ring_state_index(cfg: RingWorldConfig, y: int, u: int, phi: int, r: int, theta: int = 0) -> int:
    """Public index helper matching the documented mixed-radix layout."""
    return _RingLayout(cfg).index(y, u, phi, r, theta)


def build_null_single_action() -> Environment:
    """Null regime A: nontrivial deterministic state cycle but a single action.

    Four states on a directed cycle, one action, identity output lens, zero
    costs. Any action-sequence channel has exactly one row, so empowerment is
    identically zero at every horizon.
    """
    n = 4
    probs = np.zeros((1, n, n))
    for s in range(n):
        probs[0, s, (s + 1) % n] = 1.0
    kernel = ControlledKernel(n_states=n, n_actions=1, probs=probs, action_names=("STEP",))
    gate = FeasibilityGate(ledger=np.zeros(n), costs=np.zeros(1))
    identity = Lens(name="identity", project=np.arange(n), n_labels=n)
    always = SafetyPredicate(safe=np.ones(n, dtype=bool), name="always_safe")
    policy = Policy(kind="deterministic", table={s: 0 for s in range(n)})
    return Environment(
        kernel=kernel,
        gate=gate,
        output_lens=identity,
        macro_lens=identity,
        safety_ledger_only=always,
        safety_coherent=always,
        policies={"step": policy},
        config_echo={"environment": "null_single_action", "n_states": n},
        state_layout={"fields": ["x"], "radices": [n], "formula": "idx = x"},
    )


def build_schedule_trap(model: str) -> Environment:
    """Null regime B: an exogenous schedule bit drives the outside state.

    ``model="right"``: state is (x, s_ext); the schedule bit alternates
    deterministically and writes x; the two agent actions are identical, so
    the channel rows coincide and capacity is zero.

    ``model="wrong"``: the schedule is mistakenly modeled as a controllable
    action that sets x directly, manufacturing a spurious 1-bit channel.
    """
    if model == "wrong":
        n = 2
        probs = np.zeros((2, n, n))
        for a in range(2):
            for s in range(n):
                probs[a, s, a] = 1.0
        kernel = ControlledKernel(
            n_states=n, n_actions=2, probs=probs, action_names=("SET0", "SET1")
        )
        lens = Lens(name="outside_x", project=np.arange(n), n_labels=n)
        layout = {"fields": ["x"], "radices": [n], "formula": "idx = x"}
        echo = {"environment": "schedule_trap", "model": "wrong", "n_states": n}
    elif model == "right":
        # state = (x, s_ext), idx = x*2 + s_ext; x' = s_ext, s_ext' = 1 - s_ext
        n = 4
        probs = np.zeros((2, n, n))
        for x in range(2):
            for s_ext in range(2):
                s = x * 2 + s_ext
                t = s_ext * 2 + (1 - s_ext)
                for a in range(2):
                    probs[a, s, t] = 1.0
        kernel = ControlledKernel(
            n_states=n, n_actions=2, probs=probs, action_names=("A0", "A1")
        )
        lens = Lens(name="outside_x", project=np.array([0, 0, 1, 1]), n_labels=2)
        layout = {"fields": ["x", "s_ext"], "radices": [2, 2], "formula": "idx = x*2 + s_ext"}
        echo = {"environment": "schedule_trap", "model": "right", "n_states": n}
    else:
        raise ValueError(f"model must be 'wrong' or 'right', got {model!r}")

    gate = FeasibilityGate(ledger=np.zeros(kernel.n_states), costs=np.zeros(2))
    always = SafetyPredicate(safe=np.ones(kernel.n_states, dtype=bool), name="always_safe")
    policy = Policy(kind="deterministic", table={s: 0 for s in range(kernel.n_states)})
    return Environment(
        kernel=kernel,
        gate=gate,
        output_lens=lens,
        macro_lens=lens,
        safety_ledger_only=always,
        safety_coherent=always,
        policies={"first_action": policy},
        config_echo=echo,
        state_layout=layout,
    )


# Named config profiles. "paper" is the desk-scale profile every exhibit uses;
# exhibit runners derive per-exhibit variants from it.
PROFILES: dict[str, RingWorldConfig] = {
    "paper": RingWorldConfig(),
}
