"""Constructors for the ring-world family and the two calibrated null regimes.

Ring-world microstate: outside ring position ``y``, internal damage bit ``u``,
staged phase ``phi`` (period ``m_phi``), ledger ``r``, and an optional static
skill sector ``theta`` with ``theta_levels`` levels (``theta_levels = 1``, the
default, means no skill sector). State indices use the mixed-radix encoding
over ``RingWorldConfig.radices``, y slowest and theta fastest:

    idx = (((y * 2 + u) * m_phi + phi) * (ledger_max + 1) + r) * theta_levels + theta

``RingWorldConfig.state_layout`` describes the encoding, and every ring-world
artifact echoes it; the decoded digits of every state are kept as the
read-only (5, S) array ``Environment.state_fields``.

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

A step's branch masses depend only on whether the executed action moves or
repairs, on u and on theta; the direction of a move, phi and r only decide
where each branch lands. So each (executed action, u, theta) takes one table
of ((moved, u'), mass) branches, summed in exact rational arithmetic and
converted to float once, with the largest mass set to 1 - (float sum of the
others) so every row sums to exactly 1.0. Targets are integer arithmetic on
the decoded state fields, and the same tables serve every ring position. A
table is summed once per process: it is memoised on the config fields that
set its masses and on whether the action moves or repairs, so LEFT and RIGHT
share one, as do configs that differ only in costs, ledger or ring geometry.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from agencykit.empowerment import Lens
from agencykit.feasibility import FeasibilityGate
from agencykit.kernel import ControlledKernel, Policy, _check_count
from agencykit.viability import SafetyPredicate

ACTION_NAMES = ("LEFT", "RIGHT", "REPAIR", "NOOP")
LEFT, RIGHT, REPAIR, NOOP = 0, 1, 2, 3

OUTPUT_LENS, MACRO_LENS, LEDGER_ONLY, COHERENT = (
    "outside_position", "macro_y_r_phi", "ledger_only", "ledger_and_coherent")


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
    theta_levels: int = 1

    def __post_init__(self):
        # one stored type per field, so equal configs hash alike: counts are
        # ints, flags bools and probabilities floats (p_slip=0 is p_slip=0.0)
        least = {"ring_size": 3, "phase_period": 1, "theta_levels": 1}  # other counts: 0
        for name, kind in type(self).__annotations__.items():
            value = getattr(self, name)
            if kind == "int":
                _check_count(name, value, least.get(name, 0))
            elif kind == "float" and (isinstance(value, bool) or not isinstance(value, numbers.Real)
                                      or not 0 <= value <= 1):
                raise ValueError(f"{name} must be a real number in [0, 1], not {value!r}")
            elif kind == "bool" and not isinstance(value, bool):
                raise ValueError(f"{name} must be a bool, not {value!r}")
            object.__setattr__(self, name, {"int": int, "bool": bool, "float": float}[kind](value))

    @property
    def radices(self) -> tuple[int, int, int, int, int]:
        """Mixed radices of the state fields (y, u, phi, r, theta), y slowest."""
        return (self.ring_size, 2, self.phase_period, self.ledger_max + 1, self.theta_levels)

    @property
    def n_states(self) -> int:
        return math.prod(self.radices)

    @property
    def costs(self) -> tuple[int, int, int, int]:
        return (self.cost_left, self.cost_right, self.cost_repair, self.cost_noop)

    @property
    def state_layout(self) -> dict:
        """Machine-readable description of the state encoding, echoed into artifacts."""
        return {
            "fields": ["y", "u", "phi", "r", "theta"],
            "radices": list(self.radices),
            "order": "y slowest, theta fastest",
            "formula": "idx = (((y*2 + u)*m_phi + phi)*(R_max+1) + r)*n_theta + theta",
        }

    def to_dict(self) -> dict:
        return dict(vars(self))


@dataclass(frozen=True)
class Environment:
    """A constructed environment: kernel + gate + output lens, and ring-world parts."""

    kernel: ControlledKernel
    gate: FeasibilityGate
    output_lens: Lens
    # ring worlds only, the null regimes keep the defaults; state_fields is the
    # read-only (5, S) array of every state's decoded fields
    macro_lens: Lens | None = None
    safety_ledger_only: SafetyPredicate | None = None
    safety_coherent: SafetyPredicate | None = None
    policies: dict[str, Policy] = field(default_factory=dict)
    state_fields: np.ndarray | None = field(default=None, repr=False)

    @property
    def n_states(self) -> int:
        return self.kernel.n_states


@functools.lru_cache(maxsize=1024)
def _branch_masses(p_slip: float, p_flip: float, repair_success: float, theta_levels: int,
                   moves: bool, repairs: bool, u: int, theta: int) -> tuple:
    """((moved, u'), mass) branches of one step, by ascending exact mass.

    The masses depend only on these arguments: the config's noise and skill
    fields, whether the executed action moves or repairs, the damage bit and
    the skill level; the direction of a move, phase and ledger only decide
    where a branch lands. Each mass is summed in exact rational arithmetic
    and converted to float once; the largest, set to 1 - (float sum of the
    others), makes the row sum to exactly 1.0 in slot order. Ties keep the
    order in which the branches are first reached. The result is memoised, so
    each distinct table is summed once per process, and holds only floats and
    small ints, so the memo keeps few objects alive.
    """
    slip = Fraction(p_slip)
    if theta_levels > 1:
        slip *= 1 - Fraction(theta, theta_levels - 1)
    flip, q = Fraction(p_flip), Fraction(repair_success)
    displacements = [(1, 1 - slip), (0, slip)] if moves else [(0, Fraction(1))]
    flips = [(1, flip), (0, 1 - flip)] if u == 0 else [(1, Fraction(1))]
    masses: dict[tuple[int, int], Fraction] = {}
    for moved, p_move in displacements:
        for u1, p_u1 in flips:
            outcomes = [(0, q), (1, 1 - q)] if repairs and u1 == 1 else [(u1, Fraction(1))]
            for u2, p_rep in outcomes:
                if mass := p_move * p_u1 * p_rep:
                    masses[moved, u2] = masses.get((moved, u2), 0) + mass
    assert sum(masses.values()) == 1
    branches, exact = zip(*sorted(masses.items(), key=lambda item: item[1]))
    floats = [float(mass) for mass in exact]
    # numpy adds these few terms in slot order; sum() compensates from Python 3.12
    floats[-1] = 1.0 - float(np.sum(floats[:-1]))
    return tuple(zip(branches, floats))


def _ring_transitions(cfg: RingWorldConfig, fields: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Padded successor lists (succ, weights) for every (action, state) pair.

    Row (a, s) takes the float table of its executed action, u and theta, so
    every ring position carries bit-identical weights in the same slot order.
    Targets are the successor fields of one ring position (y = 0), encoded
    over ``cfg.radices`` and shifted around the ring.
    """
    keys = list(itertools.product(range(len(ACTION_NAMES)), range(2), range(cfg.theta_levels)))
    n_branches = np.zeros(len(keys), dtype=np.int64)
    # at most four branches: moved or not, times u'
    moved, u_next = np.zeros((2, len(keys), 4), dtype=np.int64)
    mass = np.zeros((len(keys), 4))
    for i, (e, u, theta) in enumerate(keys):
        branches, masses = zip(*_branch_masses(
            cfg.p_slip, cfg.p_flip, cfg.repair_success, cfg.theta_levels,
            e in (LEFT, RIGHT), e == REPAIR and cfg.repair_enabled, u, theta))
        k = n_branches[i] = len(masses)
        moved[i, :k], u_next[i, :k] = zip(*branches)
        mass[i, :k] = masses

    n_local = cfg.n_states // cfg.ring_size
    _, u, phi, r, theta = fields[:, :n_local]
    costs = np.array(cfg.costs)
    # infeasible commands collapse to no-ops at this layer
    e = np.where(costs[:, None] <= r, np.arange(len(ACTION_NAMES))[:, None], NOOP)
    table = (e * 2 + u) * cfg.theta_levels + theta
    width = n_branches[table].max()
    moved, u_next, weights = moved[table, :width], u_next[table, :width], mass[table, :width]

    mag = np.where((phi == 1) & cfg.protocol_on, 2, 1)
    shift = moved * np.where(e == RIGHT, mag, -mag)[..., None]
    phi_next = (phi + 1) % cfg.phase_period
    income = cfg.ledger_gain * ((phi_next == 0) | cfg.gain_every_step)
    r_next = np.clip((r + income - costs[e])[..., None] - cfg.damage_leak * u_next,
                     0, cfg.ledger_max)
    target = np.ravel_multi_index((0, u_next, phi_next[:, None], r_next, theta[:, None]),
                                  cfg.radices)
    # padding slots have weight 0 and point back at their own state
    live = np.arange(width) < n_branches[table][..., None]
    target = np.where(live, target, np.arange(n_local)[:, None])

    # y is the slowest field, so a ring position spans n_local indices
    ring = np.arange(cfg.ring_size)[None, :, None, None]
    succ = ((ring + shift[:, None]) % cfg.ring_size) * n_local + target[:, None]
    shape = (len(ACTION_NAMES), cfg.n_states, width)
    return succ.reshape(shape), np.broadcast_to(weights[:, None], succ.shape).reshape(shape)


def build_ringworld(cfg: RingWorldConfig) -> Environment:
    """Construct the full ring-world environment for one configuration."""
    fields = np.indices(cfg.radices).reshape(len(cfg.radices), -1)
    fields.setflags(write=False)
    y, u, phi, r, _ = fields
    succ, weights = _ring_transitions(cfg, fields)
    kernel = ControlledKernel(cfg.n_states, len(ACTION_NAMES), succ=succ, weights=weights)
    use_repair = (u == 1) & cfg.repair_enabled & (cfg.cost_repair <= r)
    return Environment(
        kernel=kernel,
        gate=FeasibilityGate(ledger=r.astype(np.float64), costs=np.array(cfg.costs, dtype=np.float64)),
        output_lens=Lens(name=OUTPUT_LENS, project=y, n_labels=cfg.ring_size),
        macro_lens=Lens(
            name=MACRO_LENS,
            project=(y * (cfg.ledger_max + 1) + r) * cfg.phase_period + phi,
            n_labels=cfg.ring_size * (cfg.ledger_max + 1) * cfg.phase_period,
        ),
        safety_ledger_only=SafetyPredicate(safe=r >= 1, name=LEDGER_ONLY),
        safety_coherent=SafetyPredicate(safe=(r >= 1) & (u == 0), name=COHERENT),
        policies={
            "always_right": Policy(kind="deterministic",
                                   table=dict.fromkeys(range(cfg.n_states), RIGHT)),
            "repair_then_right": Policy(kind="deterministic", table=dict(
                enumerate(np.where(use_repair, REPAIR, RIGHT).tolist()))),
        },
        state_fields=fields,
    )


def ring_state_index(cfg: RingWorldConfig, y: int, u: int, phi: int, r: int, theta: int = 0) -> int:
    """Index of the state with these fields.

    Raises ValueError naming the first field that is no integer (a bool or a
    float is refused) or lies outside its range.
    """
    for name, value, radix in zip(cfg.state_layout["fields"], (y, u, phi, r, theta), cfg.radices):
        _check_count(name, value, 0)
        if value >= radix:
            raise ValueError(f"{name} must be in range({radix}), not {value!r}")
    return int(np.ravel_multi_index((y, u, phi, r, theta), cfg.radices))


def _null_environment(targets: np.ndarray, lens: Lens) -> Environment:
    """Action a moves s to ``targets[a, s]``, at zero cost, seen through ``lens``."""
    n_actions, n = targets.shape
    kernel = ControlledKernel(n, n_actions, succ=targets[..., None],
                              weights=np.ones((n_actions, n, 1)))
    return Environment(
        kernel=kernel,
        gate=FeasibilityGate(ledger=np.zeros(n), costs=np.zeros(n_actions)),
        output_lens=lens,
    )


def build_null_single_action() -> Environment:
    """Null regime A: nontrivial deterministic state cycle but a single action.

    Four states on a directed cycle, one action, identity output lens, zero
    costs. Any action-sequence channel has exactly one row, so empowerment is
    identically zero at every horizon.
    """
    n = 4
    return _null_environment(
        ((np.arange(n) + 1) % n)[None],
        Lens(name="identity", project=np.arange(n), n_labels=n),
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
        # action a sets x = a from either state
        targets = np.array([[0, 0], [1, 1]])
        project = np.arange(2)
    elif model == "right":
        # state = (x, s_ext), idx = x*2 + s_ext; x' = s_ext, s_ext' = 1 - s_ext
        project, s_ext = np.divmod(np.arange(4), 2)
        targets = np.tile(s_ext * 2 + 1 - s_ext, (2, 1))
    else:
        raise ValueError(f"model must be 'wrong' or 'right', got {model!r}")
    return _null_environment(targets, Lens(name="outside_x", project=project, n_labels=2))

