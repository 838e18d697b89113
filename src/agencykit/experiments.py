"""The six exhibit runners.

Each runner consumes environment constructors plus the solvers, self-certifies
its qualitative contracts (orderings, zeros, equalities) in-process, and emits
one artifact record whose metrics block is a deterministic function of the
configuration. Runners never mutate environments and may run in any order.

Exhibit configurations derive from the named base profile "paper", which is
recorded in each artifact's config. Per-exhibit parameter overrides are part
of each exhibit's config block and therefore of its hash:

- packaging and nulls use the base profile directly;
- holonomy uses a movement-is-free variant on a wider ring so the viability
  kernel carries a nontrivial action channel at every horizon;
- ablations and the sweep use a maintenance-economy variant (unit action
  costs, per-step income, damage leak) in which an unrepaired damage bit
  drains the ledger, so removing repair genuinely collapses viability;
- learning zeroes all action costs and sweeps the skill sector.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from agencykit.artifacts import ArtifactRecord, make_artifact
from agencykit.empowerment import (
    EMPOWERMENT_TOL,
    MAX_MEDIAN_STATES,
    MedianEmpowermentResult,
    build_channel,
    median_empowerment_on_kernel,
    total_variation,
)
from agencykit.environments import (
    ACTION_NAMES,
    LEFT,
    RIGHT,
    PROFILES,
    Environment,
    RingWorldConfig,
    build_null_single_action,
    build_ringworld,
    build_schedule_trap,
    ring_state_index,
)
from agencykit.feasibility import feasible_sequences
from agencykit.packaging import idempotence_defect, packaging_endomap
from agencykit.viability import viability_kernel

TAU_GRID = (0, 1, 2, 3, 4)
HORIZON_GRID = (1, 2, 3, 4, 5)

# hashed into the config of every exhibit that solves medians
SOLVER_SETTINGS = {"capacity_tol_bits": EMPOWERMENT_TOL, "max_states": MAX_MEDIAN_STATES}


def base_profile(profile: str) -> RingWorldConfig:
    try:
        return PROFILES[profile]
    except KeyError:
        raise ValueError(f"unknown profile {profile!r}; known: {sorted(PROFILES)}") from None


def holonomy_config(profile: str, protocol_on: bool) -> RingWorldConfig:
    """Free-movement, wide-ring variant; regimes differ only in the protocol toggle."""
    base = base_profile(profile)
    return replace(
        base,
        ring_size=16,
        p_slip=0.1,
        cost_left=0,
        cost_right=0,
        protocol_on=protocol_on,
    )


def maintenance_economy_config(profile: str) -> RingWorldConfig:
    """Unit-cost actions, per-step income, and a damage leak on the ledger."""
    base = base_profile(profile)
    return replace(
        base,
        cost_left=1,
        cost_right=1,
        cost_repair=1,
        cost_noop=0,
        ledger_gain=1,
        gain_every_step=True,
        damage_leak=2,
    )


def ablation_configs(profile: str) -> dict[str, RingWorldConfig]:
    base = maintenance_economy_config(profile)
    return {
        "constraints_off": replace(base, cost_left=0, cost_right=0, cost_repair=0, cost_noop=0),
        "full": base,
        "high_noise": replace(base, p_flip=0.3),
        "learn_on": replace(base, theta_levels=2),
        "no_protocol": replace(base, protocol_on=False),
        "no_repair": replace(base, repair_enabled=False),
        "repair_imperfect": replace(base, repair_success=0.2),
    }


def learning_config(profile: str, p_slip: float) -> RingWorldConfig:
    """All action costs zero (feasibility trivial); three-level skill sector."""
    base = base_profile(profile)
    return replace(
        base,
        cost_left=0,
        cost_right=0,
        cost_repair=0,
        cost_noop=0,
        p_slip=p_slip,
        protocol_on=False,
        theta_levels=3,
    )


def solver_block(meds: list[MedianEmpowermentResult]) -> dict:
    """Largest certified capacity gap and Blahut-Arimoto work of an exhibit's medians.

    The only reducer of the medians' solves: their number, largest gap, and
    total and largest iteration counts (0 when no median solved a channel).
    The counts are deterministic, so they sit in the hashed metrics beside the
    tolerance. ``audit`` fails an artifact whose gap exceeds the tolerance.
    """
    solved = [r for m in meds for r in m.solved]
    return {
        "max_gap_bits": max((r.gap for r in solved), default=0.0),
        "solves": len(solved),
        "iterations_total": sum(r.iterations for r in solved),
        "iterations_max": max((r.iterations for r in solved), default=0),
        "capacity_tol_bits": EMPOWERMENT_TOL,
    }


def _median(env: Environment, states, horizon: int) -> MedianEmpowermentResult:
    """Median feasible empowerment over ``states`` at the defaults ``SOLVER_SETTINGS`` records."""
    return median_empowerment_on_kernel(env.kernel, env.gate, states, horizon, env.output_lens)


def run_nulls() -> ArtifactRecord:
    """Null regimes: single-action cycle and the exogenous-schedule trap.

    Each null is the capacity of the channel from start state 0, solved as
    the median over the one-state set {0}, which is that capacity exactly.
    """
    horizons_a, horizon_b = [1, 2, 3], 1
    null_a = build_null_single_action()
    solves_a = {f"H{h}": _median(null_a, [0], h) for h in horizons_a}
    traps = {model: build_schedule_trap(model) for model in ("wrong", "right")}
    solves_b = {model: _median(env, [0], horizon_b) for model, env in traps.items()}
    caps_a = {name: med.median_bits for name, med in solves_a.items()}
    caps_b = {name: med.median_bits for name, med in solves_b.items()}

    contracts = {
        "null_a_zero_all_horizons": all(abs(v) <= 1e-12 for v in caps_a.values()),
        "null_b_wrong_model_one_bit": abs(caps_b["wrong"] - 1.0) <= 1e-6,
        "null_b_right_model_zero": abs(caps_b["right"]) <= 1e-6,
    }
    config = {
        "exhibit": "nulls",
        "null_a": null_a.config_echo,
        "null_b_wrong": traps["wrong"].config_echo,
        "null_b_right": traps["right"].config_echo,
        "horizons_null_a": horizons_a,
        "horizon_null_b": horizon_b,
        **SOLVER_SETTINGS,
    }
    metrics = {
        "null_a": caps_a,
        "null_b": caps_b,
        "solver": solver_block([*solves_a.values(), *solves_b.values()]),
        "contracts": contracts,
    }
    return make_artifact("nulls", config, metrics)


def run_packaging(profile: str = "paper") -> ArtifactRecord:
    """Idempotence defect across tau for repair-off vs repair-on policies."""
    cfg = base_profile(profile)
    env = build_ringworld(cfg)
    regimes = {"repair_off": "always_right", "repair_on": "repair_then_right"}
    defects: dict[str, list[float]] = {name: [] for name in regimes}
    endomaps: dict[str, dict] = {}
    for regime, policy_name in regimes.items():
        for tau in TAU_GRID:
            e = packaging_endomap(
                env.kernel, env.macro_lens, env.policies[policy_name], tau, policy_name
            )
            defects[regime].append(idempotence_defect(e))
            endomaps[f"{env.macro_lens.name}|{policy_name}|tau{tau}"] = {
                "mapping": [e.mapping[x] for x in e.domain],
                "reach_mass": [e.reach_mass[x] for x in e.domain],
                "domain": e.domain,
            }

    i2 = TAU_GRID.index(2)
    contracts = {
        "tau0_defect_zero_both": defects["repair_off"][0] == 0.0 and defects["repair_on"][0] == 0.0,
        "tau2_repair_on_zero": defects["repair_on"][i2] == 0.0,
        "tau2_repair_off_high": defects["repair_off"][i2] >= 0.9,
    }
    config = {
        "exhibit": "packaging",
        "profile": profile,
        "environment": cfg.to_dict(),
        "tau_grid": list(TAU_GRID),
        "macro_lens": env.macro_lens.name,
        "policies": regimes,
    }
    metrics = {
        "state_layout": env.state_layout,
        "tau_grid": list(TAU_GRID),
        "defect": defects,
        "endomaps": endomaps,
        "contracts": contracts,
    }
    return make_artifact("packaging", config, metrics)


def run_holonomy(profile: str = "paper") -> ArtifactRecord:
    """Median feasible empowerment vs horizon for protocol on/off, plus TV witness."""
    results = {}
    envs = {}
    meds = []
    for regime, protocol in (("protocol_on", True), ("protocol_off", False)):
        cfg = holonomy_config(profile, protocol)
        env = build_ringworld(cfg)
        envs[regime] = (cfg, env)
        vres = viability_kernel(env.kernel, env.gate, env.safety_ledger_only)
        medians = []
        per_state = {}
        subset_rule = None
        for h in HORIZON_GRID:
            med = _median(env, vres.kernel, h)
            medians.append(med.median_bits)
            per_state[f"H{h}"] = med.values
            subset_rule = med.subset_rule
            meds.append(med)
        results[regime] = {
            "kernel_size": vres.size,
            "kernel_members": vres.indices,
            "kernel_trace": vres.trace,
            "medians": medians,
            "per_state": per_state,
            "selected_states": med.selected_states,
            "subset_rule": subset_rule,
        }

    # noncommutativity witness: alpha vs beta from the matched full-budget
    # start state, read as two rows of that state's H=2 feasible channel
    sequences = {"alpha": (RIGHT, LEFT), "beta": (LEFT, RIGHT)}
    witness = {}
    for regime, (cfg, env) in envs.items():
        start = {"y": 0, "u": 0, "phi": 1, "r": cfg.ledger_max}
        s_star = ring_state_index(cfg, **start)
        channel = build_channel(env.kernel, env.gate, s_star, 2, env.output_lens)
        seqs = feasible_sequences(env.gate, s_star, 2).tolist()
        w_a, w_b = (channel[seqs.index(list(seq))] for seq in sequences.values())
        witness[regime] = {
            "start_state": s_star,
            "start_tuple": start,
            "tv": total_variation(w_a, w_b),
            "alpha_output_distribution": w_a.tolist(),
            "beta_output_distribution": w_b.tolist(),
        }

    on = np.array(results["protocol_on"]["medians"])
    off = np.array(results["protocol_off"]["medians"])
    contracts = {
        "h1_medians_equal": abs(on[0] - off[0]) <= 1e-9,
        "gap_at_least_02_for_h2_to_h5": bool(np.all(on[1:] - off[1:] >= 0.2)),
        "tv_witness_gap": witness["protocol_on"]["tv"] - witness["protocol_off"]["tv"] >= 0.3,
        "kernel_sizes_equal": results["protocol_on"]["kernel_size"]
        == results["protocol_off"]["kernel_size"],
    }
    config = {
        "exhibit": "holonomy",
        "profile": profile,
        "environment_on": envs["protocol_on"][0].to_dict(),
        "environment_off": envs["protocol_off"][0].to_dict(),
        "horizons": list(HORIZON_GRID),
        "output_lens": env.output_lens.name,
        "safety": env.safety_ledger_only.name,
        **SOLVER_SETTINGS,
        "witness_sequences": {
            name: [ACTION_NAMES[a] for a in seq] for name, seq in sequences.items()
        },
    }
    env_on = envs["protocol_on"][1]
    metrics = {
        "state_layout": env_on.state_layout,
        "horizons": list(HORIZON_GRID),
        "protocol_on": results["protocol_on"],
        "protocol_off": results["protocol_off"],
        "witness": witness,
        "solver": solver_block(meds),
        "contracts": contracts,
    }
    return make_artifact("holonomy", config, metrics)


def run_ablations(profile: str = "paper") -> ArtifactRecord:
    """Primitive toggle suite: |K|, median empowerment at H=2, defect at tau=2."""
    configs = ablation_configs(profile)
    horizon, tau, policy = 2, 2, "repair_then_right"
    rows = {}
    meds = []
    for name, cfg in sorted(configs.items()):
        env = build_ringworld(cfg)
        vres = viability_kernel(env.kernel, env.gate, env.safety_ledger_only)
        med = _median(env, vres.kernel, horizon)
        meds.append(med)
        endo = packaging_endomap(env.kernel, env.macro_lens, env.policies[policy], tau, policy)
        rows[name] = {
            "n_states": env.n_states,
            "kernel_size": vres.size,
            "kernel_members": vres.indices,
            "kernel_iterations": vres.iterations,
            "kernel_trace": vres.trace,
            "empowerment_median": med.median_bits,
            "subset_rule": med.subset_rule,
            "packaging_defect": idempotence_defect(endo),
        }
        if name == "full":
            state_layout = env.state_layout

    contracts = {
        "no_repair_kernel_empty": rows["no_repair"]["kernel_size"] == 0,
        "no_repair_empowerment_zero": rows["no_repair"]["empowerment_median"] == 0.0,
        "full_no_protocol_equal_kernel": rows["full"]["kernel_size"]
        == rows["no_protocol"]["kernel_size"],
        "full_no_protocol_equal_defect": rows["full"]["packaging_defect"]
        == rows["no_protocol"]["packaging_defect"],
        "full_beats_no_protocol_empowerment": rows["full"]["empowerment_median"]
        > rows["no_protocol"]["empowerment_median"],
        "constraints_off_defect_exceeds_full": rows["constraints_off"]["packaging_defect"]
        > rows["full"]["packaging_defect"],
        "repair_imperfect_defect_zero": rows["repair_imperfect"]["packaging_defect"] == 0.0,
        "repair_imperfect_below_full_empowerment": rows["repair_imperfect"]["empowerment_median"]
        < rows["full"]["empowerment_median"],
        "learn_on_doubles_state_count": rows["learn_on"]["n_states"]
        == 2 * rows["full"]["n_states"],
    }
    config = {
        "exhibit": "ablations",
        "profile": profile,
        "configs": {name: cfg.to_dict() for name, cfg in configs.items()},
        "empowerment_horizon": horizon,
        "packaging_tau": tau,
        "output_lens": env.output_lens.name,
        "macro_lens": env.macro_lens.name,
        "safety": env.safety_ledger_only.name,
        **SOLVER_SETTINGS,
    }
    metrics = {
        "state_layout": state_layout,
        "rows": rows,
        "solver": solver_block(meds),
        "contracts": contracts,
    }
    return make_artifact("ablations", config, metrics)


def run_sweep(profile: str = "paper") -> ArtifactRecord:
    """8x8 noise/maintenance-cost grid under the coherence safety predicate."""
    base = maintenance_economy_config(profile)
    p_grid = [round(v, 10) for v in np.linspace(0.0, 0.7, 8)]
    cost_grid = list(range(8))
    horizon = 2
    kernel_sizes = np.zeros((len(p_grid), len(cost_grid)), dtype=np.int64)
    emp = np.zeros(kernel_sizes.shape)
    meds = []
    for i, p in enumerate(p_grid):
        for j, c in enumerate(cost_grid):
            cfg = replace(base, p_flip=float(p), cost_repair=int(c))
            env = build_ringworld(cfg)
            vres = viability_kernel(env.kernel, env.gate, env.safety_coherent)
            kernel_sizes[i, j] = vres.size
            med = _median(env, vres.kernel, horizon)
            emp[i, j] = med.median_bits
            meds.append(med)

    contracts = {
        "kernel_monotone_in_noise": bool(np.all(np.diff(kernel_sizes, axis=0) <= 0)),
        "kernel_monotone_in_cost": bool(np.all(np.diff(kernel_sizes, axis=1) <= 0)),
        "hostile_corner_collapses": int(kernel_sizes[-1, -1]) == 0,
        "empty_kernel_zero_empowerment": bool(np.all(emp[kernel_sizes == 0] == 0.0)),
    }
    config = {
        "exhibit": "sweep",
        "profile": profile,
        "base_environment": base.to_dict(),
        "p_flip_grid": p_grid,
        "cost_repair_grid": cost_grid,
        "empowerment_horizon": horizon,
        "safety": env.safety_coherent.name,
        "output_lens": env.output_lens.name,
        **SOLVER_SETTINGS,
    }
    metrics = {
        "state_layout": env.state_layout,
        "p_flip_grid": p_grid,
        "cost_repair_grid": cost_grid,
        "kernel_size_grid": kernel_sizes.tolist(),
        "empowerment_grid": emp.tolist(),
        "kernel_size_min": int(kernel_sizes.min()),
        "kernel_size_max": int(kernel_sizes.max()),
        "empowerment_min": float(emp.min()),
        "empowerment_max": float(emp.max()),
        "solver": solver_block(meds),
        "contracts": contracts,
    }
    return make_artifact("sweep", config, metrics)


def run_learning(profile: str = "paper") -> ArtifactRecord:
    """Median empowerment per skill level, with a zero-slip control group.

    Medians are taken over viable states restricted to a fixed staged phase
    (phi = 0) and a coherent internal bit (u = 0) within each skill sector.
    """
    horizon, restriction = 2, {"u": 0, "phi": 0, "viable": True}

    def sector_medians(p_slip: float):
        cfg = learning_config(profile, p_slip)
        env = build_ringworld(cfg)
        vres = viability_kernel(env.kernel, env.gate, env.safety_ledger_only)
        fields = dict(zip(env.state_layout["fields"], env.state_fields),
                      viable=vres.kernel)
        kept = np.logical_and.reduce([fields[k] == v for k, v in restriction.items()])
        meds = [_median(env, np.flatnonzero(kept & (fields["theta"] == theta)), horizon)
                for theta in range(cfg.theta_levels)]
        return cfg, env, meds

    cfg, env, meds = sector_medians(0.2)
    control_cfg, _, control_meds = sector_medians(0.0)
    medians = [med.median_bits for med in meds]
    control_medians = [med.median_bits for med in control_meds]

    contracts = {
        "medians_strictly_increase_with_skill": medians[0] < medians[1] < medians[2],
        "zero_slip_control_equal": control_medians[0] == control_medians[1] == control_medians[2],
    }
    config = {
        "exhibit": "learning",
        "profile": profile,
        "environment": cfg.to_dict(),
        "control_environment": control_cfg.to_dict(),
        "empowerment_horizon": horizon,
        "output_lens": env.output_lens.name,
        "restriction": restriction,
        "safety": env.safety_ledger_only.name,
        **SOLVER_SETTINGS,
    }
    metrics = {
        "state_layout": env.state_layout,
        "theta_values": list(range(cfg.theta_levels)),
        "medians": medians,
        "control_medians": control_medians,
        "per_theta": {
            f"theta{theta}": {"states": med.selected_states, "values": med.values}
            for theta, med in enumerate(meds)
        },
        "solver": solver_block(meds + control_meds),
        "contracts": contracts,
    }
    return make_artifact("learning", config, metrics)


# in run order
RUNNERS = {
    "packaging": run_packaging,
    "nulls": lambda profile: run_nulls(),
    "holonomy": run_holonomy,
    "ablations": run_ablations,
    "sweep": run_sweep,
    "learning": run_learning,
}
EXHIBITS = tuple(RUNNERS)


def run_exhibit(name: str, profile: str = "paper") -> ArtifactRecord:
    if name not in RUNNERS:
        raise ValueError(f"unknown exhibit {name!r}; known: {sorted(RUNNERS)}")
    return RUNNERS[name](profile)


def contracts_passed(record: ArtifactRecord) -> bool:
    return all(record.metrics.get("contracts", {}).values())
