"""The six exhibit runners and the contracts derived from their metrics.

Each runner returns its config, its metrics (a deterministic function of the
config) and the medians it solved, from which ``run_exhibit`` adds the solver
settings and ``solver`` block; runners never mutate environments and may run
in any order. ``RUNNERS`` pairs each runner with a pure function of the
JSON-plain metrics that names its contracts (orderings, zeros, equalities):
``run_exhibit`` stores them under ``metrics["contracts"]`` and
``artifacts.audit`` re-derives them.

Every ring-world exhibit derives from one configuration, ``PAPER`` (the
``RingWorldConfig`` defaults), recorded as ``"profile": "paper"`` in each
ring-world artifact's config. Per-exhibit overrides are part of each
exhibit's config block and therefore of its hash:

- packaging uses ``PAPER`` directly, and nulls build their own null regimes;
- holonomy uses a movement-is-free variant on a wider ring so the viability
  kernel carries a nontrivial action channel at every horizon;
- the sweep uses ``ECONOMY``, a maintenance economy (unit action costs,
  per-step income, damage leak) in which an unrepaired damage bit drains the
  ledger, and ``ABLATIONS`` toggles one primitive of it per entry, so
  removing repair genuinely collapses viability;
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
    median_empowerments,
    total_variation,
)
from agencykit.environments import (
    ACTION_NAMES,
    COHERENT,
    LEDGER_ONLY,
    LEFT,
    MACRO_LENS,
    OUTPUT_LENS,
    RIGHT,
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

# the defaults of every median_empowerments call below, hashed into each solving exhibit's config
SOLVER_SETTINGS = {"capacity_tol_bits": EMPOWERMENT_TOL, "max_states": MAX_MEDIAN_STATES}


# the one ring-world configuration every exhibit derives from, and its recorded name
PROFILE, PAPER = "paper", RingWorldConfig()


def holonomy_config(profile: str, protocol_on: bool) -> RingWorldConfig:
    """Free-movement, wide-ring variant; regimes differ only in the protocol toggle.

    ``profile`` must be ``PROFILE``; the parameter stays only because the
    benchmark calls ``holonomy_config("paper", True)``.
    """
    if profile != PROFILE:
        raise ValueError(f"unknown profile {profile!r}; only {PROFILE!r} exists")
    return replace(PAPER, ring_size=16, p_slip=0.1, cost_left=0, cost_right=0,
                   protocol_on=protocol_on)


# unit-cost actions, per-step income, and a damage leak on the ledger
ECONOMY = replace(PAPER, cost_left=1, cost_right=1, cost_repair=1, cost_noop=0,
                  ledger_gain=1, gain_every_step=True, damage_leak=2)

ABLATIONS = {
    "constraints_off": replace(ECONOMY, cost_left=0, cost_right=0, cost_repair=0, cost_noop=0),
    "full": ECONOMY,
    "high_noise": replace(ECONOMY, p_flip=0.3),
    "learn_on": replace(ECONOMY, theta_levels=2),
    "no_protocol": replace(ECONOMY, protocol_on=False),
    "no_repair": replace(ECONOMY, repair_enabled=False),
    "repair_imperfect": replace(ECONOMY, repair_success=0.2),
}


def learning_config(p_slip: float) -> RingWorldConfig:
    """All action costs zero (feasibility trivial); three-level skill sector."""
    return replace(PAPER, cost_left=0, cost_right=0, cost_repair=0, cost_noop=0,
                   p_slip=p_slip, protocol_on=False, theta_levels=3)


def solver_block(meds: list[MedianEmpowermentResult]) -> dict:
    """Largest certified capacity gap and Blahut-Arimoto work of an exhibit's medians.

    The only reducer of the medians' solves: their number, largest gap, and
    total and largest iteration counts (0 when no median solved a channel).
    ``audit`` fails an artifact whose gap exceeds the ``capacity_tol_bits`` of
    its hashed config (``SOLVER_SETTINGS``).
    """
    solved = [r for m in meds for r in m.solved]
    return {
        "max_gap_bits": max((r.gap for r in solved), default=0.0),
        "solves": len(solved),
        "iterations_total": sum(r.iterations for r in solved),
        "iterations_max": max((r.iterations for r in solved), default=0),
    }


def _problem(env: Environment, states, horizon: int) -> tuple:
    """The ``median_empowerments`` problem of ``env``'s output lens over ``states``."""
    return env.kernel, env.gate, states, horizon, env.output_lens


def run_nulls() -> tuple[dict, dict, list[MedianEmpowermentResult]]:
    """Null regimes: single-action cycle and the exogenous-schedule trap.

    Each null is the capacity of the channel from start state 0, solved as
    the median over the one-state set {0}, which is that capacity exactly.
    """
    horizons_a, horizon_b = [1, 2, 3], 1

    def from_zero(env: Environment, horizon: int) -> tuple:
        return _problem(env, np.arange(env.n_states) == 0, horizon)

    null_a = build_null_single_action()
    meds_a = median_empowerments(from_zero(null_a, h) for h in horizons_a)
    traps = {model: build_schedule_trap(model) for model in ("wrong", "right")}
    meds_b = median_empowerments(from_zero(env, horizon_b) for env in traps.values())
    config = {
        "null_a": {"environment": "null_single_action", "n_states": null_a.n_states},
        **{f"null_b_{model}": {"environment": "schedule_trap", "model": model,
                               "n_states": env.n_states} for model, env in traps.items()},
        "horizons_null_a": horizons_a,
        "horizon_null_b": horizon_b,
    }
    metrics = {
        "null_a": {f"H{h}": med.median_bits for h, med in zip(horizons_a, meds_a)},
        "null_b": {model: med.median_bits for model, med in zip(traps, meds_b)},
    }
    return config, metrics, meds_a + meds_b


def nulls_contracts(m: dict) -> dict:
    return {
        "null_a_zero_all_horizons": all(abs(v) <= 1e-12 for v in m["null_a"].values()),
        "null_b_wrong_model_one_bit": abs(m["null_b"]["wrong"] - 1.0) <= 1e-6,
        "null_b_right_model_zero": abs(m["null_b"]["right"]) <= 1e-6,
    }


def run_packaging() -> tuple[dict, dict, list[MedianEmpowermentResult]]:
    """Idempotence defect across tau for repair-off vs repair-on policies."""
    env = build_ringworld(PAPER)
    regimes = {"repair_off": "always_right", "repair_on": "repair_then_right"}
    defects: dict[str, list[float]] = {name: [] for name in regimes}
    endomaps: dict[str, dict] = {}
    for regime, policy_name in regimes.items():
        for tau in TAU_GRID:
            e = packaging_endomap(
                env.kernel, env.macro_lens, env.policies[policy_name], tau, policy_name
            )
            defects[regime].append(idempotence_defect(e))
            endomaps[f"{MACRO_LENS}|{policy_name}|tau{tau}"] = {
                "mapping": [e.mapping[x] for x in e.domain],
                "reach_mass": [e.reach_mass[x] for x in e.domain],
                "domain": e.domain,
            }

    config = {
        "profile": PROFILE,
        "environment": PAPER.to_dict(),
        "tau_grid": list(TAU_GRID),
        "macro_lens": MACRO_LENS,
        "policies": regimes,
    }
    metrics = {
        "state_layout": PAPER.state_layout,
        "tau_grid": list(TAU_GRID),
        "defect": defects,
        "endomaps": endomaps,
    }
    return config, metrics, []


def packaging_contracts(m: dict) -> dict:
    off, on = m["defect"]["repair_off"], m["defect"]["repair_on"]
    i0, i2 = m["tau_grid"].index(0), m["tau_grid"].index(2)
    return {
        "tau0_defect_zero_both": off[i0] == 0.0 and on[i0] == 0.0,
        "tau2_repair_on_zero": on[i2] == 0.0,
        "tau2_repair_off_high": off[i2] >= 0.9,
    }


def run_holonomy() -> tuple[dict, dict, list[MedianEmpowermentResult]]:
    """Median feasible empowerment vs horizon for protocol on/off, plus TV witness."""
    configs = {regime: holonomy_config(PROFILE, protocol)
               for regime, protocol in (("protocol_on", True), ("protocol_off", False))}
    # noncommutativity witness: alpha vs beta from the matched full-budget
    # start state, read as two rows of that state's H=2 feasible channel
    sequences = {"alpha": (RIGHT, LEFT), "beta": (LEFT, RIGHT)}
    results, witness, meds = {}, {}, []
    for regime, cfg in configs.items():
        env = build_ringworld(cfg)
        vres = viability_kernel(env.kernel, env.gate, env.safety_ledger_only)
        # one call per regime; the largest horizon is cut first, while no channel is held
        regime_meds = median_empowerments(
            _problem(env, vres.kernel, h) for h in HORIZON_GRID[::-1])[::-1]
        meds += regime_meds
        results[regime] = {
            "kernel_size": vres.size,
            "kernel_members": vres.indices,
            "kernel_trace": vres.trace,
            "medians": [med.median_bits for med in regime_meds],
            "per_state": {f"H{h}": med.values for h, med in zip(HORIZON_GRID, regime_meds)},
            "selected_states": regime_meds[-1].selected_states,
            "subset_rule": regime_meds[-1].subset_rule,
        }
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

    config = {
        "profile": PROFILE,
        "environment_on": configs["protocol_on"].to_dict(),
        "environment_off": configs["protocol_off"].to_dict(),
        "horizons": list(HORIZON_GRID),
        "output_lens": OUTPUT_LENS,
        "safety": LEDGER_ONLY,
        "witness_sequences": {
            name: [ACTION_NAMES[a] for a in seq] for name, seq in sequences.items()
        },
    }
    metrics = {
        "state_layout": configs["protocol_on"].state_layout,
        "horizons": list(HORIZON_GRID),
        "protocol_on": results["protocol_on"],
        "protocol_off": results["protocol_off"],
        "witness": witness,
    }
    return config, metrics, meds


def holonomy_contracts(m: dict) -> dict:
    on, off, tv = m["protocol_on"], m["protocol_off"], m["witness"]
    gaps = [a - b for a, b in zip(on["medians"], off["medians"], strict=True)]
    return {
        "h1_medians_equal": abs(gaps[0]) <= 1e-9,
        "gap_at_least_02_for_h2_to_h5": all(gap >= 0.2 for gap in gaps[1:]),
        "tv_witness_gap": tv["protocol_on"]["tv"] - tv["protocol_off"]["tv"] >= 0.3,
        "kernel_sizes_equal": on["kernel_size"] == off["kernel_size"],
    }


def run_ablations() -> tuple[dict, dict, list[MedianEmpowermentResult]]:
    """Primitive toggle suite: |K|, median empowerment at H=2 (one pass), defect at tau=2."""
    horizon, tau, policy = 2, 2, "repair_then_right"
    rows = {}

    def problems():
        # one environment alive at a time, as in ``run_sweep``
        for name, cfg in sorted(ABLATIONS.items()):
            env = build_ringworld(cfg)
            vres = viability_kernel(env.kernel, env.gate, env.safety_ledger_only)
            endo = packaging_endomap(env.kernel, env.macro_lens, env.policies[policy], tau, policy)
            rows[name] = {
                "n_states": env.n_states,
                "kernel_size": vres.size,
                "kernel_members": vres.indices,
                "kernel_iterations": vres.iterations,
                "kernel_trace": vres.trace,
                "packaging_defect": idempotence_defect(endo),
            }
            yield _problem(env, vres.kernel, horizon)

    meds = median_empowerments(problems())
    for row, med in zip(rows.values(), meds):
        row["empowerment_median"] = med.median_bits
        row["subset_rule"] = med.subset_rule
    config = {
        "profile": PROFILE,
        "configs": {name: cfg.to_dict() for name, cfg in ABLATIONS.items()},
        "empowerment_horizon": horizon,
        "packaging_tau": tau,
        "output_lens": OUTPUT_LENS,
        "macro_lens": MACRO_LENS,
        "safety": LEDGER_ONLY,
    }
    metrics = {"state_layout": ECONOMY.state_layout, "rows": rows}
    return config, metrics, meds


def ablations_contracts(m: dict) -> dict:
    # one column per row field, keyed by ablation name
    size, emp, defect, n_states = ({name: row[key] for name, row in m["rows"].items()} for key in (
        "kernel_size", "empowerment_median", "packaging_defect", "n_states"))
    return {
        "no_repair_kernel_empty": size["no_repair"] == 0,
        "no_repair_empowerment_zero": emp["no_repair"] == 0.0,
        "full_no_protocol_equal_kernel": size["full"] == size["no_protocol"],
        "full_no_protocol_equal_defect": defect["full"] == defect["no_protocol"],
        "full_beats_no_protocol_empowerment": emp["full"] > emp["no_protocol"],
        "constraints_off_defect_exceeds_full": defect["constraints_off"] > defect["full"],
        "repair_imperfect_defect_zero": defect["repair_imperfect"] == 0.0,
        "repair_imperfect_below_full_empowerment": emp["repair_imperfect"] < emp["full"],
        "learn_on_doubles_state_count": n_states["learn_on"] == 2 * n_states["full"],
    }


def run_sweep() -> tuple[dict, dict, list[MedianEmpowermentResult]]:
    """8x8 noise/maintenance-cost grid under the coherence safety predicate.

    The 64 cells' medians are solved in one ``median_empowerments`` pass.
    """
    p_grid = [round(v, 10) for v in np.linspace(0.0, 0.7, 8)]
    cost_grid = list(range(8))
    horizon = 2
    kernel_sizes = np.zeros((len(p_grid), len(cost_grid)), dtype=np.int64)

    def cells():
        # one environment alive at a time: each cell's median is cut before
        # the next cell is built, and all 64 are solved once the grid is done
        for i, p in enumerate(p_grid):
            for j, c in enumerate(cost_grid):
                env = build_ringworld(replace(ECONOMY, p_flip=float(p), cost_repair=int(c)))
                vres = viability_kernel(env.kernel, env.gate, env.safety_coherent)
                kernel_sizes[i, j] = vres.size
                yield _problem(env, vres.kernel, horizon)

    meds = median_empowerments(cells())
    emp = np.array([med.median_bits for med in meds]).reshape(kernel_sizes.shape)
    config = {
        "profile": PROFILE,
        "base_environment": ECONOMY.to_dict(),
        "p_flip_grid": p_grid,
        "cost_repair_grid": cost_grid,
        "empowerment_horizon": horizon,
        "safety": COHERENT,
        "output_lens": OUTPUT_LENS,
    }
    metrics = {
        "state_layout": ECONOMY.state_layout,  # every cell has ECONOMY's radices
        "p_flip_grid": p_grid,
        "cost_repair_grid": cost_grid,
        "kernel_size_grid": kernel_sizes.tolist(),
        "empowerment_grid": emp.tolist(),
        "kernel_size_min": int(kernel_sizes.min()),
        "kernel_size_max": int(kernel_sizes.max()),
        "empowerment_min": float(emp.min()),
        "empowerment_max": float(emp.max()),
    }
    return config, metrics, meds


def sweep_contracts(m: dict) -> dict:
    sizes, emp = m["kernel_size_grid"], m["empowerment_grid"]
    # strict zips: a ragged or mismatched grid raises ValueError
    columns = [pair for a, b in zip(sizes, sizes[1:]) for pair in zip(a, b, strict=True)]
    cells = [pair for a, b in zip(sizes, emp, strict=True) for pair in zip(a, b, strict=True)]
    return {
        "kernel_monotone_in_noise": all(a >= b for a, b in columns),
        "kernel_monotone_in_cost": all(a >= b for row in sizes for a, b in zip(row, row[1:])),
        "hostile_corner_collapses": sizes[-1][-1] == 0,
        "empty_kernel_zero_empowerment": all(e == 0.0 for k, e in cells if k == 0),
    }


def run_learning() -> tuple[dict, dict, list[MedianEmpowermentResult]]:
    """Median empowerment per skill level, with a zero-slip control group.

    Medians are taken over viable states restricted to a fixed staged phase
    (phi = 0) and a coherent internal bit (u = 0) within each skill sector.
    """
    horizon, restriction = 2, {"u": 0, "phi": 0, "viable": True}

    def sector_problems(p_slip: float):
        cfg = learning_config(p_slip)
        env = build_ringworld(cfg)
        vres = viability_kernel(env.kernel, env.gate, env.safety_ledger_only)
        fields = dict(zip(cfg.state_layout["fields"], env.state_fields),
                      viable=vres.kernel)
        kept = np.logical_and.reduce([fields[k] == v for k, v in restriction.items()])
        problems = [_problem(env, kept & (fields["theta"] == theta), horizon)
                    for theta in range(cfg.theta_levels)]
        return cfg, problems

    # both sectors' medians in one call
    cfg, problems = sector_problems(0.2)
    control_cfg, control_problems = sector_problems(0.0)
    all_meds = median_empowerments(problems + control_problems)
    meds, control_meds = all_meds[: len(problems)], all_meds[len(problems) :]
    config = {
        "profile": PROFILE,
        "environment": cfg.to_dict(),
        "control_environment": control_cfg.to_dict(),
        "empowerment_horizon": horizon,
        "output_lens": OUTPUT_LENS,
        "restriction": restriction,
        "safety": LEDGER_ONLY,
    }
    metrics = {
        "state_layout": cfg.state_layout,
        "theta_values": list(range(cfg.theta_levels)),
        "medians": [med.median_bits for med in meds],
        "control_medians": [med.median_bits for med in control_meds],
        "per_theta": {
            f"theta{theta}": {"states": med.selected_states, "values": med.values}
            for theta, med in enumerate(meds)
        },
    }
    return config, metrics, all_meds


def learning_contracts(m: dict) -> dict:
    medians, control = m["medians"], m["control_medians"]
    return {
        "medians_strictly_increase_with_skill": medians[0] < medians[1] < medians[2],
        "zero_slip_control_equal": control[0] == control[1] == control[2],
    }


# (runner, contracts function) of each exhibit, in run order
RUNNERS = {
    "packaging": (run_packaging, packaging_contracts),
    "nulls": (run_nulls, nulls_contracts),
    "holonomy": (run_holonomy, holonomy_contracts),
    "ablations": (run_ablations, ablations_contracts),
    "sweep": (run_sweep, sweep_contracts),
    "learning": (run_learning, learning_contracts),
}
EXHIBITS = tuple(RUNNERS)


def run_exhibit(name: str) -> ArtifactRecord:
    """The artifact of exhibit ``name``, its contracts derived from its metrics."""
    if name not in RUNNERS:
        raise ValueError(f"unknown exhibit {name!r}; known: {sorted(RUNNERS)}")
    runner, contracts = RUNNERS[name]
    config, metrics, meds = runner()
    if meds:
        config, metrics = {**config, **SOLVER_SETTINGS}, {**metrics, "solver": solver_block(meds)}
    record = make_artifact(name, {"exhibit": name, **config}, metrics)
    record.metrics["contracts"] = contracts(record.metrics)
    return record
