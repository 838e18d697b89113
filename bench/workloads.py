"""The three benchmark workloads: inputs, warm-up, one timed pass, result checks.

An operation is one exhibit, one ladder rung or one random instance. It fails
when it raises, when a contract is false, when ``audit --strict`` fails, when
a CLI exit code is nonzero, or when a result check fails. Each operation's
result is split into an ``exact`` tree (kernel sizes and members, defects,
contracts) and a ``bits`` tree (capacities), which is how the stored
reference compares them.

Every call into the engine goes through a module attribute (``ak.f``,
``empowerment.f``, ``cli.main``) so that the tracer's patches see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import resource
import shutil
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import agencykit as ak
from agencykit import cli, empowerment
from agencykit.experiments import EMPOWERMENT_TOL, EXHIBITS, MAX_MEDIAN_STATES, holonomy_config
from tracer import kernel_arrays

DEFAULT_SEED = 0

LADDER_RINGS = (64, 128, 256)
LADDER_HORIZON = 3
PACKAGING_TAU = 2
LADDER_POLICIES = ("always_right", "repair_then_right")

# random-kernels: fixed sizes, so the seed changes the structure of the
# kernels but not their dimensions. Pass i of a run solves batch max(0, i - 1),
# drawn from (seed, batch): passes 0 and 1 solve the same batch, which checks
# that two passes agree, and every later pass draws a new one, so a run
# averages over several draws how much BA work one draw happens to need.
RANDOM_SIZES = (1024, 1536, 2048)
RANDOM_ACTION_COSTS = (0.0, 1.0, 1.0, 2.0)
RANDOM_LEDGER_LEVELS = 4  # ledger values 0..3
RANDOM_BAND = 3  # successors within +-3 on the cycle
RANDOM_MAX_FANOUT = 4
RANDOM_PROB_DENOMINATOR = 16  # probabilities are multiples of 1/16
RANDOM_UNSAFE_SHARE = 0.03
RANDOM_OUTPUT_LABELS = 16
RANDOM_FIBER_SIZE = 4
RANDOM_HORIZON = 3
# warm-up instance, drawn from its own stream so inputs do not depend on it
WARM_UP_SIZE = 8
WARM_UP_RING = 8


@dataclass
class Op:
    """One operation: its checked result, check-only details, notes and failures."""

    name: str
    result: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict, repr=False)
    notes: dict = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)


def _error(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def _sha256(values) -> str:
    return hashlib.sha256(json.dumps(values).encode()).hexdigest()


def results_digest(ops: list[Op]) -> str:
    """Digest of every op result at full float precision, for the two-pass check."""
    return _sha256([[op.name, op.result] for op in ops])


# --------------------------------------------------------------------------- exhibits


def exhibit_result(name: str, m: dict) -> dict:
    """The checked fields of one exhibit artifact's metrics."""
    exact: dict = {"contracts": m["contracts"]}
    bits: dict = {}
    if name == "nulls":
        bits = {"null_a": m["null_a"], "null_b": m["null_b"]}
    elif name == "packaging":
        exact["defect"] = m["defect"]
        exact["mappings"] = {k: v["mapping"] for k, v in m["endomaps"].items()}
    elif name == "holonomy":
        for regime in ("protocol_on", "protocol_off"):
            r = m[regime]
            exact[regime] = {k: r[k] for k in ("kernel_size", "kernel_members", "selected_states")}
            bits[regime] = {"medians": r["medians"], "per_state": r["per_state"]}
    elif name == "ablations":
        for row, r in m["rows"].items():
            exact[row] = {k: r[k] for k in ("kernel_size", "kernel_members", "packaging_defect")}
            bits[row] = r["empowerment_median"]
    elif name == "sweep":
        exact["kernel_size_grid"] = m["kernel_size_grid"]
        bits["empowerment_grid"] = m["empowerment_grid"]
    elif name == "learning":
        exact["states"] = {k: v["states"] for k, v in m["per_theta"].items()}
        bits = {
            "medians": m["medians"],
            "control_medians": m["control_medians"],
            "values": {k: v["values"] for k, v in m["per_theta"].items()},
        }
    return {"exact": exact, "bits": bits}


class Exhibits:
    """``agencykit run all --clean`` then ``audit --strict``, profile paper."""

    name = "exhibits"
    inputs_id = 0

    def __init__(self, seed: int, pass_index: int, workdir: Path):
        self.workdir = workdir
        self.out = workdir / "results"

    def warm_up(self) -> None:
        warm = self.workdir / "warm"
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["run", "nulls", "--clean", "--out", str(warm)])
            cli.main(["audit", "--strict", "--dir", str(warm)])
        shutil.rmtree(warm)

    def run_pass(self):
        with contextlib.redirect_stdout(io.StringIO()):
            run_code = cli.main(["run", "all", "--clean", "--out", str(self.out)])
            audit_code = cli.main(["audit", "--strict", "--dir", str(self.out)])
        return run_code, audit_code

    def ops(self, raw, error: str | None) -> list[Op]:
        ops = [Op(name) for name in EXHIBITS]
        if error is not None:
            for op in ops:
                op.failures.append(error)
            return ops
        run_code, audit_code = raw
        for op in ops:
            if run_code != 0:
                op.failures.append(f"run exit code {run_code}")
            if audit_code != 0:
                op.failures.append(f"audit --strict exit code {audit_code}")
            try:
                artifact = json.loads((self.out / "generated" / f"{op.name}.json").read_text())
                op.result = exhibit_result(op.name, artifact["metrics"])
            except (OSError, ValueError, KeyError, TypeError) as exc:
                op.failures.append(f"artifact unreadable: {_error(exc)}")
                continue
            false = [k for k, ok in op.result["exact"]["contracts"].items() if not ok]
            if false:
                op.failures.append(f"contracts false: {false}")
        shutil.rmtree(self.out, ignore_errors=True)
        return ops


# --------------------------------------------------------------------------- ring ladder


def _mask_result(mask: np.ndarray) -> dict:
    members = np.flatnonzero(mask).tolist()
    return {"size": len(members), "members_sha256": _sha256(members)}


def ring_rung(ring: int) -> tuple[dict, dict]:
    """Build, viability under both predicates, empowerment, packaging at one ring size.

    Returns the checked result and notes: the computed bytes of the kernel's
    arrays and the process's peak RSS so far, which the largest rung sets.
    """
    cfg = replace(holonomy_config("paper", True), ring_size=ring)
    env = ak.build_ringworld(cfg)
    k, gate = env.kernel, env.gate
    ledger_only = ak.viability_kernel(k, gate, env.safety_ledger_only)
    coherent = ak.viability_kernel(k, gate, env.safety_coherent)
    med = empowerment.median_empowerment_on_kernel(
        k, gate, ledger_only.kernel, LADDER_HORIZON, env.output_lens,
        max_states=MAX_MEDIAN_STATES, tol=EMPOWERMENT_TOL,
    )
    defects, mappings = {}, {}
    for policy in LADDER_POLICIES:
        e = ak.packaging_endomap(k, env.macro_lens, env.policies[policy], PACKAGING_TAU, policy)
        defects[policy] = ak.idempotence_defect(e)
        mappings[policy] = _sha256([[x, e.mapping[x]] for x in sorted(e.mapping)])
    result = {
        "exact": {
            "n_states": env.n_states,
            "kernel_ledger_only": _mask_result(ledger_only.kernel),
            "kernel_coherent": _mask_result(coherent.kernel),
            "selected_states": med.selected_states,
            "defects": defects,
            "mappings_sha256": mappings,
        },
        "bits": {"median": med.median_bits, "values": med.values},
    }
    notes = {
        "kernel.probs_bytes_computed": kernel_arrays(k)[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return result, notes


class RingLadder:
    """Holonomy configuration at rings 64, 128 and 256 (S = 768, 1536, 3072), H=3."""

    name = "ring-ladder"
    inputs_id = 0

    def __init__(self, seed: int, pass_index: int, workdir: Path):
        pass

    def warm_up(self) -> None:
        ring_rung(WARM_UP_RING)

    def run_pass(self) -> list[Op]:
        ops = []
        for ring in LADDER_RINGS:
            op = Op(f"ring{ring}")
            try:
                op.result, op.notes = ring_rung(ring)
            except Exception as exc:  # one failed rung must not stop the pass
                op.failures.append(_error(exc))
            ops.append(op)
        return ops

    def ops(self, raw, error: str | None) -> list[Op]:
        if error is not None:
            return [Op(f"ring{ring}", failures=[error]) for ring in LADDER_RINGS]
        return raw


# --------------------------------------------------------------------------- random kernels


@dataclass(frozen=True)
class RandomInstance:
    """A random controlled kernel as padded successor lists, plus its gate and lenses.

    ``succ[a, s, j]`` is a successor of ``s`` under ``a`` with probability
    ``numer[a, s, j] / 16``; unused slots have numerator 0.
    """

    succ: np.ndarray
    numer: np.ndarray
    ledger: np.ndarray
    safe: np.ndarray
    output_labels: np.ndarray
    macro_labels: np.ndarray
    policy: np.ndarray

    @property
    def n_states(self) -> int:
        return self.succ.shape[1]


def random_instance(rng: np.random.Generator, n_states: int) -> RandomInstance:
    """Successors in a band of +-3 on a cycle, fan-out 1-4, probabilities k/16."""
    n_actions = len(RANDOM_ACTION_COSTS)
    shape = (n_actions, n_states)
    width = 2 * RANDOM_BAND + 1
    offsets = np.argsort(rng.random((*shape, width)), axis=2)[:, :, :RANDOM_MAX_FANOUT]
    offsets -= RANDOM_BAND
    fanout = rng.integers(1, RANDOM_MAX_FANOUT + 1, size=shape)
    # a random composition of 16 into `fanout` positive parts: distinct cut
    # points in 1..15, unused cuts pushed to 16 so their parts are empty
    denom = RANDOM_PROB_DENOMINATOR
    cuts = np.argsort(rng.random((*shape, denom - 1)), axis=2)[:, :, : RANDOM_MAX_FANOUT - 1] + 1
    used = np.arange(RANDOM_MAX_FANOUT - 1)[None, None, :] < (fanout - 1)[:, :, None]
    cuts = np.sort(np.where(used, cuts, denom), axis=2)
    edges = np.concatenate(
        [np.zeros((*shape, 1), np.int64), cuts, np.full((*shape, 1), denom)], axis=2
    )
    numer = np.diff(edges, axis=2)
    succ = (np.arange(n_states)[None, :, None] + offsets) % n_states
    macro = np.empty(n_states, np.int64)
    macro[rng.permutation(n_states)] = np.arange(n_states) // RANDOM_FIBER_SIZE
    return RandomInstance(
        succ=succ,
        numer=numer,
        ledger=rng.integers(0, RANDOM_LEDGER_LEVELS, n_states).astype(np.float64),
        safe=rng.random(n_states) >= RANDOM_UNSAFE_SHARE,
        output_labels=rng.integers(0, RANDOM_OUTPUT_LABELS, n_states),
        macro_labels=macro,
        policy=rng.integers(0, n_actions, n_states),
    )


def dense_probs(inst: RandomInstance) -> np.ndarray:
    """The (A, S, S) probability tensor; rows sum to exactly 1.0 (dyadic entries)."""
    n_actions, n_states, _ = inst.succ.shape
    probs = np.zeros((n_actions, n_states, n_states))
    a, s, j = np.nonzero(inst.numer)
    probs[a, s, inst.succ[a, s, j]] = inst.numer[a, s, j] / RANDOM_PROB_DENOMINATOR
    return probs


def random_instances(seed: int, batch: int) -> list[RandomInstance]:
    rng = np.random.default_rng([seed, batch])
    return [random_instance(rng, n) for n in RANDOM_SIZES]


def random_op(inst: RandomInstance) -> tuple[dict, dict]:
    """Viability, median empowerment and packaging on one instance, via the public API."""
    n = inst.n_states
    k = ak.ControlledKernel(n_states=n, n_actions=inst.succ.shape[0], probs=dense_probs(inst))
    gate = ak.FeasibilityGate(ledger=inst.ledger, costs=np.array(RANDOM_ACTION_COSTS))
    safe = ak.SafetyPredicate(safe=inst.safe, name="random_safe")
    out = ak.Lens(name="random_output", project=inst.output_labels, n_labels=RANDOM_OUTPUT_LABELS)
    macro = ak.Lens(name="random_macro", project=inst.macro_labels,
                    n_labels=n // RANDOM_FIBER_SIZE)
    policy = ak.Policy(kind="deterministic", table=dict(enumerate(inst.policy.tolist())))

    viable = ak.viability_kernel(k, gate, safe)
    med = empowerment.median_empowerment_on_kernel(
        k, gate, viable.kernel, RANDOM_HORIZON, out,
        max_states=MAX_MEDIAN_STATES, tol=EMPOWERMENT_TOL,
    )
    e = ak.packaging_endomap(k, macro, policy, PACKAGING_TAU, "random_policy")
    mapping = [[x, e.mapping[x]] for x in sorted(e.mapping)]
    result = {
        "exact": {
            "n_states": n,
            "kernel": _mask_result(viable.kernel),
            "selected_states": med.selected_states,
            "defect": ak.idempotence_defect(e),
            "mapping_sha256": _sha256(mapping),
        },
        "bits": {"median": med.median_bits, "values": med.values},
    }
    detail = {"kernel": np.asarray(viable.kernel, dtype=bool), "mapping": mapping}
    return result, detail


def channel_rows(inst: RandomInstance) -> np.ndarray:
    """Rows of each state's channel: the budget-feasible length-H sequences."""
    costs = np.array(RANDOM_ACTION_COSTS)
    seq_costs = np.array([
        costs[list(seq)].sum()
        for seq in itertools.product(range(len(costs)), repeat=RANDOM_HORIZON)
    ])
    return (seq_costs[None, :] <= inst.ledger[:, None]).sum(axis=1)


def invariant_failures(inst: RandomInstance, result: dict, detail: dict, tol: float) -> list[str]:
    """Checks that hold for every seed, computed from the generator's own data."""
    failures = []
    K = detail["kernel"]
    if np.any(K & ~inst.safe):
        failures.append("viability kernel is not a subset of the safe set")
    # viability_step(K) == K: every member has an affordable action whose
    # whole successor support stays in K
    affordable = np.array(RANDOM_ACTION_COSTS)[:, None] <= inst.ledger[None, :]
    stays = np.all(K[inst.succ] | (inst.numer == 0), axis=2) & affordable
    if not np.all(stays.any(axis=0)[K]):
        failures.append("viability kernel is not a fixed point of the viability step")
    rows = channel_rows(inst)
    states = result["exact"]["selected_states"]
    for s, bits in zip(states, result["bits"]["values"]):
        top = np.log2(min(rows[s], RANDOM_OUTPUT_LABELS))
        if not -2 * tol <= bits <= top + 2 * tol:
            failures.append(f"capacity {bits!r} at state {s} outside [0, {top!r}]")
            break
    n_macro = inst.n_states // RANDOM_FIBER_SIZE
    mapping = detail["mapping"]
    if [x for x, _ in mapping] != list(range(n_macro)) or any(
        not 0 <= y < n_macro for _, y in mapping
    ):
        failures.append("packaging endomap is not a map of the macro labels into themselves")
    if not 0.0 <= result["exact"]["defect"] <= 1.0:
        failures.append("idempotence defect outside [0, 1]")
    return failures


class RandomKernels:
    """Seeded random controlled kernels built through the public API only."""

    name = "random-kernels"

    def __init__(self, seed: int, pass_index: int, workdir: Path):
        self.inputs_id = max(0, pass_index - 1)
        self.instances = random_instances(seed, self.inputs_id)

    def warm_up(self) -> None:
        random_op(random_instance(np.random.default_rng([WARM_UP_SIZE]), WARM_UP_SIZE))

    def _names(self) -> list[str]:
        return [f"instance{i}_S{inst.n_states}" for i, inst in enumerate(self.instances)]

    def run_pass(self) -> list[Op]:
        ops = []
        for name, inst in zip(self._names(), self.instances):
            op = Op(name)
            try:
                op.result, op.detail = random_op(inst)
            except Exception as exc:  # one failed instance must not stop the pass
                op.failures.append(_error(exc))
            ops.append(op)
        return ops

    def ops(self, raw, error: str | None) -> list[Op]:
        if error is not None:
            return [Op(name, failures=[error]) for name in self._names()]
        for op, inst in zip(raw, self.instances):
            if not op.failures:
                op.failures += invariant_failures(inst, op.result, op.detail, EMPOWERMENT_TOL)
        return raw


WORKLOADS = {w.name: w for w in (Exhibits, RingLadder, RandomKernels)}


def reference_applies(workload: str, seed: int, inputs_id: int) -> bool:
    """Only random-kernels uses the seed: its reference holds the default seed's first batch."""
    return workload != RandomKernels.name or (seed == DEFAULT_SEED and inputs_id == 0)
