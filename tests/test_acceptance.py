"""Acceptance gate: every shipping criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE <n>: PASS|FAIL`` line (visible under
``pytest -s``) and asserts the same condition, so the suite is both a gate
and a human-readable report.
"""

import json
import time

import numpy as np
import pytest

from agencykit.artifacts import canonical_serialize, config_hash
from agencykit.cli import main
from agencykit.empowerment import channel_capacity
from agencykit.experiments import run_exhibit
from agencykit.kernel import Policy, policy_successors, predecessor_lists, pull, validate_kernel
from agencykit.viability import viability_kernel, viability_step
from conftest import random_gate, random_kernel, random_safety
from oracles import brute_force_greatest_fixpoint, bsc_capacity, grid_search_capacity


def report(number: int, name: str, passed: bool, detail: str = "") -> None:
    suffix = f" -- {detail}" if detail else ""
    print(f"\nACCEPTANCE {number} ({name}): {'PASS' if passed else 'FAIL'}{suffix}")
    assert passed, f"acceptance criterion {number} ({name}) failed{suffix}"


@pytest.fixture(scope="module")
def timed_records():
    records = {}
    timings = {}
    for name in ("nulls", "packaging", "holonomy", "ablations", "sweep", "learning"):
        t0 = time.perf_counter()
        records[name] = run_exhibit(name)
        timings[name] = time.perf_counter() - t0
    return records, timings


def test_criterion_1_null_suite(timed_records):
    records, timings = timed_records
    m = records["nulls"].metrics
    ok = (
        all(abs(m["null_a"][f"H{h}"]) <= 1e-12 for h in (1, 2, 3))
        and abs(m["null_b"]["wrong"] - 1.0) <= 1e-6
        and abs(m["null_b"]["right"]) <= 1e-6
        and timings["nulls"] < 1.0
    )
    report(1, "null suite exact", ok,
           f"nullA={[m['null_a'][f'H{h}'] for h in (1, 2, 3)]}, "
           f"wrong={m['null_b']['wrong']:.9f}, right={m['null_b']['right']:.2e}, "
           f"runtime={timings['nulls']:.3f}s")


def test_criterion_2_packaging_collapse(timed_records):
    records, timings = timed_records
    m = records["packaging"].metrics
    i0, i2 = m["tau_grid"].index(0), m["tau_grid"].index(2)
    on2, off2 = m["defect"]["repair_on"][i2], m["defect"]["repair_off"][i2]
    ok = (
        on2 == 0.0
        and off2 >= 0.9
        and m["defect"]["repair_on"][i0] == 0.0
        and m["defect"]["repair_off"][i0] == 0.0
        and timings["packaging"] < 5.0
    )
    report(2, "packaging collapse at tau=2", ok,
           f"on(tau2)={on2}, off(tau2)={off2}, runtime={timings['packaging']:.2f}s")


def test_criterion_3_holonomy(timed_records):
    records, timings = timed_records
    m = records["holonomy"].metrics
    on = np.array(m["protocol_on"]["medians"])
    off = np.array(m["protocol_off"]["medians"])
    tv_on = m["witness"]["protocol_on"]["tv"]
    tv_off = m["witness"]["protocol_off"]["tv"]
    ok = (
        abs(on[0] - off[0]) <= 1e-9
        and bool(np.all(on[1:] - off[1:] >= 0.2))
        and tv_on - tv_off >= 0.3
        and timings["holonomy"] < 30.0
    )
    report(3, "protocol holonomy", ok,
           f"H1 delta={abs(on[0] - off[0]):.2e}, min gap H2..5={float((on[1:] - off[1:]).min()):.3f}, "
           f"TV on/off={tv_on:.4f}/{tv_off:.4f}, runtime={timings['holonomy']:.2f}s")


def test_criterion_4_ablations(timed_records):
    records, timings = timed_records
    rows = records["ablations"].metrics["rows"]
    ok = (
        rows["no_repair"]["kernel_size"] == 0
        and rows["no_repair"]["empowerment_median"] == 0.0
        and rows["full"]["kernel_size"] == rows["no_protocol"]["kernel_size"]
        and rows["full"]["packaging_defect"] == rows["no_protocol"]["packaging_defect"]
        and rows["full"]["empowerment_median"] > rows["no_protocol"]["empowerment_median"]
        and rows["constraints_off"]["packaging_defect"] > rows["full"]["packaging_defect"]
        and rows["repair_imperfect"]["packaging_defect"] == 0.0
        and rows["repair_imperfect"]["empowerment_median"] < rows["full"]["empowerment_median"]
        and rows["learn_on"]["n_states"] == 2 * rows["full"]["n_states"]
        and timings["ablations"] < 60.0
    )
    table = {name: (r["kernel_size"], round(r["empowerment_median"], 3), r["packaging_defect"])
             for name, r in rows.items()}
    report(4, "ablation suite", ok, f"(|K|, emp, defect)={table}, runtime={timings['ablations']:.2f}s")


def test_criterion_5_sweep(timed_records):
    records, timings = timed_records
    m = records["sweep"].metrics
    K = np.array(m["kernel_size_grid"])
    E = np.array(m["empowerment_grid"])
    ok = (
        K.shape == (8, 8)
        and E.shape == (8, 8)
        and bool(np.all(np.diff(K, axis=0) <= 0))
        and bool(np.all(np.diff(K, axis=1) <= 0))
        and K[-1, -1] == 0
        and all(E[i, j] == 0.0 for i in range(8) for j in range(8) if K[i, j] == 0)
        and timings["sweep"] < 300.0
    )
    report(5, "noise-maintenance sweep", ok,
           f"|K| range=[{K.min()}, {K.max()}], emp range=[{E.min():.3f}, {E.max():.3f}], "
           f"runtime={timings['sweep']:.2f}s")


def test_criterion_6_learning(timed_records):
    records, timings = timed_records
    m = records["learning"].metrics
    a, b, c = m["medians"]
    x, y, z = m["control_medians"]
    ok = (a < b < c) and (x == y == z) and timings["learning"] < 30.0
    report(6, "learning monotonicity", ok,
           f"medians={[round(v, 4) for v in (a, b, c)]}, control={[round(v, 4) for v in (x, y, z)]}, "
           f"runtime={timings['learning']:.2f}s")


def test_criterion_7_oracle_equivalences():
    rng = np.random.RandomState(7)

    # (a) greatest fixed point: iterative vs exhaustive subset enumeration
    viability_ok = True
    for _ in range(100):
        k = random_kernel(rng, 6, 2)
        g = random_gate(rng, 6, 2)
        safe = random_safety(rng, 6)
        fast = viability_kernel(k, g, safe).kernel
        slow = brute_force_greatest_fixpoint(k, g, safe)
        if not np.array_equal(fast, slow):
            viability_ok = False
            break

    # (b) Blahut-Arimoto vs dense simplex grid search on small channels
    worst = 0.0
    for _ in range(50):
        m = rng.randint(2, 4)
        cols = rng.randint(2, 5)
        W = rng.dirichlet(np.ones(cols), size=m) * 0.8 + 0.2 / cols
        W = W / W.sum(axis=1, keepdims=True)
        ba = channel_capacity(W, tol=1e-10).capacity_bits
        grid = grid_search_capacity(W, step=1e-3)
        worst = max(worst, abs(ba - grid))
    grid_ok = worst <= 1e-4

    # (c) closed-form BSC(0.1) capacity
    bsc = channel_capacity(np.array([[0.9, 0.1], [0.1, 0.9]]), tol=1e-9).capacity_bits
    bsc_ok = abs(bsc - 0.53100) <= 1e-5 and abs(bsc - bsc_capacity(0.1)) <= 1e-9

    report(7, "oracle equivalences", viability_ok and grid_ok and bsc_ok,
           f"viability 100/100={'ok' if viability_ok else 'MISMATCH'}, "
           f"max |BA - grid|={worst:.2e}, BSC={bsc:.6f}")


def test_criterion_8_property_suites():
    rng = np.random.RandomState(8)
    ok = True
    details = []

    # row-stochasticity preservation through stepping and policy closure
    for _ in range(30):
        n, m = rng.randint(2, 9), rng.randint(1, 4)
        k = random_kernel(rng, n, m)
        ok &= validate_kernel(k).ok
        d = rng.dirichlet(np.ones(n))
        steps = pull(predecessor_lists(k, np.arange(n)), d[:, None]).reshape(m, n)
        ok &= bool(np.all(np.abs(steps.sum(axis=1) - 1.0) <= 1e-12))
        mu = Policy(kind="stochastic", table={s: rng.dirichlet(np.ones(m)) for s in range(n)})
        _, closed = policy_successors(k, mu)
        ok &= bool(np.allclose(closed.sum(axis=1), 1.0, atol=1e-12))
    details.append("stochasticity ok")

    # viability operator contraction and monotonicity
    for _ in range(30):
        k = random_kernel(rng, 7, 2)
        g = random_gate(rng, 7, 2)
        safe = random_safety(rng, 7)
        K1 = rng.random(7) < 0.4
        K2 = K1 | (rng.random(7) < 0.4)
        s1, s2 = viability_step(k, g, safe, K1), viability_step(k, g, safe, K2)
        ok &= bool(np.all(~s1 | K1)) and bool(np.all(~s2 | K2))
        ok &= bool(np.all(~s1 | s2))
    details.append("contraction+monotonicity ok")

    # capacity bounds and row-duplication invariance (within certified gaps)
    for _ in range(20):
        rows, cols = rng.randint(2, 6), rng.randint(2, 6)
        W = rng.dirichlet(np.ones(cols), size=rows)
        res = channel_capacity(W, tol=1e-10)
        ok &= -1e-12 <= res.capacity_bits <= np.log2(rows) + 1e-9
        dup = np.vstack([W, W[rng.randint(0, rows)]])
        res_dup = channel_capacity(dup, tol=1e-10)
        ok &= abs(res_dup.capacity_bits - res.capacity_bits) <= res.gap + res_dup.gap + 1e-9
    details.append("capacity bounds+duplication ok")

    # canonical serialization round trip and hash stability across orderings
    tree_a = {"b": [1, 2.5, {"z": None, "a": True}], "a": "x"}
    tree_b = {"a": "x", "b": [1, 2.5, {"a": True, "z": None}]}
    payload = canonical_serialize(tree_a)
    ok &= payload == canonical_serialize(tree_b)
    ok &= canonical_serialize(json.loads(payload.decode())) == payload
    ok &= config_hash(tree_a) == config_hash(tree_b)
    details.append("serialization ok")

    report(8, "property suites", ok, "; ".join(details))


def test_criterion_9_artifact_contract(tmp_path):
    out = tmp_path / "results"
    run_code = main(["run", "all", "--clean", "--out", str(out)])
    audit_code = main(["audit", "--dir", str(out), "--strict"])
    artifacts = sorted(out.glob("*.json"))
    six_written = len(artifacts) == 6

    # plot surface over the freshly written artifacts
    plots_ok = main(["plot", "holonomy", "--dir", str(out), "--format", "csv"]) == 0
    holonomy_rows = (out / "plots" / "holonomy.csv").read_text().strip().splitlines()
    plots_ok &= len(holonomy_rows) == 1 + 10  # 2 regimes x 5 horizons
    plots_ok &= main(["plot", "sweep", "--dir", str(out), "--format", "csv"]) == 0
    sweep_rows = (out / "plots" / "sweep.csv").read_text().strip().splitlines()
    plots_ok &= len(sweep_rows) == 1 + 128  # 2 metrics x 64 cells

    # flip one digit byte inside the config block of one artifact
    victim = artifacts[0]
    raw = victim.read_text(encoding="utf-8")
    start = raw.index('"config":')
    end = raw.index('"config_hash"')
    flipped = None
    for i in range(start, end):
        if raw[i].isdigit():
            flipped = raw[:i] + ("7" if raw[i] != "7" else "3") + raw[i + 1:]
            break
    assert flipped is not None
    victim.write_text(flipped, encoding="utf-8")
    tampered_code = main(["audit", "--dir", str(out), "--strict"])

    ok = run_code == 0 and audit_code == 0 and six_written and plots_ok and tampered_code == 1
    report(9, "artifact contract", ok,
           f"run={run_code}, audit={audit_code}, artifacts={len(artifacts)}, "
           f"plots ok={plots_ok}, tampered audit={tampered_code}")
