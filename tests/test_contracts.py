"""Contracts and aggregates are functions of the metrics, and ``audit`` re-derives them.

``run_exhibit`` stores each exhibit's contracts as its ``RUNNERS`` entry
derives them from the JSON-plain metrics; ``audit`` calls the same function
on every stored exhibit artifact, and re-derives each stored aggregate (a
median, a grid's min or max, a defect) from the values it aggregates. These
tests tamper with the artifacts of one ``agencykit run all`` and check that
every tampering becomes a failure entry, never a traceback.
"""

import json
import random
import shutil

import pytest

from agencykit import artifacts
from agencykit.artifacts import audit, canonical_serialize, config_hash
from agencykit.cli import main
from agencykit.experiments import EXHIBITS, RUNNERS, run_exhibit

RULES = {
    "unreadable", "missing_fields", "config_not_serializable", "config_hash_mismatch",
    "stochasticity", "uncertified_capacity", "filename_hash_prefix", "too_deep",
    "missing_metrics", "contract_false", "contract_mismatch", "generated_copy_mismatch",
    "aggregate_mismatch",
}


@pytest.fixture(scope="module")
def run_all(tmp_path_factory):
    out = tmp_path_factory.mktemp("run_all")
    assert main(["run", "all", "--out", str(out)]) == 0
    return out


@pytest.fixture
def results(run_all, tmp_path):
    """The six hashed artifacts of ``run all``, without their generated copies."""
    out = tmp_path / "results"
    out.mkdir()
    for path in run_all.glob("*.json"):
        shutil.copy(path, out)
    return out


def load(out, exhibit):
    path = next(out.glob(f"{exhibit}_*.json"))
    return path, json.loads(path.read_text())


def failures_of(out, path, doc):
    """(rule, detail) of each audit failure of ``doc`` written alone under ``path``'s name."""
    single = out / "single"
    single.mkdir(exist_ok=True)
    for old in single.iterdir():
        old.unlink()
    (single / path.name).write_text(json.dumps(doc))
    return [(rule, detail) for _, rule, detail in audit(single, strict=True).failures]


def rules_of(out, path, doc):
    """Audit rules ``doc`` fails when written alone under ``path``'s name."""
    return [rule for rule, _ in failures_of(out, path, doc)]


@pytest.mark.parametrize("name", EXHIBITS)
def test_stored_contracts_are_derived_from_the_metrics(name):
    record = run_exhibit(name)
    metrics = json.loads(canonical_serialize(record.metrics))
    stored = metrics.pop("contracts")
    assert RUNNERS[name][1](metrics) == stored
    assert all(type(ok) is bool for ok in stored.values())


CONTRACT_EDITS = {
    "flip": lambda c, key: c.__setitem__(key, not c[key]),
    "as_integer": lambda c, key: c.__setitem__(key, int(c[key])),
    "as_string": lambda c, key: c.__setitem__(key, "true"),
    "delete_key": lambda c, key: c.pop(key),
    "extra_key": lambda c, key: c.__setitem__(key + "_extra", True),
}


@pytest.mark.parametrize("edit", CONTRACT_EDITS)
def test_every_contract_edit_is_a_mismatch(results, edit):
    for exhibit in EXHIBITS:
        path, doc = load(results, exhibit)
        for key in doc["metrics"]["contracts"]:
            tampered = json.loads(json.dumps(doc))
            CONTRACT_EDITS[edit](tampered["metrics"]["contracts"], key)
            assert rules_of(results, path, tampered) == ["contract_mismatch"], (exhibit, key)


@pytest.mark.parametrize("block", [None, [], "deleted", {}, [True, True]],
                         ids=["null", "empty_list", "deleted", "empty_object", "list"])
def test_replaced_contract_block_is_a_mismatch(results, block):
    for exhibit in EXHIBITS:
        path, doc = load(results, exhibit)
        if block == "deleted":
            del doc["metrics"]["contracts"]
        else:
            doc["metrics"]["contracts"] = block
        assert rules_of(results, path, doc) == ["contract_mismatch"], exhibit


def _flip_contract(m):
    m["contracts"]["medians_strictly_increase_with_skill"] = False


def _delete_contracts(m):
    del m["contracts"]


def _clear_metrics(m):
    m.clear()


def _reverse_medians(m):
    m["medians"].reverse()


def _delete_solver(m):
    del m["solver"]


@pytest.mark.parametrize("fault, rules", [
    (_flip_contract, {"contract_mismatch"}),
    (_delete_contracts, {"contract_mismatch"}),
    (_clear_metrics, {"missing_metrics", "uncertified_capacity"}),
    (_reverse_medians, {"contract_false", "contract_mismatch", "aggregate_mismatch"}),
    (_delete_solver, {"uncertified_capacity"}),
], ids=["contract_false_stored", "contracts_deleted", "metrics_empty", "medians_reversed",
        "solver_deleted"])
def test_learning_faults_fail_strict_audit(results, capsys, fault, rules):
    assert main(["audit", "--strict", "--dir", str(results)]) == 0
    path, doc = load(results, "learning")
    fault(doc["metrics"])
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["audit", "--strict", "--dir", str(results)]) == 1
    out = capsys.readouterr().out
    assert {rule for rule in RULES if f"[{rule}]" in out} == rules


@pytest.mark.parametrize("name", EXHIBITS)
def test_stored_aggregates_are_rederived_exactly(name):
    metrics = json.loads(canonical_serialize(run_exhibit(name).metrics))
    checked = [(path, json.dumps(stored), json.dumps(new))
               for path, stored, new in RUNNERS[name][2](metrics)]
    assert all(stored == new for _, stored, new in checked)
    assert len(checked) == {"packaging": 10, "holonomy": 10, "sweep": 4, "learning": 3}.get(name, 0)


def _set(doc, path, value):
    node = doc["metrics"]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value(node[path[-1]]) if callable(value) else value


# (exhibit, edited metrics path, new value or function of the old one, the
# path the audit names); the parent audit passed every one of these edits,
# since no contract reads the edited value or flips
AGGREGATE_EDITS = {
    "holonomy_median": ("holonomy", ("protocol_on", "medians", 3), lambda v: v + 0.01,
                        "$.metrics.protocol_on.medians[3]"),
    "holonomy_per_state": ("holonomy", ("protocol_off", "per_state", "H2"), [9.0] * 64,
                           "$.metrics.protocol_off.medians[1]"),
    "holonomy_per_state_empty": ("holonomy", ("protocol_on", "per_state", "H5"), [],
                                 "$.metrics.protocol_on.medians[4]"),
    "learning_median": ("learning", ("medians", 1), 1.6, "$.metrics.medians[1]"),
    "learning_values": ("learning", ("per_theta", "theta2", "values"), [1.0] * 16,
                        "$.metrics.medians[2]"),
    "sweep_kernel_size_min": ("sweep", ("kernel_size_min",), 1, "$.metrics.kernel_size_min"),
    "sweep_kernel_size_max": ("sweep", ("kernel_size_max",), 31, "$.metrics.kernel_size_max"),
    "sweep_empowerment_min": ("sweep", ("empowerment_min",), 0, "$.metrics.empowerment_min"),
    "sweep_empowerment_max": ("sweep", ("empowerment_max",), lambda v: v - 0.5,
                              "$.metrics.empowerment_max"),
    "sweep_grid_cell": ("sweep", ("empowerment_grid", 0, 0), 5.0, "$.metrics.empowerment_max"),
    "packaging_defect": ("packaging", ("defect", "repair_on", 1), 0.5,
                         "$.metrics.defect.repair_on[1]"),
    "packaging_endomap": ("packaging", ("endomaps", "macro_y_r_phi|always_right|tau1", "mapping"),
                          list(range(48)), "$.metrics.defect.repair_off[1]"),
}


@pytest.mark.parametrize("edit", AGGREGATE_EDITS)
def test_every_aggregate_edit_is_a_mismatch(results, edit):
    exhibit, where, value, named = AGGREGATE_EDITS[edit]
    path, doc = load(results, exhibit)
    _set(doc, where, value)
    failures = failures_of(results, path, doc)
    assert [(rule, detail.split(" ")[0]) for rule, detail in failures] == [
        ("aggregate_mismatch", named)]


def test_empty_per_state_list_has_median_zero(results):
    # the medians' convention for an empty kernel set, in both regimes so H1 stays equal
    path, doc = load(results, "holonomy")
    for regime in ("protocol_on", "protocol_off"):
        doc["metrics"][regime]["per_state"]["H1"] = []
        doc["metrics"][regime]["medians"][0] = 0.0
    assert rules_of(results, path, doc) == []


def test_edited_learning_values_and_median_fail_strict_audit(results, capsys):
    # the hashed artifacts of run all, without generated/: sixteen 9.0 values
    # for theta0 and a middle median of 1.6 keep every contract true
    path, doc = load(results, "learning")
    doc["metrics"]["per_theta"]["theta0"]["values"] = [9.0] * 16
    doc["metrics"]["medians"][1] = 1.6
    path.write_text(json.dumps(doc))
    assert main(["audit", "--strict", "--dir", str(results)]) == 1
    out = capsys.readouterr().out
    assert "passed" not in out
    assert out.count("[aggregate_mismatch]") == 2
    assert "$.metrics.medians[0] is 1.5258321346470263, re-derived 9.0" in out
    assert "$.metrics.medians[1] is 1.6, re-derived 1.8182641231590007" in out


def _null_a_list(doc):
    doc["metrics"]["null_a"] = list(doc["metrics"]["null_a"].values())


def _ragged_sweep(doc):
    doc["metrics"]["kernel_size_grid"][3].pop()


def _metrics_list(doc):
    doc["metrics"] = [doc["metrics"]]


def _integer_too_large(doc):
    doc["metrics"]["null_b"]["wrong"] = 10**400


@pytest.mark.parametrize("exhibit, fault, rules", [
    ("nulls", _null_a_list, ["missing_metrics"]),
    ("sweep", _ragged_sweep, ["missing_metrics"]),
    # a list holds no solver block, which the config's capacity_tol_bits requires
    ("learning", _metrics_list, ["uncertified_capacity", "missing_metrics"]),
    ("nulls", _integer_too_large, ["missing_metrics"]),
], ids=["null_a_list", "ragged_sweep_grid", "metrics_list", "integer_too_large"])
def test_unreadable_metrics_are_missing_metrics(results, exhibit, fault, rules):
    path, doc = load(results, exhibit)
    fault(doc)
    assert rules_of(results, path, doc) == rules


@pytest.mark.parametrize("exhibit, where", [
    ("nulls", ("null_b", "wrong")),
    ("nulls", ("null_a", "H1")),
    ("learning", ("medians", 0)),
    ("ablations", ("rows", "full", "kernel_size")),
    ("holonomy", ("protocol_on", "kernel_size")),
])
def test_boolean_metric_is_missing_metrics(results, exhibit, where):
    # true == 1 in Python, so abs(true - 1.0) <= 1e-6 would hold for null_b.wrong
    path, doc = load(results, exhibit)
    node = doc["metrics"]
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = True
    assert rules_of(results, path, doc) == ["missing_metrics"]


def test_audit_walks_each_artifacts_metrics_once(run_all, monkeypatch):
    walks, real = [], artifacts._nodes

    def counting(tree, path="$.metrics"):
        # the walk recurses with explicit child paths, so this counts whole walks
        if path == "$.metrics":
            walks.append(tree)
        return real(tree, path)

    monkeypatch.setattr(artifacts, "_nodes", counting)
    assert audit(run_all, strict=True).passed
    assert len(walks) == len(EXHIBITS)


@pytest.mark.parametrize("tol", [True, False, "1e-09", None, [1e-9]])
def test_rehashed_tolerance_that_is_no_number_fails(results, tol):
    # a JSON boolean would read as 1 or 0 bits
    path, doc = load(results, "learning")
    doc["config"]["capacity_tol_bits"] = tol
    doc["config_hash"] = config_hash(doc["config"])
    renamed = path.with_name(f"learning_{doc['config_hash'][:12]}.json")
    assert rules_of(results, renamed, doc) == ["uncertified_capacity"]


@pytest.mark.parametrize("artifact_type", ["demo", 7, ["learning"], None])
def test_only_exhibit_artifacts_have_contracts(results, artifact_type):
    # empty metrics fail no contract check; the file fails only on its name
    # and on the solver block that its config's capacity_tol_bits requires
    path, doc = load(results, "learning")
    doc["artifact_type"] = artifact_type
    doc["metrics"] = {}
    assert rules_of(results, path, doc) == ["uncertified_capacity", "filename_hash_prefix"]


def _node_paths(tree, prefix=()):
    """Paths of every node below ``tree``, visiting at most three entries per list."""
    items = tree.items() if isinstance(tree, dict) else enumerate(tree[:3])
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _node_paths(child, prefix + (key,))


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


RETYPES = [None, True, 0, 1.5, -0.0, "x", [], {}, [1.0, 2.0], {"a": 1}, 10**400]


def _mutate(rng, doc):
    """Text of ``doc`` after one random swap, delete, retype or byte edit."""
    kind = rng.choice(["swap", "delete", "retype", "byte"])
    paths = list(_node_paths(doc))
    if kind == "swap":
        a, b = rng.sample(paths, 2)
        if a[:len(b)] != b and b[:len(a)] != a:
            pa, pb = _parent(doc, a), _parent(doc, b)
            pa[a[-1]], pb[b[-1]] = pb[b[-1]], pa[a[-1]]
    elif kind == "delete":
        path = rng.choice(paths)
        del _parent(doc, path)[path[-1]]
    elif kind == "retype":
        path = rng.choice(paths)
        _parent(doc, path)[path[-1]] = rng.choice(RETYPES)
    text = json.dumps(doc)
    if kind == "byte":
        i = rng.randrange(len(text))
        text = text[:i] + rng.choice('0123456789.-eE"{}[],:tfn ') + text[i + 1:]
    return text


def test_audit_never_raises_on_mutated_artifacts(run_all, tmp_path):
    rng = random.Random(20261019)
    docs = [(path.name, path.read_text()) for path in sorted(run_all.glob("*.json"))]
    seen = set()
    for _ in range(300):
        name, text = rng.choice(docs)
        for old in tmp_path.iterdir():
            old.unlink()
        (tmp_path / name).write_text(_mutate(rng, json.loads(text)))
        report = audit(tmp_path, strict=True)
        rules = {rule for _, rule, _ in report.failures}
        assert rules <= RULES
        seen |= rules
    # the corpus reaches the contract rules, not only the structural ones
    assert {"missing_metrics", "contract_mismatch", "contract_false", "aggregate_mismatch"} <= seen


@pytest.fixture
def with_copies(run_all, tmp_path):
    out = tmp_path / "results"
    shutil.copytree(run_all, out)
    assert audit(out, strict=True).passed
    return out


def _medians_9_8_7(copy):
    doc = json.loads(copy.read_text())
    doc["metrics"]["medians"] = [9.0, 8.0, 7.0]
    copy.write_text(json.dumps(doc))


def _broken(copy):
    copy.write_text("{broken")


def _holonomy_bytes(copy):
    shutil.copy(next(copy.parents[1].glob("holonomy_*.json")), copy)


def _hashed_file_gone(copy):
    next(copy.parents[1].glob("learning_*.json")).unlink()


@pytest.mark.parametrize("tamper", [_medians_9_8_7, _broken, _holonomy_bytes, _hashed_file_gone],
                         ids=["medians_9_8_7", "unreadable", "other_exhibit", "hashed_file_gone"])
def test_tampered_generated_copy_fails_audit(with_copies, tamper):
    copy = with_copies / "generated" / "learning.json"
    tamper(copy)
    report = audit(with_copies, strict=True)
    assert (str(copy), "generated_copy_mismatch") in {(p, rule) for p, rule, _ in report.failures}
    if tamper is not _hashed_file_gone:
        assert report.files_checked == 6
        assert [rule for _, rule, _ in report.failures] == ["generated_copy_mismatch"]
    assert main(["audit", "--strict", "--dir", str(with_copies)]) == 1


@pytest.mark.parametrize("solver_tol", [1.0, 0.5, 1e300, "1.0", None, "absent"])
def test_gap_is_bounded_by_the_hashed_tolerance_only(with_copies, capsys, solver_tol):
    # the hashed file and its generated copy agree, and a tolerance inside
    # the unhashed solver block is not read, whatever it holds
    path, doc = load(with_copies, "learning")
    solver = doc["metrics"]["solver"]
    solver["max_gap_bits"] = 0.5
    if solver_tol == "absent":
        solver.pop("capacity_tol_bits", None)
    else:
        solver["capacity_tol_bits"] = solver_tol
    for target in (path, with_copies / "generated" / "learning.json"):
        target.write_text(json.dumps(doc))
    report = audit(with_copies, strict=True)
    assert [(rule, detail) for _, rule, detail in report.failures] == [(
        "uncertified_capacity",
        "$.metrics.solver: max_gap_bits 0.5 exceeds the config's capacity_tol_bits 1e-09",
    )]
    capsys.readouterr()
    assert main(["audit", "--strict", "--dir", str(with_copies)]) == 1
    assert "[uncertified_capacity]" in capsys.readouterr().out
