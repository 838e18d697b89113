import json
import sys

import numpy as np
import pytest

from agencykit.artifacts import (
    ArtifactRecord,
    audit,
    canonical_serialize,
    config_hash,
    make_artifact,
    to_jsonable,
    write_artifact,
)
from agencykit.empowerment import channel_capacities

# sha256 of "{}" and of '{"a":2,"b":1}', frozen from an independent tool
# (printf '%s' ... | sha256sum)
SHA_EMPTY_OBJECT = "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a"
SHA_SORTED_AB = "d3626ac30a87e6f7a6428233b3c68299976865fa5508e4267c5415c76af7a772"


def random_tree(rng, depth=3):
    if depth == 0 or rng.random() < 0.3:
        kind = rng.randint(0, 5)
        if kind == 0:
            return int(rng.randint(-1000, 1000))
        if kind == 1:
            return float(rng.standard_normal())
        if kind == 2:
            return bool(rng.random() < 0.5)
        if kind == 3:
            return None
        return "".join(chr(rng.randint(97, 123)) for _ in range(rng.randint(0, 6)))
    if rng.random() < 0.5:
        return [random_tree(rng, depth - 1) for _ in range(rng.randint(0, 4))]
    return {
        "".join(chr(rng.randint(97, 123)) for _ in range(rng.randint(1, 6))): random_tree(rng, depth - 1)
        for _ in range(rng.randint(0, 4))
    }


class TestCanonicalSerialize:
    def test_keys_sorted(self):
        assert canonical_serialize({"b": 1, "a": 2}) == b'{"a":2,"b":1}'

    def test_empty_object(self):
        assert canonical_serialize({}) == b"{}"

    def test_mixed_numbers_byte_exact(self):
        assert canonical_serialize({"x": [1, 2.5]}) == b'{"x":[1,2.5]}'

    def test_int_and_float_kinds_distinct(self):
        assert canonical_serialize({"v": 2}) == b'{"v":2}'
        assert canonical_serialize({"v": 2.0}) == b'{"v":2.0}'

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            canonical_serialize({"x": float("nan")})
        with pytest.raises(ValueError):
            canonical_serialize({"x": float("inf")})
        with pytest.raises(ValueError, match=r"non-finite number at \$\.x\[1\]"):
            canonical_serialize({"x": np.array([0.5, np.nan])})

    def test_unsupported_kind_rejected(self):
        with pytest.raises(ValueError):
            canonical_serialize({"x": {1, 2}})

    def test_non_string_key_rejected(self):
        with pytest.raises(ValueError):
            canonical_serialize({1: "x"})
        with pytest.raises(ValueError, match="non-string map key"):
            to_jsonable({"a": {1: "x"}})

    def test_round_trip_stable(self, rng):
        for _ in range(50):
            tree = random_tree(rng)
            payload = canonical_serialize(tree)
            parsed = json.loads(payload.decode("utf-8"))
            assert canonical_serialize(parsed) == payload


class TestConfigHash:
    def test_empty_object_hash_matches_external_tool(self):
        assert config_hash({}) == SHA_EMPTY_OBJECT

    def test_sorted_payload_hash_matches_external_tool(self):
        assert config_hash({"b": 1, "a": 2}) == SHA_SORTED_AB

    def test_key_order_irrelevant(self):
        assert config_hash({"a": 2, "b": 1}) == config_hash({"b": 1, "a": 2})

    def test_value_change_changes_hash(self):
        assert config_hash({"a": 2}) != config_hash({"a": 3})

    def test_shape(self):
        h = config_hash({"a": 1})
        assert len(h) == 64
        assert h == h.lower()


class TestToJsonable:
    def test_numpy_scalars_and_arrays(self):
        out = to_jsonable({"a": np.int64(3), "b": np.float64(0.5), "c": np.arange(3),
                           "d": np.bool_(True)})
        assert out == {"a": 3, "b": 0.5, "c": [0, 1, 2], "d": True}
        canonical_serialize(out)
        # canonical_serialize converts numpy values and tuples itself
        tree = {"t": (1, np.float64(0.5)), "a": np.arange(2), "b": np.bool_(False)}
        assert canonical_serialize(tree) == b'{"a":[0,1],"b":false,"t":[1,0.5]}'


class TestWriteArtifact:
    def test_write_and_round_trip(self, tmp_path):
        record = make_artifact("demo", {"n": 3}, {"value": 1.5})
        path = write_artifact(record, tmp_path)
        assert path.name == f"demo_{record.config_hash[:12]}.json"
        parsed = json.loads(path.read_text())
        assert parsed["config"] == {"n": 3}
        assert parsed["metrics"] == {"value": 1.5}

    def test_tampered_hash_refused(self, tmp_path):
        record = make_artifact("demo", {"n": 3}, {})
        bad = ArtifactRecord(
            artifact_type=record.artifact_type,
            config=record.config,
            config_hash="0" * 64,
            metrics=record.metrics,
            created_at_utc=record.created_at_utc,
            versions=record.versions,
        )
        with pytest.raises(ValueError):
            write_artifact(bad, tmp_path)

    def test_rewrite_idempotent_bytes(self, tmp_path):
        record = make_artifact("demo", {"n": 3}, {"value": [1, 2]})
        p1 = write_artifact(record, tmp_path)
        first = p1.read_bytes()
        p2 = write_artifact(record, tmp_path)
        assert p1 == p2
        assert p2.read_bytes() == first


class TestAudit:
    def _write(self, tmp_path, artifact_type="demo", config=None, metrics=None):
        record = make_artifact(artifact_type, config or {"n": 1}, metrics or {"v": 1})
        return write_artifact(record, tmp_path), record

    def test_fresh_directory_passes(self, tmp_path):
        self._write(tmp_path)
        report = audit(tmp_path, strict=True)
        assert report.passed
        assert report.files_checked == 1

    def test_tampered_config_fails_hash_check(self, tmp_path):
        path, _ = self._write(tmp_path)
        doc = json.loads(path.read_text())
        doc["config"]["n"] = 999
        path.write_text(json.dumps(doc))
        report = audit(tmp_path, strict=False)
        assert not report.passed
        assert any(rule == "config_hash_mismatch" for _, rule, _ in report.failures)

    def test_bad_distribution_fails_stochasticity(self, tmp_path):
        self._write(tmp_path, metrics={"out_distribution": [1.2, -0.2]})
        report = audit(tmp_path)
        assert any(rule == "stochasticity" for _, rule, _ in report.failures)

    def test_bad_row_sums_fail(self, tmp_path):
        self._write(tmp_path, metrics={"w_rows": [[0.5, 0.4], [0.5, 0.5]]})
        report = audit(tmp_path)
        assert any(rule == "stochasticity" for _, rule, _ in report.failures)
        # the sum is a plain float in the detail, not a numpy repr
        assert any("row sum 0.9 deviates from 1" in detail for _, _, detail in report.failures)

    def test_good_probability_objects_pass(self, tmp_path):
        self._write(tmp_path, metrics={"out_distribution": [0.25, 0.75],
                                       "w_rows": [[0.5, 0.5], [1.0, 0.0]]})
        assert audit(tmp_path).passed

    def test_missing_field_fails(self, tmp_path):
        path, _ = self._write(tmp_path)
        doc = json.loads(path.read_text())
        del doc["versions"]
        path.write_text(json.dumps(doc))
        report = audit(tmp_path)
        assert any(rule == "missing_fields" for _, rule, _ in report.failures)

    def test_unreadable_file_is_failure_entry(self, tmp_path):
        (tmp_path / "broken.json").write_text("{not json")
        report = audit(tmp_path)
        assert report.files_checked == 1
        assert any(rule == "unreadable" for _, rule, _ in report.failures)

    def test_filename_mismatch_strictness(self, tmp_path):
        path, _ = self._write(tmp_path)
        renamed = tmp_path / "demo_wrongname.json"
        path.rename(renamed)
        strict = audit(tmp_path, strict=True)
        loose = audit(tmp_path, strict=False)
        assert any(rule == "filename_hash_prefix" for _, rule, _ in strict.failures)
        assert loose.passed
        assert any(rule == "filename_hash_prefix" for _, rule, _ in loose.warnings)

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            audit(tmp_path / "nope")

    def test_ragged_rows_are_failure_entry(self, tmp_path):
        self._write(tmp_path, metrics={"foo_rows": [[0.5, 0.5], [1.0]]})
        report = audit(tmp_path)
        assert any(rule == "stochasticity" for _, rule, _ in report.failures)

    def test_non_numeric_distribution_is_failure_entry(self, tmp_path):
        self._write(tmp_path, metrics={"foo_distribution": ["x", "y"]})
        report = audit(tmp_path)
        assert any(rule == "stochasticity" for _, rule, _ in report.failures)

    @pytest.mark.parametrize("value, entry", [
        ([True, False], "[0]: true"), ([0.0, True], "[1]: true"),
        ([[1.0, 0.0], [False, 1]], "[1][0]: false"), (["0.5", "0.5"], '[0]: "0.5"'),
    ], ids=["booleans", "one_boolean", "boolean_row", "numeric_strings"])
    @pytest.mark.parametrize("key", ["x_distribution", "x_rows"])
    def test_entry_that_is_no_json_number_fails(self, tmp_path, key, value, entry):
        # numpy alone reads each of these as a valid distribution or row table
        self._write(tmp_path, metrics={key: value, "nested": {key: value}})
        report = audit(tmp_path)
        assert [detail for _, _, detail in report.failures] == [
            f"$.metrics.nested.{key}{entry} is not a number",
            f"$.metrics.{key}{entry} is not a number"]
        assert {rule for _, rule, _ in report.failures} == {"stochasticity"}

    @pytest.mark.parametrize("key", ["x_distribution", "x_rows"])
    def test_scalar_probability_object_is_failure_entry(self, tmp_path, key):
        self._write(tmp_path, metrics={key: 0.5})
        report = audit(tmp_path)
        assert [rule for _, rule, _ in report.failures] == ["stochasticity"]

    def test_non_string_config_hash_is_failure_entry(self, tmp_path):
        path, _ = self._write(tmp_path)
        doc = json.loads(path.read_text())
        doc["config_hash"] = 12345
        path.write_text(json.dumps(doc))
        report = audit(tmp_path, strict=False)
        assert report.files_checked == 1
        assert any(rule == "config_hash_mismatch" for _, rule, _ in report.failures)

    def test_non_object_file_is_failure_entry(self, tmp_path):
        (tmp_path / "list.json").write_text("[1, 2]")
        (tmp_path / "number.json").write_text("7")
        report = audit(tmp_path)
        assert report.files_checked == 2
        assert [rule for _, rule, _ in report.failures] == ["missing_fields", "missing_fields"]

    TOL = {"capacity_tol_bits": 1e-9}

    def test_gap_above_tolerance_fails(self, tmp_path):
        self._write(tmp_path, config=self.TOL, metrics={"solver": {"max_gap_bits": 3e-9}})
        report = audit(tmp_path)
        assert any(rule == "uncertified_capacity" for _, rule, _ in report.failures)

    def test_gap_within_tolerance_passes(self, tmp_path):
        self._write(tmp_path, config=self.TOL, metrics={"solver": {"max_gap_bits": 1e-9}})
        assert audit(tmp_path).passed

    def test_solver_block_without_a_hashed_tolerance_fails(self, tmp_path):
        self._write(tmp_path, metrics={"solver": {"max_gap_bits": 0.0, "capacity_tol_bits": 1.0}})
        assert [(rule, detail) for _, rule, detail in audit(tmp_path).failures] == [(
            "uncertified_capacity",
            "$.metrics.solver: present, though the config sets no capacity_tol_bits",
        )]

    def test_solver_block_required_by_a_capacity_tolerance(self, tmp_path):
        self._write(tmp_path, config={"capacity_tol_bits": 1e-9}, metrics={})
        report = audit(tmp_path)
        assert [(rule, detail) for _, rule, detail in report.failures] == [(
            "uncertified_capacity",
            "$.metrics.solver: missing, though the config sets capacity_tol_bits",
        )]

    def test_malformed_solver_block_fails(self, tmp_path):
        self._write(tmp_path, config=self.TOL, metrics={"solver": {"max_gap_bits": "small"}})
        report = audit(tmp_path)
        assert any(rule == "uncertified_capacity" for _, rule, _ in report.failures)

    @pytest.mark.parametrize("metrics, rule", [
        ({"solver": {"max_gap_bits": "HUGE"}}, "uncertified_capacity"),
        ({"x_distribution": ["HUGE", 0]}, "stochasticity"),
        ({"x_rows": [[0.5, 0.5], [0, "HUGE"]]}, "stochasticity"),
    ], ids=["solver_gap", "distribution_entry", "rows_entry"])
    def test_integer_too_large_for_a_float_is_failure_entry(self, tmp_path, metrics, rule):
        config = self.TOL if "solver" in metrics else None
        path, _ = self._write(tmp_path, config=config, metrics=metrics)
        path.write_text(path.read_text().replace('"HUGE"', str(10**400)))
        report = audit(tmp_path)
        assert [r for _, r, _ in report.failures] == [rule]
        assert "too large" in report.failures[0][2]

    @pytest.mark.parametrize("where", ["parser", "config_walk"])
    def test_deep_nesting_is_failure_entry(self, tmp_path, where):
        # the JSON parser gives up at the recursion limit; shallower nesting
        # still parses and then exhausts the walk that hashes the config
        if where == "parser":
            (tmp_path / "deep.json").write_text("[" * 200000 + "]" * 200000)
        else:
            path, _ = self._write(tmp_path, config={"n": "DEEP"})
            depth = sys.getrecursionlimit() * 2 // 3
            path.write_text(path.read_text().replace('"DEEP"', '{"a":' * depth + "1" + "}" * depth))
        report = audit(tmp_path)
        assert report.files_checked == 1
        assert [rule for _, rule, _ in report.failures] == ["too_deep"]


GOOD = [1.0, 0.0]
# each value is a channel, and also its JSON as an audited x_distribution metric
ROW_TABLE = {
    "nan": [GOOD, [float("nan"), 1.0]],
    "inf": [GOOD, [float("inf"), 0.0]],
    "minus_inf": [GOOD, [float("-inf"), 1.0]],
    "negative_tiny": [GOOD, [-1e-12, 1.0]],
    "negative_zero": [GOOD, [-0.0, 1.0]],
    "sum_off_5e-10": [GOOD, [0.5, 0.5 + 5e-10]],
    "sum_off_2e-9": [GOOD, [0.5, 0.5 + 2e-9]],
    "ragged": [GOOD, [1.0]],
    "scalar": 1.0,
    "empty": np.empty((0, 2)),
}


@pytest.mark.parametrize("table", ROW_TABLE.values(), ids=ROW_TABLE.keys())
def test_audit_and_channels_share_one_row_rule(tmp_path, table):
    """``audit`` accepts a stored row table exactly when ``channel_capacities`` accepts it.

    JSON has no NaN, so the audit refuses that file when parsing it; an
    infinity is written as 1e400, which parses to one.
    """
    try:
        channel_capacities([table])
        accepted = True
    except ValueError:
        accepted = False
    path = write_artifact(make_artifact("demo", {"n": 1}, {"x_distribution": "ROWS"}), tmp_path)
    rows = json.dumps(table.tolist() if isinstance(table, np.ndarray) else table)
    path.write_text(path.read_text().replace('"ROWS"', rows.replace("Infinity", "1e400")))
    assert audit(tmp_path).passed == accepted
