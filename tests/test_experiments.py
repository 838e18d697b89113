import pytest

from agencykit.artifacts import canonical_serialize
from agencykit.experiments import (
    EXHIBITS,
    ablation_configs,
    contracts_passed,
    run_exhibit,
    run_learning,
    run_nulls,
    run_packaging,
    run_sweep,
)


class TestRunnerBasics:
    def test_unknown_exhibit_rejected(self):
        with pytest.raises(ValueError):
            run_exhibit("bogus")

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            run_exhibit("packaging", profile="nope")

    @pytest.mark.parametrize("name", ["nulls", "packaging", "learning", "sweep", "ablations"])
    def test_record_shape_and_contracts(self, name):
        record = run_exhibit(name)
        assert record.artifact_type == name
        assert set(record.metrics["contracts"]) >= {next(iter(record.metrics["contracts"]))}
        assert contracts_passed(record)
        # config identity is reproducible
        assert len(record.config_hash) == 64
        if name != "nulls":
            assert "state_layout" in record.metrics
        if name != "packaging":
            solver = record.metrics["solver"]
            assert set(solver) == {
                "max_gap_bits", "solves", "iterations_total", "iterations_max",
                "capacity_tol_bits",
            }
            assert 0.0 <= solver["max_gap_bits"] <= solver["capacity_tol_bits"]
            assert 1 <= solver["iterations_max"] <= solver["iterations_total"]
            assert solver["solves"] >= 1
            assert "solver" not in record.metrics["contracts"]

    def test_exhibit_list_matches_runners(self):
        # run order, which `agencykit run all` follows
        assert EXHIBITS == ("packaging", "nulls", "holonomy", "ablations", "sweep", "learning")


class TestDeterminism:
    @pytest.mark.parametrize("runner", [run_nulls, run_packaging, run_sweep, run_learning])
    def test_metrics_byte_identical_across_runs(self, runner):
        a, b = runner(), runner()
        assert canonical_serialize(a.metrics) == canonical_serialize(b.metrics)
        assert a.config_hash == b.config_hash

    # config hashes of `agencykit run all`: a change to any exhibit's config
    # fails here, so config drift is always deliberate
    @pytest.mark.parametrize("name, expected", [
        ("packaging", "4449371cd6d28ecbd33830092709fcf095cb6d20a5b4efc94e8a6ca4551a706a"),
        ("nulls", "7d0e5251123822cfa4a79fbff620413107abfcd060dd8145c5e8aadef6dc69d4"),
        ("holonomy", "a5c4b6619313dc24f5eac83ea12c8afc5742c15ab4483f7840cd9cfe1f9a72d8"),
        ("ablations", "f469541d6aa24e4d415baf0323ef4223ee7c2b8e8de0a6971e39189442947905"),
        ("sweep", "c4ffeea0289581c627ccb5db988cf23907914fff1c025fc00154135b0fd90380"),
        ("learning", "b31597db1e36f80f3461df28933e9a3a5671be352533fd691b6d4b1ddb89eec8"),
    ])
    def test_config_hash_pinned(self, name, expected):
        assert run_exhibit(name).config_hash == expected


class TestExhibitNumbers:
    def test_nulls_table_values(self):
        m = run_nulls().metrics
        assert all(v == 0.0 for v in m["null_a"].values())
        assert m["null_b"]["wrong"] == pytest.approx(1.0, abs=1e-6)
        assert m["null_b"]["right"] == pytest.approx(0.0, abs=1e-6)
        assert m["solver"]["solves"] == 5

    def test_packaging_defect_profile(self):
        m = run_packaging().metrics
        i2 = m["tau_grid"].index(2)
        assert m["defect"]["repair_on"][i2] == 0.0
        assert m["defect"]["repair_off"][i2] >= 0.9
        assert m["defect"]["repair_on"][0] == 0.0
        assert m["defect"]["repair_off"][0] == 0.0

    def test_ablation_config_names(self):
        assert set(ablation_configs("paper")) == {
            "constraints_off", "full", "high_noise", "learn_on",
            "no_protocol", "no_repair", "repair_imperfect",
        }

    def test_sweep_grid_shapes(self):
        m = run_sweep().metrics
        assert len(m["kernel_size_grid"]) == 8
        assert all(len(row) == 8 for row in m["kernel_size_grid"])
        assert len(m["empowerment_grid"]) == 8
        assert m["kernel_size_min"] == 0

    def test_learning_medians_monotone(self):
        m = run_learning().metrics
        a, b, c = m["medians"]
        assert a < b < c
        x, y, z = m["control_medians"]
        assert x == y == z

    def test_holonomy_certificate_and_witness(self):
        m = run_exhibit("holonomy").metrics
        assert 0.0 < m["solver"]["max_gap_bits"] <= m["solver"]["capacity_tol_bits"]
        assert "witness_alpha_on_distribution" not in m
        assert len(m["witness"]["protocol_on"]["alpha_output_distribution"]) == 16
