import pytest

from agencykit.artifacts import canonical_serialize
from agencykit.experiments import (
    EXHIBITS,
    MAX_MEDIAN_STATES,
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

    @pytest.mark.parametrize("name", ["nulls", "holonomy", "ablations", "sweep", "learning"])
    def test_config_hashes_solver_settings(self, name):
        # the hashed config covers the settings that produced the medians
        record = run_exhibit(name)
        assert record.config["capacity_tol_bits"] == record.metrics["solver"]["capacity_tol_bits"]
        assert record.config["max_states"] == MAX_MEDIAN_STATES

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
    PINNED_HASHES = {
        "packaging": "f53f834148911e3c782ef0ed4df1b29e7168c641b6a811bc9b30dfb91b3ed9b9",
        "nulls": "b888a599ee552bc65a3a48c7433a4446da9814cb2842a824e4751b1d5048f8cb",
        "holonomy": "2ad6c325af8757767361b9c45494a99f8cd70c65a8a15b8e8517747071be9e56",
        "ablations": "fd55e135e6b3e0d68051062145dca7eedbb849c71f2b35738d456b74cf6bcbe0",
        "sweep": "3245866e143af8fb8431f7ec386d1f3aee8393944c4b102c09923da495d7e8f9",
        "learning": "0ee50283300d4fec4a98633b6d95b089315ea9c503b4588a81cf6837b146bfd9",
    }

    @pytest.mark.parametrize("name", EXHIBITS)
    def test_config_hash_pinned(self, name):
        assert run_exhibit(name).config_hash == self.PINNED_HASHES[name]


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
