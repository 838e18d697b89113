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
        ("packaging", "3b59540ca6e01551da322d13285b77ee8fd762cf9fc1596aca438f342087c38c"),
        ("nulls", "7d0e5251123822cfa4a79fbff620413107abfcd060dd8145c5e8aadef6dc69d4"),
        ("holonomy", "b331b5be93eb9766571af204ccf9436e713bd6ac94e160ccb7662f5c1920dcd9"),
        ("ablations", "e3de9b31a7d8b45872a73c3f91eccc47a0552fb27301d3fb19b40cc491f092df"),
        ("sweep", "96cb699425f2a6399f5ccfe4509567d1b15729007c7fd9bedc1c17ae39d5c579"),
        ("learning", "63d3b5cdf976cbb5aa9054410c17e23cdaea3831e074084b7f16943300a9b2db"),
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
