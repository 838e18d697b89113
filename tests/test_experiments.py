import numpy as np
import pytest

from agencykit import empowerment
from agencykit.artifacts import canonical_serialize
from agencykit.empowerment import median_empowerment_on_kernel
from agencykit.environments import LEFT, RIGHT, build_ringworld
from agencykit.experiments import (
    ABLATIONS,
    ECONOMY,
    EMPOWERMENT_TOL,
    EXHIBITS,
    MAX_MEDIAN_STATES,
    holonomy_config,
    run_exhibit,
    solver_block,
)
from conftest import count_calls
from oracles import rollout_output_distribution


class TestRunnerBasics:
    def test_unknown_exhibit_rejected(self):
        with pytest.raises(ValueError):
            run_exhibit("bogus")

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown profile 'nope'"):
            holonomy_config("nope", True)

    @pytest.mark.parametrize("name", ["nulls", "packaging", "learning", "sweep", "ablations"])
    def test_record_shape_and_contracts(self, name):
        record = run_exhibit(name)
        assert record.artifact_type == name
        assert set(record.metrics["contracts"]) >= {next(iter(record.metrics["contracts"]))}
        assert all(record.metrics["contracts"].values())
        # config identity is reproducible
        assert len(record.config_hash) == 64
        if name != "nulls":
            assert "state_layout" in record.metrics
        if name != "packaging":
            solver = record.metrics["solver"]
            assert set(solver) == {"max_gap_bits", "solves", "iterations_total", "iterations_max"}
            assert 0.0 <= solver["max_gap_bits"] <= record.config["capacity_tol_bits"]
            assert 1 <= solver["iterations_max"] <= solver["iterations_total"]
            assert solver["solves"] >= 1
            assert "solver" not in record.metrics["contracts"]

    @pytest.mark.parametrize("name", ["nulls", "holonomy", "ablations", "sweep", "learning"])
    def test_config_hashes_solver_settings(self, name):
        # the hashed config covers the settings that produced the medians, and
        # is the only copy of the tolerance that audit bounds the gap by
        record = run_exhibit(name)
        assert record.config["capacity_tol_bits"] == EMPOWERMENT_TOL
        assert record.config["max_states"] == MAX_MEDIAN_STATES
        assert "capacity_tol_bits" not in record.metrics["solver"]

    def test_exhibit_list_matches_runners(self):
        # run order, which `agencykit run all` follows
        assert EXHIBITS == ("packaging", "nulls", "holonomy", "ablations", "sweep", "learning")


class TestDeterminism:
    @pytest.mark.parametrize("name", EXHIBITS, ids=lambda name: f"run_{name}")
    def test_metrics_byte_identical_across_runs(self, name):
        a, b = run_exhibit(name), run_exhibit(name)
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

    # solver blocks of `agencykit run all`: batching or reordering solves
    # must not change a single solve's iterations or certified gap
    PINNED_SOLVERS = {
        "nulls": (0.0, 5, 2, 1),
        "holonomy": (9.973915027217117e-10, 40, 3030, 313),
        "ablations": (9.558140945387095e-10, 40, 1580, 95),
        "sweep": (9.972875858466068e-10, 88, 4924, 204),
        "learning": (8.143665741755512e-10, 12, 182, 47),
    }

    @pytest.mark.parametrize("name", sorted(PINNED_SOLVERS))
    def test_solver_block_pinned(self, name):
        max_gap_bits, solves, iterations_total, iterations_max = self.PINNED_SOLVERS[name]
        assert run_exhibit(name).metrics["solver"] == {
            "max_gap_bits": max_gap_bits, "solves": solves, "iterations_total": iterations_total,
            "iterations_max": iterations_max,
        }


class TestExhibitNumbers:
    def test_nulls_table_values(self):
        m = run_exhibit("nulls").metrics
        assert all(v == 0.0 for v in m["null_a"].values())
        assert m["null_b"]["wrong"] == pytest.approx(1.0, abs=1e-6)
        assert m["null_b"]["right"] == pytest.approx(0.0, abs=1e-6)
        assert m["solver"]["solves"] == 5

    def test_packaging_defect_profile(self):
        m = run_exhibit("packaging").metrics
        i2 = m["tau_grid"].index(2)
        assert m["defect"]["repair_on"][i2] == 0.0
        assert m["defect"]["repair_off"][i2] >= 0.9
        assert m["defect"]["repair_on"][0] == 0.0
        assert m["defect"]["repair_off"][0] == 0.0

    def test_ablation_config_names(self):
        assert set(ABLATIONS) == {
            "constraints_off", "full", "high_noise", "learn_on",
            "no_protocol", "no_repair", "repair_imperfect",
        }

    def test_sweep_grid_shapes(self):
        m = run_exhibit("sweep").metrics
        assert len(m["kernel_size_grid"]) == 8
        assert all(len(row) == 8 for row in m["kernel_size_grid"])
        assert len(m["empowerment_grid"]) == 8
        assert m["kernel_size_min"] == 0

    def test_sweep_solves_all_cells_in_one_capacity_call(self, monkeypatch):
        calls = count_calls(monkeypatch, empowerment, "channel_capacities")
        record = run_exhibit("sweep")
        assert len(calls) == 1 and record.metrics["solver"]["solves"] == 88
        # the config still names what a built environment carries
        env = build_ringworld(ECONOMY)
        assert record.metrics["state_layout"] == ECONOMY.state_layout
        assert record.config["safety"] == env.safety_coherent.name
        assert record.config["output_lens"] == env.output_lens.name

    # (channel_capacities calls, predecessor_lists builds) of each exhibit: one
    # solver pass per exhibit (per regime for holonomy), and one pair of lists
    # over its reachable region per median that rolls out, plus a pair per
    # holonomy witness build_channel
    WORK = {"packaging": (0, 0), "nulls": (2, 10), "holonomy": (2, 24), "ablations": (1, 10),
            "sweep": (1, 44), "learning": (1, 12)}

    @pytest.mark.parametrize("name", EXHIBITS)
    def test_solver_work_pinned(self, name, monkeypatch):
        solves = count_calls(monkeypatch, empowerment, "channel_capacities")
        builds = count_calls(monkeypatch, empowerment, "predecessor_lists")
        run_exhibit(name)
        assert (len(solves), len(builds)) == self.WORK[name]

    def test_learning_medians_monotone(self):
        m = run_exhibit("learning").metrics
        a, b, c = m["medians"]
        assert a < b < c
        x, y, z = m["control_medians"]
        assert x == y == z

    def test_holonomy_certificate_and_witness(self):
        record = run_exhibit("holonomy")
        m = record.metrics
        assert 0.0 < m["solver"]["max_gap_bits"] <= record.config["capacity_tol_bits"]
        assert "witness_alpha_on_distribution" not in m
        assert len(m["witness"]["protocol_on"]["alpha_output_distribution"]) == 16

    def test_holonomy_witness_rows_are_single_column_rollouts(self):
        # the witness reads two rows of the start state's H=2 channel; each
        # must be its sequence's one-column rollout, bit for bit
        witness = run_exhibit("holonomy").metrics["witness"]
        for regime, protocol_on in (("protocol_on", True), ("protocol_off", False)):
            env = build_ringworld(holonomy_config("paper", protocol_on))
            w = witness[regime]
            for name, seq in (("alpha", (RIGHT, LEFT)), ("beta", (LEFT, RIGHT))):
                out = rollout_output_distribution(env.kernel, w["start_state"], seq,
                                                  env.output_lens)
                assert np.array(w[f"{name}_output_distribution"]).tobytes() == out.tobytes()

    def test_solver_block_of_empty_medians(self):
        env = build_ringworld(holonomy_config("paper", True))
        empty = median_empowerment_on_kernel(
            env.kernel, env.gate, np.zeros(env.n_states, bool), 2, env.output_lens
        )
        assert solver_block([empty, empty]) == {
            "max_gap_bits": 0.0, "solves": 0, "iterations_total": 0, "iterations_max": 0,
        }
