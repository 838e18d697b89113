import csv
import json
import xml.etree.ElementTree as ET

import pytest

from agencykit.artifacts import audit
from agencykit.cli import main


class TestRun:
    def test_unknown_exhibit_usage_error(self, tmp_path, capsys):
        assert main(["run", "bogus", "--out", str(tmp_path)]) == 2

    def test_run_nulls_writes_artifact_and_copy(self, tmp_path, capsys):
        code = main(["run", "nulls", "--out", str(tmp_path)])
        assert code == 0
        hashed = list(tmp_path.glob("nulls_*.json"))
        assert len(hashed) == 1
        assert (tmp_path / "generated" / "nulls.json").exists()
        out = capsys.readouterr().out
        assert "[pass] nulls" in out

    def test_clean_removes_previous_results(self, tmp_path):
        stale = tmp_path / "stale.json"
        tmp_path.mkdir(exist_ok=True)
        stale.write_text("{}")
        assert main(["run", "nulls", "--clean", "--out", str(tmp_path)]) == 0
        assert not stale.exists()

    def test_empty_out_variable_counts_as_unset(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("AGENCYKIT_OUT", "")
        (tmp_path / "precious.txt").write_text("keep")
        assert main(["run", "nulls", "--clean"]) == 0
        assert (tmp_path / "precious.txt").read_text() == "keep"
        assert len(list((tmp_path / "results").glob("nulls_*.json"))) == 1

    @pytest.mark.parametrize("out", [".", "..", "sub/.."])
    def test_clean_refuses_the_working_directory_and_its_ancestors(self, tmp_path, monkeypatch,
                                                                   capsys, out):
        # ".." stays inside tmp_path: the working directory is one level down
        work = tmp_path / "work"
        (work / "sub").mkdir(parents=True)
        (work / "precious.txt").write_text("keep")
        monkeypatch.chdir(work)
        assert main(["run", "nulls", "--clean", "--out", out]) == 2
        assert "--clean" in capsys.readouterr().err
        assert (work / "precious.txt").read_text() == "keep"
        assert sorted(p.name for p in work.iterdir()) == ["precious.txt", "sub"]

    def test_rerun_produces_identical_filenames(self, tmp_path):
        assert main(["run", "packaging", "--out", str(tmp_path)]) == 0
        first = sorted(p.name for p in tmp_path.glob("packaging_*.json"))
        assert main(["run", "packaging", "--out", str(tmp_path)]) == 0
        second = sorted(p.name for p in tmp_path.glob("packaging_*.json"))
        assert first == second


class TestAudit:
    def test_audit_after_run_passes(self, tmp_path, capsys):
        assert main(["run", "nulls", "--out", str(tmp_path)]) == 0
        assert main(["audit", "--dir", str(tmp_path), "--strict"]) == 0

    def test_audit_missing_dir_usage_error(self, tmp_path):
        assert main(["audit", "--dir", str(tmp_path / "missing")]) == 2

    def test_audit_empty_dir_warns_but_passes(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["audit", "--dir", str(empty)]) == 0
        out = capsys.readouterr().out
        assert "files_checked" not in out
        assert "no artifacts found" in out

    def test_audit_tampered_artifact_fails(self, tmp_path, capsys):
        assert main(["run", "nulls", "--out", str(tmp_path)]) == 0
        victim = next(tmp_path.glob("nulls_*.json"))
        doc = json.loads(victim.read_text())
        doc["config"]["horizon_null_b"] = 99
        victim.write_text(json.dumps(doc))
        assert main(["audit", "--dir", str(tmp_path), "--strict"]) == 1
        assert "config_hash_mismatch" in capsys.readouterr().out


class TestPlot:
    def test_plot_without_artifact_usage_error(self, tmp_path):
        tmp_path.mkdir(exist_ok=True)
        assert main(["plot", "packaging", "--dir", str(tmp_path)]) == 2

    def test_plot_unknown_exhibit(self, tmp_path):
        assert main(["plot", "bogus", "--dir", str(tmp_path)]) == 2

    def test_packaging_csv_rows(self, tmp_path):
        assert main(["run", "packaging", "--out", str(tmp_path)]) == 0
        assert main(["plot", "packaging", "--dir", str(tmp_path), "--format", "csv"]) == 0
        lines = (tmp_path / "plots" / "packaging.csv").read_text().strip().splitlines()
        assert lines[0] == "series,x,y"
        assert len(lines) == 1 + 10  # 2 regimes x 5 tau values

    def test_packaging_svg_two_polylines(self, tmp_path):
        assert main(["run", "packaging", "--out", str(tmp_path)]) == 0
        assert main(["plot", "packaging", "--dir", str(tmp_path), "--format", "svg"]) == 0
        svg = (tmp_path / "plots" / "packaging.svg").read_text()
        root = ET.fromstring(svg)
        polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
        assert len(polylines) == 2

    def test_nulls_csv_rows(self, tmp_path):
        assert main(["run", "nulls", "--out", str(tmp_path)]) == 0
        assert main(["plot", "nulls", "--dir", str(tmp_path), "--format", "csv"]) == 0
        lines = (tmp_path / "plots" / "nulls.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 5

    def test_nulls_series_follow_the_artifact_horizons(self, tmp_path):
        assert main(["run", "nulls", "--out", str(tmp_path)]) == 0
        stable = tmp_path / "generated" / "nulls.json"
        doc = json.loads(stable.read_text())
        doc["metrics"]["null_a"]["H4"] = 0.25
        # metrics are not hashed, so the edited copy is still its artifact's bytes
        for path in (stable, *tmp_path.glob("nulls_*.json")):
            path.write_text(json.dumps(doc))
        assert main(["plot", "nulls", "--dir", str(tmp_path), "--format", "csv"]) == 0
        lines = (tmp_path / "plots" / "nulls.csv").read_text().strip().splitlines()
        assert [line for line in lines if line.startswith("null_a,")] == [
            "null_a,1,0.0", "null_a,2,0.0", "null_a,3,0.0", "null_a,4,0.25",
        ]

    def test_unreadable_stable_copy_falls_back_to_hashed(self, tmp_path):
        assert main(["run", "packaging", "--out", str(tmp_path)]) == 0
        assert list(tmp_path.glob("packaging_*.json"))
        (tmp_path / "generated" / "packaging.json").write_text("{broken")
        assert main(["plot", "packaging", "--dir", str(tmp_path), "--format", "csv"]) == 0
        lines = (tmp_path / "plots" / "packaging.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 10

    def test_tampered_stable_copy_falls_back_to_hashed(self, tmp_path):
        # audit fails a copy that is not its artifact's bytes, so plot skips it
        assert main(["run", "learning", "--out", str(tmp_path)]) == 0
        stable = tmp_path / "generated" / "learning.json"
        doc = json.loads(stable.read_text())
        medians = doc["metrics"]["medians"]
        doc["metrics"]["medians"] = [9.0, 8.0, 7.0]
        stable.write_text(json.dumps(doc))
        assert not audit(tmp_path).passed
        assert main(["plot", "learning", "--dir", str(tmp_path), "--format", "csv"]) == 0
        lines = (tmp_path / "plots" / "learning.csv").read_text().strip().splitlines()
        plotted = [float(line.split(",")[2]) for line in lines if line.startswith("skill_medians,")]
        assert plotted == medians

    def test_non_finite_stable_copy_falls_back_to_hashed(self, tmp_path):
        # audit fails a NaN, so plot counts the copy as unreadable too
        assert main(["run", "nulls", "--out", str(tmp_path)]) == 0
        stable = tmp_path / "generated" / "nulls.json"
        doc = json.loads(stable.read_text())
        doc["metrics"]["null_a"]["H1"] = float("nan")
        stable.write_text(json.dumps(doc))
        assert main(["plot", "nulls", "--dir", str(tmp_path), "--format", "csv"]) == 0
        lines = (tmp_path / "plots" / "nulls.csv").read_text().strip().splitlines()
        assert "null_a,1,0.0" in lines and not any("nan" in line for line in lines)

    HOSTILE = ("<script>alert(1)</script>,x\ny", 'q"u\ro,te')

    def hostile_ablations(self, tmp_path):
        """An ablations run whose rows gain two names ``audit --strict`` still passes."""
        assert main(["run", "ablations", "--out", str(tmp_path)]) == 0
        stable = tmp_path / "generated" / "ablations.json"
        doc = json.loads(stable.read_text())
        for name in self.HOSTILE:
            doc["metrics"]["rows"][name] = doc["metrics"]["rows"]["full"]
        # metrics are not hashed, so the edited copy is still its artifact's bytes
        for path in (stable, *tmp_path.glob("ablations_*.json")):
            path.write_text(json.dumps(doc))
        assert audit(tmp_path, strict=True).passed
        return sorted(doc["metrics"]["rows"])

    def test_svg_escapes_series_names(self, tmp_path):
        names = self.hostile_ablations(tmp_path)
        assert main(["plot", "ablations", "--dir", str(tmp_path), "--format", "svg"]) == 0
        svg = (tmp_path / "plots" / "ablations.svg").read_text()
        assert "<script" not in svg
        texts = ET.fromstring(svg).findall("{http://www.w3.org/2000/svg}text")
        labels = [t.text for t in texts[1:]]
        # an XML parser reads a CR as a newline
        assert labels == [f"{field}:{name}".replace("\r", "\n")
                          for field in ("defect", "empowerment", "kernel_size") for name in names]

    def test_csv_quotes_series_names(self, tmp_path):
        names = self.hostile_ablations(tmp_path)
        assert main(["plot", "ablations", "--dir", str(tmp_path), "--format", "csv"]) == 0
        with open(tmp_path / "plots" / "ablations.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["series", "x", "y"] and all(len(row) == 3 for row in rows)
        fields = ("kernel_size", "empowerment", "defect")
        assert [row[0] for row in rows[1:]] == [f"{f}:{name}" for name in names for f in fields]

    @pytest.mark.parametrize("fmt", ["csv", "svg"])
    @pytest.mark.parametrize("doc", [
        {"metrics": {}},
        [1, 2],
        {"metrics": {"tau_grid": [], "defect": {"repair_off": [], "repair_on": []}}},
    ], ids=["no_series", "top_level_list", "empty_series"])
    def test_malformed_artifact_usage_error(self, tmp_path, capsys, doc, fmt):
        hashed = tmp_path / "packaging_0123456789ab.json"
        hashed.write_text(json.dumps(doc))
        assert main(["plot", "packaging", "--dir", str(tmp_path), "--format", fmt]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:") and str(hashed) in err[0]
        assert not (tmp_path / "plots" / f"packaging.{fmt}").exists()


    @pytest.mark.parametrize("text", [
        '{"metrics": {"null_a": {"H1": %d, "H2": 0.0, "H3": 0.0},'
        ' "null_b": {"wrong": 1.0, "right": 0.0}}}' % 10**400,
        "[" * 200000 + "]" * 200000,
    ], ids=["integer_too_large_for_a_float", "deep_nesting"])
    def test_unusable_stable_copy_usage_error(self, tmp_path, capsys, text):
        stable = tmp_path / "generated" / "nulls.json"
        stable.parent.mkdir(parents=True)
        stable.write_text(text)
        assert main(["plot", "nulls", "--dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not (tmp_path / "plots" / "nulls.csv").exists()


class TestUsage:
    def test_no_command_prints_usage(self, capsys):
        assert main([]) == 2
