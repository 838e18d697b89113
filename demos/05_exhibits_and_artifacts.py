"""End to end: run every exhibit, audit the artifacts, read back the numbers.

Equivalent to the command line

    agencykit run all --clean --out results
    agencykit audit --dir results --strict

but driven through the library so the records can be inspected in memory.
"""

import json
import tempfile
from pathlib import Path

from agencykit.artifacts import audit, write_artifact
from agencykit.experiments import EXHIBITS, run_exhibit

with tempfile.TemporaryDirectory(prefix="agencykit_demo_") as tmp:
    out = Path(tmp)
    print(f"writing artifacts to {out}\n")

    for name in EXHIBITS:
        record = run_exhibit(name)
        path = write_artifact(record, out)
        flag = "pass" if all(record.metrics["contracts"].values()) else "FAIL"
        print(f"[{flag}] {name:10s} -> {path.name}")

    report = audit(out, strict=True)
    print(f"\naudit: {report.files_checked} files, passed = {report.passed}")

    holonomy = json.loads(next(out.glob("holonomy_*.json")).read_text())
    sweep = json.loads(next(out.glob("sweep_*.json")).read_text())

m = holonomy["metrics"]
print("\nmedian feasible empowerment by horizon:")
print("  H      on      off")
for h, on, off in zip(m["horizons"], m["protocol_on"]["medians"],
                      m["protocol_off"]["medians"]):
    print(f"  {h}   {on:.4f}  {off:.4f}")

print("\nviability kernel size over the noise x repair-cost grid:")
for row in sweep["metrics"]["kernel_size_grid"]:
    print("  " + " ".join(f"{v:3d}" for v in row))
