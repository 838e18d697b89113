"""Command-line entry point: run exhibits, audit results, emit plot data.

Exit codes are a stable contract: 0 success, 1 contract/audit failure,
2 usage error, 3 environment/I-O error. All stdout output is human-readable
text; machine-readable data goes to files only.

The output directory defaults to ``results/`` and can be overridden by the
``AGENCYKIT_OUT`` environment variable (an empty value counts as unset) or the
``--out`` / ``--dir`` flags. ``run --clean`` refuses, with a usage error, an
output directory that is the working directory or one of its ancestors.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from pathlib import Path

from agencykit.artifacts import audit, generated_copy_problem, read_artifact, write_artifact
from agencykit.experiments import EXHIBITS, run_exhibit

EXIT_OK = 0
EXIT_CONTRACT_FAILURE = 1
EXIT_USAGE = 2
EXIT_IO = 3

OUT_ENV_VAR = "AGENCYKIT_OUT"
DEFAULT_OUT = "results"


def _default_out() -> str:
    return os.environ.get(OUT_ENV_VAR) or DEFAULT_OUT


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agencykit",
        description="Exact agency metrics engine: run exhibits, audit artifacts, emit plot data.",
    )
    sub = parser.add_subparsers(dest="command")

    p_run = sub.add_parser("run", help="run one exhibit or all of them")
    p_run.add_argument("exhibit", help=f"one of {', '.join(EXHIBITS)}, or 'all'")
    p_run.add_argument("--clean", action="store_true", help="remove the output dir first")
    p_run.add_argument("--out", default=None, help="output directory (default: results/)")

    p_audit = sub.add_parser("audit", help="verify artifacts against the contract")
    p_audit.add_argument("--dir", default=None, help="artifact directory (default: results/)")
    p_audit.add_argument("--strict", action="store_true",
                         help="treat filename/hash inconsistencies as failures")

    p_plot = sub.add_parser("plot", help="emit plot data for an exhibit artifact")
    p_plot.add_argument("exhibit", help=f"one of {', '.join(EXHIBITS)}")
    p_plot.add_argument("--dir", default=None, help="artifact directory (default: results/)")
    p_plot.add_argument("--format", default="csv", choices=("csv", "svg"))
    return parser


def _cmd_run(args) -> int:
    if args.exhibit != "all" and args.exhibit not in EXHIBITS:
        print(f"error: unknown exhibit {args.exhibit!r}; "
              f"choose from {', '.join(EXHIBITS)} or 'all'", file=sys.stderr)
        return EXIT_USAGE

    out = Path(args.out or _default_out())
    cwd = Path.cwd().resolve()
    if args.clean and out.resolve() in (cwd, *cwd.parents):
        print(f"error: --clean would remove {out}, which holds the working directory",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.clean and out.exists():
            shutil.rmtree(out)
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot prepare output dir {out}: {exc}", file=sys.stderr)
        return EXIT_IO

    names = list(EXHIBITS) if args.exhibit == "all" else [args.exhibit]
    all_passed = True
    for name in names:
        record = run_exhibit(name)
        try:
            path = write_artifact(record, out)
            stable_dir = out / "generated"
            stable_dir.mkdir(exist_ok=True)
            shutil.copyfile(path, stable_dir / f"{name}.json")
        except OSError as exc:
            print(f"error: cannot write artifact for {name}: {exc}", file=sys.stderr)
            return EXIT_IO
        passed = all(record.metrics["contracts"].values())
        all_passed &= passed
        status = "pass" if passed else "FAIL"
        print(f"[{status}] {name}: {path.name}")
        for contract, ok in record.metrics["contracts"].items():
            print(f"    {'ok  ' if ok else 'FAIL'} {contract}")
    return EXIT_OK if all_passed else EXIT_CONTRACT_FAILURE


def _cmd_audit(args) -> int:
    directory = Path(args.dir or _default_out())
    try:
        report = audit(directory, strict=args.strict)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"audited {report.files_checked} file(s) in {directory}")
    if report.files_checked == 0:
        print("warning: no artifacts found")
    for path, rule, detail in report.warnings:
        print(f"  warning [{rule}] {path}: {detail}")
    for path, rule, detail in report.failures:
        print(f"  FAILURE [{rule}] {path}: {detail}")
    print("audit:", "passed" if report.passed else "FAILED")
    return EXIT_OK if report.passed else EXIT_CONTRACT_FAILURE


def _load_exhibit_artifact(directory: Path, exhibit: str) -> tuple[Path, object] | None:
    """The first readable artifact of ``exhibit``, as (path, parsed JSON).

    The stable copy ``generated/<exhibit>.json`` comes first if ``audit``
    would pass it; the hashed ``<exhibit>_*.json`` files follow. Files are
    read as ``audit`` reads them, so a NaN makes one unreadable.
    """
    stable = directory / "generated" / f"{exhibit}.json"
    copies = [stable] if generated_copy_problem(directory, stable) is None else []
    for path in [*copies, *sorted(directory.glob(f"{exhibit}_*.json"))]:
        try:
            return path, read_artifact(path)
        except (OSError, ValueError, RecursionError):
            continue
    return None


def _plot_series(record: dict, exhibit: str) -> list[tuple[str, float, float]]:
    """Flatten an exhibit's headline metrics into (series, x, y) rows."""
    m = record["metrics"]
    rows: list[tuple[str, float, float]] = []
    if exhibit == "packaging":
        for regime in ("repair_off", "repair_on"):
            for tau, d in zip(m["tau_grid"], m["defect"][regime]):
                rows.append((regime, float(tau), float(d)))
    elif exhibit == "holonomy":
        for regime in ("protocol_on", "protocol_off"):
            for h, v in zip(m["horizons"], m[regime]["medians"]):
                rows.append((regime, float(h), float(v)))
    elif exhibit == "nulls":
        rows += sorted(("null_a", float(key.removeprefix("H")), float(v))
                       for key, v in m["null_a"].items())
        rows.append(("null_b_wrong", 1.0, float(m["null_b"]["wrong"])))
        rows.append(("null_b_right", 1.0, float(m["null_b"]["right"])))
    elif exhibit == "learning":
        for theta, v in zip(m["theta_values"], m["medians"]):
            rows.append(("skill_medians", float(theta), float(v)))
        for theta, v in zip(m["theta_values"], m["control_medians"]):
            rows.append(("zero_slip_control", float(theta), float(v)))
    elif exhibit == "ablations":
        names = sorted(m["rows"])
        for i, name in enumerate(names):
            rows.append((f"kernel_size:{name}", float(i), float(m["rows"][name]["kernel_size"])))
            rows.append((f"empowerment:{name}", float(i), float(m["rows"][name]["empowerment_median"])))
            rows.append((f"defect:{name}", float(i), float(m["rows"][name]["packaging_defect"])))
    elif exhibit == "sweep":
        n = len(m["cost_repair_grid"])
        for series, grid in (("kernel_size", "kernel_size_grid"),
                             ("empowerment_median", "empowerment_grid")):
            for i in range(len(m["p_flip_grid"])):
                for j in range(n):
                    rows.append((series, float(i * n + j), float(m[grid][i][j])))
    return rows


def _write_csv(rows: list[tuple[str, float, float]], path: Path) -> None:
    """One ``series,x,y`` line per row, which ``csv.reader`` reads back whatever the names hold."""
    import csv  # at call time, as html below: only plot writes files with them
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        # the writer quotes only its terminator's characters, and a bare CR ends a row too
        quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(("series", "x", "y"))
        for series, x, y in rows:
            (quoted if "\r" in series else writer).writerow((series, f"{x:g}", repr(y)))


def _write_svg(rows: list[tuple[str, float, float]], path: Path, title: str) -> None:
    """Self-contained SVG line plot: one polyline per series, names and title escaped."""
    import html  # at call time: its entity tables take about 0.35 MB, which run and audit never use
    title = html.escape(title)
    width, height, margin = 640, 400, 48
    series: dict[str, list[tuple[float, float]]] = {}
    for name, x, y in rows:
        series.setdefault(name, []).append((x, y))
    xs = [x for _, x, _ in rows]
    ys = [y for _, _, y in rows]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def sx(x: float) -> float:
        return margin + (x - x_lo) / x_span * (width - 2 * margin)

    def sy(y: float) -> float:
        return height - margin - (y - y_lo) / y_span * (height - 2 * margin)

    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<title>{title}</title>',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:g}" y="20" text-anchor="middle" font-family="monospace" '
        f'font-size="14">{title}</text>',
    ]
    for i, (name, pts) in enumerate(sorted(series.items())):
        pts = sorted(pts)
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        color = palette[i % len(palette)]
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{coords}"/>'
        )
        parts.append(
            f'<text x="{margin}" y="{margin + 16 * i:g}" fill="{color}" '
            f'font-family="monospace" font-size="12">{html.escape(name)}</text>'
        )
    parts.append("</svg>")
    path.write_text("\n".join(parts), encoding="utf-8")


def _cmd_plot(args) -> int:
    if args.exhibit not in EXHIBITS:
        print(f"error: unknown exhibit {args.exhibit!r}", file=sys.stderr)
        return EXIT_USAGE
    directory = Path(args.dir or _default_out())
    loaded = _load_exhibit_artifact(directory, args.exhibit)
    if loaded is None:
        print(f"error: no artifact for {args.exhibit!r} under {directory}", file=sys.stderr)
        return EXIT_USAGE
    path, record = loaded
    try:
        rows = _plot_series(record, args.exhibit)
        if not rows:
            raise ValueError("no data rows")
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        print(f"error: malformed artifact {path}: {exc!r}", file=sys.stderr)
        return EXIT_USAGE
    plot_dir = directory / "plots"
    try:
        plot_dir.mkdir(parents=True, exist_ok=True)
        target = plot_dir / f"{args.exhibit}.{args.format}"
        if args.format == "csv":
            _write_csv(rows, target)
        else:
            _write_svg(rows, target, title=args.exhibit)
    except OSError as exc:
        print(f"error: cannot write plot file: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {target} ({len(rows)} data rows)")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "audit":
        return _cmd_audit(args)
    if args.command == "plot":
        return _cmd_plot(args)
    parser.print_usage(sys.stderr)
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
