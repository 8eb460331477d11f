"""Benchmark harness: run suite cases, median timings, expected matching."""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Optional

from .frontend import (
    load_library,
    prepare_problem,
    render_surface,
    solution_matches,
    surface_term,
)
from .synth import SynthConfig, Synthesizer


def run_case(case: dict, base_dir: Path, defaults: dict) -> dict:
    """One case: three runs, median time to first solution, expected-set
    matching modulo a consistent parameter permutation."""
    lib = load_library(base_dir / p for p in case["libs"])
    session_lib, query = prepare_problem(lib, case["query"])
    cfg_kwargs = {
        "variant": case.get("variant", defaults.get("variant", "tygarqb")),
        "bound": case.get("bound", defaults.get("bound", 10)),
        "max_len": case.get("max_len", defaults.get("max_len", 6)),
        "max_solutions": case.get("solutions", defaults.get("solutions", 5)),
        "timeout_s": case.get("timeout", defaults.get("timeout", 60.0)),
    }
    times = []
    result = None
    for _ in range(3):
        result = Synthesizer(session_lib, query,
                             SynthConfig(**cfg_kwargs)).run()
        times.append(result.solutions[0].millis if result.solutions
                     else None)
    solved = [t for t in times if t is not None]
    median = statistics.median(solved) if len(solved) == len(times) else None
    rendered = [render_surface(surface_term(s.nf, result.lib, query))
                for s in result.solutions]
    matches = []
    for expected in case.get("expected", []):
        rank = next((s.rank for s in result.solutions
                     if solution_matches(s.nf, expected, result.lib, query)),
                    None)
        matches.append({"expected": expected, "rank": rank})
    return {
        "id": case["id"],
        "variant": cfg_kwargs["variant"],
        "status": result.status,
        "median_millis": round(median, 3) if median is not None else None,
        "solutions": rendered,
        "matches": matches,
        "matched": all(m["rank"] is not None for m in matches),
    }


def run_bench(suite_path, defaults: Optional[dict] = None) -> dict:
    """Run every case in a suite file; per-case errors are recorded and
    the run continues."""
    suite_path = Path(suite_path)
    suite = json.loads(suite_path.read_text())
    defaults = {**suite.get("defaults", {}), **(defaults or {})}
    report = {"suite": str(suite_path), "cases": []}
    for case in suite.get("cases", []):
        try:
            report["cases"].append(run_case(case, suite_path.parent, defaults))
        except Exception as e:
            report["cases"].append({
                "id": case.get("id", "?"),
                "status": "error",
                "error": f"{type(e).__name__}: {e}",
            })
    return report


def format_table(report: dict) -> str:
    rows = [("case", "variant", "status", "median ms", "matched")]
    for c in report["cases"]:
        rows.append((
            str(c.get("id")),
            str(c.get("variant", "-")),
            str(c.get("status")),
            str(c.get("median_millis", "-")),
            str(c.get("matched", "-")),
        ))
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths))
             for row in rows]
    lines.insert(1, "-" * len(lines[0]))
    return "\n".join(lines)


def main() -> None:
    p = argparse.ArgumentParser(prog="tygar-bench")
    p.add_argument("suite", help="suite JSON file")
    p.add_argument("--format", choices=["text", "json"], default="text")
    args = p.parse_args()
    report = run_bench(args.suite)
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        print(format_table(report))
    bad = any(c.get("status") == "error" for c in report["cases"])
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
