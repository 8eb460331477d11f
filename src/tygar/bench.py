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
from .typecheck import clear_memos

# Suite setting -> the `SynthConfig` field it sets; a setting that
# neither a case nor the suite's defaults give keeps the field's default.
SETTINGS = {"variant": "variant", "bound": "bound", "max_len": "max_len",
            "solutions": "max_solutions", "timeout": "timeout_s"}


def run_case(case: dict, base_dir: Path, defaults: dict) -> dict:
    """One case: three runs, each with empty transformer memos; median
    times to the first solution and to the end of a run, the last run's
    counts, and expected-set matching modulo a consistent parameter
    permutation. A key of the case or the defaults that names no setting
    is an error."""
    given = {**defaults, **case}
    unknown = sorted(set(given) - {"id", "libs", "query", "expected",
                                   *SETTINGS})
    if unknown:
        raise ValueError(f"unknown key(s) {', '.join(map(repr, unknown))}")
    lib = load_library(base_dir / p for p in case["libs"])
    session_lib, query = prepare_problem(lib, case["query"])
    cfg = SynthConfig(**{field: given[key] for key, field in SETTINGS.items()
                         if key in given})
    times, elapsed = [], []
    result = None
    for _ in range(3):
        clear_memos()
        result = Synthesizer(session_lib, query, cfg).run()
        # solutions are ranked by size, not by when they were found
        times.append(min(s.millis for s in result.solutions)
                     if result.solutions else None)
        elapsed.append(result.elapsed_s * 1000.0)
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
        "variant": cfg.variant,
        "status": result.status,
        "reason": result.reason,
        "median_millis": round(median, 3) if median is not None else None,
        "median_elapsed_ms": round(statistics.median(elapsed), 3),
        "iterations": result.iterations,
        "refinements": result.refinements,
        "cover_size": result.cover_size,
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
    keys = ("id", "variant", "status", "median_millis", "matched")
    rows = [("case", "variant", "status", "median ms", "matched")]
    for c in report["cases"]:
        rows.append(tuple("-" if c.get(k) is None else str(c[k]) for k in keys))
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
    bad = any(c.get("status") == "error" or c.get("matched") is False
              for c in report["cases"])
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
