"""Record each workload query's golden from the tygar in this checkout.

    python3 perfbench/record_goldens.py [workload ...]

Runs every query once and stores its status, ordered surface-rendered
solutions and the rank of each expected term in the workload file.
Re-record only when a change to tygar is meant to change its answers.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> None:
    env = run.query_env()
    run.preflight(env)
    for name in sys.argv[1:] or run.WORKLOADS:
        path = run.HERE / "workloads" / name / "workload.json"
        spec = json.loads(path.read_text())
        for q, resolved in zip(spec["queries"], run.load_workload(name)):
            out = run.run_query(resolved, "run", env)
            if "error" in out:
                sys.exit(f"{name}/{q['id']}: {out['error']}")
            q["golden"] = {k: out[k] for k in
                           ("status", "solutions", "expected_ranks")}
            print(f"{name}/{q['id']}: {out['status']}, "
                  f"{len(out['solutions'])} solutions")
        path.write_text(json.dumps(spec, indent=2) + "\n")


if __name__ == "__main__":
    main()
