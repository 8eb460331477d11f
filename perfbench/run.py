"""tygar's benchmark: time to first and to k solutions on fixed query workloads.

    python3 perfbench/run.py --workload refine --seed 1 --seconds 60 --trace 0

Run from the root of a checkout. Each query runs in a fresh process
(`query.py`) through the public API: `load_library`, `prepare_problem`,
then `Synthesizer.run`, with `src` on PYTHONPATH. The load is a closed
loop with one client: the next query starts only after the previous one
and its solver child have exited. The seed shuffles the query order
within each pass; results do not depend on it. Passes repeat while the
next one is expected to end within `--seconds` (at least one runs).

Every result is compared with the golden recorded in the workload file
(status, ordered surface-rendered solutions, rank of each expected
term); a difference, an exception or a timeout counts as a failed run.

With `--trace 0` the last line reports the end-to-end metrics, times
scaled to a reference CPU speed (see `probe`); the line before it gives
them as measured. With `--trace 1` untraced and traced passes alternate,
the traced ones record spans around each layer's public functions, and
the last line reports per-layer sums per pass (median over passes). The
spans are written to `perfbench/out/` when the run ends. Earlier lines
hold one row per query with its medians, quartiles and sample count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("suite", "refine", "enumerate")
SETUP_PASSES = 5        # set-up-only passes per run, before the timed ones
QUERY_GRACE_S = 30.0    # process time allowed beyond a query's own timeout
PROBE_ITERATIONS = 15_000
# The probe's time on an unloaded 2-vCPU Xeon VM; reported times are
# scaled to a machine on which the probe takes this long.
REFERENCE_PROBE_S = 0.030


def load_workload(name: str) -> list:
    """The workload's queries, signature paths made absolute."""
    wdir = HERE / "workloads" / name
    spec = json.loads((wdir / "workload.json").read_text())
    return [dict(q, libs=[str(wdir / lib) for lib in q["libs"]])
            for q in spec["queries"]]


def query_env() -> dict:
    """`src` on PYTHONPATH, so the solver child can import `tygar` too;
    the bundled solver, whatever TYGAR_SOLVER says."""
    env = {k: v for k, v in os.environ.items() if k != "TYGAR_SOLVER"}
    parts = [str(ROOT / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in parts if p)
    return env


def preflight(env: dict) -> None:
    """One solver round trip before timing; stops with the child's stderr."""
    if not (ROOT / "src" / "tygar" / "__init__.py").is_file():
        sys.exit(f"perfbench: no tygar sources under {ROOT / 'src'}")
    proc = subprocess.run(
        [sys.executable, "-m", "tygar.minismt"],
        input="(declare-const x Int)\n(assert (= x 1))\n(check-sat)\n(exit)\n",
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=60)
    if proc.stdout.split()[:1] != ["sat"]:
        sys.exit(f"perfbench: solver round trip failed "
                 f"(exit {proc.returncode}):\n{proc.stderr}")


def run_query(q: dict, mode: str, env: dict) -> dict:
    """Run one query in its own process group; `error` is set on failure."""
    spec = {k: v for k, v in q.items() if k not in ("id", "golden")}
    spec["mode"] = mode
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "query.py"), json.dumps(spec)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env, cwd=ROOT, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=q["timeout_s"] + QUERY_GRACE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, 9)
        proc.communicate()
        return {"error": "query process timed out"}
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}: {err.strip()[-400:]}"}
    return json.loads(out.splitlines()[-1])


def mismatches(q: dict, out: dict) -> list:
    """How a query's result differs from its golden; empty when correct."""
    if "error" in out:
        return [out["error"]]
    golden = q["golden"]
    bad = []
    for key in ("status", "solutions", "expected_ranks"):
        if out[key] != golden[key]:
            bad.append(f"{key}: got {out[key]!r}, golden {golden[key]!r}")
    return bad


def probe() -> float:
    """Seconds a fixed pure-Python loop takes: a gauge of CPU speed now.

    The speed of the machine this benchmark was built on drifts by up to
    1.7x from one minute to the next, as other tenants load the host. The
    probe runs in this process before every query, so a run's median
    probe time tracks the speed the run saw, and timings divided by it
    compare across runs. tygar's code never runs in the probe.
    """
    start = time.perf_counter()
    table: dict = {}
    for i in range(PROBE_ITERATIONS):
        key = ((i * 7919) % 4099, i & 7)
        table[key] = table.get(key, 0) + len(str(i))
    sorted(table.items())
    return time.perf_counter() - start


def quartiles(xs: list) -> tuple:
    """First quartile, median and third quartile."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    return tuple(statistics.quantiles(xs, n=4))


def geomean(xs: list) -> float:
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


class Run:
    """The passes of one benchmark run and what they measured."""

    def __init__(self, name: str, seed: int, env: dict):
        self.name = name
        self.queries = load_workload(name)
        self.rng = random.Random(seed)
        self.env = env
        self.attempted = 0
        self.failures: list = []
        self.setup_sums: list = []
        self.probes: list = []
        self.passes = {"run": [], "trace": []}

    def do_pass(self, mode: str) -> None:
        """All queries once, in a seeded order; records the pass."""
        order = list(self.queries)
        self.rng.shuffle(order)
        wall = 0.0
        results = {}
        for q in order:
            self.probes.append(probe())
            start = time.perf_counter()
            out = run_query(q, mode, self.env)
            wall += time.perf_counter() - start
            results[q["id"]] = out
            if mode == "setup":
                continue
            self.attempted += 1
            bad = mismatches(q, out)
            if mode == "trace" and not bad:
                bad = trace_residual(out)
            if bad:
                self.failures.append((q["id"], mode, bad))
        ok = [r for r in results.values() if "error" not in r]
        if len(ok) == len(results):
            self.setup_sums.append(sum(r["setup_s"] for r in ok))
        if mode != "setup":
            self.passes[mode].append({"wall_s": wall, "results": results})

    def measure(self, seconds: float, traced: bool) -> None:
        start = time.perf_counter()
        if not traced:
            for _ in range(SETUP_PASSES):
                self.do_pass("setup")
        modes = ("run", "trace") if traced else ("run",)
        cycle_walls: list = []
        while True:
            t = time.perf_counter()
            for mode in modes:
                self.do_pass(mode)
            cycle_walls.append(time.perf_counter() - t)
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(cycle_walls) > seconds:
                break

    def samples(self, mode: str, qid: str, key: str) -> list:
        return [p["results"][qid][key] for p in self.passes[mode]
                if "error" not in p["results"][qid]]

    def rows(self, mode: str) -> list:
        out = []
        for q in self.queries:
            fields = [f"row {self.name}/{q['id']} variant={q['variant']} "
                      f"k={q['k']} mode={mode}"]
            for key in ("ttf_ms", "ttk_ms"):
                xs = self.samples(mode, q["id"], key)
                if xs:
                    q1, med, q3 = quartiles(xs)
                    fields.append(f"{key} n={len(xs)} median={med:.3f} "
                                  f"q1={q1:.3f} q3={q3:.3f}")
            out.append("  ".join(fields))
        return out

    def end_to_end(self) -> tuple:
        """Metrics as measured, and with times scaled to the reference
        probe speed; the scaled ones are the run's result."""
        passes = self.passes["run"]
        medians = {key: [statistics.median(xs) for q in self.queries
                         if (xs := self.samples("run", q["id"], key))]
                   for key in ("ttf_ms", "ttk_ms")}
        rss = [max(r.get("maxrss_kb", 0) for r in p["results"].values()) / 1024
               for p in passes]
        raw = {
            "ttf_ms": (geomean(medians["ttf_ms"]), "ms"),
            "ttk_ms": (geomean(medians["ttk_ms"]), "ms"),
            "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
            "setup_s": (statistics.median(self.setup_sums), "s"),
        }
        scale = REFERENCE_PROBE_S / statistics.median(self.probes)
        scaled = {k: (v * scale, u) for k, (v, u) in raw.items()}
        scaled["peak_rss_mb"] = (statistics.median(rss), "MB")
        return raw, scaled

    def per_layer(self) -> dict:
        per_pass = [layer_pass(p["results"].values())
                    for p in self.passes["trace"]]
        metrics = {k: statistics.median(m[k] for m in per_pass)
                   for k in per_pass[0]}
        walls = {mode: statistics.median(p["wall_s"] for p in self.passes[mode])
                 for mode in ("run", "trace")}
        metrics["trace.overhead_s"] = walls["trace"] - walls["run"]
        return {k: (v, layer_unit(k)) for k, v in metrics.items()}

    def write_spans(self) -> Path:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"spans-{self.name}.json"
        dump = [{"pass": i, "query": qid, "spans": r.get("spans", [])}
                for i, p in enumerate(self.passes["trace"])
                for qid, r in p["results"].items()]
        path.write_text(json.dumps(dump))
        return path


def trace_residual(out: dict) -> list:
    """The layers' self times plus the run's own must add up to the run."""
    _, residual = spans.layer_sums(out["spans"])
    if abs(residual) > 1e-6:
        return [f"self times miss the run duration by {residual:.3g} s"]
    return []


def layer_pass(results) -> dict:
    """Per-layer sums over one traced pass."""
    m: dict = {}
    for r in results:
        if "error" in r:
            continue
        sums, _ = spans.layer_sums(r["spans"])
        c = r["counts"]
        for k, v in {
            **sums,
            "synth.iterations": r["iterations"],
            "synth.refinements": r["refinements"],
            "synth.paths": r["paths"],
            "synth.solution_paths": r["solution_paths"],
            "lattice.cover_size": r["cover_size"],
            "atn.places": c["places"],
            "atn.transitions": c["transitions"],
            "reach.encode_kb": c["encode_bytes"] / 1024,
            "smt.sat": c["sat"],
            "minismt.cpu_s": r["solver_cpu_s"],
            "pathgen.candidates": r["candidates"],
            "pathgen.cap_hits": r["cap_hits"],
        }.items():
            m[k] = m.get(k, 0) + v
    paths = m.pop("synth.paths")
    m["synth.solution_path_ratio"] = m.pop("synth.solution_paths") / max(paths, 1)
    m["pathgen.candidates_per_path"] = m["pathgen.candidates"] / max(paths, 1)
    m["smt.sat_ratio"] = m.pop("smt.sat") / max(m["smt.check_sat_calls"], 1)
    m["smt.ipc_overhead_s"] = (m["smt.check_sat_wait_s"] + m["smt.send_s"]
                               - m["minismt.cpu_s"])
    return m


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_kb"):
        return "kB"
    if name.endswith(("_ratio", "_per_path")):
        return "ratio"
    return "count"


def main() -> None:
    p = argparse.ArgumentParser(prog="perfbench")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    env = query_env()
    preflight(env)
    run = Run(args.workload, args.seed, env)
    traced = bool(args.trace)
    run.measure(args.seconds, traced)
    for mode in ("run", "trace") if traced else ("run",):
        print("\n".join(run.rows(mode)))
    if traced:
        print(f"spans written to {run.write_spans().relative_to(ROOT)}")
    for qid, mode, bad in run.failures:
        print(f"FAILED {args.workload}/{qid} ({mode}): {'; '.join(bad)}",
              file=sys.stderr)
    failed = len(run.failures)
    print(f"fail_share {failed}/{run.attempted} = {failed / run.attempted:.3f}")
    if traced:
        metrics = run.per_layer()
    else:
        raw, metrics = run.end_to_end()
        print("as measured: " + "  ".join(f"{k}={v:.4f} {u}"
                                           for k, (v, u) in raw.items())
              + f"  probe_s={statistics.median(run.probes):.5f}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
