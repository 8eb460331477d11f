"""Run one tygar query in a fresh process and print its result as JSON.

    python3 perfbench/query.py '<query spec as JSON>'

The spec names the signature files, the query text and its settings
(`variant`, `k`, `max_len`, `bound`, `timeout_s`, `expected`), plus
`mode`: `run` (default), `setup` (stop before `Synthesizer.run`) or
`trace` (record spans around each layer's public functions). `src` must
be on PYTHONPATH so the solver child can import `tygar` as well.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main() -> None:
    t0 = time.perf_counter()
    spec = json.loads(sys.argv[1])
    mode = spec.get("mode", "run")
    from tygar import frontend
    from tygar.synth import SynthConfig, Synthesizer

    rec = None
    if mode == "trace":
        import spans

        rec = spans.Recorder()
        spans.install(rec)
    lib = frontend.load_library(spec["libs"])
    session_lib, query = frontend.prepare_problem(lib, spec["query"])
    cfg = SynthConfig(variant=spec["variant"], bound=spec.get("bound", 10),
                      max_len=spec.get("max_len", 6),
                      max_solutions=spec["k"], timeout_s=spec["timeout_s"])
    synth = Synthesizer(session_lib, query, cfg)
    setup_s = time.perf_counter() - t0
    out = {"setup_s": setup_s}
    if mode != "setup":
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        result = synth.run()
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        out.update(_report(spec, result, query, cfg.candidate_cap))
        out["solver_cpu_s"] = (after.ru_utime + after.ru_stime
                               - before.ru_utime - before.ru_stime)
    out["maxrss_kb"] = _peak_rss_kb()
    if rec is not None:
        out["spans"] = [[n, s - t0, e - t0, p] for n, s, e, p in rec.spans]
        out["counts"] = rec.counts
    print(json.dumps(out))


def _peak_rss_kb() -> int:
    """This process's resident-set high-water mark since it was exec'd.

    `ru_maxrss` is not used: Linux carries it over from the parent that
    forked this process, so it would report the size of run.py's process.
    """
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _report(spec: dict, result, query, cap: int) -> dict:
    from tygar import frontend

    sols = result.solutions
    surface = [frontend.render_surface(frontend.surface_term(s.nf, result.lib, query))
               for s in sols]
    ranks = [next((s.rank for s in sols
                   if frontend.solution_matches(s.nf, e, result.lib, query)), None)
             for e in spec.get("expected", [])]
    paths = [e for e in result.events
             if e["kind"] == "iteration" and e["path"] is not None]
    ttk_ms = result.elapsed_s * 1000.0
    return {
        "status": result.status,
        "reason": result.reason,
        "solutions": surface,
        "expected_ranks": ranks,
        "ttf_ms": min((s.millis for s in sols), default=ttk_ms),
        "ttk_ms": ttk_ms,
        "iterations": result.iterations,
        "refinements": result.refinements,
        "cover_size": result.cover_size,
        "paths": len(paths),
        "solution_paths": sum(e["verdict"] == "solution" for e in paths),
        "candidates": sum(len(e["candidates"]) for e in paths),
        "cap_hits": sum(len(e["candidates"]) == cap for e in paths),
    }


if __name__ == "__main__":
    main()
