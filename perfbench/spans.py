"""Span recorder for one query process, and the per-layer sums of its spans.

`install` replaces the public functions each tygar layer exposes with
timing wrappers, in the module where the caller looks each name up (and
in the defining module). Nothing under `src/` changes: the wrappers live
only in the process that installed them. Spans are kept in memory as
`[name, start, end, parent]` rows, `parent` being the index of the
enclosing span or -1.
"""

from __future__ import annotations

import functools
import time


class Recorder:
    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []
        self.counts = {"encode_bytes": 0, "sat": 0, "places": 0,
                       "transitions": 0}

    def call(self, name: str, fn, args: tuple, kwargs: dict):
        idx = len(self.spans)
        row = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(row)
        self._stack.append(idx)
        row[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            row[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            out = self.call(name, orig, args, kwargs)
            if after is not None:
                after(out)
            return out

        setattr(owner, attr, wrapper)

    def wrap_generator(self, owner, attr: str, name: str) -> None:
        """Charge a generator's time to each `next()`, not to its creation."""
        orig = getattr(owner, attr)
        rec = self

        class Timed:
            def __init__(self, it):
                self.it = it

            def __iter__(self):
                return self

            def __next__(self):
                return rec.call(name, next, (self.it,), {})

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            return Timed(orig(*args, **kwargs))

        setattr(owner, attr, wrapper)


def install(rec: Recorder) -> None:
    from tygar import atn, frontend, lattice, pathgen, reach, smt, synth, typecheck

    def on_net(net) -> None:
        rec.counts["places"] = len(net.places)
        rec.counts["transitions"] = len(net.transitions)

    def on_script(text: str) -> None:
        rec.counts["encode_bytes"] += len(text)

    def on_check_sat(sat: bool) -> None:
        rec.counts["sat"] += int(sat)

    rec.wrap(frontend, "load_library", "frontend.load_library")
    rec.wrap(frontend, "prepare_problem", "frontend.prepare_problem")
    rec.wrap(synth.Synthesizer, "run", "synth.run")
    rec.wrap(synth, "refine_all", "synth.refine_all")
    rec.wrap(synth, "build_proof", "synth.build_proof")
    for mod in (synth, lattice):
        rec.wrap(mod, "close_under_meet", "lattice.close_under_meet")
    for mod in (synth, atn):
        rec.wrap(mod, "build_atn", "atn.build_atn", on_net)
        rec.wrap(mod, "refine_atn", "atn.refine_atn", on_net)
    for mod in (synth, typecheck):
        rec.wrap(mod, "check", "typecheck.check")
    for mod in (synth, pathgen):
        rec.wrap_generator(mod, "from_path", "pathgen.from_path")
    rec.wrap(reach, "encode", "reach.encode", on_script)
    rec.wrap(reach.PathFinder, "next_path", "reach.next_path")
    client = smt.SolverClient
    rec.wrap(client, "__init__", "smt.spawn")
    rec.wrap(client, "close", "smt.close")
    rec.wrap(client, "check_sat", "smt.check_sat", on_check_sat)
    rec.wrap(client, "send", "smt.send")
    rec.wrap(client, "reset", "smt.reset")
    rec.wrap(client, "get_values", "smt.get_values")


# Span name -> per-layer metric its self time is added to.
SELF_TIME = {
    "frontend.load_library": "frontend.load_s",
    "frontend.prepare_problem": "frontend.load_s",
    "synth.run": "synth.run_self_s",
    "synth.refine_all": "synth.refine_all_s",
    "synth.build_proof": "synth.build_proof_s",
    "lattice.close_under_meet": "lattice.close_under_meet_s",
    "atn.build_atn": "atn.build_atn_s",
    "atn.refine_atn": "atn.refine_atn_s",
    "reach.next_path": "reach.next_path_self_s",
    "reach.encode": "reach.encode_s",
    "smt.check_sat": "smt.check_sat_wait_s",
    "smt.send": "smt.send_s",
    "smt.reset": "smt.send_s",
    "smt.get_values": "smt.get_values_s",
    "smt.spawn": "smt.spawn_s",
    "smt.close": "smt.spawn_s",
    "pathgen.from_path": "pathgen.from_path_s",
    "typecheck.check": "typecheck.check_s",
}

# Span name -> per-layer metric counting its calls.
CALLS = {
    "lattice.close_under_meet": "lattice.close_under_meet_calls",
    "atn.refine_atn": "atn.refine_atn_calls",
    "reach.next_path": "reach.next_path_calls",
    "smt.check_sat": "smt.check_sat_calls",
    "typecheck.check": "typecheck.check_calls",
}


def self_times(spans: list) -> list:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def roots(spans: list) -> list:
    """Index of the outermost span enclosing each span."""
    out: list = []
    for i, (_, _, _, parent) in enumerate(spans):
        out.append(i if parent < 0 else out[parent])
    return out


def layer_sums(spans: list) -> tuple:
    """Per-layer self times and call counts of one query, and the
    difference between the `synth.run` span and the self times inside it.

    Only spans inside `synth.run`, plus the frontend's own calls, count:
    work done around the run is not a layer's.
    """
    sums = {m: 0.0 for m in SELF_TIME.values()}
    sums.update({m: 0 for m in CALLS.values()})
    own = self_times(spans)
    top = roots(spans)
    run_total = 0.0
    inside = 0.0
    for i, (name, start, end, _) in enumerate(spans):
        root_name = spans[top[i]][0]
        if root_name != "synth.run" and not name.startswith("frontend."):
            continue
        sums[SELF_TIME[name]] += own[i]
        if name in CALLS:
            sums[CALLS[name]] += 1
        if root_name == "synth.run":
            inside += own[i]
            if top[i] == i:
                run_total += end - start
    return sums, run_total - inside
