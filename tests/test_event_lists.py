"""The bench queries' full event lists stay byte-identical.

Every `refine` and `enumerate` bench query runs in process under each
variant (`tygarq` with every proof checked), and the sha256 of its event list,
serialised with sorted keys, must equal the digest recorded in
`data/event_digests.json`. The event list names every path tried, every
candidate checked and every type the cover gains, so a change to the
net, the search or refinement that reorders any of them shows here.
Two refinement-heavy queries on `fixtures/curated.sig` run under tygar0
only (`HEAVY`): they refine nine and ten times and re-route nets of
about 2,000 transitions, far beyond the bench queries. The same
digests must come out of a process whose types sit at other addresses
(a type's hash is its address), and a bench query's run must leave no
reference cycles behind.

    PYTHONPATH=src python3 tests/test_event_lists.py

re-records the digests, for a change that alters the event lists on
purpose.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import subprocess
import sys
import weakref
from pathlib import Path
from unittest import mock

import pytest

from tygar import frontend, synth
from tygar.reach import PathFinder
from tygar.synth import VARIANTS, SynthConfig, Synthesizer

from conftest import validating_build_proof

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "data" / "event_digests.json"
WORKLOADS = ("refine", "enumerate")
CURATED = str(ROOT / "fixtures" / "curated.sig")
HEAVY = [
    ("curated/lookup-tygar0-k10",
     {"libs": [CURATED], "query": "Eq a => [(a,b)] -> a -> b", "k": 10,
      "timeout_s": 600, "variants": ["tygar0"]}),
    ("curated/swap-tygar0-k5",
     {"libs": [CURATED], "query": "(a,b) -> (b,a)", "k": 5,
      "timeout_s": 600, "variants": ["tygar0"]}),
]


def bench_queries() -> list:
    """(key, spec) of every query of the workloads, signature paths
    made absolute."""
    out = []
    for name in WORKLOADS:
        wdir = ROOT / "perfbench" / "workloads" / name
        spec = json.loads((wdir / "workload.json").read_text())
        for q in spec["queries"]:
            libs = [str(wdir / lib) for lib in q["libs"]]
            out.append((f"{name}/{q['id']}", dict(q, libs=libs)))
    return out


def event_digests(spec: dict) -> dict:
    """Variant -> sha256 of the query's event list under that variant,
    for every variant or those the spec lists."""
    lib = frontend.load_library(spec["libs"])
    out = {}
    for variant in spec.get("variants", VARIANTS):
        session_lib, query = frontend.prepare_problem(lib, spec["query"])
        cfg = SynthConfig(variant=variant, bound=spec.get("bound", 10),
                          max_len=spec.get("max_len", 6),
                          max_solutions=spec["k"],
                          timeout_s=spec["timeout_s"])
        # tygarq's refinements check every proof's invariants as they go
        validating = (mock.patch.object(synth, "build_proof",
                                        validating_build_proof)
                      if variant == "tygarq" else contextlib.nullcontext())
        with validating:
            events = Synthesizer(session_lib, query, cfg).run().events
        text = json.dumps(events, sort_keys=True)
        out[variant] = hashlib.sha256(text.encode()).hexdigest()
    return out


QUERIES = bench_queries() + HEAVY


@pytest.mark.parametrize("key, spec", QUERIES, ids=[k for k, _ in QUERIES])
def test_event_list_unchanged(key, spec):
    recorded = json.loads(DIGESTS.read_text())
    assert event_digests(spec) == recorded[key]


def test_tygarq_digests_check_every_proof(monkeypatch):
    # tygarq on `elem` makes 26 invariant checks: one after each kept
    # generalisation step and one per finished proof
    checks = []
    invariants = synth.proof_invariants

    def counted(*args):
        checks.append(args)
        invariants(*args)

    monkeypatch.setattr(synth, "proof_invariants", counted)
    spec = dict(dict(QUERIES)["refine/elem"], variants=["tygarq"])
    recorded = json.loads(DIGESTS.read_text())["refine/elem"]
    assert event_digests(spec) == {"tygarq": recorded["tygarq"]}
    assert len(checks) == 26


def bench_synthesizer(spec: dict) -> Synthesizer:
    """The session a bench query's process runs, with its own variant."""
    lib = frontend.load_library(spec["libs"])
    session_lib, query = frontend.prepare_problem(lib, spec["query"])
    cfg = SynthConfig(variant=spec["variant"], bound=spec.get("bound", 10),
                      max_len=spec.get("max_len", 6), max_solutions=spec["k"],
                      timeout_s=spec["timeout_s"])
    return Synthesizer(session_lib, query, cfg)


BENCH = bench_queries()


@pytest.mark.parametrize("key, spec", BENCH, ids=[k for k, _ in BENCH])
def test_run_leaves_no_cyclic_garbage(key, spec, monkeypatch):
    # what a run drops must go when its count of references does: each
    # reference cycle waits for the cyclic collector, whose passes take
    # longer the more objects a run keeps. A cycle a finalizer breaks,
    # as a suspended generator's does, is collected without being
    # counted, so the path finder and its nets are watched by weakrefs
    synth = bench_synthesizer(spec)
    dropped = []
    reset = PathFinder.reset

    def watched(finder, net):
        dropped.extend([weakref.ref(finder), weakref.ref(net)])
        reset(finder, net)

    monkeypatch.setattr(PathFinder, "reset", watched)
    gc.collect()
    gc.disable()
    try:
        synth.run()
        assert [r for r in dropped if r() is not None] == []
        assert gc.collect() == 0
    finally:
        gc.enable()


PREBUILD = """
import json, random, sys
sys.path[:0] = {paths!r}
from tygar import frontend
from tygar.types import App, Var
import test_event_lists as t

# a few thousand random types over the bench signatures' constructors,
# built in a seeded order, move every type a query builds to another
# address, and so reorder each set and dict keyed by types
rng = random.Random({seed})
cons = sorted(frontend.load_library([t.CURATED]).constructors.items())
atoms = [Var(v) for v in ("a", "b", "t0", "t1", "t2", "t3")]
atoms += [App(c) for c, n in cons if n == 0]
compound = [(c, n) for c, n in cons if n > 0]


def rand_type(depth):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(atoms)
    c, n = rng.choice(compound)
    return App(c, tuple(rand_type(depth - 1) for _ in range(n)))


kept = [rand_type(3) for _ in range(4000)]
recorded = json.loads(t.DIGESTS.read_text())
print(json.dumps([key for key, spec in t.bench_queries()
                  if t.event_digests(spec) != recorded[key]]))
"""


@pytest.mark.parametrize("seed", [1, 2])
def test_event_lists_do_not_depend_on_type_addresses(seed):
    # a type's hash is its address, so set and dict order follows the
    # order types are first built in
    paths = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    script = PREBUILD.format(paths=paths, seed=seed)
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == []


if __name__ == "__main__":
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(
        {key: event_digests(spec) for key, spec in QUERIES},
        indent=1, sort_keys=True) + "\n")
