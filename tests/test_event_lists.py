"""The bench queries' full event lists stay byte-identical.

Every `refine` and `enumerate` bench query runs in process under each
variant (`tygarq` with validation on), and the sha256 of its event list,
serialised with sorted keys, must equal the digest recorded in
`data/event_digests.json`. The event list names every path tried, every
candidate checked and every type the cover gains, so a change to the
net, the search or refinement that reorders any of them shows here.
Two refinement-heavy queries on `fixtures/curated.sig` run under tygar0
only (`HEAVY`): they refine nine and ten times and re-route nets of
about 2,000 transitions, far beyond the bench queries.

    PYTHONPATH=src python3 tests/test_event_lists.py

re-records the digests, for a change that alters the event lists on
purpose.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from tygar import frontend
from tygar.synth import VARIANTS, SynthConfig, Synthesizer

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
                          timeout_s=spec["timeout_s"],
                          validate=variant == "tygarq")
        events = Synthesizer(session_lib, query, cfg).run().events
        text = json.dumps(events, sort_keys=True)
        out[variant] = hashlib.sha256(text.encode()).hexdigest()
    return out


QUERIES = bench_queries() + HEAVY


@pytest.mark.parametrize("key, spec", QUERIES, ids=[k for k, _ in QUERIES])
def test_event_list_unchanged(key, spec):
    recorded = json.loads(DIGESTS.read_text())
    assert event_digests(spec) == recorded[key]


if __name__ == "__main__":
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(
        {key: event_digests(spec) for key, spec in QUERIES},
        indent=1, sort_keys=True) + "\n")
