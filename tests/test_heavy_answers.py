"""The heavy enumerating queries keep their answers.

`lookup` (`Eq a => [(a,b)] -> a -> b` over `fixtures/curated.sig`)
under nogar at k 10 and k 20 and under tygarqb at k 20 replays
thousands of candidates a run, nearly all of them ill-typed, so a
change to how replay builds or skips candidates shows here first. Each
run's status and its ordered solution list, as terms over the session
library (dictionary arguments shown, so no two solutions read alike),
must equal the one recorded in `data/heavy_solutions.json`. The
heavy suite's `lookup-nogar-k10` case, run with its own settings, must
give the recorded k 10 list too, so the two cannot drift apart.

    PYTHONPATH=src python3 tests/test_heavy_answers.py

re-records the lists, for a change that alters the answers on purpose.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from tygar import bench, frontend
from tygar.synth import SynthConfig, Synthesizer
from tygar.types import render_term

ROOT = Path(__file__).resolve().parent.parent
RECORDED = Path(__file__).resolve().parent / "data" / "heavy_solutions.json"
CURATED = str(ROOT / "fixtures" / "curated.sig")
LOOKUP = "Eq a => [(a,b)] -> a -> b"
QUERIES = {
    "lookup-nogar-k10": ("nogar", 10),
    "lookup-nogar-k20": ("nogar", 20),
    "lookup-tygarqb-k20": ("tygarqb", 20),
}


def run(libs: list, query_text: str, cfg: SynthConfig) -> tuple:
    lib = frontend.load_library(libs)
    session_lib, query = frontend.prepare_problem(lib, query_text)
    return Synthesizer(session_lib, query, cfg).run(), query


def answers(variant: str, k: int) -> dict:
    res, _ = run([CURATED], LOOKUP, SynthConfig(
        variant=variant, max_solutions=k, timeout_s=600))
    return {
        "status": res.status,
        "solutions": [render_term(s.nf) for s in res.solutions],
    }


@pytest.mark.parametrize("key", list(QUERIES))
def test_heavy_answers_unchanged(key):
    recorded = json.loads(RECORDED.read_text())
    assert answers(*QUERIES[key]) == recorded[key]


def test_heavy_suite_case_gives_the_recorded_answers():
    suite = json.loads((ROOT / "fixtures" / "heavy.json").read_text())
    case = next(c for c in suite["cases"] if c["id"] == "lookup-nogar-k10")
    given = {**suite["defaults"], **case}
    cfg = SynthConfig(**{field: given[key]
                         for key, field in bench.SETTINGS.items()
                         if key in given})
    res, query = run([ROOT / "fixtures" / p for p in case["libs"]],
                     case["query"], cfg)
    recorded = json.loads(RECORDED.read_text())["lookup-nogar-k10"]
    assert {"status": res.status,
            "solutions": [render_term(s.nf) for s in res.solutions]} \
        == recorded
    for expected in case["expected"]:
        assert any(frontend.solution_matches(s.nf, expected, res.lib, query)
                   for s in res.solutions)


if __name__ == "__main__":
    RECORDED.parent.mkdir(exist_ok=True)
    RECORDED.write_text(json.dumps(
        {key: answers(*spec) for key, spec in QUERIES.items()},
        indent=1, sort_keys=True) + "\n")
