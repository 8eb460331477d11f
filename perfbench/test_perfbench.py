"""Checks of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

import run

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def first_just() -> dict:
    return next(q for q in run.load_workload("suite") if q["id"] == "firstJust")


def run_main(monkeypatch, capsys, queries: list, trace: int) -> dict:
    monkeypatch.setattr(run, "load_workload", lambda name: queries)
    monkeypatch.setattr(run, "SETUP_PASSES", 1)
    monkeypatch.setattr("sys.argv", [
        "run.py", "--workload", "suite", "--seed", "3", "--seconds", "0",
        "--trace", str(trace)])
    run.main()
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_recorded_golden_matches():
    q = first_just()
    assert run.mismatches(q, run.run_query(q, "run", run.query_env())) == []


def test_corrupted_golden_is_reported_as_failure(monkeypatch, capsys):
    q = copy.deepcopy(first_just())
    q["golden"]["solutions"] = ["fromMaybe arg0 (listToMaybe arg1)"]
    report = run_main(monkeypatch, capsys, [q], trace=0)
    assert report["correct"] is False
    assert report["failed"] == report["attempted"] >= 1


def test_untraced_run_reports_every_end_to_end_metric(monkeypatch, capsys):
    report = run_main(monkeypatch, capsys, [first_just()], trace=0)
    assert report["correct"] and report["failed"] == 0
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert sorted(report["metrics"]) == sorted(names)
    assert all(m["value"] > 0 for m in report["metrics"].values())


def test_traced_run_reports_every_per_layer_metric(monkeypatch, capsys):
    report = run_main(monkeypatch, capsys, [first_just()], trace=1)
    assert report["correct"] and report["failed"] == 0
    names = [m["name"] for m in SPEC["per_layer"]]
    assert sorted(report["metrics"]) == sorted(names)
    for m in SPEC["per_layer"]:
        assert report["metrics"][m["name"]]["unit"] == m["unit"]


def test_missing_sources_stop_before_timing(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    with pytest.raises(SystemExit) as exc:
        run.preflight(run.query_env())
    assert exc.value.code not in (0, None)
