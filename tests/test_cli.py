import json

import pytest

from tygar.bench import format_table, run_bench
from tygar.cli import run_cli

from conftest import FIXTURES


def test_solves_tiny_query(capsys):
    code = run_cli(["--lib", str(FIXTURES / "tiny.sig"),
                    "--query", "a -> [Maybe a] -> a",
                    "--variant", "tygar0", "--solutions", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "fromMaybe arg0 (listToMaybe (catMaybes arg1))" in out
    assert "status: solved" in out


def test_no_solution_exit_code(capsys):
    code = run_cli(["--lib", str(FIXTURES / "unsat.sig"),
                    "--query", "Z", "--variant", "tygar0"])
    out = capsys.readouterr().out
    assert code == 1
    assert "no solution" in out


def test_missing_query_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli(["--lib", str(FIXTURES / "tiny.sig")])
    assert exc.value.code == 2


def test_bad_library_path_is_error(capsys):
    code = run_cli(["--lib", "nowhere.sig", "--query", "a -> a"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_bad_signature_is_error(tmp_path, capsys):
    bad = tmp_path / "bad.sig"
    bad.write_text("oops :: a ->\n")
    code = run_cli(["--lib", str(bad), "--query", "a -> a"])
    assert code == 2


def test_solver_environment_variable_is_ignored(capsys, monkeypatch):
    # reachability is searched in process: a solver named in the
    # environment is never started, and the answer does not change
    args = ["--lib", str(FIXTURES / "tiny.sig"),
            "--query", "a -> [Maybe a] -> a", "--variant", "tygar0",
            "--solutions", "1", "--format", "json"]

    def untimed(out: str) -> dict:
        report = json.loads(out)
        del report["elapsed_s"]
        for s in report["solutions"]:
            del s["millis"]
        return report

    monkeypatch.delenv("TYGAR_SOLVER", raising=False)
    assert run_cli(args) == 0
    plain = untimed(capsys.readouterr().out)
    monkeypatch.setenv("TYGAR_SOLVER", "/no/such/solver")
    assert run_cli(args) == 0
    assert untimed(capsys.readouterr().out) == plain
    assert plain["solutions"]


def test_json_format(capsys):
    code = run_cli(["--lib", str(FIXTURES / "tiny.sig"),
                    "--query", "a -> [Maybe a] -> a",
                    "--variant", "tygar0", "--solutions", "1",
                    "--format", "json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "solved"
    assert data["variant"] == "tygar0"
    assert data["query"] == "a -> [Maybe a] -> a"
    sol = data["solutions"][0]
    assert set(sol) == {"rank", "term", "apps", "millis"}
    assert sol["rank"] == 1 and sol["apps"] == 3
    assert isinstance(data["iterations"], int)
    assert isinstance(data["cover_size"], int)
    assert data["reason"] == "max solutions reached"
    assert data["refinements"] >= 1  # tygar0 starts from the top cover
    assert data["elapsed_s"] >= 0


def test_timeout_is_reported(capsys):
    args = ["--lib", str(FIXTURES / "tiny.sig"),
            "--query", "a -> [Maybe a] -> a", "--timeout", "0"]
    assert run_cli(args + ["--format", "json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "exhausted"
    assert data["reason"] == "timeout"
    assert data["solutions"] == []
    assert run_cli(args) == 1
    assert "status: exhausted (timeout)" in capsys.readouterr().out


@pytest.mark.parametrize("flag, value", [
    ("--solutions", "0"), ("--solutions", "-1"), ("--max-len", "-1")])
def test_count_out_of_range_is_error(capsys, flag, value):
    code = run_cli(["--lib", str(FIXTURES / "tiny.sig"),
                    "--query", "a -> [Maybe a] -> a", flag, value])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert captured.out == ""


@pytest.mark.parametrize("value", ["nan", "-1", "-0.5"])
def test_timeout_out_of_range_is_error(capsys, value):
    code = run_cli(["--lib", str(FIXTURES / "tiny.sig"),
                    "--query", "a -> [Maybe a] -> a", "--timeout", value])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and "timeout" in captured.err
    assert captured.out == ""


def test_trace_events_go_to_stderr(capsys):
    run_cli(["--lib", str(FIXTURES / "tiny.sig"),
             "--query", "a -> [Maybe a] -> a",
             "--variant", "tygar0", "--solutions", "1", "--trace"])
    err = capsys.readouterr().err
    assert "[iter 1]" in err
    assert "[refine 1]" in err
    assert "[solution 1]" in err


def test_trace_prints_pruned_branches(capsys):
    # nogar cuts bottom-typed branches and its iteration lines say how
    # many; tygar0 replays every program and its lines carry no count
    run_cli(["--lib", str(FIXTURES / "tiny.sig"),
             "--query", "a -> [Maybe a] -> a",
             "--variant", "nogar", "--solutions", "1", "--trace"])
    lines = capsys.readouterr().err.splitlines()
    assert lines[0] == ("[iter 1] cover=4 path=[3, 1] chosen=None "
                        "verdict=spurious pruned=2")
    assert lines[1].startswith("[iter 2] ") and lines[1].endswith(
        " verdict=solution pruned=3")
    run_cli(["--lib", str(FIXTURES / "tiny.sig"),
             "--query", "a -> [Maybe a] -> a",
             "--variant", "tygar0", "--solutions", "1", "--trace"])
    assert "pruned=" not in capsys.readouterr().err


def test_bench_harness(tmp_path):
    suite = {
        "defaults": {"variant": "tygar0", "solutions": 1, "timeout": 30},
        "cases": [
            {"id": "first-option", "libs": ["tiny.sig"],
             "query": "a -> [Maybe a] -> a",
             "expected": ["fromMaybe arg0 (listToMaybe (catMaybes arg1))"]},
            {"id": "broken", "libs": ["missing.sig"], "query": "a"},
        ],
    }
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(suite))
    # cases resolve libs relative to the suite file
    import shutil
    shutil.copy(FIXTURES / "tiny.sig", tmp_path / "tiny.sig")
    report = run_bench(path)
    by_id = {c["id"]: c for c in report["cases"]}
    ok = by_id["first-option"]
    assert ok["status"] == "solved" and ok["matched"]
    assert ok["median_millis"] is not None
    assert ok["matches"][0]["rank"] == 1
    assert by_id["broken"]["status"] == "error"
    table = format_table(report)
    assert "first-option" in table and "broken" in table


def test_bench_empty_suite(tmp_path):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({"cases": []}))
    assert run_bench(path) == {"suite": str(path), "cases": []}
