import json
import statistics

import pytest

from tygar import bench
from tygar.bench import format_table, run_bench, run_case
from tygar.cli import build_parser, run_cli
from tygar.lattice import _rename_arg, _weakenings, weakenings
from tygar.synth import SynthConfig
from tygar.typecheck import _transform, apply_transformer

from conftest import FIXTURES, INPUT_ERRORS, input_error_text, lib_of, ty


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


@pytest.mark.parametrize("lib_text, query, message, line, col", INPUT_ERRORS)
def test_input_errors_exit_with_code_2(tmp_path, capsys, lib_text, query,
                                       message, line, col):
    lib = tmp_path / "lib.sig"
    lib.write_text(lib_text + "\n")
    code = run_cli(["--lib", str(lib), "--query", query])
    assert code == 2
    assert capsys.readouterr().err \
        == f"error: {input_error_text(message, line, col)}\n"


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


@pytest.mark.parametrize("expected, code", [
    ("fromMaybe arg0 (listToMaybe (catMaybes arg1))", 0),
    ("nonsense arg0", 1),
])
def test_bench_exits_1_when_a_case_misses_its_answer(
        tmp_path, monkeypatch, capsys, expected, code):
    # a solved case whose expected term is not among its solutions fails
    # the run, as a case that raised does
    suite = {"cases": [{"id": "firstJust", "libs": [str(FIXTURES / "tiny.sig")],
                        "query": "a -> [Maybe a] -> a", "variant": "tygar0",
                        "solutions": 1, "expected": [expected]}]}
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(suite))
    monkeypatch.setattr("sys.argv", ["tygar-bench", str(path)])
    with pytest.raises(SystemExit) as exc:
        bench.main()
    assert exc.value.code == code
    row = capsys.readouterr().out.splitlines()[-1].split()
    assert row[:3] == ["firstJust", "tygar0", "solved"]
    assert row[-1] == str(not code)


def test_bench_time_is_to_the_first_solution_found(tmp_path, monkeypatch):
    # solutions are ranked by size: here rank 1, `r arg0 arg0 arg0`, needs
    # a longer path than `q (p arg0)`, so it is found second
    (tmp_path / "t.sig").write_text(
        "p :: A -> B\nq :: B -> C\nr :: A -> A -> A -> C\n")
    results = []
    synthesizer = bench.Synthesizer

    class Recorded:
        def __init__(self, lib, query, cfg):
            self.inner = synthesizer(lib, query, cfg)

        def run(self):
            results.append(self.inner.run())
            return results[-1]

    monkeypatch.setattr(bench, "Synthesizer", Recorded)
    case = {"id": "t", "libs": ["t.sig"], "query": "A -> C",
            "variant": "nogar", "solutions": 2}
    report = run_case(case, tmp_path, {})
    assert report["solutions"] == ["r arg0 arg0 arg0", "q (p arg0)"]
    firsts = [min(s.millis for s in r.solutions) for r in results]
    assert all(r.solutions[0].millis > first
               for r, first in zip(results, firsts))
    assert report["median_millis"] == round(statistics.median(firsts), 3)


def test_bench_json_reports_run_times_and_counts(monkeypatch, capsys):
    # the median time to the end of a run, and the last run's counts
    results = []
    synthesizer = bench.Synthesizer

    class Recorded:
        def __init__(self, lib, query, cfg):
            self.inner = synthesizer(lib, query, cfg)

        def run(self):
            results.append(self.inner.run())
            return results[-1]

    monkeypatch.setattr(bench, "Synthesizer", Recorded)
    monkeypatch.setattr("sys.argv", ["tygar-bench", str(FIXTURES / "suite.json"),
                                     "--format", "json"])
    with pytest.raises(SystemExit) as exc:
        bench.main()
    assert exc.value.code == 0
    cases = json.loads(capsys.readouterr().out)["cases"]
    assert len(results) == 3 * len(cases) == 12
    for i, case in enumerate(cases):
        runs = results[3 * i:3 * i + 3]
        last = runs[-1]
        assert case["median_elapsed_ms"] == round(
            statistics.median(r.elapsed_s * 1000.0 for r in runs), 3)
        assert case["median_elapsed_ms"] >= case["median_millis"]
        assert (case["iterations"], case["refinements"], case["cover_size"],
                case["reason"]) == (last.iterations, last.refinements,
                                    last.cover_size, last.reason)
    assert [(c["iterations"], c["refinements"], c["cover_size"])
            for c in cases] == [(3, 2, 6), (12, 2, 11), (14, 2, 11), (12, 3, 13)]


def test_bench_table_marks_an_unsolved_case_with_a_dash(
        tmp_path, monkeypatch, capsys):
    # a case that finds nothing has no median time to the first solution
    suite = {"cases": [{"id": "none-in-time", "libs": [str(FIXTURES / "tiny.sig")],
                        "query": "a -> [Maybe a] -> a", "variant": "nogar",
                        "timeout": 0}]}
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(suite))
    assert run_bench(path)["cases"][0]["median_millis"] is None
    monkeypatch.setattr("sys.argv", ["tygar-bench", str(path)])
    with pytest.raises(SystemExit) as exc:
        bench.main()
    assert exc.value.code == 0
    row = capsys.readouterr().out.splitlines()[-1].split()
    assert row == ["none-in-time", "nogar", "exhausted", "-", "True"]


def test_bench_runs_each_start_with_empty_transformer_memos(monkeypatch):
    # a run that found the previous run's transformer results would time
    # a warm process, not the fresh one a user's query starts in
    sizes = []
    synthesizer = bench.Synthesizer

    def recorded(lib, query, cfg):
        sizes.append((_transform.cache_info().currsize,
                      _rename_arg.cache_info().currsize,
                      _weakenings.cache_info().currsize))
        return synthesizer(lib, query, cfg)

    # fill the memos first, as an earlier case or test would
    apply_transformer(lib_of("f :: a -> M a"), "f", [ty("[K]")])
    weakenings(ty("[K]"))
    monkeypatch.setattr(bench, "Synthesizer", recorded)
    case = {"id": "first-option", "libs": ["tiny.sig"],
            "query": "a -> [Maybe a] -> a", "variant": "tygar0",
            "solutions": 1}
    assert run_case(case, FIXTURES, {})["status"] == "solved"
    assert sizes == [(0, 0, 0)] * 3
    # each run fills them again: the case's proofs weaken labels
    assert _transform.cache_info().currsize > 0
    assert _weakenings.cache_info().currsize > 0


def test_run_defaults_are_synth_config_defaults(monkeypatch):
    # neither the parser nor the bench harness keeps defaults of its own
    args = build_parser().parse_args(["--lib", "x.sig", "--query", "a"])
    default = SynthConfig()
    assert (args.variant, args.bound, args.max_len, args.solutions,
            args.timeout) == (default.variant, default.bound,
                              default.max_len, default.max_solutions,
                              default.timeout_s)
    configs = []
    synthesizer = bench.Synthesizer

    def recorded(lib, query, cfg):
        configs.append(cfg)
        return synthesizer(lib, query, cfg)

    monkeypatch.setattr(bench, "Synthesizer", recorded)
    case = {"id": "plain", "libs": ["tiny.sig"],
            "query": "a -> [Maybe a] -> a"}
    assert run_case(case, FIXTURES, {})["status"] == "solved"
    assert configs and all(cfg == default for cfg in configs)


def test_bench_empty_suite(tmp_path):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({"cases": []}))
    assert run_bench(path) == {"suite": str(path), "cases": []}


def test_bench_rejects_unknown_keys(tmp_path, monkeypatch, capsys):
    # a misspelt setting must not run the case with the setting's
    # default: an unknown key of a case or of the suite's defaults makes
    # the case an error row that names it, nothing is synthesised, and
    # the run exits 1
    runs = []
    monkeypatch.setattr(bench, "Synthesizer", lambda *args: runs.append(args))
    case = {"id": "firstJust", "libs": [str(FIXTURES / "tiny.sig")],
            "query": "a -> [Maybe a] -> a", "variant": "tygar0"}
    for suite, keys in [
            ({"cases": [{**case, "soltions": 1, "timout": 0.001}]},
             "'soltions', 'timout'"),
            ({"defaults": {"timeout": 60, "bund": 3},
              "cases": [{**case, "solutions": 1}]}, "'bund'")]:
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(suite))
        error = f"ValueError: unknown key(s) {keys}"
        assert run_bench(path)["cases"] == [
            {"id": "firstJust", "status": "error", "error": error}]
        monkeypatch.setattr("sys.argv", ["tygar-bench", str(path),
                                         "--format", "json"])
        with pytest.raises(SystemExit) as exc:
            bench.main()
        assert exc.value.code == 1
        assert json.loads(capsys.readouterr().out)["cases"][0]["error"] \
            == error
    assert not runs

