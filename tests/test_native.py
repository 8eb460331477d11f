"""The reachability search against recorded SMT answers and the BFS
oracle: the same paths in the same order, on random nets and on every
query the suite cases issue; deadlines; no solver anywhere.

`data/smt_answers.json` holds what the SMT backend (the bundled
`minismt`, behind the same `PathFinder` interface) answered before that
backend was removed: for each suite case, a digest of every net the
run reset the finder on and the paths that followed, with the run's
status, counts and solutions; and the paths of 120 random nets. It was
recorded once, at the last commit with that backend, and is not
re-recorded.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from tygar import reach, smt, synth
from tygar.atn import final_place_order
from tygar.frontend import load_library, prepare_problem, render_surface, surface_term
from tygar.reach import NO_PATH, PathFinder, bfs_oracle, replay
from tygar.synth import SynthConfig, Synthesizer
from tygar.types import render_type

from conftest import FIXTURES, rand_net, tiny_problem

ANSWERS = json.loads(
    (Path(__file__).resolve().parent / "data" / "smt_answers.json").read_text())


def net_digest(net) -> str:
    """sha256 of a net's places and of its transitions in index order."""
    text = "\n".join([" ".join(render_type(p) for p in net.places)]
                     + [t.describe() for t in net.transitions])
    return hashlib.sha256(text.encode()).hexdigest()


def recorded(paths: list) -> list:
    """Recorded paths as `next_path` returns them."""
    return [NO_PATH if p is None else tuple(p) for p in paths]


def enumerate_paths(finder: PathFinder, net) -> list:
    """Every path the finder returns after a reset on `net`."""
    finder.reset(net)
    return list(iter(finder.next_path, NO_PATH))


def test_native_matches_smt_on_random_nets():
    spec = ANSWERS["random_nets"]
    rng = random.Random(spec["seed"])
    paths = 0
    for i, want in enumerate(spec["nets"]):
        net = rand_net(rng)
        assert net_digest(net) == want["net"], i
        got = enumerate_paths(PathFinder(spec["max_len"]), net)
        assert got == recorded(want["paths"]), i
        paths += len(got)
    assert paths >= 100  # the nets have paths to resume over, not only NO_PATH


class Recorder:
    """Wraps PathFinder.reset / next_path and logs every query."""

    def __init__(self, monkeypatch):
        self.log: list = []
        reset, next_path = PathFinder.reset, PathFinder.next_path
        log = self.log

        def logged_reset(finder, net):
            log.append(("reset", net))
            return reset(finder, net)

        def logged_next(finder, deadline=None):
            path = next_path(finder, deadline)
            log.append(("next", path))
            return path

        monkeypatch.setattr(PathFinder, "reset", logged_reset)
        monkeypatch.setattr(PathFinder, "next_path", logged_next)


def suite_cases() -> list:
    suite = json.loads((FIXTURES / "suite.json").read_text())
    return [{**suite["defaults"], **case} for case in suite["cases"]]


def run_case(case: dict) -> tuple:
    lib = load_library(FIXTURES / p for p in case["libs"])
    session_lib, query = prepare_problem(lib, case["query"])
    cfg = SynthConfig(variant=case["variant"],
                      max_len=case.get("max_len", 6),
                      max_solutions=case["solutions"],
                      timeout_s=600.0)
    result = Synthesizer(session_lib, query, cfg).run()
    return result, [render_surface(surface_term(s.nf, result.lib, query))
                    for s in result.solutions]


@pytest.fixture(scope="module")
def suite_runs():
    """Each suite case solved, with every reachability query it issued,
    next to the recorded SMT run of the same case."""
    want = {run["id"]: run for run in ANSWERS["suite"]}
    out = []
    with pytest.MonkeyPatch.context() as mp:
        for case in suite_cases():
            rec = Recorder(mp)
            result, rendered = run_case(case)
            out.append((case, result, rendered, rec.log, want[case["id"]]))
            mp.undo()
    assert len(out) == len(want)
    return out


def test_native_answers_every_suite_query(suite_runs):
    queries = 0
    for case, _, _, log, smt_run in suite_runs:
        max_len = case.get("max_len", 6)
        # the answers between one reset and the next, per net
        runs: list = []
        for entry in log:
            if entry[0] == "reset":
                runs.append((entry[1], []))
            else:
                runs[-1][1].append(entry[1])
        assert len(runs) == len(smt_run["resets"]), case["id"]
        for (net, paths), want in zip(runs, smt_run["resets"]):
            assert net_digest(net) == want["net"], case["id"]
            smt_paths = recorded(want["paths"])
            assert paths == smt_paths, case["id"]
            # a fresh finder agrees too: reset leaves no search state
            fresh = PathFinder(max_len)
            fresh.reset(net)
            assert [fresh.next_path() for _ in smt_paths] == smt_paths, \
                case["id"]
            queries += len(smt_paths)
    assert queries >= 20


def test_native_runs_match_recorded_smt_runs(suite_runs):
    for case, result, rendered, _, smt_run in suite_runs:
        assert rendered == smt_run["solutions"], case["id"]
        assert (result.status, result.iterations, result.refinements) == \
            (smt_run["status"], smt_run["iterations"], smt_run["refinements"])


def test_past_deadline_raises_before_searching():
    net = rand_net(random.Random(5))
    finder = PathFinder(4)
    finder.reset(net)
    with pytest.raises(TimeoutError):
        finder.next_path(deadline=0.0)
    assert finder.expanded == 0


def test_deadline_is_checked_inside_the_search(monkeypatch):
    # the clock passes the deadline once the search has expanded a state:
    # only a check inside the search can notice
    lib, query = tiny_problem()
    net = synth.build_atn(lib, query, synth.initial_cover("top", query))
    finder = PathFinder(6)
    finder.reset(net)
    monkeypatch.setattr(reach.time, "monotonic",
                        lambda: 100.0 if finder.expanded else 0.0)
    monkeypatch.setattr(reach, "DEADLINE_STRIDE", 1)
    with pytest.raises(TimeoutError):
        finder.next_path(deadline=50.0)
    assert finder.expanded == 1


def test_timeout_leaves_the_finder_failed_until_reset(monkeypatch):
    # a timeout inside a pair's stream must not let the next query go on
    # as if the stream had run out: the finder raises until reset, and a
    # reset gives the whole enumeration again
    monkeypatch.setattr(reach, "DEADLINE_STRIDE", 1)
    rng = random.Random(211)
    timeouts = 0
    for _ in range(120):
        net = rand_net(rng)
        full = enumerate_paths(PathFinder(4), net)
        for k in range(len(full)):
            finder = PathFinder(4)
            finder.reset(net)
            assert [finder.next_path() for _ in range(k)] == full[:k]
            try:
                finder.next_path(deadline=0.0)
            except TimeoutError:
                timeouts += 1
                with pytest.raises(TimeoutError):
                    finder.next_path()
                assert enumerate_paths(finder, net) == full
    assert timeouts >= 100


def test_native_order_matches_bfs_oracle():
    # the ordering contract, without a solver: by length, then by final
    # place from most to least precise, then ascending
    rng = random.Random(211)
    for _ in range(120):
        net = rand_net(rng)
        finals = final_place_order(net)

        def key(path):
            last = replay(net, path)[-1]
            return (len(path), finals.index(net.places[last.index(1)]), path)

        want = sorted(bfs_oracle(net, 4), key=key)
        assert enumerate_paths(PathFinder(4), net) == want


def test_default_run_spawns_no_solver(monkeypatch):
    def no_solver(*args, **kwargs):
        raise AssertionError("solver started during synthesis")

    monkeypatch.setenv("TYGAR_SOLVER", "/no/such/solver")
    monkeypatch.setattr(smt, "SolverClient", no_solver)
    monkeypatch.setattr(subprocess, "Popen", no_solver)
    lib, query = tiny_problem()
    result = Synthesizer(lib, query, SynthConfig(variant="tygar0",
                                                 max_solutions=1)).run()
    assert result.status == "solved"
    assert synth.syn_abstract(lib, query, synth.initial_cover("top", query)) \
        is not synth.NO_SOLUTION


def test_import_loads_no_solver_client():
    # the SMT client and the bundled solver are test and benchmark aids:
    # loading the library and both console scripts must not import them
    code = ("import sys, tygar, tygar.cli, tygar.bench; "
            "print(sorted(m for m in sys.modules "
            "if m in ('tygar.smt', 'tygar.minismt')))")
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
