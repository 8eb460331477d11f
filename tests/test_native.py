"""The native reachability backend against the SMT backend (bundled
minismt): the same paths in the same order, on random nets and on every
query the suite cases issue; deadlines; no solver on the default path."""

import json
import random
import shlex
import sys

import pytest

from tygar import reach, smt, synth
from tygar.atn import final_place_order
from tygar.frontend import load_library, prepare_problem, render_surface, surface_term
from tygar.reach import NO_PATH, PathFinder, bfs_oracle, replay
from tygar.synth import SynthConfig, Synthesizer

from conftest import FIXTURES, rand_net, tiny_problem

MINISMT = [sys.executable, "-m", "tygar.minismt"]


def enumerate_paths(finder: PathFinder, net) -> list:
    """Every path the finder returns after a reset on `net`."""
    finder.reset(net)
    return list(iter(finder.next_path, NO_PATH))


def test_native_matches_smt_on_random_nets(solver):
    rng = random.Random(211)
    paths = 0
    for _ in range(120):
        net = rand_net(rng)
        smt = enumerate_paths(PathFinder(solver, 4), net)
        native = enumerate_paths(PathFinder(None, 4), net)
        assert native == smt
        paths += len(smt)
    assert paths >= 100  # the nets exercise blocking, not only NO_PATH


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


def run_case(case: dict, solver_cmd) -> tuple:
    lib = load_library(FIXTURES / p for p in case["libs"])
    session_lib, query = prepare_problem(lib, case["query"])
    cfg = SynthConfig(variant=case["variant"],
                      max_len=case.get("max_len", 6),
                      max_solutions=case["solutions"],
                      timeout_s=600.0, solver_cmd=solver_cmd)
    result = Synthesizer(session_lib, query, cfg).run()
    return result, [render_surface(surface_term(s.nf, result.lib, query))
                    for s in result.solutions]


@pytest.fixture(scope="module")
def smt_suite_runs():
    """Each suite case solved over minismt, with every reachability
    query it issued."""
    out = []
    with pytest.MonkeyPatch.context() as mp:
        for case in suite_cases():
            rec = Recorder(mp)
            result, rendered = run_case(case, MINISMT)
            out.append((case, result, rendered, rec.log))
            mp.undo()
    return out


def test_native_answers_every_suite_query(smt_suite_runs):
    queries = 0
    for case, _, _, log in smt_suite_runs:
        max_len = case.get("max_len", 6)
        # the SMT answers between one reset and the next, per net
        runs: list = []
        for entry in log:
            if entry[0] == "reset":
                runs.append((entry[1], []))
            else:
                runs[-1][1].append(entry[1])
        native = PathFinder(None, max_len)
        for net, smt_paths in runs:
            native.reset(net)
            got = [native.next_path() for _ in smt_paths]
            assert got == smt_paths, case["id"]
            # a fresh finder agrees too: reset leaves no search state
            fresh = PathFinder(None, max_len)
            fresh.reset(net)
            assert [fresh.next_path() for _ in smt_paths] == smt_paths, \
                case["id"]
            queries += len(smt_paths)
    assert queries >= 20


def test_solver_option_matches_native_default(smt_suite_runs, monkeypatch):
    monkeypatch.delenv("TYGAR_SOLVER", raising=False)
    for case, smt_result, smt_rendered, _ in smt_suite_runs:
        result, rendered = run_case(case, None)
        assert rendered == smt_rendered, case["id"]
        assert (result.status, result.iterations, result.refinements) == \
            (smt_result.status, smt_result.iterations, smt_result.refinements)


def test_past_deadline_raises_before_searching():
    net = rand_net(random.Random(5))
    finder = PathFinder(None, 4)
    finder.reset(net)
    with pytest.raises(TimeoutError):
        finder.next_path(deadline=0.0)
    assert finder.expanded == 0


def test_deadline_is_checked_inside_the_search(monkeypatch):
    # the clock passes the deadline once the search has expanded a state:
    # only a check inside the search can notice
    lib, query = tiny_problem()
    net = synth.build_atn(lib, query, synth.initial_cover("top", query))
    finder = PathFinder(None, 6)
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
        full = enumerate_paths(PathFinder(None, 4), net)
        for k in range(len(full)):
            finder = PathFinder(None, 4)
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
        assert enumerate_paths(PathFinder(None, 4), net) == want


def test_default_run_spawns_no_solver(monkeypatch):
    def no_solver(*args, **kwargs):
        raise AssertionError("SolverClient constructed on the default path")

    monkeypatch.delenv("TYGAR_SOLVER", raising=False)
    monkeypatch.setattr(smt, "SolverClient", no_solver)
    lib, query = tiny_problem()
    result = Synthesizer(lib, query, SynthConfig(variant="tygar0",
                                                 max_solutions=1)).run()
    assert result.status == "solved"
    assert synth.syn_abstract(lib, query, synth.initial_cover("top", query)) \
        is not synth.NO_SOLUTION


@pytest.mark.parametrize("how", ["option", "env"])
def test_solver_selected_by_option_or_env(monkeypatch, how):
    spawned = []
    real = smt.SolverClient

    def counting(cmd):
        spawned.append(cmd)
        return real(cmd)

    monkeypatch.setattr(smt, "SolverClient", counting)
    cmd = None
    if how == "env":
        monkeypatch.setenv("TYGAR_SOLVER", shlex.join(MINISMT))
    else:
        monkeypatch.delenv("TYGAR_SOLVER", raising=False)
        cmd = MINISMT
    lib, query = tiny_problem()
    result = Synthesizer(lib, query, SynthConfig(
        variant="tygar0", max_solutions=1, solver_cmd=cmd)).run()
    assert result.status == "solved"
    assert spawned == [cmd]
