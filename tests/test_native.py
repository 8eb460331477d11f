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
import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from tygar import reach, smt, synth
from tygar.atn import TransitionNet, build_atn, final_place_order, refine_atn
from tygar.frontend import load_library, prepare_problem, render_surface, surface_term
from tygar.lattice import AbstractCover
from tygar.pathgen import from_path
from tygar.reach import PathFinder
from tygar.synth import SynthConfig, Synthesizer
from tygar.types import App, FnType, render_term, render_type

from conftest import (
    FIXTURES,
    bfs_oracle,
    fire,
    initial_marking,
    lib_of,
    rand_net,
    rand_refinement_chain,
    replay,
    tiny_problem,
)

ANSWERS = json.loads(
    (Path(__file__).resolve().parent / "data" / "smt_answers.json").read_text())


def net_digest(net) -> str:
    """sha256 of a net's places and of its transitions in index order."""
    text = "\n".join([" ".join(render_type(p) for p in net.places)]
                     + [t.describe() for t in net.transitions])
    return hashlib.sha256(text.encode()).hexdigest()


def recorded(paths: list) -> list:
    """Recorded paths as `next_path` returns them."""
    return [None if p is None else tuple(p) for p in paths]


def enumerate_paths(finder: PathFinder, net) -> list:
    """Every path the finder returns after a reset on `net`."""
    finder.reset(net)
    return list(iter(finder.next_path, None))


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
    assert paths >= 100  # the nets have paths to resume over, not only None


class Recorder:
    """Wraps PathFinder.reset / next_path and logs every query."""

    def __init__(self, monkeypatch):
        self.log: list = []
        reset, next_path = PathFinder.reset, PathFinder.next_path
        log = self.log

        def logged_reset(finder, net):
            log.append(("reset", net))
            return reset(finder, net)

        def logged_next(finder, deadline=math.inf):
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


def oracle_stream(net, max_len: int) -> list:
    """`bfs_oracle`'s paths in the search's order: by length, then by
    final place from most to least precise, then ascending."""
    finals = final_place_order(net)

    def key(path):
        last = replay(net, path)[-1]
        return (len(path), finals.index(net.places[last.index(1)]), path)

    return sorted(bfs_oracle(net, max_len), key=key)


def test_native_order_matches_bfs_oracle():
    # the ordering contract, without a solver
    rng = random.Random(211)
    for _ in range(120):
        net = rand_net(rng)
        assert enumerate_paths(PathFinder(4), net) == oracle_stream(net, 4)


def test_empty_paths_and_nets_without_transitions_match_bfs_oracle():
    # the search has no branch of its own for paths of length 0 or for
    # a net without transitions: on random nets at length 0, and on
    # nets without transitions, every initial marking of up to two
    # tokens on three places, at lengths 0-2, it must list the
    # oracle's paths
    rng = random.Random(223)
    empty = 0
    for _ in range(500):
        net = rand_net(rng)
        got = enumerate_paths(PathFinder(0), net)
        assert got == oracle_stream(net, 0)
        empty += got == [()]
    assert empty > 20
    places = [App(f"Q{i}") for i in range(3)]
    query, cover = FnType((), places[0]), AbstractCover(places)
    found = 0
    for finals in ([places[0]], places[:2]):
        for marking in itertools.product(range(3), repeat=3):
            if sum(marking) > 2:
                continue
            initial = {p: n for p, n in zip(places, marking) if n}
            net = TransitionNet(places, [], initial, frozenset(finals),
                                query, cover)
            for max_len in range(3):
                got = enumerate_paths(PathFinder(max_len), net)
                assert got == oracle_stream(net, max_len)
                found += bool(got)
    assert found == 9  # one token on a final place: 1 + 2 markings, 3 lengths


def test_reused_finder_matches_bfs_oracle_on_refinement_chains():
    # synthesis fires a path the search returns only by replaying it
    # into programs, and a pruned replay that cuts every branch of a path
    # never reaches the final-marking test: so one finder, reset onto
    # each built and refined net of random refinement chains in turn,
    # must list exactly the oracle's paths in the search's order, and
    # each of them must replay, pruned or not, without a `ReplayError`
    rng = random.Random(113)
    finder = PathFinder(4)
    refined = paths = all_cut = 0
    for _ in range(80):
        lib, _query, nets = rand_refinement_chain(rng)
        for i, net in enumerate(nets):
            got = enumerate_paths(finder, net)
            assert got == oracle_stream(net, 4)
            for path in got:
                assert list(from_path(lib, net, path))
                pruned = list(from_path(lib, net, path, prune=True))
                all_cut += all(nf is None for nf, _ in pruned)
            refined += bool(i and got)
            paths += len(got)
    assert refined >= 60 and paths > 2000 and all_cut > 500


@pytest.fixture
def built(monkeypatch) -> list:
    """The transitions the search builds rows for (`reach._row`)."""
    out = []
    row = reach._row

    def counted(t, pid):
        out.append(t)
        return row(t, pid)

    monkeypatch.setattr(reach, "_row", counted)
    return out


def row_keys(transitions) -> set:
    """What a search row depends on, per transition."""
    return {(t.args, t.out, t.out_mult) for t in transitions}


def test_reused_finder_matches_fresh_finder_on_refinement_chains(built):
    # one finder reset onto every net of random refinement chains, as
    # the synthesis loop resets it, and between chains onto two
    # unrelated nets, the first with a place the second lacks. Its place
    # numbering only grows: a net's new places are numbered after the
    # old ones, which keep their indices, and a numbered place a net
    # lacks reads 0. It must answer as a fresh finder does, with the
    # same work, keep the rows of the (args, out, out_mult) keys the net
    # before had, build rows only for the others and hold one row per
    # such key of the current net.
    rng = random.Random(97)
    finder = PathFinder(4)
    paths = carried = lacking = 0
    for _ in range(80):
        lib, _query, nets = rand_refinement_chain(rng)
        if len(nets) > 2:
            nets.append(refine_atn(nets[0], lib, nets[-1].cover))
        other = rand_net(rng)
        wider = TransitionNet([App("Extra")] + other.places, other.transitions,
                              other.initial, other.finals, other.query,
                              other.cover)
        for net in nets + [wider, other]:
            numbering, rows = dict(finder._pid), dict(finder._rows)
            fresh = PathFinder(4)
            want = enumerate_paths(fresh, net)
            before = finder.expanded
            built.clear()
            assert enumerate_paths(finder, net) == want
            assert finder.expanded - before == fresh.expanded
            assert finder._pid == {
                **numbering,
                **{p: i for i, p in enumerate(
                    [p for p in net.places if p not in numbering],
                    start=len(numbering))}}
            keys = row_keys(net.transitions)
            assert set(finder._rows) == keys
            assert all(finder._rows[k] is rows[k] for k in keys & rows.keys())
            assert row_keys(built) == keys - rows.keys()
            carried += len(keys & rows.keys())
            lacking += bool(numbering.keys() - set(net.places))
            paths += len(want)
    assert paths > 2000 and carried > 500 and lacking > 300


def test_copy_and_one_argument_component_on_one_place_are_two_rows(built):
    # under the top cover, `id :: a -> a` for the query `a -> a` has the
    # copy's inputs and output; its output multiplicity tells them apart
    lib = lib_of("id :: a -> a")
    net = build_atn(lib, FnType((App("a"),), App("a")), AbstractCover([]))
    copy, ident = sorted(net.transitions, key=lambda t: t.is_copy,
                         reverse=True)
    assert copy.is_copy and ident.members == ("id",)
    assert (copy.args, copy.out) == (ident.args, ident.out)
    assert (copy.out_mult, ident.out_mult) == (2, 1)
    finder = PathFinder(3)
    paths = enumerate_paths(finder, net)
    assert row_keys(built) == set(finder._rows) == row_keys(net.transitions)
    assert len(finder._rows) == 2
    start = initial_marking(net)
    fired = {t: fire(net, start, net.transitions.index(t))
             for t in (copy, ident)}
    assert fired == {copy: (2,), ident: (1,)}
    i = net.transitions.index(ident)
    assert paths == [(), (i,), (i, i), (i, i, i)]  # no path ends on 2 tokens
    assert [render_term(nf) for nf, _ in from_path(lib, net, (i, i))] == [
        "id (id arg0)"]


def test_finder_keeps_the_row_of_a_transition_whose_members_changed(built):
    # a refinement that re-routes some members of a group leaves the
    # group's (args, out) with fewer members: a new `Transition` with the
    # old inputs and output, for which the finder builds no new row
    rng = random.Random(101)
    changed = 0
    for _ in range(200):
        _lib, _query, nets = rand_refinement_chain(rng)
        finder = PathFinder(4)
        for before, after in zip(nets, nets[1:]):
            enumerate_paths(finder, before)
            members = {(t.args, t.out, t.out_mult): t.members
                       for t in before.transitions}
            built.clear()
            enumerate_paths(finder, after)
            assert not row_keys(built) & members.keys()
            changed += sum(1 for t in after.transitions
                           if members.get((t.args, t.out, t.out_mult),
                                          t.members) != t.members)
    assert changed > 20


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
        is not None


def loaded_after_import(modules: str, watched: tuple) -> list:
    """Which of `watched` a fresh interpreter holds after importing `modules`."""
    code = (f"import sys, {modules}; "
            f"print(*sorted(m for m in sys.modules if m in {watched!r}))")
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    return out.stdout.split()


def test_import_loads_no_solver_client():
    # the SMT client and the bundled solver are test and benchmark aids:
    # loading the library and both console scripts must not import them
    assert loaded_after_import("tygar, tygar.cli, tygar.bench",
                               ("tygar.smt", "tygar.minismt")) == []


def test_import_loads_no_code_generation_modules():
    # a query process starts by importing tygar, which took longer than
    # most syntheses while its records were dataclasses: `dataclasses`
    # imports `inspect`, which imports `ast`, `dis` and `tokenize`
    assert loaded_after_import(
        "tygar, tygar.frontend, tygar.synth, tygar.cli, tygar.bench",
        ("dataclasses", "inspect", "ast", "dis", "tokenize")) == []
