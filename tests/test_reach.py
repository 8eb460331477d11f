import random

import pytest

from tygar.atn import Transition, TransitionNet, build_atn
from tygar.lattice import AbstractCover
from tygar.pathgen import ReplayError, from_path
from tygar.reach import PathFinder, _block, encode, incidence
from tygar.smt import SolverClient, SolverError
from tygar.types import App, FnType, Library, render_term

from conftest import (
    StateSpaceCap,
    bfs_oracle,
    rand_net,
    replay,
    sig,
    smt_enumeration,
    tiny_problem,
    ty,
)


def single_place_net(tokens: int) -> TransitionNet:
    p = App("Q0")
    return TransitionNet([p], [], {p: tokens}, frozenset([p]),
                         FnType((), p), AbstractCover([p]))


def mono_option_net() -> TransitionNet:
    """Monomorphic option-library net: places a, M a, L a, L (M a),
    M (M a); one transition per component instance."""
    a, Ma, La = ty("Qa"), ty("M Qa"), ty("L Qa")
    LMa, MMa = ty("L (M Qa)"), ty("M (M Qa)")
    places = sorted([a, Ma, La, LMa, MMa], key=str)
    transitions = [
        Transition((a, Ma), a, ("f@a",)),
        Transition((Ma, MMa), Ma, ("f@Ma",)),
        Transition((La,), Ma, ("l@a",)),
        Transition((LMa,), MMa, ("l@Ma",)),
        Transition((LMa,), La, ("c",)),
    ]
    initial = {a: 1, LMa: 1}
    return TransitionNet(places, transitions, initial, frozenset([a]),
                         FnType((a, LMa), a), AbstractCover(places))


def mono_option_lib() -> Library:
    """The components of `mono_option_net`, under its member names."""
    lib = Library()
    for name, text in [("f@a", "Qa -> M Qa -> Qa"),
                       ("f@Ma", "M Qa -> M (M Qa) -> M Qa"),
                       ("l@a", "L Qa -> M Qa"),
                       ("l@Ma", "L (M Qa) -> M (M Qa)"),
                       ("c", "L (M Qa) -> L Qa")]:
        lib.add_component(name, sig(f"x :: {text}")[1])
    return lib


def test_encode_trivial_sat(solver):
    net = single_place_net(1)
    solver.reset()
    solver.send(encode(net, 0, net.places[0]))
    assert solver.check_sat()


def test_encode_trivial_unsat(solver):
    net = single_place_net(2)  # initial marking is not a final marking
    solver.reset()
    solver.send(encode(net, 0, net.places[0]))
    assert not solver.check_sat()


def first_path(net: TransitionNet, max_len: int, solver=None):
    """The first path PathFinder returns or, given a `solver`, the first
    model of the encoding in PathFinder's pair order."""
    if solver is not None:
        return next(smt_enumeration(net, max_len, solver), None)
    finder = PathFinder(max_len)
    finder.reset(net)
    return finder.next_path()


def test_mono_net_decodes_c_l_f(solver):
    net = mono_option_net()
    path = first_path(net, 3, solver)
    assert [net.transitions[i].members[0] for i in path] == ["c", "l@a", "f@a"]


def test_mono_net_decodes_c_l_f_native():
    net = mono_option_net()
    path = first_path(net, 3)
    assert [net.transitions[i].members[0] for i in path] == ["c", "l@a", "f@a"]


def test_shortest_path_prefers_short(solver):
    lib, query = tiny_problem()
    net = build_atn(lib, query, AbstractCover([]))
    path = first_path(net, 6, solver)
    assert len(path) == 1
    assert net.transitions[path[0]].members == ("fromMaybe",)


def test_shortest_path_prefers_short_native():
    lib, query = tiny_problem()
    net = build_atn(lib, query, AbstractCover([]))
    path = first_path(net, 6)
    assert len(path) == 1
    assert net.transitions[path[0]].members == ("fromMaybe",)


def test_no_path(solver):
    net = single_place_net(2)
    assert first_path(net, 3, solver) is None


def test_no_path_native():
    net = single_place_net(2)
    assert first_path(net, 3) is None


def test_empty_path_when_initial_is_final(solver):
    net = single_place_net(1)
    assert first_path(net, 3, solver) == ()


def test_empty_path_when_initial_is_final_native():
    net = single_place_net(1)
    assert first_path(net, 3) == ()


def test_replay_and_decode_soundness(solver):
    # every tok value in the model matches explicit replay
    net = mono_option_net()
    length = 3
    final = [p for p in net.finals][0]
    solver.reset()
    solver.send(encode(net, length, final))
    assert solver.check_sat()
    fire = solver.get_values([f"fire_{k}" for k in range(length)])
    path = tuple(fire[f"fire_{k}"] - 1 for k in range(length))
    toks = solver.get_values([
        f"tok_{pid}_{k}" for pid in range(len(net.places))
        for k in range(length + 1)])
    markings = replay(net, path)
    for k, marking in enumerate(markings):
        for pid in range(len(net.places)):
            assert toks[f"tok_{pid}_{k}"] == marking[pid]


def test_replay_error_on_invalid_path():
    # the product's one check of a path is its replay into programs:
    # f@a needs an M a token, which the initial marking lacks and the
    # path c, l@a, f@a uses up, so both paths misfire, pruned or not
    net, lib = mono_option_net(), mono_option_lib()
    f, l, c = 0, 2, 4
    assert [render_term(nf) for nf, _ in from_path(lib, net, (c, l, f))] == [
        "f@a arg0 (l@a (c arg1))"]
    for path in [(f, f, f, f), (c, l, f, f)]:
        for prune in (False, True):
            with pytest.raises(ReplayError):
                list(from_path(lib, net, path, prune))


def test_bfs_oracle_examples():
    net = mono_option_net()
    paths = bfs_oracle(net, 3)
    names = [[net.transitions[i].members[0] for i in p] for p in paths]
    assert ["c", "l@a", "f@a"] in names
    empty = TransitionNet([App("Q0")], [], {App("Q0"): 2}, frozenset(),
                          FnType((), App("Q0")), AbstractCover([App("Q0")]))
    assert bfs_oracle(empty, 4) == []


def test_bfs_state_cap():
    lib, query = tiny_problem()
    net = build_atn(lib, query, AbstractCover([]))
    with pytest.raises(StateSpaceCap):
        bfs_oracle(net, 6, state_cap=5)


def incidence_reference(net: TransitionNet) -> list:
    """`incidence` written out: input multiplicities counted in each
    transition's `args`."""
    pid = {p: i for i, p in enumerate(net.places)}
    out = []
    for t in net.transitions:
        pre = sorted((pid[p], t.args.count(p)) for p in set(t.args))
        delta = {i: -n for i, n in pre}
        o = pid[t.out]
        delta[o] = delta.get(o, 0) + t.out_mult
        out.append((pre, sorted(delta.items())))
    return out


def test_incidence_matches_reference():
    # rand_net draws arguments with replacement, so multiplicities above
    # one occur, as in fromMaybe's (t0, t0) under the top cover
    rng = random.Random(211)
    lib, query = tiny_problem()
    nets = [rand_net(rng) for _ in range(120)]
    nets += [mono_option_net(), build_atn(lib, query, AbstractCover([]))]
    assert any(n > 1 for net in nets for pre, _ in incidence(net)
               for _, n in pre)
    for net in nets:
        assert incidence(net) == incidence_reference(net)


def check_deepening_minimal_length(solver) -> None:
    rng = random.Random(103)
    for _ in range(40):
        net = rand_net(rng)
        paths = bfs_oracle(net, 4, state_cap=50_000)
        got = first_path(net, 4, solver)
        if not paths:
            assert got is None
        else:
            assert got is not None
            assert len(got) == min(len(p) for p in paths)


def test_deepening_returns_minimal_length(solver):
    check_deepening_minimal_length(solver)


def test_deepening_returns_minimal_length_native():
    check_deepening_minimal_length(None)


def test_pathfinder_blocking_enumeration(solver):
    net = mono_option_net()
    # each model is blocked once taken: every path exactly once, in the
    # order PathFinder returns them
    seen = list(smt_enumeration(net, 4, solver))
    assert sorted(seen) == sorted(bfs_oracle(net, 4))
    finder = PathFinder(4)
    finder.reset(net)
    assert list(iter(finder.next_path, None)) == seen
    assert finder.next_path() is None  # and stays exhausted


def test_solver_failure_is_distinct():
    with pytest.raises(SolverError):
        SolverClient("/no/such/solver-binary")


def test_encoding_stays_in_declared_wire_subset():
    # regression guard: scripts must remain portable across SMT-LIB
    # solvers, using only the documented command/operator subset
    import re

    net = mono_option_net()
    script = encode(net, 3, sorted(net.finals, key=str)[0]) + _block((0, 1, 2))
    heads = set(re.findall(r"\(\s*([a-zA-Z=+<>:/-]+[a-zA-Z0-9-]*)", script))
    allowed = {"set-option", "set-logic", "declare-const", "assert",
               "and", "or", "=>", "=", "<=", ">=", "+", "-"}
    assert heads <= allowed, heads - allowed
    # every integer literal is non-negative (negatives use subtraction)
    for tok in script.replace("(", " ").replace(")", " ").split():
        if tok.lstrip("-").isdigit():
            assert not tok.startswith("-"), tok
