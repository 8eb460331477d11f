import collections
import random

import pytest

from tygar.atn import added_ascending, build_atn, refine_atn
from tygar.lattice import CONCRETE, AbstractCover, close_under_meet, subsumes
from tygar.pathgen import from_path
from tygar.reach import ReplayError
from tygar.synth import (
    BASELINE_BUDGET,
    BaselineBudgetExceeded,
    ground_cover,
    monomorphise,
)
from tygar.typecheck import check, infer
from tygar.types import (
    BOTTOM,
    App,
    FnType,
    NormalForm,
    TermVar,
    render_term,
    term_size,
)

from conftest import (
    CONS3,
    StateSpaceCap,
    bfs_oracle,
    lib_of,
    rand_base,
    rand_env,
    rand_ground,
    rand_library,
    tiny_problem,
    ty,
)


def transition_index(net, members) -> int:
    for i, t in enumerate(net.transitions):
        if set(t.members) == set(members):
            return i
    raise AssertionError(f"no transition with members {members}")


def test_swap_pair_under_top_cover():
    lib, query = tiny_problem()
    net = build_atn(lib, query, AbstractCover([]))
    f = transition_index(net, {"fromMaybe"})
    progs = [render_term(nf) for nf, _ in from_path(lib, net, (f,))]
    assert progs == ["fromMaybe arg0 arg1", "fromMaybe arg1 arg0"]


def test_concrete_net_singleton():
    lib, query = tiny_problem()
    cover = close_under_meet([
        App("a"), ty("List t"), ty("List (Maybe t)"), ty("Maybe (Maybe t)")])
    net = build_atn(lib, query, cover)
    c = transition_index(net, {"catMaybes"})
    # find the l and f instances on the c-l-f chain
    lt = net.transitions[c].out
    l = next(i for i, t in enumerate(net.transitions)
             if t.members == ("listToMaybe",) and t.args == (lt,))
    f = next(i for i, t in enumerate(net.transitions)
             if t.members == ("fromMaybe",) and t.args[0] == App("a"))
    progs = [render_term(nf) for nf, _ in from_path(lib, net, (c, l, f))]
    assert progs == ["fromMaybe arg0 (listToMaybe (catMaybes arg1))"]


def test_empty_path_single_argument():
    lib = lib_of("h :: D -> D")
    query = FnType((App("D"),), App("D"))
    net = build_atn(lib, query, close_under_meet([App("D")]))
    progs = list(from_path(lib, net, ()))
    assert progs == [(NormalForm(("arg0",), TermVar("arg0")), App("D"))]


def test_invalid_path_raises():
    lib, query = tiny_problem()
    net = build_atn(lib, query, AbstractCover([]))
    f = transition_index(net, {"fromMaybe"})
    with pytest.raises(ReplayError):
        list(from_path(lib, net, (f, f)))


def distinct_apps(term) -> set:
    out = set()
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, TermVar):
            continue
        out.add(t)
        stack.extend(t.args)
    return out


def test_every_program_uses_every_argument_and_counts_apps():
    lib, query = tiny_problem()
    net = build_atn(lib, query, AbstractCover([]))
    for path in bfs_oracle(net, 4):
        comp_firings = sum(1 for i in path if not net.transitions[i].is_copy)
        has_copy = any(net.transitions[i].is_copy for i in path)
        for nf, _ in from_path(lib, net, path):
            text = render_term(nf)
            for arg in nf.params:
                assert arg in text  # relevancy
            if not has_copy:
                assert term_size(nf.body) == comp_firings
            else:
                # copies may duplicate computed tokens: sharing makes the
                # tree bigger than the firing count, never the node set
                assert len(distinct_apps(nf.body)) <= comp_firings
                assert term_size(nf.body) >= comp_firings


def test_soundness_every_path_yields_typed_program():
    lib, query = tiny_problem()
    for cover in (AbstractCover([]),
                  close_under_meet([App("a"), ty("List t")])):
        net = build_atn(lib, query, cover)
        for path in bfs_oracle(net, 4):
            programs = [nf for nf, _ in from_path(lib, net, path)]
            assert programs
            assert all(check(lib, cover, nf, query) for nf in programs)


def test_replay_checks_against_cover_on_random_nets():
    # the synthesis loop checks candidates only concretely: every program
    # replayed from a net, built or refined, must check against its cover
    rng = random.Random(83)
    checked = refined = 0
    for _ in range(40):
        lib = rand_library(rng, rng.randint(2, 4))
        env = rand_env(rng, CONS3, rng.randint(1, 2))
        query = FnType(tuple(env.values()), rand_ground(rng, CONS3, 1))
        cover = close_under_meet(
            rand_base(rng, CONS3, 2) for _ in range(rng.randint(0, 3)))
        nets = [build_atn(lib, query, cover)]
        bigger = close_under_meet(list(cover.members) + [
            rand_base(rng, CONS3, 2) for _ in range(rng.randint(1, 2))])
        for a in added_ascending(cover, bigger):
            nets.append(refine_atn(nets[-1], lib,
                                   AbstractCover([*nets[-1].cover, a])))
            refined += 1
        for net in nets:
            for path in bfs_oracle(net, 4):
                for nf, _ in from_path(lib, net, path):
                    assert check(lib, net.cover, nf, query), render_term(nf)
                    checked += 1
    assert refined > 20 and checked > 1000


def random_nets(seed: int):
    """(kind, library, net, query) over 200 seeded random problems: each
    draw's built net, its refinements one added type at a time and, if
    the instance budget allows, the baseline variant's monomorphised
    library with its ground cover."""
    rng = random.Random(seed)
    for _ in range(200):
        lib = rand_library(rng, rng.randint(2, 4))
        env = rand_env(rng, CONS3, rng.randint(1, 2))
        query = FnType(tuple(env.values()), rand_ground(rng, CONS3, 1))
        cover = close_under_meet(
            rand_base(rng, CONS3, 2) for _ in range(rng.randint(0, 3)))
        nets = [("built", lib, build_atn(lib, query, cover))]
        bigger = close_under_meet(list(cover.members) + [
            rand_base(rng, CONS3, 2) for _ in range(rng.randint(1, 2))])
        for a in added_ascending(cover, bigger):
            last = nets[-1][2]
            nets.append(("refined", lib,
                         refine_atn(last, lib,
                                    AbstractCover([*last.cover, a]))))
        try:
            mono = monomorphise(lib, BASELINE_BUDGET)
        except BaselineBudgetExceeded:
            pass
        else:
            nets.append(("mono", mono,
                         build_atn(mono, query, ground_cover(mono, query))))
        for kind, net_lib, net in nets:
            yield kind, net_lib, net, query


def oracle_paths(net) -> list:
    """Every valid path of length at most 3, or none if the state space
    is too large to list."""
    try:
        return bfs_oracle(net, 3, state_cap=20_000)
    except StateSpaceCap:
        return []


def test_carried_types_match_concrete_inference():
    # the synthesis loop classifies a replayed program by the type its
    # surviving token carries: that type must be what concrete `infer`
    # derives, on built and refined nets and on the baseline variant's
    # monomorphised library with its ground cover
    programs = collections.Counter()
    for kind, net_lib, net, query in random_nets(89):
        for path in oracle_paths(net):
            for nf, carried in from_path(net_lib, net, path):
                env = dict(zip(nf.params, query.params))
                assert carried == infer(net_lib, env, CONCRETE, nf.body), \
                    render_term(nf)
                verdict = subsumes(query.ret, carried)
                assert verdict == check(net_lib, CONCRETE, nf, query)
                programs[kind, verdict] += 1
    # spurious and well-typed programs on built and refined nets; the
    # ground cover of the monomorphised library replays no spurious one
    assert all(programs[kind, verdict] > 500
               for kind in ("built", "refined") for verdict in (True, False))
    assert programs["mono", True] > 500


def test_pruned_replay_drops_exactly_the_bottom_programs():
    # a pruned replay must yield the unpruned replay's programs minus
    # the bottom-typed ones, in order and with their carried types, and
    # must cut some branch exactly when a bottom-typed program exists;
    # a non-bottom spurious program must never be cut
    seen = collections.Counter()
    for kind, net_lib, net, query in random_nets(97):
        for path in oracle_paths(net):
            full = list(from_path(net_lib, net, path))
            pruned = list(from_path(net_lib, net, path, prune=True))
            kept = [item for item in pruned if item[0] is not None]
            assert kept == [item for item in full if item[1] is not BOTTOM]
            assert all(item == (None, BOTTOM) for item in pruned
                       if item[0] is None)
            bottom = any(ty is BOTTOM for _, ty in full)
            assert (len(kept) < len(pruned)) == bottom
            for _, ty in kept:
                seen[kind, "solution" if subsumes(query.ret, ty)
                     else "spurious"] += 1
            seen[kind, "cut"] += len(pruned) - len(kept)
    # cuts, kept solutions and kept non-bottom spurious programs on
    # built and refined nets
    assert all(seen[kind, what] > 500 for kind in ("built", "refined")
               for what in ("cut", "solution", "spurious"))
    assert seen["mono", "solution"] > 500


def test_determinism():
    lib, query = tiny_problem()
    net = build_atn(lib, query, AbstractCover([]))
    for path in bfs_oracle(net, 3):
        one = list(from_path(lib, net, path))
        two = list(from_path(lib, net, path))
        assert one == two


def test_copy_transition_duplicates_chosen_token():
    lib, query = tiny_problem()
    net = build_atn(lib, query, AbstractCover([]))
    kappa = next(i for i, t in enumerate(net.transitions) if t.is_copy)
    f = transition_index(net, {"fromMaybe"})
    # copy one argument token, then consume all three with two f firings
    progs = [render_term(nf)
             for nf, _ in from_path(lib, net, (kappa, f, f))]
    assert "fromMaybe (fromMaybe arg0 arg0) arg1" in progs
    # duplicated argument appears twice in those programs
    assert any(p.count("arg0") == 2 for p in progs)