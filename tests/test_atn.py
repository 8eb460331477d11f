import itertools
import random
import time

import pytest

from tygar import atn
from tygar.atn import (
    Transition,
    TransitionNet,
    _finals,
    _initial,
    _instances,
    _sorted_places,
    added_ascending,
    build_atn,
    final_place_order,
    refine_atn,
)
from tygar.lattice import (
    AbstractCover,
    arg_pair,
    close_under_meet,
    meet,
    subsumes,
    unify,
)
from tygar.synth import BASELINE_BUDGET, monomorphise
from tygar.typecheck import apply_transformer
from tygar.types import (
    App,
    BOTTOM,
    FnType,
    TOP,
    canonical,
    render_type,
    resolve_canonical,
)

from conftest import (
    CONS3,
    bfs_oracle,
    cover_of,
    fn,
    lib_of,
    rand_base,
    rand_env,
    rand_cover,
    rand_library,
    rand_refinement_chain,
    rand_shared,
    tiny_problem,
    ty,
)


def groups_of(net):
    return {(t.args, t.out): set(t.members)
            for t in net.transitions if not t.is_copy}


def test_build_top_cover_running_example():
    lib, query = tiny_problem()
    net = build_atn(lib, query, AbstractCover([]))
    assert net.places == [TOP]
    assert net.initial == {TOP: 2}
    g = groups_of(net)
    assert g[((TOP, TOP), TOP)] == {"fromMaybe"}
    assert g[((TOP,), TOP)] == {"catMaybes", "listToMaybe"}  # coalesced
    copies = [t for t in net.transitions if t.is_copy]
    assert len(copies) == 1 and copies[0].out == TOP
    assert copies[0].out_mult == 2 and copies[0].args == (TOP,)
    assert all(t.out_mult == 1 for t in net.transitions if not t.is_copy)


def test_transition_is_a_frozen_value_record():
    # three fields and no instance dict: the output multiplicity follows
    # from the members, and input multiplicities are counted in `args`
    t = Transition((TOP, App("A")), TOP, ("f",))
    same = Transition(args=(TOP, App("A")), out=TOP, members=("f",))
    assert Transition._fields == ("args", "out", "members")
    assert not hasattr(t, "__dict__")
    assert t == same and hash(t) == hash(same) == \
        hash(((TOP, App("A")), TOP, ("f",)))
    assert t != Transition((TOP, App("A")), TOP, ("g",))
    assert Transition((TOP,), TOP) == Transition((TOP,), TOP, ())
    assert repr(t) == ("Transition(args=(Var(t0), App(A)), out=Var(t0), "
                       "members=('f',))")
    assert t.out_mult == 1 and Transition((TOP,), TOP).out_mult == 2
    for f in ("args", "out", "members", "out_mult", "in_counts"):
        with pytest.raises(AttributeError):
            setattr(t, f, ())
    assert t == same and t.out == TOP


def test_net_is_a_mutable_record():
    lib, query = tiny_problem()
    net = build_atn(lib, query, cover_of("a", "L t"))
    again = build_atn(lib, query, cover_of("a", "L t"))
    assert net == again and net is not again
    with pytest.raises(TypeError):
        hash(net)
    again.places = again.places[1:]
    assert net != again


def test_build_query_like_cover_has_f_instance():
    lib, query = tiny_problem()
    qa = App("a")
    net = build_atn(lib, query, close_under_meet([qa, ty("List t")]))
    g = groups_of(net)
    assert g[((qa, TOP), qa)] == {"fromMaybe"}


def test_component_with_all_bottom_tuples_has_no_transition():
    lib = lib_of("g :: B a -> C", "h :: D -> D")
    query = FnType((App("D"),), App("D"))
    # cover without any B-compatible place other than excluded by clash
    net = build_atn(lib, query, close_under_meet([ty("D")]))
    # g can still fire on tau; restrict to the D place only by checking
    # that no (D,) instance of g exists
    assert ((ty("D"),), ty("D")) not in {
        k for k, v in groups_of(net).items() if "g" in v}


def test_no_delete_transitions_and_copy_only_on_initial():
    lib, query = tiny_problem()
    net = build_atn(lib, query, close_under_meet([App("a"), ty("List t")]))
    for t in net.transitions:
        if t.is_copy:
            assert net.initial.get(t.out, 0) > 0
            assert t.out_mult == 2 and t.args == (t.out,)
        else:
            assert t.out_mult == 1


def test_finals_subsume_query_ret():
    lib, query = tiny_problem()
    net = build_atn(lib, query, close_under_meet([App("a"), ty("List t")]))
    assert net.finals == frozenset([App("a"), TOP])
    for p in net.finals:
        assert subsumes(query.ret, p)


def test_refine_atn_running_example_reroutes_catMaybes():
    lib, query = tiny_problem()
    cover0 = AbstractCover([])
    net0 = build_atn(lib, query, cover0)
    net1 = refine_atn(net0, lib, AbstractCover([ty("List t")]))
    g = groups_of(net1)
    # catMaybes now outputs the list place; a new fromMaybe instance
    # consumes it
    assert g[((TOP,), ty("List t0"))] == {"catMaybes"}
    assert g[((ty("List t0"), TOP), ty("List t0"))] == {"fromMaybe"}
    assert g[((TOP,), TOP)] == {"listToMaybe"}


def test_refine_atn_preconditions():
    lib, query = tiny_problem()
    cover0 = AbstractCover([])
    net0 = build_atn(lib, query, cover0)
    # the cover must add a type to the net's cover and drop none
    with pytest.raises(ValueError, match="strictly refine"):
        refine_atn(net0, lib, cover0)
    net1 = refine_atn(net0, lib, AbstractCover([ty("List t")]))
    with pytest.raises(ValueError, match="strictly refine"):
        refine_atn(net1, lib, AbstractCover([App("a")]))
    cov = cover_of("P A b", "P a B")
    lib_h = lib_of("h :: D -> D")
    net = build_atn(lib_h, FnType((App("D"),), App("D")), cov)
    with pytest.raises(ValueError, match="meet-closed"):
        # adding P c c alone: its meet with P A b, P A A, is missing
        refine_atn(net, lib_h, AbstractCover([*cov, ty("P c c")]))


def test_refine_atn_returns_a_net_over_the_given_cover():
    # the synthesiser's cover and its net's cover are one object, with
    # one abstraction memo
    lib, query = tiny_problem()
    net0 = build_atn(lib, query, AbstractCover([]))
    cover = AbstractCover([ty("List t"), ty("Maybe t")])
    assert refine_atn(net0, lib, cover).cover is cover


def test_refine_atn_checks_deadline_before_first_type(monkeypatch):
    lib, query = tiny_problem()
    net0 = build_atn(lib, query, AbstractCover([]))
    steps = []
    add_type = atn._add_type

    def counted(*args):
        steps.append(args)
        return add_type(*args)

    monkeypatch.setattr(atn, "_add_type", counted)
    with pytest.raises(TimeoutError):
        refine_atn(net0, lib, AbstractCover([ty("List t")]),
                   deadline=time.monotonic() - 1)
    assert steps == []


def test_refine_atn_checks_deadline_inside_a_step(monkeypatch):
    # the clock passes the deadline once the step has asked the
    # transformer anything (the re-route asks it first, on tuples
    # without the added type), or once it has tried one or two new
    # argument tuples: only the check inside `_add_type` before each
    # tuple can notice
    lib, query = tiny_problem()
    net0 = build_atn(lib, query, AbstractCover([]))
    cover = AbstractCover([ty("List t")])
    added, = cover.members - net0.cover.members
    calls, tried = [], []
    transform = atn.apply_transformer

    def counted(library, c, args):
        calls.append((c, args))
        if added in args:
            tried.append((c, args))
        return transform(library, c, args)

    monkeypatch.setattr(atn, "apply_transformer", counted)
    refine_atn(net0, lib, cover)
    assert len(tried) >= 3 and calls[0] not in tried
    for tried_before in (0, 1, 2):
        calls.clear()
        tried.clear()
        monkeypatch.setattr(
            atn.time, "monotonic",
            lambda: 100.0 if calls and len(tried) >= tried_before else 0.0)
        with pytest.raises(TimeoutError):
            refine_atn(net0, lib, cover, deadline=50.0)
        assert len(tried) == tried_before


def test_added_ascending_keeps_prefixes_meet_closed():
    old = AbstractCover([])
    new = close_under_meet([ty("P A b"), ty("P a B")])
    added = added_ascending(old, new)
    members = set(old.members)
    for a in added:
        members.add(a)
        for x in list(members):
            for y in list(members):
                assert meet(x, y) in members


def test_refine_atn_irrelevant_type_changes_only_places():
    lib, query = tiny_problem()
    cover0 = AbstractCover([])
    net0 = build_atn(lib, query, cover0)
    added = ty("Z")  # no transformer produces or consumes it usefully
    lib.declare_constructor("Z", 0)
    net1 = refine_atn(net0, lib, AbstractCover([added]))
    assert ty("Z") in net1.places
    scratch = build_atn(lib, query, AbstractCover([TOP, BOTTOM, added]))
    assert groups_of(net1) == groups_of(scratch)


def equivalent_nets(a, b) -> bool:
    return (groups_of(a) == groups_of(b) and a.initial == b.initial
            and a.finals == b.finals and set(a.places) == set(b.places))


def test_refine_atn_matches_from_scratch_random():
    rng = random.Random(59)
    done = 0
    while done < 25:
        lib = rand_library(rng, rng.randint(2, 5))
        env = rand_env(rng, CONS3, rng.randint(1, 2))
        query = FnType(tuple(env.values()), App("A"))
        cover = close_under_meet(
            rand_base(rng, CONS3, 2) for _ in range(rng.randint(0, 3)))
        added = canonical(rand_base(rng, CONS3, 2))
        if added in cover.members:
            continue
        bigger = close_under_meet(list(cover.members) + [added])
        if set(bigger.members) != set(cover.members) | {added}:
            continue  # closure added more than one type; not a single step
        net = build_atn(lib, query, cover)
        incremental = refine_atn(net, lib, bigger)
        scratch = build_atn(lib, query, bigger)
        assert equivalent_nets(incremental, scratch)
        done += 1


def reference_parents(cover, added):
    """Direct successors of `added` in the subsumption order of `cover`,
    by a scan of every pair of members above it."""
    def strictly_above(a, b):
        return a != b and subsumes(b, a)

    above = [m for m in cover.members
             if m is not BOTTOM and strictly_above(m, added)]
    return [m for m in above
            if not any(strictly_above(m, o) for o in above if o != m)]


def reference_refine_atn(net, lib, query, old, added):
    """One step of `refine_atn`: every tried (component, args) tuple,
    re-routed or new, is abstracted from the transformer's result, and
    no argument position is ruled out beforehand."""
    added = canonical(added)
    new_cover = AbstractCover(set(old.members) | {added})
    assert all(meet(m, added) in new_cover.members for m in old.members)
    parents = set(reference_parents(old, added))
    places = sorted(_sorted_places(old) + [added], key=render_type)
    order = {c: i for i, c in enumerate(lib.components)}

    groups: dict = {}
    for t in net.transitions:
        if not t.is_copy:
            groups[(t.args, t.out)] = list(t.members)

    def transformer_out(component, args):
        return new_cover.abstract(apply_transformer(lib, component, args))

    for (args, out) in [k for k in groups if k[1] in parents]:
        for c in list(groups[(args, out)]):
            new_out = transformer_out(c, args)
            if new_out != out:
                groups[(args, out)].remove(c)
                groups.setdefault((args, new_out), [])
                if c not in groups[(args, new_out)]:
                    groups[(args, new_out)].append(c)

    tried: set = set()
    for (args, _out), members in list(groups.items()):
        parent_positions = [j for j, a in enumerate(args) if a in parents]
        if not parent_positions:
            continue
        for mask in range(1, 1 << len(parent_positions)):
            new_args = list(args)
            for bit, j in enumerate(parent_positions):
                if mask & (1 << bit):
                    new_args[j] = added
            new_args = tuple(new_args)
            for c in members:
                if (c, new_args) in tried:
                    continue
                tried.add((c, new_args))
                new_out = transformer_out(c, new_args)
                if new_out is BOTTOM:
                    continue
                group = groups.setdefault((new_args, new_out), [])
                if c not in group:
                    group.append(c)

    groups = {k: sorted(v, key=order.__getitem__)
              for k, v in groups.items() if v}
    initial = _initial(query, new_cover)
    transitions = [Transition(args, out, tuple(members))
                   for (args, out), members in groups.items()]
    transitions += [Transition((p,), p)
                    for p in places if initial.get(p, 0) > 0]
    return TransitionNet(places, transitions, initial,
                         _finals(places, query.ret), query, new_cover)


def refinement_chains(seed: int, draws: int):
    """Seeded (lib, query, nets, reference nets): `rand_refinement_chain`'s
    nets, and the one-type reference's fold from the same first net."""
    rng = random.Random(seed)
    for _ in range(draws):
        lib, query, nets = rand_refinement_chain(rng)
        refs = [nets[0]]
        for net in nets[1:]:
            added, = net.cover.members - refs[-1].cover.members
            refs.append(reference_refine_atn(refs[-1], lib, query,
                                             refs[-1].cover, added))
        yield lib, query, nets, refs


def same_net(a, b) -> bool:
    """Equal transitions in equal order, and equal places, marking,
    finals and cover."""
    def rows(net):
        return [(t.args, t.out, t.out_mult, t.members)
                for t in net.transitions]
    return (rows(a) == rows(b) and a.places == b.places
            and a.initial == b.initial and a.finals == b.finals
            and a.cover == b.cover)


def test_refine_atn_keeps_reference_transition_order_random():
    # the native search's fire indices are positions in `transitions`,
    # so refinement must reproduce the reference's order, not only its
    # set of groups
    steps = moved = 0
    for _lib, _query, nets, refs in refinement_chains(61, 200):
        for net, ref in zip(nets[1:], refs[1:]):
            assert same_net(net, ref)
            steps += 1
        before, after = nets[0], nets[-1]
        outs = {(c, t.args): t.out for t in before.transitions
                for c in t.members}
        moved += sum(1 for t in after.transitions for c in t.members
                     if outs.get((c, t.args), t.out) != t.out)
    assert steps > 200 and moved > 50


def test_batched_refine_atn_equals_reference_fold_random():
    # one call with the whole refined cover builds the net a fold of the
    # one-type reference builds, transition order included
    batches = 0
    for lib, _query, nets, refs in refinement_chains(61, 200):
        if len(nets) == 1:
            continue  # the draw added no type: there is nothing to refine
        net = refine_atn(nets[0], lib, refs[-1].cover)
        assert same_net(net, refs[-1])
        batches += len(nets) > 2
    assert batches > 50


def test_added_type_has_one_parent_its_old_abstraction_random():
    # in a meet-closed cover an added type has one direct parent, the
    # least member above it, which `_add_type` takes from `abstract`
    steps = 0
    for _lib, _query, nets, _refs in refinement_chains(61, 200):
        for old, new in zip(nets, nets[1:]):
            added, = new.cover.members - old.cover.members
            assert reference_parents(old.cover, added) == [
                old.cover.abstract(added)]
            steps += 1
    assert steps > 200


def test_refinement_steps_need_no_cover_of_their_own_random():
    # one call refines a net through every prefix `step` of the added
    # types, and `_add_type` builds no cover of a prefix: an added type's
    # one parent is its abstraction in the first cover, and a transformer
    # result's abstraction in `step` is read off the last cover and the
    # first (`later` counts results whose abstraction in the last cover
    # is added after `step`); both are held to a cover of `step`
    rng = random.Random(73)
    steps = results = later = 0
    for _ in range(300):
        lib, _query, nets = rand_refinement_chain(rng)
        first, last = nets[0].cover, nets[-1].cover
        if first == last:
            continue
        net = refine_atn(nets[0], lib, last)
        rs = {apply_transformer(lib, c, t.args)
              for t in net.transitions for c in t.members}
        step = set(first.members)
        for a in added_ascending(first, last):
            assert reference_parents(AbstractCover(step), a) == [
                first.abstract(a)]
            step.add(a)
            cover = AbstractCover(step)
            for r in rs:
                f = last.abstract(r)
                assert cover.abstract(r) == (
                    f if f in step else first.abstract(f))
                results += 1
                later += f not in step
            steps += 1
    assert steps > 300 and results > 1000 and later > 50


def test_added_type_has_two_parents_in_a_cover_not_meet_closed():
    # without the meet P A A of its members, P A A sits below both, so
    # `refine_atn` needs a meet-closed `net.cover`
    cover = AbstractCover([ty("P t A"), ty("P A t")])
    parents = reference_parents(cover, ty("P A A"))
    assert sorted(parents, key=render_type) == [ty("P A t0"), ty("P t0 A")]


def test_net_outputs_match_apply_transformer_random():
    # in every net, built or refined, each transition sits on each of
    # its members' concrete results abstracted to the net's cover
    checked = 0
    for lib, _query, nets, _refs in refinement_chains(67, 200):
        for net in nets:
            for t in net.transitions:
                for c in t.members:
                    assert t.out == net.cover.abstract(
                        apply_transformer(lib, c, t.args))
                    checked += 1
    assert checked > 1000


def test_instances_match_apply_transformer_random():
    # the pruned depth-first search lists, in product order, exactly the
    # argument tuples the one-shot transformer does not send to bottom,
    # each with the transformer's result
    rng = random.Random(71)
    checked = 0
    for _ in range(40):
        lib = rand_library(rng, rng.randint(1, 4))
        cover = rand_cover(rng, CONS3, rng.randint(0, 4))
        places = _sorted_places(cover)
        for c in lib.components:
            expected = []
            for args in itertools.product(places, repeat=lib.arity(c)):
                out = apply_transformer(lib, c, args)
                if out is not BOTTOM:
                    expected.append((args, out))
            assert _instances(lib, c, places) == expected
            checked += len(expected)
    assert checked > 100


def reference_instances(lib, component, places):
    """`_instances` trying every place at every argument."""
    fn = lib.components[component].body
    out = []

    def extend(j, bindings, chosen):
        if j == len(fn.params):
            out.append((tuple(chosen), resolve_canonical(fn.ret, bindings)))
            return
        for place in places:
            extended = unify([arg_pair(j, fn.params[j], place)], bindings)
            if extended is not None:
                extend(j + 1, extended, chosen + [place])

    extend(0, {}, [])
    return out


def test_instances_match_reference_on_ground_and_open_places_random():
    # a ground formal skips each other ground place without unifying,
    # and the top place, a lone variable, is taken without unifying;
    # half the libraries are monomorphised, so ground formals meet
    # ground places
    rng = random.Random(2213)
    checked = ground = top = 0
    for _ in range(100):
        lib = rand_library(rng, rng.randint(1, 4))
        if rng.random() < 0.5:
            lib = monomorphise(lib, BASELINE_BUDGET)
        pool = []
        cover = close_under_meet(
            [*rand_cover(rng, CONS3, rng.randint(0, 3)).members,
             *(rand_shared(rng, pool) for _ in range(rng.randint(1, 6)))])
        places = _sorted_places(cover)
        for c in lib.components:
            want = reference_instances(lib, c, places)
            assert _instances(lib, c, places) == want, (c, places)
            checked += len(want)
            ground += sum(1 for args, _ in want
                          if len(args) > 1 and all(a.ground for a in args))
            top += sum(1 for args, _ in want if TOP in args)
    assert checked > 1000 and ground > 50 and top > 300


def test_final_place_order_examples():
    lib, query = tiny_problem()
    net = build_atn(lib, query, close_under_meet([App("a")]))
    assert final_place_order(net) == [App("a"), TOP]

    net2 = build_atn(lib, query, AbstractCover([]))
    assert final_place_order(net2) == [TOP]

    lib3 = lib_of("mk :: M t -> M (M t)")
    query3 = FnType((ty("M (M X)"),), ty("M (M X)"))
    net3 = build_atn(lib3, query3, cover_of("M t", "M (M t)"))
    order = final_place_order(net3)
    assert order == [ty("M (M t0)"), ty("M t0"), TOP]
    # pairwise check: more specific always first
    for i, p in enumerate(order):
        for q in order[i + 1:]:
            assert not (q != p and subsumes(q, p))


def test_coalescing_transparency():
    # grouped transitions cover exactly the per-component instance set,
    # and the net with one transition per member admits the same
    # concrete solutions
    from tygar.lattice import CONCRETE
    from tygar.pathgen import from_path
    from tygar.typecheck import check

    lib, query = tiny_problem()
    cover = close_under_meet([App("a"), ty("List t")])
    on = build_atn(lib, query, cover)
    off = TransitionNet(on.places, [t for t in on.transitions if t.is_copy] + [
        Transition(t.args, t.out, (m,))
        for t in on.transitions for m in t.members],
        on.initial, on.finals, on.query, on.cover)
    single = [(t.args, t.out, t.members[0]) for t in off.transitions
              if not t.is_copy]
    instances = {(args, cover.abstract(result), c) for c in lib.components
                 for args, result in _instances(lib, c, on.places)}
    assert len(single) == len(instances) and set(single) == instances

    def solutions(net):
        out = set()
        for path in bfs_oracle(net, 3):
            for nf, _ in from_path(lib, net, path):
                if check(lib, CONCRETE, nf, query):
                    out.add(nf.body)
        return out

    assert solutions(on) == solutions(off)


def test_dump_is_deterministic():
    lib, query = tiny_problem()
    a = build_atn(lib, query, cover_of("a", "L t")).dump()
    b = build_atn(lib, query, cover_of("a", "L t")).dump()
    assert a == b and "places:" in a and "transitions:" in a


def test_dump_golden_top_cover():
    lib, query = tiny_problem()
    net = build_atn(lib, query, AbstractCover([]))
    assert net.dump() == (
        "places:\n"
        "  t0  [I=2, final]\n"
        "transitions:\n"
        "  copy[t0]\n"
        "  {catMaybes,listToMaybe}: (t0) -> t0\n"
        "  {fromMaybe}: (t0, t0) -> t0"
    )
