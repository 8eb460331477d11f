import itertools
import random
from collections import Counter

from tygar.lattice import (
    AbstractCover,
    CONCRETE,
    close_under_meet,
    meet,
    mgu,
    refines,
    resolve,
    subsumes,
    unify,
    weakenings,
    _weakenings,
)
from tygar.types import (
    App,
    BOTTOM,
    TOP,
    Var,
    canonical,
    free_vars,
    render_type,
    resolve_canonical,
)

from conftest import (
    CONS3,
    compose,
    cover_of,
    rand_base,
    rand_cover,
    rand_shared,
    rename,
    ty,
    types_upto_depth1,
)


def test_subsumes_chain():
    # P A B below P a B below P a b below top
    assert subsumes(ty("P A B"), ty("P a B"))
    assert subsumes(ty("P a B"), ty("P a b"))
    assert subsumes(ty("P a b"), Var("t"))
    assert not subsumes(ty("P a b"), ty("P A B"))


def test_subsumes_bottom_and_top():
    assert subsumes(BOTTOM, ty("A"))
    assert subsumes(BOTTOM, BOTTOM)
    assert not subsumes(ty("A"), BOTTOM)
    assert subsumes(ty("L (M A)"), TOP)


def test_subsumes_nonlinear():
    assert subsumes(ty("P A A"), ty("P c c"))
    assert not subsumes(ty("P A B"), ty("P c c"))
    assert subsumes(ty("P c c"), ty("P a b"))
    assert not subsumes(ty("P a b"), ty("P c c"))


def test_mgu_example():
    assert mgu(ty("P a B"), ty("P A b")) == {"a": App("A"), "b": App("B")}


def test_mgu_clash_is_bottom():
    assert mgu(ty("P a B"), ty("P b A")) is None


def test_mgu_occurs_check():
    assert mgu(ty("a"), ty("L a")) is None


def test_mgu_soundness_and_generality():
    rng = random.Random(11)
    checked = 0
    for _ in range(2000):
        a = rand_base(rng, CONS3, 2, ("u", "v"))
        b = rand_base(rng, CONS3, 2, ("x", "y"))
        s = mgu(a, b)
        if s is None:
            continue
        checked += 1
        # idempotent: no bound variable occurs in a binding
        assert not {v for t in s.values() for v in free_vars(t)} & s.keys()
        # soundness
        assert resolve(a, s) == resolve(b, s)
        # generality: any other unifier rho factors through s, witnessed
        # by a residual substitution found via one-sided matching
        ground = {v: App("A") for v in ("u", "v", "x", "y")}
        rho = compose(ground, s)
        assert resolve(a, rho) == resolve(b, rho)
        assert subsumes(resolve(a, rho), resolve(a, s))
    assert checked > 200


def test_meet_examples():
    assert canonical(meet(ty("P a B"), ty("P A b"))) == ty("P A B")
    assert meet(ty("P a B"), ty("P b A")) is BOTTOM
    assert meet(ty("X"), TOP) == ty("X")
    assert meet(BOTTOM, ty("A")) is BOTTOM


def test_meet_renames_apart():
    # both sides use the same variable name but they are unrelated
    m = meet(ty("L t"), ty("L (M t)"))
    assert m == ty("L (M t0)")


def test_meet_is_glb_exhaustive_depth1():
    # all canonical types of depth <= 1 over a 3-constructor universe
    universe = types_upto_depth1()
    for a, b in itertools.product(universe, repeat=2):
        m = meet(a, b)
        assert subsumes(m, a) and subsumes(m, b)
        for c in universe:
            if subsumes(c, a) and subsumes(c, b):
                assert subsumes(c, m), \
                    f"{render_type(c)} below both {render_type(a)}, " \
                    f"{render_type(b)} but not below {render_type(m)}"


def test_partial_order_on_random_triples():
    rng = random.Random(5)
    for _ in range(800):
        a = canonical(rand_base(rng, CONS3, 2))
        b = canonical(rand_base(rng, CONS3, 2))
        c = canonical(rand_base(rng, CONS3, 2))
        assert subsumes(a, a)
        if subsumes(a, b) and subsumes(b, a):
            assert a == b  # antisymmetry on canonical forms
        if subsumes(a, b) and subsumes(b, c):
            assert subsumes(a, c)


def test_close_under_meet_examples():
    assert close_under_meet([]) == AbstractCover([])
    assert set(cover_of("A", "L t").members) == \
        {TOP, BOTTOM, ty("A"), ty("L t0")}
    got = close_under_meet([ty("M (M t)"), ty("M t")])
    assert set(got.members) == {TOP, BOTTOM, ty("M t0"), ty("M (M t0)")}


def test_close_under_meet_fixpoint_property():
    rng = random.Random(3)
    for _ in range(40):
        cov = close_under_meet(rand_base(rng, CONS3, 2)
                               for _ in range(rng.randint(0, 4)))
        for a, b in itertools.product(cov.members, repeat=2):
            assert meet(a, b) in cov.members


def test_close_under_meet_on_base_equals_full_closure_random():
    # closing only the new types against an already closed cover gives
    # the closure of the union
    rng = random.Random(29)
    grew = 0
    for _ in range(200):
        base = close_under_meet(rand_base(rng, CONS3, 2)
                                for _ in range(rng.randint(1, 5)))
        new = [rand_base(rng, CONS3, 2) for _ in range(rng.randint(1, 4))]
        got = close_under_meet(new, base)
        assert got == close_under_meet(list(base.members) + new)
        grew += len(got) > len(base) + len(set(map(canonical, new)) - set(base))
    assert grew > 10  # the closure added meets beyond the new types


def test_abstract_of_renamed_type_is_brute_force_most_specific_random():
    # `abstract` does not canonicalise its argument: an alpha-variant
    # gets the member its canonical form gets, the one member below
    # every member that subsumes it
    rng = random.Random(31)
    renamed = 0
    for _ in range(200):
        cov = close_under_meet(rand_base(rng, CONS3, 2)
                               for _ in range(rng.randint(0, 4)))
        b = rand_base(rng, CONS3, 2)
        variant = resolve(b, {"u": Var("t1"), "v": Var("t0")})
        above = [m for m in cov.members
                 if m is not BOTTOM and subsumes(canonical(b), m)]
        best = [m for m in above if all(subsumes(m, o) for o in above)]
        assert len(best) == 1
        assert cov.abstract(variant) == cov.abstract(canonical(b)) == best[0]
        renamed += variant != canonical(variant)
    assert renamed > 30


def test_abstract_examples():
    cov = cover_of("A", "L t")
    assert cov.abstract(ty("L (M A)")) == ty("L t0")
    for m in cov.members:
        if m is not BOTTOM:
            assert cov.abstract(m) == canonical(m)
    assert close_under_meet([]).abstract(ty("M (M A)")) == TOP
    assert cov.abstract(BOTTOM) is BOTTOM


def test_galois_insertion_random():
    rng = random.Random(17)
    for _ in range(400):
        cov = close_under_meet(rand_base(rng, CONS3, 2)
                               for _ in range(rng.randint(0, 4)))
        b = rand_base(rng, CONS3, 2)
        a = cov.abstract(b)
        assert subsumes(canonical(b), a)


def test_monotone_refinement_of_abstraction():
    rng = random.Random(23)
    for _ in range(300):
        base = [rand_base(rng, CONS3, 2) for _ in range(rng.randint(0, 3))]
        coarse = close_under_meet(base)
        fine = close_under_meet(base + [rand_base(rng, CONS3, 2)])
        assert refines(fine, coarse)
        b = rand_base(rng, CONS3, 2)
        bp = resolve(b, {v: App("A") for v in ("u", "v")})  # some b' below b
        assert subsumes(fine.abstract(bp), coarse.abstract(b))


def test_refines_examples():
    a1 = cover_of("A", "L t")
    a2 = close_under_meet(list(a1.members) + [ty("L (M t)"), ty("M (M t)")])
    assert refines(a2, a1)
    assert refines(a1, a1)
    assert not refines(close_under_meet([]), a1)


def test_weakenings_examples():
    assert [render_type(w) for w in weakenings(ty("M (M A)"))] == \
        ["M (M t0)", "M t0", "t0"]
    assert weakenings(Var("a")) == []
    assert weakenings(BOTTOM) == []
    # one result per ground subterm occurrence on variable-free input
    results = weakenings(ty("P A A"))
    assert len(results) == 3
    assert results[:2] == [ty("P t0 A"), ty("P A t0")]


def test_weakenings_nonlinear_split():
    # splitting one occurrence of a repeated variable is a proper move
    ws = weakenings(ty("B t t"))
    assert ty("B t0 t1") in ws


def test_weakenings_strictly_subsume():
    rng = random.Random(29)
    for _ in range(300):
        b = canonical(rand_base(rng, CONS3, 3))
        for w in weakenings(b):
            assert subsumes(b, w)
            assert canonical(w) != b


def test_weakenings_memo_matches_a_fresh_computation_random():
    # proof generalisation asks for the same labels again and again; the
    # memoised answer is the computed one, and each caller gets its own
    # list, so changing one leaves the memo as it was
    rng = random.Random(31)
    _weakenings.cache_clear()
    hits = 0
    for _ in range(400):
        pick = rng.random()
        b = (BOTTOM if pick < 0.05 else canonical(rand_base(rng, CONS3, 3))
             if pick < 0.7 else rand_shared(rng, [], ("u", "v", "w")))
        fresh = list(_weakenings.__wrapped__(b))
        got = weakenings(b)
        assert got == fresh and type(got) is list
        got.append(TOP)
        before = _weakenings.cache_info().hits
        assert weakenings(b) == fresh
        hits += _weakenings.cache_info().hits - before
    assert hits == 400


def test_concrete_domain_is_identity():
    t = ty("L (M A)")
    assert CONCRETE.abstract(t) == t


# ---------------------------------------------------------------------------
# The unification kernel against its first, plainer version


def _reference_occurs(name, t, bindings):
    if isinstance(t, Var):
        if t.name == name:
            return True
        nxt = bindings.get(t.name)
        return nxt is not None and _reference_occurs(name, nxt, bindings)
    if isinstance(t, App):
        return any(_reference_occurs(name, a, bindings) for a in t.args)
    return False


def _reference_walk(t, bindings):
    while isinstance(t, Var):
        b = bindings.get(t.name)
        if b is None:
            return t
        t = b
    return t


def reference_unify(pairs, bindings=None):
    """`unify` with recursive head walks and occurs check, for every pair."""
    work = list(pairs)
    bindings = dict(bindings) if bindings else {}
    while work:
        a, b = work.pop()
        if a is BOTTOM or b is BOTTOM:
            return None
        a = _reference_walk(a, bindings)
        b = _reference_walk(b, bindings)
        if isinstance(a, Var):
            if isinstance(b, Var) and b.name == a.name:
                continue
            if _reference_occurs(a.name, b, bindings):
                return None
            bindings[a.name] = b
        elif isinstance(b, Var):
            if _reference_occurs(b.name, a, bindings):
                return None
            bindings[b.name] = a
        else:
            if a.con != b.con or len(a.args) != len(b.args):
                return None
            work.extend(zip(a.args, b.args))
    return bindings


def reference_subsumes(specific, general):
    """`subsumes` as a recursive walk."""
    if specific is BOTTOM:
        return True
    if general is BOTTOM:
        return False
    bind = {}

    def walk(g, s):
        if isinstance(g, Var):
            if g.name in bind:
                return bind[g.name] == s
            bind[g.name] = s
            return True
        if isinstance(s, Var):
            return False
        if g.con != s.con or len(g.args) != len(s.args):
            return False
        return all(walk(ga, sa) for ga, sa in zip(g.args, s.args))

    return walk(general, specific)


def reference_resolve_canonical(t, bindings):
    """`resolve_canonical` building a new `Var` for each renamed variable."""
    mapping = {}

    def walk(u):
        if isinstance(u, Var):
            b = bindings.get(u.name)
            if b is not None:
                return walk(b)
            name = mapping.get(u.name)
            if name is None:
                name = mapping[u.name] = f"t{len(mapping)}"
            return u if name == u.name else Var(name)
        if isinstance(u, App) and u.args:
            args = tuple(walk(a) for a in u.args)
            for new, old in zip(args, u.args):
                if new is not old:
                    return App(u.con, args)
        return u

    return walk(t)


KERNEL_VARS = ("a", "b", "c", "t0", "t1", "t2")


def rand_bindings(rng):
    """Acyclic triangular bindings: a variable maps only to types over
    the variables after it, so chains and nested bound variables occur."""
    names = list(KERNEL_VARS)
    rng.shuffle(names)
    out = {}
    for i, v in enumerate(names[:-1]):
        if rng.random() < 0.5:
            out[v] = rand_base(rng, CONS3, rng.randint(0, 2), names[i + 1:])
    return out


def rand_kernel_type(rng):
    return BOTTOM if rng.random() < 0.03 else \
        rand_base(rng, CONS3, rng.randint(0, 3), KERNEL_VARS)


def test_unify_matches_reference_random():
    rng = random.Random(83)
    unified = failed = via_bindings = 0
    for _ in range(4000):
        bindings = rand_bindings(rng) if rng.random() < 0.7 else None
        pairs = [(rand_kernel_type(rng), rand_kernel_type(rng))
                 for _ in range(rng.randint(1, 3))]
        got = unify(pairs, bindings)
        want = reference_unify(pairs, bindings)
        assert got == want, (pairs, bindings)
        if want is None:
            failed += 1
            # pairs that fail only under the bindings given
            via_bindings += any(
                reference_unify([p], bindings) is None
                and reference_unify([p], {}) is not None for p in pairs)
            continue
        unified += 1
        assert {v: resolve(t, got) for v, t in got.items()} == \
            {v: resolve(t, want) for v, t in want.items()}
        if bindings:
            assert bindings == dict(bindings)  # the input is not mutated
    assert unified > 1000 and failed > 1000 and via_bindings > 200


def test_subsumes_matches_reference_random():
    rng = random.Random(79)
    held = 0
    for _ in range(4000):
        a, b = rand_kernel_type(rng), rand_kernel_type(rng)
        if rng.random() < 0.3 and b is not BOTTOM:
            a = resolve(b, rand_bindings(rng))  # an instance of b, often
        got = subsumes(a, b)
        assert got == reference_subsumes(a, b), (a, b)
        held += got
    assert 500 < held < 3500


def test_resolve_canonical_matches_reference_random():
    rng = random.Random(89)
    same_object = 0
    for _ in range(4000):
        bindings = rand_bindings(rng) if rng.random() < 0.7 else {}
        t = rand_kernel_type(rng)
        got = resolve_canonical(t, bindings)
        want = reference_resolve_canonical(t, bindings)
        assert got == want and repr(got) == repr(want), (t, bindings)
        # a subterm neither step changes comes back as the same object
        assert (got is t) == (want is t)
        same_object += got is t
    assert same_object > 200
    # past the pre-built canonical variables
    wide = App("P", tuple(Var(f"v{i}") for i in range(40)))
    assert resolve_canonical(wide, {}) == \
        reference_resolve_canonical(wide, {}) == \
        App("P", tuple(Var(f"t{i}") for i in range(40)))


# ---------------------------------------------------------------------------
# Ground types, decided by identity, against references that walk them


def reference_free_vars(t):
    """`free_vars` walking every subterm."""
    out = []

    def walk(u):
        if isinstance(u, Var):
            if u.name not in out:
                out.append(u.name)
        elif isinstance(u, App):
            for a in u.args:
                walk(a)

    walk(t)
    return out


def reference_resolve(t, bindings):
    """`resolve` rebuilding every application."""
    if isinstance(t, Var):
        b = bindings.get(t.name)
        return t if b is None else reference_resolve(b, bindings)
    if isinstance(t, App):
        return App(t.con, tuple(reference_resolve(a, bindings)
                                for a in t.args))
    return t


def reference_meet(a, b):
    """`meet` renaming apart, unifying and canonicalising every pair."""
    if a is BOTTOM or b is BOTTOM:
        return BOTTOM
    # `~` names are apart from every name the parser or the draws make
    apart = rename(b, {v: "~" + v for v in reference_free_vars(b)})
    bindings = reference_unify([(a, apart)])
    if bindings is None:
        return BOTTOM
    return reference_resolve_canonical(a, bindings)


def reference_close_under_meet(types, base=None):
    """The member set of `close_under_meet`, meeting every new type
    with every member."""
    members = set(base.members if base is not None else (TOP, BOTTOM))
    work = []
    for t in types:
        t = t if t is BOTTOM else reference_resolve_canonical(t, {})
        if t not in members:
            members.add(t)
            work.append(t)
    while work:
        t = work.pop()
        for u in list(members):
            m = reference_meet(t, u)
            if m is not BOTTOM and m not in members:
                members.add(m)
                work.append(m)
    return members


def resolved(bindings):
    return {v: reference_resolve(t, bindings) for v, t in bindings.items()}


def test_kernel_matches_references_on_ground_and_open_types_random():
    # draws mix ground and open types that share subterms; each result
    # is the reference's object, and unifiers resolve alike
    rng = random.Random(2203)
    seen = Counter()
    for _ in range(400):
        pool = []
        for _ in range(10):
            a = rand_shared(rng, pool, KERNEL_VARS)
            b = rand_shared(rng, pool, KERNEL_VARS)
            bindings = rand_bindings(rng) if rng.random() < 0.5 else {}
            assert free_vars(a) == reference_free_vars(a), a
            assert resolve(a, bindings) is reference_resolve(a, bindings)
            assert resolve_canonical(a, bindings) is \
                reference_resolve_canonical(a, bindings), (a, bindings)
            instance = resolve(b, bindings)
            for s, g in ((a, b), (instance, b), (b, instance)):
                assert subsumes(s, g) == reference_subsumes(s, g), (s, g)
            assert meet(a, b) is reference_meet(a, b), (a, b)
            pairs = [(a, b), (instance, rand_shared(rng, pool, KERNEL_VARS))]
            for k in (1, 2):
                got = unify(pairs[:k], bindings)
                want = reference_unify(pairs[:k], bindings)
                assert (got is None) == (want is None), (pairs[:k], bindings)
                if got is not None:
                    assert resolved(got) == resolved(want)
                seen["unified" if got is not None else "failed"] += 1
            kind = "ground" if a.ground and b.ground else \
                "mixed" if a.ground or b.ground else "open"
            seen[kind, a is b, meet(a, b) is not BOTTOM] += 1
    # identical and distinct ground pairs, ground against open types
    # that meet, and open pairs all occur
    assert seen["ground", True, True] > 100
    assert seen["ground", False, False] > 500
    assert seen["mixed", False, True] > 100
    assert seen["open", False, True] > 100
    assert seen["unified"] > 1000 and seen["failed"] > 1000


def test_close_under_meet_matches_reference_on_ground_and_open_types_random():
    rng = random.Random(2207)
    grew = ground_only = 0
    for _ in range(300):
        pool = []
        base = rand_cover(rng, CONS3, rng.randint(1, 3)) \
            if rng.random() < 0.5 else None
        if base is not None:
            assert set(base.members) == reference_close_under_meet(base)
        types = [rand_shared(rng, pool) for _ in range(rng.randint(1, 8))]
        if rng.random() < 0.5:  # open types whose meets are new members
            types += [rand_base(rng, CONS3, 2) for _ in range(rng.randint(1, 3))]
        got = close_under_meet(types, base)
        want = reference_close_under_meet(types, base)
        assert set(got.members) == want, (types, base)
        grew += len(want) > len(set(map(canonical, types)) |
                                set(base or ()) | {TOP, BOTTOM})
        if all(t.ground for t in types) and base is None:
            assert want == set(types) | {TOP, BOTTOM}
            ground_only += 1
    assert grew > 10 and ground_only > 20
