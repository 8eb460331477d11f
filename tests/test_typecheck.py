import itertools
import random

import pytest

from tygar.lattice import (
    CONCRETE,
    close_under_meet,
    resolve,
    subsumes,
    unify,
)
from tygar.typecheck import apply_transformer, check, infer
from tygar.types import (
    App,
    BOTTOM,
    FnType,
    Library,
    NormalForm,
    PolyType,
    TOP,
    TermApp,
    TermVar,
    TypingError,
    Var,
    canonical,
    free_vars,
    resolve_canonical,
)

from conftest import (
    CONS3,
    cover_of,
    fn,
    lib_of,
    rand_base,
    rand_cover,
    rand_env,
    rand_library,
    rand_shared,
    rename,
    tiny_problem,
    ty,
)


@pytest.fixture()
def ml_lib():
    return lib_of("l :: [b] -> M b", "f :: a -> M a -> a")


def test_transformer_examples(ml_lib):
    assert apply_transformer(ml_lib, "l", [ty("List (M t)")]) == ty("M (M t0)")
    assert apply_transformer(ml_lib, "l", [TOP]) == ty("M t0")
    assert apply_transformer(ml_lib, "l", [ty("A")]) is BOTTOM


def test_transformer_bottom_short_circuit(ml_lib):
    assert apply_transformer(ml_lib, "f", [ty("A"), BOTTOM]) is BOTTOM


def test_transformer_errors(ml_lib):
    # raised on every call, not only before a result is memoised
    for _ in range(2):
        with pytest.raises(TypingError, match="unknown component"):
            apply_transformer(ml_lib, "nope", [])
        with pytest.raises(TypingError, match="arguments"):
            apply_transformer(ml_lib, "l", [])
        with pytest.raises(TypingError, match="arguments"):
            apply_transformer(ml_lib, "l", [ty("List A"), ty("A")])


def test_transformer_memo_is_keyed_by_signature_not_name():
    # two libraries declare `f` with different signatures; each gets its
    # own result whichever library is asked first
    for first, arg in ((0, ty("K1")), (1, ty("K2"))):
        libs = [lib_of("f :: a -> M a"), lib_of("f :: a -> L a")]
        expect = [App("M", (arg,)), App("L", (arg,))]
        for i in (first, 1 - first):
            assert apply_transformer(libs[i], "f", [arg]) == expect[i]
        for i in (0, 1):
            assert apply_transformer(libs[i], "f", [arg]) == expect[i]


def test_transformer_memo_key_ignores_argument_container(ml_lib):
    # a list and a tuple of the same types are one application: the
    # second call returns the object the first one built
    built = apply_transformer(ml_lib, "l", [ty("List (Q A)")])
    assert built == ty("M (Q A)")
    assert apply_transformer(ml_lib, "l", (ty("List (Q A)"),)) is built


def test_transformer_argument_scopes_are_independent(ml_lib):
    # two tau arguments are unrelated variables
    out = apply_transformer(ml_lib, "f", [TOP, TOP])
    assert out == TOP


def test_transformer_monotone():
    rng = random.Random(41)
    lib = rand_library(rng, 5)
    changed = 0
    for name, poly in lib.components.items():
        m = len(poly.body.params)
        for _ in range(60):
            general = [canonical(rand_base(rng, CONS3, 2)) for _ in range(m)]
            # some of each argument's own variables instantiated
            specific = [resolve(g, {v: rand_base(rng, CONS3, 1, ("z",))
                                    for v in free_vars(g)
                                    if rng.random() < 0.5})
                        for g in general]
            changed += specific != general
            lo = apply_transformer(lib, name, specific)
            hi = apply_transformer(lib, name, general)
            assert subsumes(lo, hi)
    assert changed >= 50


def test_transformer_sound():
    # a grounded instance result stays below the transformer result
    rng = random.Random(43)
    lib = rand_library(rng, 5)
    for name, poly in lib.components.items():
        quantified = poly.quantified
        for _ in range(60):
            sigma = {q: rand_base(rng, CONS3, 1, ("z",)) for q in quantified}
            args = [resolve(b, sigma) for b in poly.body.params]
            expect = resolve(poly.body.ret, sigma)
            got = apply_transformer(lib, name, args)
            assert subsumes(canonical(expect), got) or canonical(expect) == got


# Reference transformer: the straightforward recipe, with no caching and
# no sharing. Every call renames the signature's variables to `^c<i>`
# and the arguments' apart afresh (`apply_transformer` renames only the
# arguments), unification fully resolves both sides at every step, and
# resolution and canonicalisation rebuild every constructor node.

def _ref_resolve(t, bindings):
    if isinstance(t, Var):
        b = bindings.get(t.name)
        return t if b is None else _ref_resolve(b, bindings)
    if isinstance(t, App):
        return App(t.con, tuple(_ref_resolve(a, bindings) for a in t.args))
    return t


def _ref_unify(pairs, bindings=None):
    work = list(pairs)
    bindings = dict(bindings) if bindings else {}
    while work:
        a, b = work.pop()
        if a is BOTTOM or b is BOTTOM:
            return None
        a = _ref_resolve(a, bindings)
        b = _ref_resolve(b, bindings)
        if isinstance(a, Var) and isinstance(b, Var) and a.name == b.name:
            continue
        if isinstance(a, Var) or isinstance(b, Var):
            var, other = (a, b) if isinstance(a, Var) else (b, a)
            if var.name in free_vars(other):
                return None
            bindings[var.name] = other
            continue
        if a.con != b.con or len(a.args) != len(b.args):
            return None
        work.extend(zip(a.args, b.args))
    return bindings


def _ref_canonical(t):
    mapping = {}

    def walk(u):
        if isinstance(u, Var):
            mapping.setdefault(u.name, f"t{len(mapping)}")
            return Var(mapping[u.name])
        if isinstance(u, App):
            return App(u.con, tuple(walk(a) for a in u.args))
        return u

    return walk(t)


def _ref_apply_transformer(lib, component, args):
    poly = lib.components[component]
    inst = {v: f"^c{i}" for i, v in enumerate(poly.quantified)}
    pairs = []
    for j, (formal, actual) in enumerate(zip(poly.body.params, args)):
        apart = {v: f"^a{j}_{i}" for i, v in enumerate(free_vars(actual))}
        pairs.append((rename(formal, inst), rename(actual, apart)))
    bindings = _ref_unify(pairs)
    if bindings is None:
        return BOTTOM
    return _ref_canonical(_ref_resolve(rename(poly.body.ret, inst),
                                       bindings))


def _renamed_library(lib, mapping):
    """`lib` with its signatures' variables renamed by `mapping`."""
    out = Library(dict(lib.constructors))
    for name, poly in lib.components.items():
        out.add_component(name, PolyType(
            tuple(mapping.get(q, q) for q in poly.quantified),
            FnType(tuple(rename(p, mapping) for p in poly.body.params),
                   rename(poly.body.ret, mapping))))
    return out


def test_transformer_matches_reference_on_random_draws():
    rng = random.Random(53)
    results = {"bottom": 0, "typed": 0}
    for _ in range(40):
        drawn = rand_library(rng, 4)
        places = sorted(rand_cover(rng, CONS3, rng.randint(0, 4)).members,
                        key=repr)
        # arguments sharing variable names with each other and with the
        # signatures must still be renamed apart
        places += [rand_base(rng, CONS3, 2, ("a", "b", "u", "t0", "t1"))
                   for _ in range(3)]
        # the same signatures over the canonical names, in the opposite
        # order: the transformer leaves a signature's variables as written
        for lib in (drawn, _renamed_library(drawn, {"u": "t1", "v": "t0"})):
            for name in lib.components:
                for args in itertools.product(places, repeat=lib.arity(name)):
                    got = apply_transformer(lib, name, args)
                    assert got == _ref_apply_transformer(lib, name, args), \
                        (name, args)
                    results["bottom" if got is BOTTOM else "typed"] += 1
            # repeated calls (memoised results) give the same answer
            for name in lib.components:
                args = tuple(rng.choice(places) for _ in range(lib.arity(name)))
                assert apply_transformer(lib, name, args) == \
                    apply_transformer(lib, name, args)
    assert results["bottom"] > 1000 and results["typed"] > 1000


def test_transformer_skips_lone_variable_arguments_random():
    # a lone-variable argument adds no pair to the unifier, whatever its
    # name, even one a signature uses; beside ground and open arguments
    # the result is still the reference's, which unifies every argument
    rng = random.Random(67)
    lone = [TOP, Var("a"), Var("u")]
    seen = {"lone": 0, True: 0, False: 0, "typed": 0}
    for _ in range(40):
        lib = rand_library(rng, 4)
        pool: list = []
        places = lone + [rand_shared(rng, pool, ("a", "u")) for _ in range(5)]
        for name in lib.components:
            for args in itertools.product(places, repeat=lib.arity(name)):
                if not any(type(a) is Var for a in args):
                    continue
                got = apply_transformer(lib, name, args)
                assert got == _ref_apply_transformer(lib, name, args), \
                    (name, args)
                seen["lone"] += 1
                for ground in {a.ground for a in args if type(a) is not Var}:
                    seen[ground] += 1  # beside a ground or an open argument
                seen["typed"] += got is not BOTTOM
    assert seen["lone"] > 1000 and seen[True] > 300 and seen[False] > 300
    assert seen["typed"] > 500


def test_unify_matches_fully_resolving_reference():
    rng = random.Random(59)
    pool = ("u", "v", "w", "x")
    outcomes = {"fail": 0, "ok": 0}
    for _ in range(3000):
        pairs = [(rand_base(rng, CONS3, 2, pool), rand_base(rng, CONS3, 2, pool))
                 for _ in range(rng.randint(1, 3))]
        probes = [t for pair in pairs for t in pair]
        probes += [rand_base(rng, CONS3, 3, pool) for _ in range(3)]
        for split in range(len(pairs)):
            # extend the bindings of a prefix (empty at split 0)
            prefix, ref_prefix = unify(pairs[:split]), _ref_unify(pairs[:split])
            assert (prefix is None) == (ref_prefix is None), pairs
            if prefix is None:
                continue
            got = unify(pairs[split:], prefix)
            ref = _ref_unify(pairs[split:], ref_prefix)
            assert (got is None) == (ref is None), pairs
            if got is None:
                outcomes["fail"] += 1
                continue
            outcomes["ok"] += 1
            for t in probes:
                assert resolve(t, got) == _ref_resolve(t, ref)
                assert resolve_canonical(t, got) == \
                    _ref_canonical(_ref_resolve(t, ref))
            first, second = pairs[0]
            assert resolve(first, got) == resolve(second, got)
    assert outcomes["fail"] > 500 and outcomes["ok"] > 500


def test_infer_running_example(ml_lib):
    env = {"xs": ty("L (M A)")}
    # under a coarse cover the application loses all precision
    ml2 = lib_of("l :: L b -> M b", "f :: a -> M a -> a")
    e = TermApp("l", (TermVar("xs"),))
    a1 = cover_of("A", "L t")
    a2 = cover_of("A", "L t", "L (M t)", "M (M t)")
    assert infer(ml2, env, a1, e) == TOP
    assert infer(ml2, env, a2, e) == ty("M (M t0)")
    assert infer(ml2, env, CONCRETE, e) == ty("M (M A)")


def test_infer_concrete_against_declarative_oracle():
    from conftest import DeclarativeOracle, ground_universe
    lib = lib_of("l :: L b -> M b", "f :: a -> M a -> a")
    lib.declare_constructor("A", 0)
    env = {"xs": ty("L (M A)")}
    oracle = DeclarativeOracle(lib, env,
                               ground_universe({"A": 0, "L": 1, "M": 1}, 2))
    e = TermApp("l", (TermVar("xs"),))
    inferred = infer(lib, env, CONCRETE, e)
    assert inferred in oracle.possible(e)


def test_infer_errors(ml_lib):
    with pytest.raises(TypingError, match="unbound"):
        infer(ml_lib, {}, CONCRETE, TermVar("nope"))


def test_check_running_example():
    lib, query = tiny_problem()
    good = NormalForm(("arg0", "arg1"), TermApp("fromMaybe", (
        TermVar("arg0"),
        TermApp("listToMaybe", (TermApp("catMaybes", (TermVar("arg1"),)),)))))
    bad = NormalForm(("arg0", "arg1"), TermApp("fromMaybe", (
        TermVar("arg0"), TermApp("listToMaybe", (TermVar("arg1"),)))))
    assert check(lib, CONCRETE, good, query)
    assert not check(lib, CONCRETE, bad, query)


def test_check_identity():
    lib = lib_of("id0 :: A -> A")
    assert check(lib, CONCRETE, NormalForm(("x",), TermVar("x")),
                 fn("A -> A"))


def test_check_arity_mismatch():
    lib = lib_of("id0 :: A -> A")
    with pytest.raises(TypingError, match="arity"):
        check(lib, CONCRETE, NormalForm(("x",), TermVar("x")), fn("A -> A -> A"))


def test_preservation_and_overapproximation():
    from conftest import enumerate_terms
    rng = random.Random(47)
    for _ in range(12):
        lib = rand_library(rng, 4)
        env = rand_env(rng, CONS3, 2)
        terms = enumerate_terms(lib, env, 2)[:200]
        base = [rand_base(rng, CONS3, 2) for _ in range(2)]
        coarse = close_under_meet(base)
        fine = close_under_meet(base + [rand_base(rng, CONS3, 2)])
        params = tuple(env)
        for term in terms:
            nf = NormalForm(params, term)
            t = fn("A -> A") if len(params) == 1 else None
            query_params = tuple(env[x] for x in params)
            t = FnType(query_params, App("A"))
            if check(lib, fine, nf, t):
                assert check(lib, coarse, nf, t)  # typing preservation
            if check(lib, CONCRETE, nf, t):
                assert check(lib, fine, nf, t)  # over-approximation
                assert check(lib, coarse, nf, t)
