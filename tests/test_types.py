import copy
import pickle
import random

import pytest

import tygar
from tygar.lattice import arg_pair, meet, resolve
from tygar.synth import BASELINE_BUDGET, monomorphise
from tygar.typecheck import apply_transformer, clear_memos
from tygar.types import (
    App,
    BOTTOM,
    FnType,
    Library,
    LibraryError,
    NormalForm,
    PolyType,
    TOP,
    TermApp,
    TermVar,
    Var,
    canonical,
    render_term,
    render_type,
    resolve_canonical,
    term_size,
)

from conftest import (
    CONS3,
    lib_of,
    rand_base,
    rand_library,
    rand_shared,
    sig,
    ty,
)


def built_every_way(target):
    """`target`, a type over `t0`, `t1` and the constructors P, L and A,
    as each way of building a type builds it."""
    text = render_type(target)
    renamed = text.replace("t0", "x").replace("t1", "y")
    args = getattr(target, "args", ())
    ways = [
        ty(text),
        canonical(ty(renamed)),
        resolve(ty(renamed), {"x": Var("t0"), "y": Var("t1")}),
        resolve_canonical(ty(renamed), {}),
        # `target` is canonical, so x occurs before y
        resolve(arg_pair(0, target, ty(renamed))[1],
                {"^a0_0": Var("t0"), "^a0_1": Var("t1")}),
        meet(target, TOP),
        copy.copy(target),
        copy.deepcopy(target),
        pickle.loads(pickle.dumps(target)),
        # from field values built apart from the target's
        App(target.con, tuple(list(args)))
        if isinstance(target, App) else Var("".join(target.name)),
    ]
    if isinstance(target, App):
        ways.append(App(con=target.con, args=args))
        ways.append(resolve_canonical(ty("P a (L A)"), {"a": ty("L b")}))
    else:
        ways.append(Var(name=target.name))
    return ways


def test_app_is_one_object_whatever_built_it():
    target = App("P", (App("L", (Var("t0"),)), App("L", (App("A"),))))
    table = {target: "hit"}
    for t in built_every_way(target):
        assert t is target and t == target
        assert hash(t) == hash(target) and table[t] == "hit"
    assert repr(target) == "App(P, [App(L, [Var(t0)]), App(L, [App(A)])])"
    other = App("Q", target.args)
    assert other is not target and other != target and other not in table
    # `args` defaults to no arguments
    assert App("A") is App("A", ()) and App("A").args == ()


def test_var_is_one_object_whatever_built_it():
    target = Var("t0")
    table = {target: "hit"}
    for t in built_every_way(target) + [canonical(ty("P a b")).args[0]]:
        assert t is target and t == target
        assert hash(t) == hash(target) and table[t] == "hit"
    assert repr(target) == "Var(t0)"
    other = Var("t1")
    assert other is not target and other != target and other not in table


def has_variable(t) -> bool:
    return isinstance(t, Var) or any(has_variable(a) for a in t.args)


def subterms(t):
    yield t
    for a in getattr(t, "args", ()):
        yield from subterms(a)


def test_ground_is_true_exactly_without_variables_whatever_built_it():
    # `ground` is set when a type is first built, by whichever way
    # builds it; it is not a field
    rng = random.Random(2211)
    built = []
    for _ in range(150):
        pool = []
        t, u = rand_shared(rng, pool), rand_shared(rng, pool)
        bindings = {"u": rand_base(rng, CONS3, 2, ("v",))}
        built += [
            ty(render_type(t)),
            canonical(t),
            resolve(t, bindings),
            resolve_canonical(t, bindings),
            arg_pair(0, u, t)[1],
            meet(t, u),
            copy.copy(t),
            copy.deepcopy(t),
            pickle.loads(pickle.dumps(t)),
        ]
    mono = monomorphise(rand_library(rng, 6), BASELINE_BUDGET)
    built += [b for poly in mono.components.values()
              for b in (*poly.body.params, poly.body.ret)]
    seen = {True: 0, False: 0}
    for t in built:
        for s in subterms(t) if t is not BOTTOM else ():
            assert s.ground is not has_variable(s), s
            seen[s.ground] += 1
    assert seen[True] > 1000 and seen[False] > 200
    assert App._fields == ("con", "args")


def test_polytype_hash_is_structural_and_kept():
    _, hashed_first = sig("f :: a -> [Maybe a] -> a")
    key = hash(hashed_first)  # computed when it was built
    _, parsed_again = sig("g :: a -> [Maybe a] -> a")
    assert parsed_again is not hashed_first
    assert hash(parsed_again) == key == \
        hash((hashed_first.quantified, hashed_first.body))
    assert {hashed_first: "hit"}[parsed_again] == "hit"
    # rebuilding from a hashed instance's fields must not keep its hash
    other = PolyType(hashed_first.quantified, FnType(
        hashed_first.body.params, hashed_first.body.params[1]))
    assert other != hashed_first
    assert hash(other) == hash((other.quantified, other.body))
    same = PolyType(body=hashed_first.body, quantified=hashed_first.quantified)
    assert (same.quantified, same.body) == \
        (hashed_first.quantified, hashed_first.body)
    assert same == hashed_first and hash(same) == key
    assert repr(same) == "PolyType(forall a. a -> List (Maybe a) -> a)"


FROZEN = [
    (FnType, ((App("A"),), Var("a"))),
    (PolyType, (("a",), FnType((Var("a"),), Var("a")))),
    (TermVar, ("arg0",)),
    (TermApp, ("f", (TermVar("arg0"),))),
    (NormalForm, (("arg0",), TermApp("f", (TermVar("arg0"),)))),
]
INTERNED = [
    (Var, ("a",)),
    (App, ("P", (App("A"), Var("b")))),
]


def check_frozen_fields(cls, x, values):
    assert [getattr(x, f) for f in cls._fields] == list(values)
    for f in cls._fields:
        with pytest.raises(AttributeError):
            setattr(x, f, values[0])
        with pytest.raises(AttributeError):
            delattr(x, f)
    assert [getattr(x, f) for f in cls._fields] == list(values)


@pytest.mark.parametrize("cls, values", FROZEN,
                         ids=[cls.__name__ for cls, _ in FROZEN])
def test_frozen_types_behave_as_value_records(cls, values):
    x, y = cls(*values), cls(*values)
    assert x is not y and x == y and not x != y
    assert hash(x) == hash(y) == hash(values)
    assert x.__eq__(values) is NotImplemented and x != values
    check_frozen_fields(cls, x, values)
    copied = pickle.loads(pickle.dumps(x))
    assert copied == x and hash(copied) == hash(x)
    assert copy.deepcopy(x) == x and copy.copy(x) == x


@pytest.mark.parametrize("cls, values", INTERNED,
                         ids=[cls.__name__ for cls, _ in INTERNED])
def test_interned_types_behave_as_value_records(cls, values):
    # one object per value: `==` and `hash` are identity's
    x, y = cls(*values), cls(*values)
    assert x is y and x == y and not x != y
    assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__
    assert not hasattr(x, "_hash") and not hasattr(x, "__dict__")
    assert x.__eq__(values) is NotImplemented and x != values
    check_frozen_fields(cls, x, values)
    for other in (copy.copy(x), copy.deepcopy(x),
                  pickle.loads(pickle.dumps(x))):
        assert other is x


@pytest.mark.parametrize("cls, values", INTERNED,
                         ids=[cls.__name__ for cls, _ in INTERNED])
def test_interned_types_outlive_clear_memos(cls, values):
    # equality is identity, so emptying the memos must leave the tables
    before = cls(*values)
    result = apply_transformer(lib_of("f :: a -> P a a"), "f", [before])
    clear_memos()
    assert cls(*values) is before
    assert apply_transformer(lib_of("f :: a -> P a a"), "f", [before]) \
        is result


HASHED = [(PolyType, (("a",), FnType((Var("a"),), Var("a"))))]


@pytest.mark.parametrize("cls, values", HASHED,
                         ids=[cls.__name__ for cls, _ in HASHED])
def test_type_hash_is_set_when_built(cls, values):
    # read from the slot before anything asks for the hash: `__init__`
    # stores the field tuple's, and every copy computes its own
    x = cls(*values)
    assert x._hash == hash(values)
    for other in (copy.copy(x), copy.deepcopy(x),
                  pickle.loads(pickle.dumps(x))):
        assert other is not x and other._hash == hash(values)


@pytest.mark.parametrize("params, ret, var", [
    ((Var("a"), App("M", (Var("^a0_0"),))), Var("a"), "^a0_0"),
    ((App("A"),), App("M", (Var("^c0"),)), "^c0"),
])
def test_add_component_rejects_reserved_type_variable_names(params, ret, var):
    # the transformer names argument types' variables `^a<j>_<i>`, apart
    # from any a signature may use
    lib = Library()
    with pytest.raises(LibraryError) as err:
        lib.add_component("f", PolyType(("a", var), FnType(params, ret)))
    assert str(err.value) == \
        f"component f: type variable {var} uses the reserved prefix ^"
    assert lib.components == {} and lib.constructors == {}


def test_value_record_reprs():
    assert repr(FnType((App("A"), Var("a")), App("L", (Var("a"),)))) == \
        "FnType(A -> a -> L a)"
    assert repr(TermVar("arg0")) == "TermVar(arg0)"
    assert repr(TermApp("f", (TermVar("arg0"),))) == "TermApp(f, [TermVar(arg0)])"
    assert repr(NormalForm(("arg0",), TermVar("arg0"))) == \
        "NormalForm(params=('arg0',), body=TermVar(arg0))"
    assert TermApp("nil") == TermApp("nil", ())


def test_library_is_a_mutable_record():
    lib = lib_of("f :: a -> [a]")
    assert lib == lib_of("f :: a -> [a]") and lib != lib_of("g :: a -> [a]")
    with pytest.raises(TypeError):
        hash(lib)
    assert Library() == Library({}, {}, frozenset(), {})
    assert repr(Library()) == (
        "Library(constructors={}, components={}, dict_constructors=frozenset(), "
        "display_names={})")
    # defaults are fresh per instance, and a copy extends independently
    Library().constructors["X"] = 0
    assert Library().constructors == {}
    lib.display_names["f"] = "h"
    dup = lib.copy()
    assert dup == lib and dup.display_names == {"f": "h"}
    dup.declare_constructor("Extra", 0)
    dup.display_names["f"] = "g"
    assert "Extra" not in lib.constructors and lib.display_names == {"f": "h"}


def test_canonical_first_occurrence_order():
    assert canonical(ty("P x (P y x)")) == ty("P t0 (P t1 t0)")
    assert canonical(Var("z")) == Var("t0")


def test_render_type_bottom_and_parens():
    assert render_type(BOTTOM) == "_|_"
    assert render_type(ty("L (M a)")) == "L (M a)"
    assert render_type(ty("P A b")) == "P A b"


def test_render_term_examples():
    body = TermApp("f", (TermVar("arg0"),
                         TermApp("l", (TermApp("c", (TermVar("arg1"),)),))))
    assert render_term(NormalForm(("arg0", "arg1"), body)) == \
        "f arg0 (l (c arg1))"
    assert render_term(NormalForm(("arg0",), TermVar("arg0"))) == "arg0"
    assert render_term(NormalForm((), TermApp("nil", ()))) == "nil"


def test_term_size():
    body = TermApp("f", (TermVar("x"), TermApp("g", (TermVar("y"),))))
    assert term_size(body) == 2
    assert term_size(TermVar("x")) == 0


def test_every_exported_name_is_defined():
    missing = [name for name in tygar.__all__ if not hasattr(tygar, name)]
    assert missing == []
