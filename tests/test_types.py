import copy
import pickle
import random

import pytest

from tygar.lattice import resolve
from tygar.types import (
    App,
    BOTTOM,
    BOTTOM_SUBST,
    FnType,
    Library,
    LibraryError,
    NormalForm,
    PolyType,
    Substitution,
    TermApp,
    TermVar,
    Var,
    apply_subst,
    canonical,
    render_term,
    rename_vars,
    render_type,
    term_size,
)

from conftest import compose, lib_of, rand_base, sig, ty, CONS3


def test_apply_subst_single_binding():
    s = Substitution({"a": App("A")})
    assert apply_subst(s, ty("P a b")) == ty("P A b")


def test_apply_subst_bottom_absorbs():
    assert apply_subst(BOTTOM_SUBST, ty("L a")) is BOTTOM
    assert apply_subst(BOTTOM_SUBST, BOTTOM) is BOTTOM


def test_apply_subst_identity():
    assert apply_subst(Substitution(), ty("P A B")) == ty("P A B")


def test_apply_subst_bottom_iff():
    s = Substitution({"a": App("A")})
    assert apply_subst(s, ty("P a b")) is not BOTTOM
    assert apply_subst(s, BOTTOM) is BOTTOM


def test_compose_matches_sequential_application():
    rng = random.Random(7)
    pool = ("u", "v", "w")
    for _ in range(300):
        s1 = Substitution({v: rand_base(rng, CONS3, 2, pool)
                           for v in rng.sample(pool, rng.randint(0, 3))})
        s2 = Substitution({v: rand_base(rng, CONS3, 2, pool)
                           for v in rng.sample(pool, rng.randint(0, 3))})
        t = rand_base(rng, CONS3, 3, pool)
        assert apply_subst(compose(s1, s2), t) == \
            apply_subst(s1, apply_subst(s2, t))


def test_app_hash_is_structural_whatever_built_it():
    direct = App("P", (App("L", (App("A"),)), App("L", (Var("t0"),))))
    hashed_first = ty("P (L A) (L t0)")
    key = hash(hashed_first)  # computed when it was built
    built = [
        direct,
        resolve(ty("P a (L t0)"), {"a": ty("L A")}),
        canonical(ty("P (L A) (L x)")),
        rename_vars(ty("P (L A) (L y)"), {"y": "t0"}),
        App(con="P", args=direct.args),
        # rebuilding from a hashed instance's fields must not keep its hash
        App(hashed_first.con, hashed_first.args),
        App("P", ty("Q (L A) (L t0)").args),
    ]
    table = {hashed_first: "hit"}
    for t in built:
        # the value of the field tuple, so no set or dict order moves
        assert hash(t) == key == hash((t.con, t.args))
        assert t == hashed_first and hashed_first == t
        assert table[t] == "hit"
        assert repr(t) == repr(hashed_first) == \
            "App(P, [App(L, [App(A)]), App(L, [Var(t0)])])"
    assert len(set(built) | {hashed_first}) == 1
    assert {t: i for i, t in enumerate(built)} == {direct: len(built) - 1}
    other = App("Q", hashed_first.args)
    assert other != hashed_first and other not in table
    assert hash(other) == hash(("Q", hashed_first.args))
    # fields in constructor order; `args` defaults to no arguments
    assert (App("A").con, App("A").args) == ("A", ())
    assert hash(App("A")) == hash(("A", ()))


def test_var_hash_is_structural_and_kept():
    hashed_first = Var("t1")
    key = hash(hashed_first)  # computed when it was built
    built = [
        Var("t1"),
        canonical(ty("P a b")).args[1],
        rename_vars(ty("y"), {"y": "t1"}),
        resolve(ty("a"), {"a": Var("t1")}),
        # rebuilding from a hashed instance's field must not keep its hash
        Var(hashed_first.name),
        Var(name="t1"),
    ]
    table = {hashed_first: "hit"}
    for t in built:
        # the value of the field tuple, so no set or dict order moves
        assert hash(t) == key == hash((t.name,))
        assert t == hashed_first and hashed_first == t
        assert table[t] == "hit"
        assert repr(t) == repr(hashed_first) == "Var(t1)"
    assert len(set(built) | {hashed_first}) == 1
    other = Var("t2")
    assert other != hashed_first and other not in table
    assert hash(other) == hash(("t2",))


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
    (Var, ("a",)),
    (App, ("P", (App("A"), Var("b")))),
    (FnType, ((App("A"),), Var("a"))),
    (PolyType, (("a",), FnType((Var("a"),), Var("a")))),
    (TermVar, ("arg0",)),
    (TermApp, ("f", (TermVar("arg0"),))),
    (NormalForm, (("arg0",), TermApp("f", (TermVar("arg0"),)))),
]


@pytest.mark.parametrize("cls, values", FROZEN,
                         ids=[cls.__name__ for cls, _ in FROZEN])
def test_frozen_types_behave_as_value_records(cls, values):
    x, y = cls(*values), cls(*values)
    assert x is not y and x == y and not x != y
    assert hash(x) == hash(y) == hash(values)
    assert [getattr(x, f) for f in cls._fields] == list(values)
    assert x.__eq__(values) is NotImplemented and x != values
    for f in cls._fields:
        with pytest.raises(AttributeError):
            setattr(x, f, values[0])
        with pytest.raises(AttributeError):
            delattr(x, f)
    assert [getattr(x, f) for f in cls._fields] == list(values)
    copied = pickle.loads(pickle.dumps(x))
    assert copied == x and hash(copied) == hash(x)
    assert copy.deepcopy(x) == x and copy.copy(x) == x


HASHED = [(cls, values) for cls, values in FROZEN if cls in (Var, App, PolyType)]


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
    assert Library() == Library({}, {}, frozenset(), {}, None)
    assert repr(Library()) == (
        "Library(constructors={}, components={}, dict_constructors=frozenset(), "
        "display_names={}, apply_component=None)")
    # defaults are fresh per instance, and a copy extends independently
    Library().constructors["X"] = 0
    assert Library().constructors == {}
    lib.apply_component = "f"
    dup = lib.copy()
    assert dup == lib and dup.apply_component == "f"
    dup.declare_constructor("Extra", 0)
    dup.display_names["f"] = "g"
    assert "Extra" not in lib.constructors and lib.display_names == {}


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
