import contextlib
from unittest import mock

import pytest

from tygar import frontend
from tygar.frontend import (
    desugar_library,
    freeze_query,
    load_library,
    match_surface,
    parse_query,
    parse_surface,
    prepare_problem,
    render_surface,
    solution_matches,
    surface_term,
    to_base,
)
from tygar.sigparse import SignatureError, parse_items
from tygar.synth import SynthConfig, synthesize
from tygar.types import (
    App,
    LibraryError,
    FnType,
    NormalForm,
    PolyType,
    TermApp,
    TermVar,
    render_fn,
)

from conftest import FIXTURES, INPUT_ERRORS, fn, input_error_text, ty


def desugared(*lines, allow=None):
    """The library of `lines`; `allow`, when given, stands in for the
    components that get nullary variants."""
    with (mock.patch.object(frontend, "DEFAULT_HOF_ALLOWLIST", allow)
          if allow is not None else contextlib.nullcontext()):
        return desugar_library(parse_items("\n".join(lines)))


def test_desugar_member_constraint():
    lib = desugared("class Eq", "member :: Eq a => a -> [a] -> Bool")
    assert render_fn(lib.components["member"].body) == \
        "EqD a -> a -> List a -> Bool"


def test_desugar_any_higher_order():
    lib = desugared("any :: (a -> Bool) -> [a] -> Bool")
    assert render_fn(lib.components["any"].body) == "F a Bool -> List a -> Bool"


def test_desugar_base_type_unchanged():
    lib = desugared("x :: Maybe Int")
    assert lib.components["x"].body == fn("Maybe Int")
    assert to_base(ty("Maybe Int")) == ty("Maybe Int")


def test_desugar_nested_arrow_under_constructor():
    lib = desugared("repl :: (a -> b) -> Int -> [a -> b]")
    assert render_fn(lib.components["repl"].body) == \
        "F a b -> Int -> List (F a b)"


def test_instances_produce_dictionary_components():
    lib = desugared("class Eq", "instance Eq Int",
                    "instance Eq a => Eq [a]")
    assert render_fn(lib.components["eqInt"].body) == "EqD Int"
    assert render_fn(lib.components["eqList"].body) == "EqD a -> EqD (List a)"
    assert lib.dict_constructors == frozenset({"EqD"})


def test_nullary_variants_only_for_allowlist():
    lib = desugared("($) :: (a -> b) -> a -> b",
                    "any :: (a -> Bool) -> [a] -> Bool",
                    allow=frozenset({"($)"}))
    assert "($)'" in lib.components
    assert "any'" not in lib.components
    assert render_fn(lib.components["($)'"].body) == "F (F a b) (F a b)"
    assert lib.display_name("($)'") == "($)"


def test_nullary_variant_type_shape():
    lib = desugared("any :: (a -> Bool) -> [a] -> Bool",
                    allow=frozenset({"any"}))
    assert render_fn(lib.components["any'"].body) == \
        "F (F a Bool) (F (List a) Bool)"


def test_desugared_library_is_first_order():
    from tygar.sigparse import RArrow
    from tygar.types import Var as TyVar

    def base_only(t):
        assert not isinstance(t, RArrow)
        if isinstance(t, App):
            for a in t.args:
                base_only(a)
        else:
            assert isinstance(t, TyVar)

    lib = load_library([FIXTURES / "curated.sig"])
    for poly in lib.components.values():
        for b in (*poly.body.params, poly.body.ret):
            base_only(b)
    # every constructor used is declared
    assert "F" in lib.constructors and lib.constructors["F"] == 2


def test_higher_kinded_constraint_is_load_error():
    with pytest.raises(SignatureError, match="higher-kinded"):
        desugared("class Monad", "ret :: Monad m => a -> m a")


@pytest.mark.parametrize("lib_text, query, message, line, col", INPUT_ERRORS)
def test_input_errors_name_their_place(lib_text, query, message, line, col):
    with pytest.raises((SignatureError, LibraryError)) as err:
        prepare_problem(desugar_library(parse_items(lib_text)), query)
    assert str(err.value) == input_error_text(message, line, col)
    assert (getattr(err.value, "line", 0), getattr(err.value, "col", 0)) \
        == (line, col)


def test_type_nested_300_deep_still_loads(tmp_path):
    # a type nested too deeply for the parser's recursion is an input
    # error (INPUT_ERRORS), but one 300 lists deep still loads, in a
    # library and as a query
    deep = "[" * 300 + "a" + "]" * 300
    path = tmp_path / "deep.sig"
    path.write_text(f"f :: {deep} -> a\n")
    lib, query = prepare_problem(load_library([path]), f"{deep} -> a")

    def depth(t) -> int:
        n = 0
        while isinstance(t, App) and t.args:
            t, n = t.args[0], n + 1
        return n

    assert depth(lib.components["f"].body.params[0]) == 300
    assert depth(query.params[0]) == 300


def test_freeze_query_examples():
    poly = parse_query("a -> [Maybe a] -> a")
    frozen = freeze_query(poly)
    assert frozen == FnType(
        (App("a"), App("List", (App("Maybe", (App("a"),)),))), App("a"))
    # constrained query
    poly2 = parse_query("Eq a => [(a,b)] -> a -> b")
    frozen2 = freeze_query(poly2)
    assert frozen2.params[0] == App("EqD", (App("a"),))
    assert all_ground(frozen2)
    # idempotent on ground queries
    again = freeze_query(PolyType((), frozen2))
    assert again == frozen2
    # injective on variable names
    poly3 = parse_query("a -> b -> a")
    frozen3 = freeze_query(poly3)
    assert frozen3.params[0] != frozen3.params[1]


def all_ground(t: FnType) -> bool:
    from tygar.types import free_vars
    return not any(free_vars(b) for b in (*t.params, t.ret))


def test_surface_drops_dictionaries_and_renumbers():
    lib = load_library([FIXTURES / "curated.sig"])
    session, query = prepare_problem(lib, "Eq a => [(a,b)] -> a -> b")
    nf = NormalForm(("arg0", "arg1", "arg2"), TermApp("fromJust", (
        TermApp("lookup", (TermVar("arg0"), TermVar("arg2"),
                           TermVar("arg1"))),)))
    assert render_surface(surface_term(nf, session, query)) == \
        "fromJust (lookup arg1 arg0)"


def test_surface_rewrites_apply_component():
    lib = load_library([FIXTURES / "curated.sig"])
    session, query = prepare_problem(lib, "(a -> b) -> [a] -> b")
    nf = NormalForm(("arg0", "arg1"), TermApp("($)", (
        TermVar("arg0"), TermApp("head", (TermVar("arg1"),)))))
    assert render_surface(surface_term(nf, session, query)) == \
        "arg0 (head arg1)"
    # nullary variants print under their base name
    nf2 = NormalForm(("arg0", "arg1"), TermApp("foldr", (
        TermApp("($)'", ()), TermVar("arg0"), TermVar("arg1"))))
    session2, query2 = prepare_problem(lib, "[a -> a] -> a -> a")
    text = render_surface(surface_term(nf2, session2, query2))
    assert text == "foldr ($) arg0 arg1"


def test_match_modulo_parameter_permutation():
    ours = parse_surface("fromJust (lookup arg1 arg0)")
    theirs = parse_surface("fromJust (lookup arg0 arg1)")
    assert match_surface(ours, theirs)
    # inconsistent mappings fail
    a = parse_surface("f arg0 arg0")
    b = parse_surface("f arg0 arg1")
    assert not match_surface(a, b)
    assert not match_surface(parse_surface("f arg0"), parse_surface("g arg0"))


def test_dictionary_token_is_used_by_solutions():
    lib = load_library([FIXTURES / "curated.sig"])
    session, query = prepare_problem(lib, "Eq a => [(a,b)] -> a -> b")
    res = synthesize(session, query,
                     SynthConfig(max_solutions=2, max_len=2, timeout_s=30))
    assert res.solutions
    for s in res.solutions:
        # the core term must mention the dictionary parameter (relevancy)
        from tygar.types import render_term
        assert "arg0" in render_term(s.nf)


def test_solution_matches_end_to_end():
    lib = load_library([FIXTURES / "curated.sig"])
    session, query = prepare_problem(lib, "Eq a => [(a,b)] -> a -> b")
    nf = NormalForm(("arg0", "arg1", "arg2"), TermApp("fromJust", (
        TermApp("lookup", (TermVar("arg0"), TermVar("arg2"),
                           TermVar("arg1"))),)))
    assert solution_matches(nf, "fromJust (lookup arg0 arg1)", session, query)
    assert not solution_matches(nf, "fromJust (head arg0)", session, query)


@pytest.mark.parametrize("variant", ["nogar", "baseline"])
def test_nullary_variant_keeps_surface_name(variant):
    # monomorphisation keeps the display names of monomorphic components
    lib = desugared("neg :: Bool -> Bool",
                    "apply :: (Bool -> Bool) -> Bool -> Bool",
                    allow=frozenset({"neg"}))
    session, query = prepare_problem(lib, "Bool -> Bool")
    res = synthesize(session, query, SynthConfig(
        variant=variant, max_solutions=5, max_len=2, timeout_s=30))
    surface = [render_surface(surface_term(s.nf, res.lib, query))
               for s in res.solutions]
    assert "apply neg arg0" in surface
    assert not any("'" in s for s in surface)


@pytest.mark.parametrize("variant", ["nogar", "baseline"])
def test_monomorphised_apply_renders_as_application(variant):
    # baseline renames `($)` to an instance name; its display name is
    # still `($)`, so the solution applies its first argument directly
    lib = desugared("($) :: (a -> b) -> a -> b", "head :: [a] -> a")
    session, query = prepare_problem(lib, "(A -> B) -> [A] -> B")
    res = synthesize(session, query, SynthConfig(
        variant=variant, max_solutions=1, timeout_s=30))
    nf = res.solutions[0].nf
    assert render_surface(surface_term(nf, res.lib, query)) == \
        "arg0 (head arg1)"
    assert solution_matches(nf, "arg0 (head arg1)", res.lib, query)
