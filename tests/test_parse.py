import pytest

from tygar.sigparse import (
    ClassDecl,
    InstanceDecl,
    RArrow,
    RichSignature,
    SignatureError,
    parse_items,
    parse_line,
)
from tygar.types import App, PolyType, render_fn

from conftest import FIXTURES, fn, sig, ty


def test_parse_fromMaybe():
    name, poly = sig("fromMaybe :: a -> Maybe a -> a")
    assert name == "fromMaybe"
    assert poly == PolyType(("a",), fn("a -> Maybe a -> a"))


def test_parse_list_sugar():
    name, poly = sig("listToMaybe :: [a] -> Maybe a")
    assert poly.body == fn("List a -> Maybe a")


def test_parse_pair_and_string_sugar():
    _, poly = sig("f :: (a, b) -> String")
    assert poly.body.params == (ty("Pair a b"),)
    assert poly.body.ret == ty("List Char")


def test_syntax_error_reports_position():
    with pytest.raises(SignatureError) as err:
        sig("x :: a -> b ->")
    assert "line 1" in str(err.value)


def test_operator_names():
    name, poly = sig("($) :: a -> a")
    assert name == "($)"
    name, _ = sig("(,) :: a -> b -> Pair a b")
    assert name == "(,)"


def test_parsed_items_are_records():
    item = parse_line("f :: Eq a => (a -> b) -> a", 3)
    assert item == RichSignature("f", [("Eq", "a")], item.rtype, 3)
    assert repr(item) == (
        "RichSignature(name='f', constraints=[('Eq', 'a')], rtype=RArrow("
        "left=RArrow(left=Var(a), right=Var(b)), right=Var(a)), line=3)")
    assert item.rtype == RArrow(RArrow(ty("a"), ty("b")), ty("a"))
    assert hash(item.rtype) == hash((item.rtype.left, item.rtype.right))
    with pytest.raises(AttributeError):
        item.rtype.left = ty("a")
    with pytest.raises(TypeError):
        hash(item)
    assert RichSignature("g").constraints == [] and RichSignature("g").line == 0
    assert parse_line("class Eq", 2) == ClassDecl("Eq", 2) != ClassDecl("Eq")
    assert parse_line("instance Eq a => Eq (Maybe a)", 4) == \
        InstanceDecl([("Eq", "a")], "Eq", ty("Maybe a"), 4)


def test_higher_kinded_variable_rejected():
    with pytest.raises(SignatureError, match="higher-kinded"):
        parse_line("ret :: a -> m a", 1)


def test_class_and_instance_lines():
    items = parse_items(
        "class Eq\ninstance Eq Int\ninstance Eq a => Eq [a]\n-- c\n\n")
    assert isinstance(items[0], ClassDecl) and items[0].name == "Eq"
    assert isinstance(items[1], InstanceDecl)
    assert items[1].classname == "Eq" and items[1].head == App("Int")
    assert items[2].context == [("Eq", "a")]
    assert items[2].head == ty("List a")


def test_constraint_context_forms():
    item = parse_line("lookup :: Eq a => a -> [(a,b)] -> Maybe b", 1)
    assert item.constraints == [("Eq", "a")]
    item = parse_line("f :: (Eq a, Ord b) => a -> b", 1)
    assert item.constraints == [("Eq", "a"), ("Ord", "b")]


def test_rich_arrows_in_argument_positions():
    item = parse_line("foldr :: (a -> b -> b) -> b -> [a] -> b", 1)
    assert isinstance(item, RichSignature)
    item = parse_line("repl :: (a -> b) -> Int -> [a -> b]", 1)
    assert isinstance(item, RichSignature)


def test_roundtrip_stability_on_fixture_signatures():
    # parse . render . parse == parse
    for fixture in ("tiny.sig", "curated.sig", "pcp.sig", "unsat.sig"):
        for line in (FIXTURES / fixture).read_text().splitlines():
            item = parse_line(line, 1)
            if not isinstance(item, RichSignature) or item.constraints:
                continue
            name, poly = sig(line)
            rendered = f"{name} :: {render_fn(poly.body)}"
            assert sig(rendered) == (name, poly)
