"""Desugar rich signatures into the first-order core and load libraries.

Type classes become dictionary-passing (class C gives a constructor CD,
instances give dictionary-producing components), higher-order parameters
become F-encoded base types, and selected components additionally get
nullary variants so they can be passed as arguments.

`desugar_type` is the one path from a parsed signature to a `PolyType`:
library lines, queries and the tests' plain signatures all go through
it, and `_closed` quantifies free variables in first-occurrence order.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Optional, Sequence

from .lattice import resolve
from .sigparse import (
    ClassDecl,
    InstanceDecl,
    RArrow,
    RType,
    RichSignature,
    SignatureError,
    _LineParser,
    _tokenize,
    parse_items,
)
from .types import (
    App,
    BaseType,
    FnType,
    Library,
    NormalForm,
    PolyType,
    Term,
    TermVar,
    Var,
    free_vars,
)

# The components that also get a nullary variant, to pass as arguments.
DEFAULT_HOF_ALLOWLIST = frozenset({"($)", "Pair", "Just"})


def to_base(t: RType) -> BaseType:
    """Erase arrows into the binary F constructor, recursively."""
    if isinstance(t, RArrow):
        return App("F", (to_base(t.left), to_base(t.right)))
    if isinstance(t, App):
        return App(t.con, tuple(to_base(a) for a in t.args))
    return t


def _arrow_chain(t: RType) -> tuple:
    params = []
    while isinstance(t, RArrow):
        params.append(t.left)
        t = t.right
    return params, t


def _closed(fn: FnType) -> PolyType:
    """Quantify fn's free variables in first-occurrence order."""
    quantified = dict.fromkeys(
        v for b in (*fn.params, fn.ret) for v in free_vars(b))
    return PolyType(tuple(quantified), fn)


def _dict_params(constraints: Sequence, class_cons: dict) -> tuple:
    """One dictionary parameter `CD a` per constraint `C a`."""
    return tuple(App(class_cons.setdefault(cls, f"{cls}D"), (Var(var),))
                 for cls, var in constraints)


def desugar_type(constraints: Sequence, t: RType,
                 class_cons: dict) -> PolyType:
    """Constraints become leading dictionary parameters; argument
    positions are F-encoded base types."""
    params, ret = _arrow_chain(t)
    base_params = tuple(to_base(p) for p in params)
    return _closed(FnType(_dict_params(constraints, class_cons) + base_params,
                          to_base(ret)))


def _instance_component(decl: InstanceDecl, class_cons: dict) -> tuple:
    con = class_cons.setdefault(decl.classname, f"{decl.classname}D")
    cls_lower = decl.classname[0].lower() + decl.classname[1:]
    name = f"{cls_lower}{decl.head.con}"
    fn = FnType(_dict_params(decl.context, class_cons), App(con, (decl.head,)))
    return name, _closed(fn)


def _nullary_variant(poly: PolyType) -> PolyType:
    t: BaseType = poly.body.ret
    for p in reversed(poly.body.params):
        t = App("F", (p, t))
    return PolyType(poly.quantified, FnType((), t))


def desugar_library(items: Iterable) -> Library:
    """Build a first-order library from parsed signature-file items."""
    lib = Library()
    lib.declare_constructor("F", 2)
    class_cons: dict = {}
    for item in items:
        if isinstance(item, ClassDecl):
            class_cons.setdefault(item.name, f"{item.name}D")
    for item in items:
        if isinstance(item, RichSignature):
            lib.add_component(item.name,
                              desugar_type(item.constraints, item.rtype,
                                           class_cons))
        elif isinstance(item, InstanceDecl):
            name, poly = _instance_component(item, class_cons)
            lib.add_component(name, poly)
    for con in class_cons.values():
        lib.declare_constructor(con, 1)
    lib.dict_constructors = frozenset(class_cons.values())
    for name in list(lib.components):
        if name in DEFAULT_HOF_ALLOWLIST and lib.components[name].body.params:
            variant = f"{name}'"
            lib.add_component(variant, _nullary_variant(lib.components[name]))
            lib.display_names[variant] = name
    if "($)" in lib.components:
        lib.apply_component = "($)"
    return lib


def load_library(paths: Iterable) -> Library:
    items = []
    for path in paths:
        items.extend(parse_items(Path(path).read_text()))
    return desugar_library(items)


def parse_query(text: str) -> PolyType:
    """Parse and desugar a query type written in signature syntax."""
    toks = _tokenize(text, 1)
    if not toks:
        raise SignatureError("empty query", 1, 1)
    p = _LineParser(toks, 1)
    constraints = p.parse_context()
    rtype = p.whole(p.parse_type)
    if p.peek() is not None:
        raise p.error("trailing tokens after query type")
    return desugar_type(constraints, rtype, {})


def freeze_query(q: PolyType) -> FnType:
    """Ground the query by turning each quantified variable into a fresh
    nullary constructor named after it. Idempotent on ground queries."""
    sigma = {v: App(v) for v in q.quantified}
    return FnType(tuple(resolve(b, sigma) for b in q.body.params),
                  resolve(q.body.ret, sigma))


def prepare_problem(lib: Library, query_text: str) -> tuple:
    """Desugared, frozen query plus a library extended with the query's
    variable constructors. A constraint `C a` in the query becomes a
    `CD a` dictionary parameter, the constructor the library's class
    `C` declares."""
    frozen = freeze_query(parse_query(query_text))
    session_lib = lib.copy()
    for b in (*frozen.params, frozen.ret):
        session_lib.register_type(b)
    return session_lib, frozen


# ---------------------------------------------------------------------------
# Surface rendering: hide dictionary arguments, apply `$` directly, and
# strip generated-name suffixes, matching how solutions read as Haskell.

def _dict_positions(lib: Library, component: str) -> set:
    poly = lib.components[component]
    return {
        j for j, b in enumerate(poly.body.params)
        if isinstance(b, App) and b.con in lib.dict_constructors
    }


def surface_term(nf: NormalForm, lib: Library, query: FnType):
    """Nested-tuple surface form: ('arg', i), ('name', s), ('app', head, args)."""
    surface_index = {}
    for i, b in enumerate(query.params):
        if not (isinstance(b, App) and b.con in lib.dict_constructors):
            surface_index[nf.params[i]] = len(surface_index)

    def walk(t: Term):
        if isinstance(t, TermVar):
            if t.name in surface_index:
                return ("arg", surface_index[t.name])
            return ("name", f"<{t.name}>")  # dictionary parameter, hidden
        drop = _dict_positions(lib, t.component)
        kept = tuple(walk(a) for j, a in enumerate(t.args) if j not in drop)
        name = lib.display_name(t.component)
        if t.component == lib.apply_component and len(kept) == 2:
            return _napp(kept[0], (kept[1],))
        if not kept:
            return ("name", name)
        return _napp(("name", name), kept)

    return walk(nf.body)


def _napp(head, args: tuple):
    if head[0] == "app":
        return ("app", head[1], head[2] + args)
    return ("app", head, args)


def render_surface(node) -> str:
    kind = node[0]
    if kind == "arg":
        return f"arg{node[1]}"
    if kind == "name":
        return node[1]
    head, args = node[1], node[2]
    parts = [render_surface(head)]
    for a in args:
        s = render_surface(a)
        parts.append(f"({s})" if a[0] == "app" else s)
    return " ".join(parts)


def parse_surface(text: str):
    """Parse an expected-solution string into a surface tree."""
    toks = _tokenize(text, 1)
    p = _LineParser(toks, 1)

    def atom():
        tok = p.next()
        kind, val, col = tok
        if kind == "ident":
            if val.startswith("arg") and val[3:].isdigit():
                return ("arg", int(val[3:]))
            return ("name", val)
        if kind == "(":
            nxt = p.peek()
            if nxt and nxt[0] in ("opsym", ","):
                p.next()
                p.expect(")")
                return ("name", f"({nxt[1]})")
            inner = expr()
            p.expect(")")
            return inner
        raise SignatureError(f"unexpected token {val!r} in solution", 1, col)

    def expr():
        head = atom()
        args = []
        while p.peek() and p.peek()[0] in ("ident", "("):
            args.append(atom())
        return _napp(head, tuple(args)) if args else head

    out = expr()
    if p.peek() is not None:
        raise p.error("trailing tokens in solution")
    return out


def match_surface(actual, expected, mapping: Optional[dict] = None) -> bool:
    """Structural equality modulo one consistent bijection of arg indices."""
    if mapping is None:
        mapping = {}
    if actual[0] != expected[0]:
        return False
    if actual[0] == "arg":
        i, j = actual[1], expected[1]
        if i in mapping:
            return mapping[i] == j
        if j in mapping.values():
            return False
        mapping[i] = j
        return True
    if actual[0] == "name":
        return actual[1] == expected[1]
    if len(actual[2]) != len(expected[2]):
        return False
    if not match_surface(actual[1], expected[1], mapping):
        return False
    return all(match_surface(a, e, mapping)
               for a, e in zip(actual[2], expected[2]))


def solution_matches(nf: NormalForm, expected: str, lib: Library,
                     query: FnType) -> bool:
    return match_surface(surface_term(nf, lib, query), parse_surface(expected))
