"""Core data model: base types, polytypes, terms, libraries."""

from __future__ import annotations

from typing import Optional, Union


class TypingError(Exception):
    """Malformed type-level data (bad arity, unknown component, ...)."""


# Sets a field of a frozen record in its `__init__`, past the record's own
# `__setattr__`, which refuses.
set_field = object.__setattr__


class Record:
    """Base of the package's records, which are plain classes: importing
    `dataclasses` took a query process longer than most syntheses do.

    `_fields` names the fields in constructor order. Records of the same
    class are equal when their fields are, in order; the repr lists the
    fields. A record can change, so it has no hash.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({inner})"


class Frozen(Record):
    """A record whose fields `__init__` sets once, through `set_field`;
    assigning or deleting one raises `AttributeError`. Its hash is its
    field tuple's, except for `Var` and `App`, which are one object per
    value. Hot types read their fields in their own methods."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()


# One object per type: `Var` and `App` return the table's object for
# their value, so equality and hashing are identity's, in C. The tables
# are never cleared, because equality depends on them; `setdefault`
# keeps one object per value when two threads build it at once.
_VARS: dict = {}
_APPS: dict = {}


class Var(Frozen):
    """A type variable, one object per name; never ground."""

    __slots__ = _fields = ("name",)
    ground = False
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __new__(cls, name: str):
        t = _VARS.get(name)
        if t is None:
            t = object.__new__(cls)
            set_field(t, "name", name)
            t = _VARS.setdefault(name, t)
        return t

    def __repr__(self) -> str:
        return f"Var({self.name})"


class App(Frozen):
    """A type constructor applied to argument types, one object per
    `(con, args)`: places, cover members and net groups are dict and set
    keys looked up many times, and a type's hash is its address.
    `ground`, set when built, is true when no variable occurs in it: two
    ground types are equal exactly when they are one object."""

    _fields = ("con", "args")
    __slots__ = _fields + ("ground",)
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __new__(cls, con: str, args: tuple = ()):
        key = (con, args)
        t = _APPS.get(key)
        if t is None:
            t = object.__new__(cls)
            set_field(t, "con", con)
            set_field(t, "args", args)
            ground = True
            for a in args:
                if type(a) is not App or not a.ground:
                    ground = False
                    break
            set_field(t, "ground", ground)
            t = _APPS.setdefault(key, t)
        return t

    def __repr__(self) -> str:
        if not self.args:
            return f"App({self.con})"
        return f"App({self.con}, {list(self.args)})"


class _Bottom:
    """The distinguished bottom type; strictly below every base type."""

    _instance: Optional["_Bottom"] = None

    def __new__(cls) -> "_Bottom":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Bottom"


BOTTOM = _Bottom()

BaseType = Union[Var, App, _Bottom]


def free_vars(t: BaseType, seen: Optional[list] = None) -> list[str]:
    """Variable names in first-occurrence (pre-order, left-to-right)
    order, appended to `seen` (a new list by default), which is returned."""
    if seen is None:
        seen = []
    if type(t) is Var:
        if t.name not in seen:
            seen.append(t.name)
    elif type(t) is App and not t.ground:
        for a in t.args:
            free_vars(a, seen)
    return seen


def count_var(t: BaseType, name: str) -> int:
    if isinstance(t, Var):
        return 1 if t.name == name else 0
    if isinstance(t, App):
        return sum(count_var(a, name) for a in t.args)
    return 0


# The canonical variables most types need, numbered without formatting.
_CANONICAL_VARS = tuple(Var(f"t{i}") for i in range(32))


def resolve_canonical(t: BaseType, bindings: dict[str, BaseType]) -> BaseType:
    """`canonical` of `t` with triangular `bindings` applied, in one walk
    with no intermediate resolved copy.

    Bound variables are replaced by their resolved bindings and the
    unbound ones left are renamed t0, t1, ... in first-occurrence order
    of the resolved type.
    """
    return _canon(t, bindings, {})


def _canon(u: BaseType, bindings: dict, mapping: dict) -> BaseType:
    """`resolve_canonical` of `u`, numbering unbound variables on from
    `mapping` (name -> canonical variable), which it extends."""
    if type(u) is Var:
        b = bindings.get(u.name)
        if b is not None:
            return _canon(b, bindings, mapping)
        canon = mapping.get(u.name)
        if canon is None:
            i = len(mapping)
            canon = mapping[u.name] = (_CANONICAL_VARS[i]
                                       if i < len(_CANONICAL_VARS)
                                       else Var(f"t{i}"))
        return canon
    if type(u) is App and not u.ground:
        args = tuple([_canon(a, bindings, mapping) for a in u.args])
        if args != u.args:
            return App(u.con, args)
    return u


def canonical(t: BaseType) -> BaseType:
    """Rename variables to t0,t1,... in first-occurrence order.

    Equality and set membership of types throughout the package is on
    canonical forms, which makes alpha-equivalence plain equality.
    """
    return resolve_canonical(t, {})


# The top of the subsumption lattice: a lone type variable, in canonical form.
TOP = _CANONICAL_VARS[0]


def render_type(t: BaseType) -> str:
    if t is BOTTOM:
        return "_|_"
    if isinstance(t, Var):
        return t.name
    if not t.args:
        return t.con
    parts = [t.con]
    for a in t.args:
        s = render_type(a)
        if isinstance(a, App) and a.args:
            s = f"({s})"
        parts.append(s)
    return " ".join(parts)


class FnType(Frozen):
    """Uncurried first-order function type over base types."""

    __slots__ = _fields = ("params", "ret")

    def __init__(self, params: tuple, ret: BaseType):
        set_field(self, "params", params)
        set_field(self, "ret", ret)

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return self.params == other.params and self.ret == other.ret
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.params, self.ret))

    def __repr__(self) -> str:
        return f"FnType({render_fn(self)})"


def render_fn(t: FnType) -> str:
    parts = [render_type(p) for p in t.params] + [render_type(t.ret)]
    return " -> ".join(parts)


class PolyType(Frozen):
    """A signature: `body` with the variables in `quantified` bound.

    Like `App`, its structural hash is computed when built: the
    transformer's memo looks a polytype up on every component
    application.
    """

    _fields = ("quantified", "body")
    __slots__ = _fields + ("_hash",)

    def __init__(self, quantified: tuple, body: FnType):
        set_field(self, "quantified", quantified)
        set_field(self, "body", body)
        set_field(self, "_hash", hash((quantified, body)))

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return self.quantified == other.quantified and self.body == other.body
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        q = " ".join(self.quantified)
        return f"PolyType(forall {q}. {render_fn(self.body)})" if q else repr(self.body)


# ---------------------------------------------------------------------------
# Terms

class TermVar(Frozen):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str):
        set_field(self, "name", name)

    def __hash__(self) -> int:
        return hash((self.name,))

    def __repr__(self) -> str:
        return f"TermVar({self.name})"


class TermApp(Frozen):
    __slots__ = _fields = ("component", "args")

    def __init__(self, component: str, args: tuple = ()):
        set_field(self, "component", component)
        set_field(self, "args", args)

    def __hash__(self) -> int:
        return hash((self.component, self.args))

    def __repr__(self) -> str:
        return f"TermApp({self.component}, {list(self.args)})"


Term = Union[TermVar, TermApp]


class NormalForm(Frozen):
    """An application term under an ordered list of lambda-bound parameters."""

    __slots__ = _fields = ("params", "body")

    def __init__(self, params: tuple, body: Term):
        set_field(self, "params", params)
        set_field(self, "body", body)


def term_size(t: Term) -> int:
    """Number of component applications in a term."""
    if isinstance(t, TermVar):
        return 0
    return 1 + sum(term_size(a) for a in t.args)


def subterm_positions(t: Term, path: tuple = (),
                      out: Optional[list] = None) -> list[tuple]:
    """All positions (paths of child indices) in pre-order, of `t` at
    `path`, appended to `out` (a new list by default), which is returned."""
    if out is None:
        out = []
    out.append(path)
    if isinstance(t, TermApp):
        for i, a in enumerate(t.args):
            subterm_positions(a, path + (i,), out)
    return out


def subterm_at(t: Term, path: tuple) -> Term:
    for i in path:
        t = t.args[i]
    return t


def render_app_term(t: Term) -> str:
    if isinstance(t, TermVar):
        return t.name
    if not t.args:
        return t.component
    parts = [t.component]
    for a in t.args:
        s = render_app_term(a)
        if isinstance(a, TermApp) and a.args:
            s = f"({s})"
        parts.append(s)
    return " ".join(parts)


def render_term(nf: NormalForm) -> str:
    """Deterministic rendering; parameters print as arg0..argN-1."""
    return render_app_term(nf.body)


# ---------------------------------------------------------------------------
# Libraries and environments

class LibraryError(Exception):
    pass


class Library(Record):
    """Constructor arities plus named component signatures.

    Component insertion order is meaningful: it fixes group-member
    iteration order during program extraction.
    """

    _fields = ("constructors", "components", "dict_constructors",
               "display_names")

    def __init__(self, constructors: Optional[dict[str, int]] = None,
                 components: Optional[dict[str, PolyType]] = None,
                 dict_constructors: frozenset = frozenset(),
                 display_names: Optional[dict[str, str]] = None):
        self.constructors = {} if constructors is None else constructors
        self.components = {} if components is None else components
        # component classes declared via `class` lines: class name ->
        # dictionary constructor name (e.g. Eq -> EqD)
        self.dict_constructors = dict_constructors
        # surface-name mapping for generated components (nullary
        # variants, monomorphised instances)
        self.display_names = {} if display_names is None else display_names

    def arity(self, component: str) -> int:
        return len(self.components[component].body.params)

    def declare_constructor(self, name: str, arity: int) -> None:
        prev = self.constructors.get(name)
        if prev is not None and prev != arity:
            raise LibraryError(
                f"constructor {name} used with arity {arity}, previously {prev}")
        self.constructors[name] = arity

    def register_type(self, t: BaseType) -> None:
        """Record constructors appearing in t; first use fixes arity."""
        if isinstance(t, App):
            self.declare_constructor(t.con, len(t.args))
            for a in t.args:
                self.register_type(a)

    def add_component(self, name: str, poly: PolyType) -> None:
        if name in self.components:
            raise LibraryError(f"duplicate component {name}")
        # `^` names rename an argument type's variables apart, for the
        # transformer and for `meet` (`lattice.arg_pair`)
        types = (*poly.body.params, poly.body.ret)
        reserved = [v for b in types for v in free_vars(b) if v.startswith("^")]
        if reserved:
            raise LibraryError(f"component {name}: type variable "
                               f"{reserved[0]} uses the reserved prefix ^")
        for b in types:
            self.register_type(b)
        self.components[name] = poly

    def copy(self) -> "Library":
        """Copy whose constructors, components and display names can be
        extended without changing this library."""
        return Library(dict(self.constructors), dict(self.components),
                       self.dict_constructors, dict(self.display_names))

    def display_name(self, component: str) -> str:
        return self.display_names.get(component, component)


Environment = dict
