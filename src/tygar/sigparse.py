"""Signature-file parsing: `name :: type` lines plus class/instance decls.

Lexical convention follows the fixtures: identifiers starting lowercase
(or with an underscore) are type variables, capitalized ones are
constructors. Sugar: `[a]` is `List a`, `(a,b)` is `Pair a b`, `String`
is `List Char`, arrows are right-associative. Operator names appear in
parentheses, e.g. `($) :: (a -> b) -> a -> b`.

The parser yields rich items: signatures keep their class constraints
and their arrows (`RArrow`) wherever they occur. Turning one into a
first-order polytype is `frontend.desugar_type`'s job, the one path from
signature text to a `PolyType`.
"""

from __future__ import annotations

from typing import Optional, Union

from .types import App, BaseType, Frozen, Record, Var, set_field


class SignatureError(Exception):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        super().__init__(f"{message} (line {line}, column {col})" if line else message)


class RArrow(Frozen):
    """A function type inside a rich signature; erased by desugaring."""

    __slots__ = _fields = ("left", "right")

    def __init__(self, left: RType, right: RType):
        set_field(self, "left", left)
        set_field(self, "right", right)


RType = Union[RArrow, App, Var]


class RichSignature(Record):
    _fields = ("name", "constraints", "rtype", "line")

    def __init__(self, name: str, constraints: Optional[list] = None,
                 rtype: RType = None, line: int = 0):
        self.name = name
        # (class name, var name) pairs
        self.constraints = [] if constraints is None else constraints
        self.rtype = rtype
        self.line = line


class ClassDecl(Record):
    _fields = ("name", "line")

    def __init__(self, name: str, line: int = 0):
        self.name = name
        self.line = line


class InstanceDecl(Record):
    _fields = ("context", "classname", "head", "line")

    def __init__(self, context: list, classname: str, head: BaseType, line: int = 0):
        self.context = context  # (class name, var name)
        self.classname = classname
        self.head = head
        self.line = line


SigItem = Union[RichSignature, ClassDecl, InstanceDecl]

_OPCHARS = set("!#$%&*+./<=>?@\\^|-~:")


def _tokenize(text: str, lineno: int) -> list[tuple]:
    """Tokens as (kind, value, col); kinds: ident, op-name pieces, punct."""
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in " \t":
            i += 1
            continue
        if text.startswith("--", i):
            break
        col = i + 1
        if text.startswith("::", i):
            toks.append(("dcolon", "::", col))
            i += 2
        elif text.startswith("->", i):
            toks.append(("arrow", "->", col))
            i += 2
        elif text.startswith("=>", i):
            toks.append(("darrow", "=>", col))
            i += 2
        elif c in "()[],":
            toks.append((c, c, col))
            i += 1
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            toks.append(("ident", text[i:j], col))
            i = j
        elif c in _OPCHARS:
            j = i
            while j < n and text[j] in _OPCHARS and not text.startswith("::", j) \
                    and not text.startswith("->", j) and not text.startswith("=>", j):
                j += 1
            toks.append(("opsym", text[i:j], col))
            i = j
        else:
            raise SignatureError(f"unexpected character {c!r}", lineno, col)
    return toks


class _LineParser:
    def __init__(self, toks: list, lineno: int):
        self.toks = toks
        self.pos = 0
        self.lineno = lineno

    def peek(self) -> Optional[tuple]:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self) -> tuple:
        tok = self.peek()
        if tok is None:
            last_col = self.toks[-1][2] if self.toks else 1
            raise SignatureError("unexpected end of line", self.lineno, last_col)
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple:
        tok = self.next()
        if tok[0] != kind:
            raise SignatureError(f"expected {kind!r}, found {tok[1]!r}",
                                 self.lineno, tok[2])
        return tok

    def error(self, msg: str) -> SignatureError:
        tok = self.peek()
        col = tok[2] if tok else (self.toks[-1][2] if self.toks else 1)
        return SignatureError(msg, self.lineno, col)

    def whole(self, parse):
        """`parse()`, the parse of a whole type or atom; one nested too
        deeply for this recursive descent is an error at its first
        token."""
        start = self.pos
        try:
            return parse()
        except RecursionError:
            self.pos = start
            raise self.error("type nested too deeply") from None

    # -- types ------------------------------------------------------------

    def parse_type(self) -> RType:
        left = self.parse_btype()
        tok = self.peek()
        if tok and tok[0] == "arrow":
            self.next()
            return RArrow(left, self.parse_type())
        return left

    def parse_btype(self) -> RType:
        start = self.peek()
        atoms = [self.parse_atom()]
        while True:
            tok = self.peek()
            if tok and (tok[0] in ("ident", "[", "(")):
                atoms.append(self.parse_atom())
            else:
                break
        head = atoms[0]
        if len(atoms) == 1:
            return head
        if isinstance(head, Var):
            msg = ("higher-kinded type variables are not supported "
                   f"(variable {head.name!r} applied to arguments)")
        elif not isinstance(head, App):
            msg = "only a constructor can head a type application"
        elif head.args:
            msg = "nested application onto an applied constructor"
        else:
            return App(head.con, tuple(atoms[1:]))
        # reported at the head of the application, as instance heads are
        raise SignatureError(msg, self.lineno, start[2])

    def parse_atom(self) -> RType:
        tok = self.next()
        kind, val, col = tok
        if kind == "ident":
            if val[0].isupper():
                if val == "String":
                    return App("List", (App("Char"),))
                return App(val)
            return Var(val)
        if kind == "[":
            inner = self.parse_type()
            self.expect("]")
            return App("List", (inner,))
        if kind == "(":
            first = self.parse_type()
            tok = self.peek()
            if tok and tok[0] == ",":
                self.next()
                second = self.parse_type()
                self.expect(")")
                return App("Pair", (first, second))
            self.expect(")")
            return first
        raise SignatureError(f"unexpected token {val!r}", self.lineno, col)

    # -- constraints and names --------------------------------------------

    def parse_constraint(self) -> tuple:
        cls = self.expect("ident")
        if not cls[1][0].isupper():
            raise SignatureError("class name must be capitalized",
                                 self.lineno, cls[2])
        var = self.expect("ident")
        if var[1][0].isupper():
            raise SignatureError(
                "class constraints apply to type variables only",
                self.lineno, var[2])
        return (cls[1], var[1])

    def parse_context(self) -> list:
        """Constraints followed by `=>`, if present; backtracks otherwise."""
        start = self.pos
        try:
            out = []
            tok = self.peek()
            if tok and tok[0] == "(":
                self.next()
                out.append(self.parse_constraint())
                while self.peek() and self.peek()[0] == ",":
                    self.next()
                    out.append(self.parse_constraint())
                self.expect(")")
            else:
                out.append(self.parse_constraint())
            self.expect("darrow")
            return out
        except SignatureError:
            self.pos = start
            return []

    def parse_name(self) -> str:
        tok = self.next()
        if tok[0] == "ident":
            return tok[1]
        if tok[0] == "(":
            op = self.next()
            if op[0] not in ("opsym", ","):
                raise SignatureError("expected an operator name",
                                     self.lineno, op[2])
            self.expect(")")
            return f"({op[1]})"
        raise SignatureError(f"expected a component name, found {tok[1]!r}",
                             self.lineno, tok[2])


def parse_line(text: str, lineno: int = 1) -> Optional[SigItem]:
    """One signature-file line; None for blanks and comments."""
    toks = _tokenize(text, lineno)
    if not toks:
        return None
    p = _LineParser(toks, lineno)
    if toks[0][0] == "ident" and toks[0][1] == "class":
        p.next()
        name = p.expect("ident")[1]
        if p.peek() and p.peek()[0] == "ident":
            p.next()  # optional class variable
        if p.peek() is not None:
            raise p.error("trailing tokens after class declaration")
        return ClassDecl(name, lineno)
    if toks[0][0] == "ident" and toks[0][1] == "instance":
        p.next()
        context = p.parse_context()
        cls = p.expect("ident")[1]
        at = p.peek()
        head = p.whole(p.parse_atom)
        if p.peek() is not None:
            raise p.error("trailing tokens after instance declaration")
        if not isinstance(head, App):
            raise SignatureError("instance head must be a constructor",
                                 lineno, at[2])
        return InstanceDecl(context, cls, head, lineno)
    name = p.parse_name()
    p.expect("dcolon")
    constraints = p.parse_context()
    rtype = p.whole(p.parse_type)
    if p.peek() is not None:
        raise p.error("trailing tokens after signature")
    return RichSignature(name, constraints, rtype, lineno)


def parse_items(text: str) -> list:
    items = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        item = parse_line(line, lineno)
        if item is not None:
            items.append(item)
    return items
