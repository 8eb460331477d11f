"""The type subsumption lattice and meet-closed abstract covers."""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, Optional

from .types import (
    App,
    BOTTOM,
    BaseType,
    TOP,
    Var,
    canonical,
    count_var,
    free_vars,
    render_type,
    resolve_canonical,
)


def subsumes(specific: BaseType, general: BaseType) -> bool:
    """True iff some substitution maps `general` onto `specific`.

    One-sided matching, not unification: variables of `specific` are
    treated as constants. Bottom is below everything; a lone variable
    is above everything. A ground `general` subsumes only itself and
    bottom.
    """
    if specific is BOTTOM:
        return True
    if general is BOTTOM:
        return False
    if general.ground:
        return specific is general
    bind: dict[str, BaseType] = {}
    work = [(general, specific)]
    while work:
        g, s = work.pop()
        if type(g) is Var:
            b = bind.get(g.name)
            if b is None:
                bind[g.name] = s
            elif b is not s:
                return False
        elif (type(s) is Var or g.con != s.con
              or len(g.args) != len(s.args)):
            return False
        else:
            work.extend(zip(g.args, s.args))
    return True


def _occurs(name: str, t: BaseType, bindings: dict[str, BaseType]) -> bool:
    """True iff the variable `name` occurs in `t` under `bindings`."""
    stack = [t]
    while stack:
        t = stack.pop()
        if type(t) is Var:
            if t.name == name:
                return True
            nxt = bindings.get(t.name)
            if nxt is not None:
                stack.append(nxt)
        elif not t.ground:
            stack.extend(t.args)
    return False


def resolve(t: BaseType, bindings: dict[str, BaseType]) -> BaseType:
    """Apply triangular bindings to t until no bound variable is left:
    the package's one way to apply a substitution, a dict of bindings.
    Where no binding's value holds a bound variable (ground values, say),
    this is simultaneous application.

    A subterm none of whose variables is bound comes back as the same
    object, not a copy, so ground and unbound parts are never rebuilt.
    """
    if isinstance(t, Var):
        b = bindings.get(t.name)
        return t if b is None else resolve(b, bindings)
    if isinstance(t, App) and not t.ground:
        args = tuple([resolve(a, bindings) for a in t.args])
        if args != t.args:
            return App(t.con, args)
    return t


def unify(pairs: Iterable[tuple],
          bindings: Optional[dict[str, BaseType]] = None
          ) -> Optional[dict[str, BaseType]]:
    """Extend triangular bindings to a most general unifier of the pairs.

    Triangular: a bound variable may map to a type that mentions other
    bound variables; `resolve` applies them. Each step follows only the
    binding chains of either side's head and never resolves a whole
    type: the Var/App case split, and so `resolve` of any type under
    the result, is the same as when both sides are fully resolved
    first. The input bindings are not mutated, so a caller can try
    several extensions of one prefix. Failure (a bottom type, a clash
    or the occurs check, which follows bindings) is None. Same-named
    variables on either side denote the same variable; callers rename
    apart when that is not intended.
    """
    work = list(pairs)
    bindings = dict(bindings) if bindings else {}
    get = bindings.get
    while work:
        a, b = work.pop()
        if a is BOTTOM or b is BOTTOM:
            return None
        while type(a) is Var:
            nxt = get(a.name)
            if nxt is None:
                break
            a = nxt
        while type(b) is Var:
            nxt = get(b.name)
            if nxt is None:
                break
            b = nxt
        if a is b:
            continue
        # neither another unbound variable nor a ground type can
        # contain a variable: the occurs check is skipped for them
        if type(a) is Var:
            if type(b) is Var or b.ground or not _occurs(a.name, b, bindings):
                bindings[a.name] = b
            else:
                return None
        elif type(b) is Var:
            if not a.ground and _occurs(b.name, a, bindings):
                return None
            bindings[b.name] = a
        else:
            # two ground types are equal only if they are one object
            if (a.ground and b.ground or a.con != b.con
                    or len(a.args) != len(b.args)):
                return None
            work.extend(zip(a.args, b.args))
    return bindings


@lru_cache(maxsize=65536)
def _rename_arg(j: int, actual: BaseType) -> BaseType:
    # no binding's value is bound, as `actual` has no `^` variable, so
    # `resolve` renames all of them at once
    return resolve(actual, {v: Var(f"^a{j}_{i}")
                            for i, v in enumerate(free_vars(actual))})


def arg_pair(j: int, formal: BaseType, actual: BaseType) -> tuple:
    """The unification pair binding formal parameter j, as written, to an
    actual type renamed apart into `^a<j>_<i>` names, which no signature
    variable may take (`Library.add_component`). The renaming depends
    only on (j, actual) and is computed once per such pair; `actual`
    must have no `^` variable."""
    return formal, _rename_arg(j, actual)


def mgu(a: BaseType, b: BaseType) -> Optional[dict[str, BaseType]]:
    """Most general unifier of two types as idempotent bindings, which
    `resolve` applies; failure, the paper's bottom substitution, is None."""
    bindings = unify([(a, b)])
    if bindings is None:
        return None
    return {v: resolve(t, bindings) for v, t in bindings.items()}


def meet(a: BaseType, b: BaseType) -> BaseType:
    """Greatest lower bound: unify `a` with `b` renamed apart by
    `arg_pair`, canonical result. Below a ground type lie only itself
    and bottom.

    Precondition: neither type has a `^` variable, or the renaming
    would not keep the two apart. No type the package builds has one:
    libraries reject such names, the parser cannot read one, and
    transformer results and cover members are canonical.
    """
    if a is BOTTOM or b is BOTTOM:
        return BOTTOM
    if a.ground:
        return a if subsumes(a, b) else BOTTOM
    if b.ground:
        return b if subsumes(b, a) else BOTTOM
    bindings = unify([arg_pair(0, a, b)])
    if bindings is None:
        return BOTTOM
    return resolve_canonical(a, bindings)


class AbstractCover:
    """A meet-closed finite set of canonical base types, with top and bottom.

    Variables scope per element; membership is on canonical forms.
    """

    def __init__(self, members: Iterable[BaseType]):
        mem = {canonical(m) if m is not BOTTOM else BOTTOM for m in members}
        mem.add(TOP)
        mem.add(BOTTOM)
        self.members: frozenset = frozenset(mem)
        self._abs_cache: dict[BaseType, BaseType] = {}
        self._by_head: Optional[dict[tuple, list]] = None

    def __contains__(self, t: BaseType) -> bool:
        t = t if t is BOTTOM else canonical(t)
        return t in self.members

    def __iter__(self) -> Iterator[BaseType]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AbstractCover):
            return NotImplemented
        return self.members == other.members

    def __hash__(self) -> int:
        return hash(self.members)

    def __repr__(self) -> str:
        names = sorted(render_type(m) for m in self.members)
        return "AbstractCover({%s})" % ", ".join(names)

    def abstract(self, b: BaseType) -> BaseType:
        """Most specific member subsuming b; unique by meet closure.

        Every caller passes a canonical type (query types are ground,
        and transformer results come out canonical), so b is not
        renamed: `subsumes` treats b's variables as constants and gives
        the same answer for any alpha-variant of b, which only misses
        the memo. Only TOP and the members with b's head constructor and
        arity can subsume b, so an uncached call tests just those; the
        members are bucketed by head once per cover, on first use. A
        bare variable is subsumed by TOP alone.
        """
        if b is BOTTOM:
            return BOTTOM
        hit = self._abs_cache.get(b)
        if hit is not None:
            return hit
        best = TOP
        if isinstance(b, App):
            if self._by_head is None:
                self._by_head = {}
                for m in self.members:
                    if isinstance(m, App):
                        self._by_head.setdefault(
                            (m.con, len(m.args)), []).append(m)
            for m in self._by_head.get((b.con, len(b.args)), ()):
                if subsumes(b, m) and subsumes(m, best):
                    best = m
        self._abs_cache[b] = best
        return best


class ConcreteDomain:
    """Stand-in cover whose abstraction is the identity function."""

    def abstract(self, b: BaseType) -> BaseType:
        return b

    def __repr__(self) -> str:
        return "ConcreteDomain()"


CONCRETE = ConcreteDomain()


def close_under_meet(types: Iterable[BaseType],
                     base: Optional[AbstractCover] = None) -> AbstractCover:
    """Smallest meet-closed superset of `types` and `base`, containing
    top and bottom.

    `base`, when given, must already be meet-closed (a cover is). Only
    the canonical types not yet in it seed the work list: the meet of
    two old members is an old member, and each new element is met with
    every member, old or new, so the result is the closure of the
    union. Without `base` the start is {top, bottom}, which is closed.
    """
    members: set[BaseType] = set(base.members if base is not None
                                 else (TOP, BOTTOM))
    work: list[BaseType] = []
    for t in types:
        t = t if t is BOTTOM else canonical(t)
        if t not in members:
            members.add(t)
            work.append(t)
    while work:
        t = work.pop()
        for u in list(members):
            if u is BOTTOM:
                continue
            m = meet(t, u)
            if m is not BOTTOM and m not in members:
                members.add(m)
                work.append(m)
    return AbstractCover(members)


def refines(finer: AbstractCover, coarser: AbstractCover) -> bool:
    """True iff every member of the coarser cover belongs to the finer one."""
    return coarser.members <= finer.members


def _replacements(t: BaseType, new: BaseType) -> Iterator[tuple]:
    """(s, `t` with that occurrence of s replaced by `new`) for every
    subterm occurrence s of `t`, innermost first, then left to right."""
    if isinstance(t, App):
        for i, arg in enumerate(t.args):
            for sub, inner in _replacements(arg, new):
                yield sub, App(t.con, (*t.args[:i], inner, *t.args[i + 1:]))
    yield t, new


def weakenings(b: BaseType) -> list[BaseType]:
    """Single upward lattice moves: replace one subterm occurrence with a
    fresh variable, keeping only strictly more general results.

    Positions run innermost-first, left-to-right. Replacing the lone
    occurrence of a variable is a no-op and is skipped, so a bare
    variable has no weakenings; replacing one occurrence of a repeated
    variable is a proper move (splitting a non-linear pattern). Computed
    once per type and process (`_weakenings`): proof generalisation asks
    again for the same few labels.
    """
    return list(_weakenings(b))


# Distinct types whose weakenings are kept, keyed by address (one object
# per type). The proofs of the five `refine` bench queries weaken 85
# distinct labels in 962 calls.
WEAKENINGS_MEMO_SIZE = 1 << 12


@lru_cache(maxsize=WEAKENINGS_MEMO_SIZE)
def _weakenings(b: BaseType) -> tuple:
    if b is BOTTOM:
        return ()
    return tuple(canonical(w) for sub, w in _replacements(b, Var("*w*"))
                 if not (isinstance(sub, Var) and count_var(b, sub.name) == 1))
