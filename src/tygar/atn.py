"""Abstract transition nets: construction, incremental refinement, ordering."""

from __future__ import annotations

import math
import time
from typing import Iterable

from .lattice import AbstractCover, arg_pair, meet, subsumes, unify
from .typecheck import apply_transformer
from .types import (
    BOTTOM,
    BaseType,
    FnType,
    Frozen,
    Library,
    Record,
    Var,
    render_type,
    resolve_canonical,
    set_field,
)


class Transition(Frozen):
    """One net transition: an abstract component instance or a copy.

    `args` lists input places in component-signature order (duplicates
    encode multiplicities); `members` are the coalesced component names
    in library declaration order. Copy transitions have no members and
    produce two tokens on their single place.
    """

    __slots__ = _fields = ("args", "out", "members")

    def __init__(self, args: tuple, out: BaseType, members: tuple = ()):
        set_field(self, "args", args)
        set_field(self, "out", out)
        set_field(self, "members", members)

    @property
    def is_copy(self) -> bool:
        return not self.members

    @property
    def out_mult(self) -> int:
        return 1 if self.members else 2

    def describe(self) -> str:
        ins = ", ".join(render_type(a) for a in self.args)
        if self.is_copy:
            return f"copy[{render_type(self.out)}]"
        return f"{{{','.join(self.members)}}}: ({ins}) -> {render_type(self.out)}"


class TransitionNet(Record):
    """A net over the places of `cover`, for one library and query.

    It holds its places, transitions, initial marking, final places,
    query and cover, nothing else. A net belongs to the library it was
    built from; the concrete result of a component instance is asked of
    `apply_transformer`, whose memo keeps it.
    """

    _fields = ("places", "transitions", "initial", "finals", "query", "cover")

    def __init__(self, places: list, transitions: list, initial: dict,
                 finals: frozenset, query: FnType, cover: AbstractCover):
        self.places = places
        self.transitions = transitions
        self.initial = initial
        self.finals = finals
        self.query = query
        self.cover = cover

    def dump(self) -> str:
        lines = ["places:"]
        for p in self.places:
            marks = []
            if self.initial.get(p):
                marks.append(f"I={self.initial[p]}")
            if p in self.finals:
                marks.append("final")
            suffix = f"  [{', '.join(marks)}]" if marks else ""
            lines.append(f"  {render_type(p)}{suffix}")
        lines.append("transitions:")
        for t in sorted(self.transitions, key=Transition.describe):
            lines.append(f"  {t.describe()}")
        return "\n".join(lines)


def _sorted_places(cover: AbstractCover) -> list:
    return sorted((m for m in cover.members if m is not BOTTOM), key=render_type)


def _instances(lib: Library, component: str, places: list) -> Iterable[tuple]:
    """All (args, result) instances of one component over the places,
    depth-first; `result` is `apply_transformer(lib, component, args)`,
    never bottom.

    Enumerates argument places left to right, extending the bindings of
    `apply_transformer` one argument at a time and pruning as soon as
    they fail. The order is that of `itertools.product(places, ...)`,
    which fixes the native search's fire indices.
    """
    out: list[tuple] = []
    _extend(lib.components[component].body, places, 0, {}, [], out)
    return out


def _extend(fn: FnType, places: list, j: int, bindings: dict, chosen: list,
            out: list) -> None:
    """`_instances` from argument `j` on, `chosen` holding the places of
    the arguments before it and `bindings` their unifier."""
    if j == len(fn.params):
        out.append((tuple(chosen), resolve_canonical(fn.ret, bindings)))
        return
    formal = fn.params[j]
    for place in places:
        if type(place) is Var:
            # top, renamed apart, occurs nowhere else: it constrains nothing
            extended = bindings
        elif place.ground:
            if formal.ground and place is not formal:
                continue  # unify fails too; this saves the call
            extended = unify([(formal, place)], bindings)
        else:
            extended = unify([arg_pair(j, formal, place)], bindings)
        if extended is None:
            continue
        chosen.append(place)
        _extend(fn, places, j + 1, extended, chosen, out)
        chosen.pop()


def _finals(places: list, ret: BaseType) -> frozenset:
    return frozenset(p for p in places if subsumes(ret, p))


def _initial(query: FnType, cover: AbstractCover) -> dict:
    initial: dict = {}
    for b in query.params:
        p = cover.abstract(b)
        initial[p] = initial.get(p, 0) + 1
    return initial


def _net(groups: dict, query: FnType, cover: AbstractCover,
         places: list) -> TransitionNet:
    """The net over `cover`, whose `places` are `_sorted_places(cover)`,
    with one transition per group of `groups` ((args, out) -> members),
    in their order, members as listed (in library order, as `build_atn`
    finds them and `refine_atn` keeps them), then a copy transition on
    each initially marked place."""
    initial = _initial(query, cover)
    transitions = [Transition(args, out, tuple(members))
                   for (args, out), members in groups.items()]
    transitions += [Transition((p,), p)
                    for p in places if initial.get(p, 0) > 0]
    return TransitionNet(places, transitions, initial,
                         _finals(places, query.ret), query, cover)


def build_atn(lib: Library, query: FnType, cover: AbstractCover) -> TransitionNet:
    """Net for a library, ground query and cover; copy transitions only
    (relevant typing), no delete transitions. Component instances with
    the same inputs and output share one transition."""
    places = _sorted_places(cover)
    groups: dict = {}
    for c in lib.components:
        for args, result in _instances(lib, c, places):
            groups.setdefault((args, cover.abstract(result)), []).append(c)
    return _net(groups, query, cover, places)


# Tuples tried, search expansions or proof transformer calls per deadline check.
DEADLINE_STRIDE = 64


def _add_type(groups: dict, lib: Library, formals: dict, order: dict,
              old: AbstractCover, added: BaseType,
              deadline: float = math.inf) -> AbstractCover:
    """One added type's step of `refine_atn`, in place on its `groups`
    ((args, out) -> members); returns `old` plus `added`.

    `old` must be meet-closed. Then `added` has exactly one direct
    parent in `old`, `old.abstract(added)`: two parents would meet in a
    member between `added` and both. Transitions whose output sat on
    the parent are re-routed member by member, by each member's
    concrete result, which the transformer's memo mostly holds already;
    new instances are derived from transitions consuming the parent.
    Each (new argument tuple, component) pair arises once, from one old
    group and one choice of parent positions. Every group that gains
    a member is new in this step and is sorted into library order at
    its end, and groups left empty are dropped, so the next step sees
    the groups a net built from them would have. Raises TimeoutError
    when `deadline` (a `time.monotonic()` value) has passed at a check,
    made once every `DEADLINE_STRIDE` argument tuples tried.
    """
    new_cover = AbstractCover(set(old.members) | {added})
    for m in old.members:
        if meet(m, added) not in new_cover.members:
            raise ValueError("cover plus added type is not meet-closed")
    parent = old.abstract(added)
    grown: set = set()
    shrunk: set = set()

    # re-route: only transitions returning the parent can move. By meet
    # closure every old member above a result is at or above that
    # parent, and `added` lies strictly below it, so the result's new
    # abstraction is `added` exactly when `added` subsumes the result.
    for (args, out) in [k for k in groups if k[1] == parent]:
        for c in list(groups[(args, out)]):
            if subsumes(apply_transformer(lib, c, args), added):
                groups[(args, out)].remove(c)
                groups.setdefault((args, added), []).append(c)
                grown.add((args, added))
                shrunk.add((args, out))

    # The formal parameters `added` alone unifies with, per component, as
    # bits. A tuple putting `added` where it does not has no unifier of
    # all its pairs, so its result would be bottom. Renaming apart is a
    # bijection onto fresh names, so the test is one per distinct formal.
    fit = {f: unify([arg_pair(0, f, added)]) is not None
           for f in set().union(*formals.values())}
    fits = {c: sum(1 << j for j, f in enumerate(params) if fit[f])
            for c, params in formals.items()}

    # new instances: substitute the new type for the parent in existing inputs
    count = 0
    for (args, _out), members in list(groups.items()):
        parent_positions = [j for j, a in enumerate(args) if a == parent]
        if not parent_positions:
            continue
        for mask in range(1, 1 << len(parent_positions)):
            moved = 0  # the positions given `added`, as bits
            new_args = list(args)
            for bit, j in enumerate(parent_positions):
                if mask >> bit & 1:
                    moved |= 1 << j
                    new_args[j] = added
            new_args = tuple(new_args)
            for c in members:
                if moved & ~fits[c]:
                    continue
                count += 1
                if (count % DEADLINE_STRIDE == 0
                        and time.monotonic() > deadline):
                    raise TimeoutError("deadline passed during net refinement")
                result = apply_transformer(lib, c, new_args)
                if result is BOTTOM:
                    continue
                key = (new_args, new_cover.abstract(result))
                groups.setdefault(key, []).append(c)
                grown.add(key)

    for key in grown:
        groups[key].sort(key=order.__getitem__)
    for key in shrunk:
        if not groups[key]:
            del groups[key]
    return new_cover


def added_ascending(old: AbstractCover, new: AbstractCover) -> list:
    """New members ordered so every prefix extension stays meet-closed
    (most specific first)."""
    added = [m for m in new.members if m not in old.members]

    def key(m: BaseType):
        below = sum(1 for o in added if o != m and subsumes(o, m))
        return (below, render_type(m))

    return sorted(added, key=key)


def refine_atn(net: TransitionNet, lib: Library, cover: AbstractCover,
               deadline: float = math.inf) -> TransitionNet:
    """Incremental update of `net` to a finer meet-closed `cover`.

    `net` must have been built (or refined) for `lib`; its query and
    its cover are read from it, and `net.cover` must be meet-closed, so
    that each added type has one parent (see `_add_type`). `cover` must
    hold every member of `net.cover` and at least one more, else
    ValueError. The added types are taken in `added_ascending` order,
    one step at a time on one set of groups, and a single net is built
    at the end, over `cover` itself, whose abstraction memo it shares;
    a step whose cover is not meet-closed raises ValueError. Equivalent to
    `build_atn(lib, net.query, cover)` up to the order of transitions:
    old groups keep their order and new ones follow in the order they
    are found, step after step. Raises TimeoutError when
    `deadline` (a `time.monotonic()` value) has passed before an added
    type, or at one of the checks inside its step.
    """
    if not net.cover.members < cover.members:
        raise ValueError("cover does not strictly refine the net's cover")
    order = {c: i for i, c in enumerate(lib.components)}
    formals = {c: poly.body.params for c, poly in lib.components.items()}
    groups = {(t.args, t.out): list(t.members)
              for t in net.transitions if not t.is_copy}
    step = net.cover
    for a in added_ascending(net.cover, cover):
        if time.monotonic() > deadline:
            raise TimeoutError("deadline passed during net refinement")
        step = _add_type(groups, lib, formals, order, step, a, deadline)
    return _net(groups, net.query, cover, _sorted_places(cover))


def final_place_order(net: TransitionNet) -> list:
    """Final places from most to least precise; ties lexicographic."""
    remaining = set(net.finals)
    out = []
    while remaining:
        minimal = [p for p in remaining
                   if not any(q != p and subsumes(q, p) for q in remaining)]
        minimal.sort(key=render_type)
        out.extend(minimal)
        remaining.difference_update(minimal)
    return out
