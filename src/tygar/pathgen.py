"""Replay a valid path into the typed normal-form programs it denotes.

Each token of a replay carries the concrete type of its term, derived
once when the token is built, so a replayed program's concrete check
is one subsumption test on the surviving token's type. A firing takes
its tokens by one selection, a copy as well as a component: a product
over the tokens on each of its input places, in token order.

A replay can also prune: cut each branch at its first bottom-typed
token instead of building the programs below it. The cut is sound
because `apply_transformer` is bottom whenever an argument is, and a
net has no transition that deletes a token, so every token a replay
builds ends up inside the final program: a bottom token makes every
program of its branch ill-typed, and no program of another branch.
Pruning thus drops exactly the bottom-typed programs and keeps the
others in order. It is for runs that learn nothing from ill-typed
programs, i.e. that will not refine the cover.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, Sequence

from .atn import TransitionNet
from .typecheck import apply_transformer
from .types import (
    BOTTOM,
    BaseType,
    Library,
    NormalForm,
    Term,
    TermApp,
    TermVar,
)


class ReplayError(Exception):
    """A path that misfires, or that ends off a final marking."""


class _Token:
    """A term in a net place, with the term's concrete type (what `infer`
    over the concrete domain gives it, possibly bottom)."""

    __slots__ = ("place", "term", "type")

    def __init__(self, place, term: Term, ty: BaseType):
        self.place = place
        self.term = term
        self.type = ty


def _assignments(tokens: list, places: Sequence) -> Iterator[tuple]:
    """Ordered selections of distinct token indices matching each input
    place, lexicographic over token indices: a product over the indices
    of each place's tokens, in token order. Of the selections that pick
    the same terms, only the first is kept."""
    on_place: dict = {}
    for i, tok in enumerate(tokens):
        on_place.setdefault(tok.place, []).append(i)
    seen = set()
    for chosen in product(*(on_place.get(p, ()) for p in places)):
        if len(set(chosen)) < len(chosen):
            continue
        key = tuple(tokens[i].term for i in chosen)
        if key not in seen:
            seen.add(key)
            yield chosen


def from_path(lib: Library, net: TransitionNet, path: Sequence,
              prune: bool = False) -> Iterator[tuple]:
    """All normal-form programs a valid path corresponds to, lazily, each
    as `(program, concrete type of its body)`.

    One token per query argument starts in the argument's abstraction,
    typed by the argument's query type; copies duplicate a chosen
    token's term and type, component firings consume one chosen token
    per argument position and produce the application term, typed by
    `apply_transformer` over the arguments' types (bottom if any is
    bottom), group members iterating in library declaration order. The
    surviving token's term is wrapped in lambdas over arg0..argN-1.
    The program checks concretely against `net.query` exactly when
    `subsumes(net.query.ret, type)`. Deduplicated, deterministic.
    """
    params = tuple(f"arg{i}" for i in range(len(net.query.params)))
    tokens = [
        _Token(net.cover.abstract(b), TermVar(params[i]), b)
        for i, b in enumerate(net.query.params)
    ]
    return _replay(lib, net, path, prune, params, set(), 0, tokens)


def _replay(lib: Library, net: TransitionNet, path: Sequence, prune: bool,
            params: tuple, emitted: set, step: int,
            tokens: list) -> Iterator[tuple]:
    """`from_path` from `step` on, `tokens` holding the marking's tokens
    and `emitted` the bodies already yielded."""
    if step == len(path):
        if len(tokens) != 1 or tokens[0].place not in net.finals:
            raise ReplayError("path does not end in a valid final marking")
        term = tokens[0].term
        if term not in emitted:
            emitted.add(term)
            yield NormalForm(params, term), tokens[0].type
        return
    t = net.transitions[path[step]]
    any_assignment = False
    for chosen in _assignments(tokens, t.args):
        any_assignment = True
        if t.is_copy:
            tok = tokens[chosen[0]]
            yield from _replay(lib, net, path, prune, params, emitted,
                               step + 1,
                               tokens + [_Token(t.out, tok.term, tok.type)])
            continue
        rest = [tok for i, tok in enumerate(tokens) if i not in chosen]
        arg_terms = tuple(tokens[i].term for i in chosen)
        arg_types = tuple(tokens[i].type for i in chosen)
        for member in t.members:
            ty = apply_transformer(lib, member, arg_types)
            if prune and ty is BOTTOM:
                yield None, BOTTOM
                continue
            produced = _Token(t.out, TermApp(member, arg_terms), ty)
            yield from _replay(lib, net, path, prune, params, emitted,
                               step + 1, rest + [produced])
    if not any_assignment:
        raise ReplayError(f"transition not enabled at step {step}")
