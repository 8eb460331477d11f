"""Replay a valid path into the normal-form programs it denotes."""

from __future__ import annotations

from typing import Iterator, Sequence

from .atn import TransitionNet
from .reach import ReplayError
from .types import FnType, NormalForm, Term, TermApp, TermVar


class _Token:
    __slots__ = ("place", "term")

    def __init__(self, place, term: Term):
        self.place = place
        self.term = term


def _assignments(tokens: list, places: Sequence) -> Iterator[tuple]:
    """Ordered selections of distinct token indices matching each input
    place, lexicographic over token indices; selections that differ only
    by swapping identical terms are deduplicated."""
    seen: set = set()

    def rec(j: int, used: set, chosen: list) -> Iterator[tuple]:
        if j == len(places):
            key = tuple(tokens[i].term for i in chosen)
            if key not in seen:
                seen.add(key)
                yield tuple(chosen)
            return
        for i, tok in enumerate(tokens):
            if i in used or tok.place != places[j]:
                continue
            chosen.append(i)
            used.add(i)
            yield from rec(j + 1, used, chosen)
            used.remove(i)
            chosen.pop()

    yield from rec(0, set(), [])


def from_path(net: TransitionNet, query: FnType, path: Sequence) -> Iterator[NormalForm]:
    """All normal-form programs a valid path corresponds to, lazily.

    One token per query argument starts in the argument's abstraction;
    copies duplicate a chosen token's term, component firings consume
    one chosen token per argument position and produce the application
    term, group members iterating in library declaration order. The
    surviving token's term is wrapped in lambdas over arg0..argN-1.
    Deduplicated, deterministic.
    """
    params = tuple(f"arg{i}" for i in range(len(query.params)))
    tokens = [
        _Token(net.cover.abstract(b), TermVar(params[i]))
        for i, b in enumerate(query.params)
    ]
    emitted: set = set()

    def rec(step: int, tokens: list) -> Iterator[NormalForm]:
        if step == len(path):
            if len(tokens) != 1 or tokens[0].place not in net.finals:
                raise ReplayError("path does not end in a valid final marking")
            term = tokens[0].term
            if term not in emitted:
                emitted.add(term)
                yield NormalForm(params, term)
            return
        t = net.transitions[path[step]]
        if t.is_copy:
            seen_terms: set = set()
            found = False
            for tok in tokens:
                if tok.place != t.out or tok.term in seen_terms:
                    continue
                seen_terms.add(tok.term)
                found = True
                yield from rec(step + 1, tokens + [_Token(t.out, tok.term)])
            if not found:
                raise ReplayError(f"copy transition not enabled at step {step}")
            return
        any_assignment = False
        for chosen in _assignments(tokens, t.args):
            any_assignment = True
            rest = [tok for i, tok in enumerate(tokens) if i not in chosen]
            arg_terms = tuple(tokens[i].term for i in chosen)
            for member in t.members:
                produced = _Token(t.out, TermApp(member, arg_terms))
                yield from rec(step + 1, rest + [produced])
        if not any_assignment:
            raise ReplayError(f"transition not enabled at step {step}")

    yield from rec(0, tokens)
