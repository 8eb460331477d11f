"""Shared helpers: a small type DSL, random generators, typing oracle."""

from __future__ import annotations

import itertools
import math
import random
from pathlib import Path
from typing import Iterator

import pytest

from tygar import synth
from tygar.atn import (
    Transition,
    TransitionNet,
    added_ascending,
    build_atn,
    final_place_order,
    refine_atn,
)
from tygar.lattice import AbstractCover, close_under_meet, resolve
from tygar.frontend import desugar_type
from tygar.pathgen import ReplayError
from tygar.reach import _block, decode_model, encode
from tygar.sigparse import _LineParser, _tokenize, parse_line
from tygar.smt import SolverClient
from tygar.synth import build_proof
from tygar.typecheck import apply_transformer
from tygar.types import (
    BOTTOM,
    App,
    FnType,
    Library,
    NormalForm,
    PolyType,
    TermApp,
    TermVar,
    Var,
    canonical,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# Inputs a user can get wrong, each with the message it must be reported
# with: (library text, query, message, line, column). Library errors
# name no position (line 0).
INPUT_ERRORS = [pytest.param(*case, id=case[2]) for case in [
    ("class Eq\ninstance Eq a", "A",
     "instance head must be a constructor", 2, 13),
    ("f :: A\ng :: [a] b -> a", "A",
     "nested application onto an applied constructor", 2, 6),
    ("f :: (a -> b) c -> c", "A",
     "only a constructor can head a type application", 1, 6),
    ("f :: m a -> a", "A", "higher-kinded type variables are not supported "
     "(variable 'm' applied to arguments)", 1, 6),
    ("f :: a ; b", "A", "unexpected character ';'", 1, 8),
    ("f :: A )", "A", "trailing tokens after signature", 1, 8),
    ("class Eq a b", "A", "trailing tokens after class declaration", 1, 12),
    ("class Eq\ninstance Eq Int Int", "A",
     "trailing tokens after instance declaration", 2, 17),
    ("f :: A", "", "empty query", 1, 1),
    ("f :: A", "a -> b )", "trailing tokens after query type", 1, 8),
    ("f :: A", "[" * 400 + "a" + "]" * 400, "type nested too deeply", 1, 1),
    ("f :: A\ng :: A -> " + "(" * 400 + "A" + ")" * 400, "A",
     "type nested too deeply", 2, 6),
    ("class Eq\ninstance Eq " + "[" * 400 + "a" + "]" * 400, "A",
     "type nested too deeply", 2, 13),
    ("f :: A\nf :: B", "A", "duplicate component f", 0, 0),
    ("f :: Maybe A\ng :: Maybe A A", "A",
     "constructor Maybe used with arity 2, previously 1", 0, 0),
    ("class Eq\nf :: a -> a", "Foo a => a -> a",
     "query constraint on unknown class Foo", 0, 0),
]]


def input_error_text(message: str, line: int, col: int) -> str:
    return f"{message} (line {line}, column {col})" if line else message


def ty(text: str):
    """Parse a base type: lowercase = variables, capitalized = constructors."""
    p = _LineParser(_tokenize(text, 1), 1)
    t = p.parse_type()
    assert p.peek() is None, f"trailing tokens in {text!r}"
    return t


def fn(text: str) -> FnType:
    p = _LineParser(_tokenize(text, 1), 1)
    return desugar_type([], p.parse_type(), {}).body


def sig(line: str) -> tuple:
    """A `name :: type` line as the frontend desugars it: (name, polytype)."""
    item = parse_line(line)
    return item.name, desugar_type(item.constraints, item.rtype, {})


def compose(ground: dict, s: dict) -> dict:
    """The bindings applying the idempotent bindings `s` first, then the
    bindings `ground`, whose values are ground."""
    out = dict(ground)
    out.update({v: resolve(t, ground) for v, t in s.items()})
    return out


def rename(t, mapping: dict):
    """`t` with its variables renamed by `mapping` (name -> name) all at
    once: the tests' own renaming, apart from the code they check."""
    if isinstance(t, Var):
        return Var(mapping.get(t.name, t.name))
    if isinstance(t, App):
        return App(t.con, tuple(rename(a, mapping) for a in t.args))
    return t


def reference_resolve(t, bindings):
    """`resolve` rebuilding every application."""
    if isinstance(t, Var):
        b = bindings.get(t.name)
        return t if b is None else reference_resolve(b, bindings)
    if isinstance(t, App):
        return App(t.con, tuple(reference_resolve(a, bindings)
                                for a in t.args))
    return t


def reference_resolve_canonical(t, bindings):
    """`resolve_canonical` building a new `Var` for each renamed variable."""
    mapping = {}

    def walk(u):
        if isinstance(u, Var):
            b = bindings.get(u.name)
            if b is not None:
                return walk(b)
            name = mapping.get(u.name)
            if name is None:
                name = mapping[u.name] = f"t{len(mapping)}"
            return u if name == u.name else Var(name)
        if isinstance(u, App) and u.args:
            args = tuple(walk(a) for a in u.args)
            for new, old in zip(args, u.args):
                if new is not old:
                    return App(u.con, args)
        return u

    return walk(t)


def lib_of(*lines: str) -> Library:
    lib = Library()
    for line in lines:
        lib.add_component(*sig(line))
    return lib


def cover_of(*types: str) -> AbstractCover:
    return close_under_meet([ty(t) for t in types])


def tiny_problem():
    """The running example: 3 components, query a -> [Maybe a] -> a."""
    lib = lib_of(
        "fromMaybe :: a -> Maybe a -> a",
        "catMaybes :: [Maybe a] -> [a]",
        "listToMaybe :: [a] -> Maybe a",
    )
    lib.register_type(App("a"))
    qa = App("a")
    query = FnType((qa, App("List", (App("Maybe", (qa,)),))), qa)
    return lib, query


def unsat_problem():
    lib = lib_of("f :: B a a", "g :: B (U b) b -> Z")
    return lib, FnType((), App("Z"))


def validating_build_proof(nf: NormalForm, t: FnType, lib: Library,
                           deadline: float = math.inf) -> tuple:
    """`synth.build_proof` that asserts the three proof invariants after
    every generalisation step and on the finished proof. It reads
    `synth.proof_invariants` at each call, so a test can count the
    checks."""
    U, estar, rlib = build_proof(nf, t, lib, synth.proof_invariants, deadline)
    synth.proof_invariants(U, estar, rlib, dict(zip(nf.params, t.params)))
    return U, estar, rlib


@pytest.fixture
def validated(monkeypatch):
    """Every proof `synth.refine_all` builds in the test is checked, at
    every step and at the end (`validating_build_proof`)."""
    monkeypatch.setattr(synth, "build_proof", validating_build_proof)


@pytest.fixture(scope="session")
def solver():
    client = SolverClient()
    yield client
    client.close()


# ---------------------------------------------------------------------------
# Random generation (seeded; deterministic across runs)

CONS3 = {"A": 0, "L": 1, "P": 2}


def rand_base(rng: random.Random, cons: dict, depth: int, var_pool=("u", "v")):
    choices = ["var"] + list(cons)
    while True:
        pick = rng.choice(choices)
        if pick == "var":
            return Var(rng.choice(var_pool))
        arity = cons[pick]
        if arity > 0 and depth <= 0:
            continue
        return App(pick, tuple(rand_base(rng, cons, depth - 1, var_pool)
                               for _ in range(arity)))


def rand_ground(rng: random.Random, cons: dict, depth: int):
    nullary = [c for c, a in cons.items() if a == 0]
    while True:
        pick = rng.choice(list(cons))
        arity = cons[pick]
        if arity == 0:
            return App(pick)
        if depth <= 0:
            return App(rng.choice(nullary))
        return App(pick, tuple(rand_ground(rng, cons, depth - 1)
                               for _ in range(arity)))


def rand_shared(rng: random.Random, pool: list, var_pool=("u", "v")):
    """A ground or open type, about equally often, that is often an
    earlier draw of `pool` or built on one, so that draws share
    subterms; it is added to `pool`."""
    pick = rng.random()
    if pool and pick < 0.2:
        t = rng.choice(pool)
    elif pool and pick < 0.4:
        t = App("P", (rng.choice(pool), rand_base(rng, CONS3, 1, var_pool)))
        t = App("L", (t,)) if rng.random() < 0.3 else t
    elif pick < 0.7:
        t = rand_ground(rng, CONS3, rng.randint(0, 2))
    else:
        t = rand_base(rng, CONS3, rng.randint(0, 2), var_pool)
    pool.append(t)
    return t


def types_upto_depth1(cons: dict = CONS3) -> list:
    """All canonical types of depth <= 1 over the given constructors,
    with up to two distinct variables."""
    atoms = [Var("u"), Var("v")] + [App(c) for c, a in cons.items() if a == 0]
    out = list(atoms)
    for c, a in cons.items():
        if a > 0:
            for args in itertools.product(atoms, repeat=a):
                out.append(App(c, args))
    seen = []
    for t in out:
        ct = canonical(t)
        if ct not in seen:
            seen.append(ct)
    return seen


def shallow_signature(rng: random.Random, cons: dict, max_arity: int = 2) -> PolyType:
    """Signatures whose base types have depth <= 1: with ground arguments
    the declarative oracle's depth-2 instantiation universe is exhaustive
    for terms of size <= 3."""
    var_pool = ("u", "v")
    n = rng.randint(0, max_arity)

    def shallow(allow_var: bool):
        kind = rng.random()
        if allow_var and kind < 0.45:
            return Var(rng.choice(var_pool))
        c = rng.choice(list(cons))
        if cons[c] == 0:
            return App(c)
        return App(c, tuple(
            Var(rng.choice(var_pool)) if rng.random() < 0.6
            else App(rng.choice([k for k, a in cons.items() if a == 0]))
            for _ in range(cons[c])))

    params = tuple(shallow(True) for _ in range(n))
    ret = shallow(True)
    quantified = []
    for b in (*params, ret):
        for v in _vars_of(b):
            if v not in quantified:
                quantified.append(v)
    return PolyType(tuple(quantified), FnType(params, ret))


def _vars_of(t):
    if isinstance(t, Var):
        return [t.name]
    if isinstance(t, App):
        out = []
        for a in t.args:
            for v in _vars_of(a):
                if v not in out:
                    out.append(v)
        return out
    return []


def rand_library(rng: random.Random, n_components: int,
                 cons: dict = CONS3) -> Library:
    lib = Library()
    for c, a in cons.items():
        lib.declare_constructor(c, a)
    for i in range(n_components):
        lib.add_component(f"c{i}", shallow_signature(rng, cons))
    return lib


def rand_env(rng: random.Random, cons: dict, n_vars: int) -> dict:
    nullary = [c for c, a in cons.items() if a == 0]
    return {f"x{i}": App(rng.choice(nullary)) for i in range(n_vars)}


def rand_cover(rng: random.Random, cons: dict, n_types: int) -> AbstractCover:
    return close_under_meet(
        rand_base(rng, cons, rng.randint(0, 2)) for _ in range(n_types))


def rand_refinement_chain(rng: random.Random) -> tuple:
    """(lib, query, nets): a net built on a random cover, then refined
    one type at a time, in `added_ascending` order, up to the meet
    closure of the cover and a few random types."""
    lib = rand_library(rng, rng.randint(2, 5))
    env = rand_env(rng, CONS3, rng.randint(1, 2))
    query = FnType(tuple(env.values()), App("A"))
    cover = rand_cover(rng, CONS3, rng.randint(0, 3))
    bigger = close_under_meet(list(cover.members) + [
        rand_base(rng, CONS3, 2) for _ in range(rng.randint(1, 3))])
    nets = [build_atn(lib, query, cover)]
    for a in added_ascending(cover, bigger):
        nets.append(refine_atn(nets[-1], lib,
                               AbstractCover([*nets[-1].cover, a])))
    return lib, query, nets


# ---------------------------------------------------------------------------
# Term enumeration and a brute-force declarative typing oracle

def enumerate_terms(lib: Library, env: dict, max_size: int) -> list:
    """All well-formed application terms with at most max_size component
    applications over the library and environment variables."""
    by_size = {0: [TermVar(x) for x in env]}
    for size in range(1, max_size + 1):
        out = []
        for name, poly in lib.components.items():
            m = len(poly.body.params)
            if m == 0:
                if size == 1:
                    out.append(TermApp(name, ()))
                continue
            for split in _compositions(size - 1, m):
                pools = [by_size.get(s, []) for s in split]
                for args in itertools.product(*pools):
                    out.append(TermApp(name, args))
        by_size[size] = out
    return [t for size in range(1, max_size + 1) for t in by_size[size]]


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def ground_universe(cons: dict, depth: int) -> list:
    """All ground types of nesting depth <= depth (nullary types have
    depth 0)."""
    levels = [[App(c) for c, a in cons.items() if a == 0]]
    for _ in range(depth):
        below = [t for level in levels for t in level]
        nxt = []
        for c, a in cons.items():
            if a > 0:
                for args in itertools.product(below, repeat=a):
                    t = App(c, args)
                    if all(t not in level for level in levels) and t not in nxt:
                        nxt.append(t)
        levels.append(nxt)
    return [t for level in levels for t in level]


class DeclarativeOracle:
    """Enumerates ground instantiations of component polytypes over a
    fixed universe, per the declarative typing rules."""

    def __init__(self, lib: Library, env: dict, universe: list):
        self.lib = lib
        self.env = env
        self.universe = universe
        self._memo: dict = {}

    def possible(self, term) -> frozenset:
        hit = self._memo.get(term)
        if hit is not None:
            return hit
        if isinstance(term, TermVar):
            out = frozenset([self.env[term.name]])
        else:
            poly = self.lib.components[term.component]
            child = [self.possible(a) for a in term.args]
            results = set()
            for assignment in itertools.product(self.universe,
                                                repeat=len(poly.quantified)):
                sigma = dict(zip(poly.quantified, assignment))
                ok = True
                for b, pool in zip(poly.body.params, child):
                    if _subst_ground(b, sigma) not in pool:
                        ok = False
                        break
                if ok:
                    results.add(_subst_ground(poly.body.ret, sigma))
            out = frozenset(results)
        self._memo[term] = out
        return out

    def check(self, nf, t: FnType) -> bool:
        env = dict(zip(nf.params, t.params))
        oracle = DeclarativeOracle(self.lib, env, self.universe)
        return t.ret in oracle.possible(nf.body)


def _subst_ground(b, sigma: dict):
    if isinstance(b, Var):
        return sigma[b.name]
    if isinstance(b, App):
        return App(b.con, tuple(_subst_ground(a, sigma) for a in b.args))
    return b


# ---------------------------------------------------------------------------
# Synthetic nets for reachability testing

def rand_net(rng: random.Random) -> TransitionNet:
    n_places = rng.randint(2, 6)
    places = sorted([App(f"Q{i}") for i in range(n_places)],
                    key=lambda p: p.con)
    transitions = []
    for i in range(rng.randint(1, 6)):
        arity = rng.randint(0, 3)
        args = tuple(rng.choice(places) for _ in range(arity))
        out = rng.choice(places)
        transitions.append(Transition(args, out, (f"t{i}",)))
    initial = {}
    for p in places:
        if rng.random() < 0.5:
            initial[p] = rng.randint(1, 2)
    for p in places:
        if initial.get(p, 0) > 0 and rng.random() < 0.5:
            transitions.append(Transition((p,), p))
    finals = frozenset(p for p in places if rng.random() < 0.4)
    query = FnType((), places[0])
    cover = AbstractCover(places)
    return TransitionNet(places, transitions, initial, finals, query, cover)


class StateSpaceCap(Exception):
    pass


def initial_marking(net: TransitionNet) -> tuple:
    return tuple(net.initial.get(p, 0) for p in net.places)


def fire(net: TransitionNet, marking: tuple, ti: int):
    """Marking after firing transition index ti, or None if not enabled."""
    t = net.transitions[ti]
    out = [n - t.args.count(p) for n, p in zip(marking, net.places)]
    if any(n < 0 for n in out):
        return None
    out[net.places.index(t.out)] += t.out_mult
    return tuple(out)


def replay(net: TransitionNet, path) -> list:
    """Markings along a path from the initial marking; raises on misfire."""
    markings = [initial_marking(net)]
    for ti in path:
        nxt = fire(net, markings[-1], ti)
        if nxt is None:
            raise ReplayError(
                f"transition {ti} not enabled at step {len(markings) - 1}")
        markings.append(nxt)
    return markings


def is_valid_final(net: TransitionNet, marking: tuple) -> bool:
    """Exactly one token, sitting in a final place."""
    if sum(marking) != 1:
        return False
    i = marking.index(1)
    return net.places[i] in net.finals


def bfs_oracle(net: TransitionNet, max_len: int, state_cap: int = 200_000) -> list:
    """All valid paths up to max_len by explicit-state search: the
    native search's oracle.

    Small nets only; raises StateSpaceCap when the expansion budget is
    exceeded.
    """
    out: list = []
    expanded = 0

    def rec(marking: tuple, prefix: list) -> None:
        nonlocal expanded
        expanded += 1
        if expanded > state_cap:
            raise StateSpaceCap(f"exceeded {state_cap} expansions")
        if is_valid_final(net, marking):
            out.append(tuple(prefix))
        if len(prefix) == max_len:
            return
        for ti in range(len(net.transitions)):
            nxt = fire(net, marking, ti)
            if nxt is not None:
                prefix.append(ti)
                rec(nxt, prefix)
                prefix.pop()

    rec(initial_marking(net), [])
    return out


def smt_stream(net: TransitionNet, length: int, final,
               solver: SolverClient) -> Iterator[tuple]:
    """The encoding's models at one (length, final place) pair in the
    order the solver gives them, each blocked once it is taken."""
    solver.reset()
    solver.send(encode(net, length, final))
    while solver.check_sat():
        if length == 0:
            yield ()
            return
        values = solver.get_values([f"fire_{k}" for k in range(length)])
        path = decode_model(values, length)
        yield path
        solver.send(_block(path))


def smt_paths_at(net: TransitionNet, length: int, solver: SolverClient) -> set:
    """All fire sequences of exactly `length` the encoding admits."""
    return {path for final in sorted(net.finals, key=str)
            for path in smt_stream(net, length, final, solver)}


def smt_enumeration(net: TransitionNet, max_len: int,
                    solver: SolverClient) -> Iterator[tuple]:
    """The encoding's models pair by pair, in `PathFinder`'s pair order."""
    for length in range(max_len + 1):
        for final in final_place_order(net):
            yield from smt_stream(net, length, final, solver)


# ---------------------------------------------------------------------------
# Replay as first written: copies by their own branch, components by
# token selections; the oracle of `pathgen.from_path`

class _RefToken:
    __slots__ = ("place", "term", "type")

    def __init__(self, place, term, ty):
        self.place = place
        self.term = term
        self.type = ty


def reference_assignments(tokens: list, places, j: int = 0, used=None,
                          chosen=None, seen=None) -> Iterator[tuple]:
    """Ordered selections of distinct token indices matching each input
    place, lexicographic over token indices; selections that differ only
    by swapping identical terms are deduplicated."""
    if used is None:
        used, chosen, seen = set(), [], set()
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
        yield from reference_assignments(tokens, places, j + 1, used, chosen,
                                         seen)
        used.remove(i)
        chosen.pop()


def reference_from_path(lib: Library, net: TransitionNet, path,
                        prune: bool = False) -> Iterator[tuple]:
    """`from_path`'s programs, types and `None` markers, in its order."""
    params = tuple(f"arg{i}" for i in range(len(net.query.params)))
    tokens = [_RefToken(net.cover.abstract(b), TermVar(params[i]), b)
              for i, b in enumerate(net.query.params)]
    return _reference_replay(lib, net, path, prune, params, set(), 0, tokens)


def _reference_replay(lib, net, path, prune, params, emitted, step,
                      tokens) -> Iterator[tuple]:
    if step == len(path):
        if len(tokens) != 1 or tokens[0].place not in net.finals:
            raise ReplayError("path does not end in a valid final marking")
        term = tokens[0].term
        if term not in emitted:
            emitted.add(term)
            yield NormalForm(params, term), tokens[0].type
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
            yield from _reference_replay(
                lib, net, path, prune, params, emitted, step + 1,
                tokens + [_RefToken(t.out, tok.term, tok.type)])
        if not found:
            raise ReplayError(f"copy transition not enabled at step {step}")
        return
    any_assignment = False
    for chosen in reference_assignments(tokens, t.args):
        any_assignment = True
        rest = [tok for i, tok in enumerate(tokens) if i not in chosen]
        arg_terms = tuple(tokens[i].term for i in chosen)
        arg_types = tuple(tokens[i].type for i in chosen)
        for member in t.members:
            ty = apply_transformer(lib, member, arg_types)
            if prune and ty is BOTTOM:
                yield None, BOTTOM
                continue
            produced = _RefToken(t.out, TermApp(member, arg_terms), ty)
            yield from _reference_replay(lib, net, path, prune, params,
                                         emitted, step + 1, rest + [produced])
    if not any_assignment:
        raise ReplayError(f"transition not enabled at step {step}")
