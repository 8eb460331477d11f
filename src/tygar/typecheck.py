"""Type-transformer semantics for components and the concrete/abstract checker."""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .lattice import _rename_arg, arg_pair, subsumes, unify
from .types import (
    BOTTOM,
    BaseType,
    Environment,
    FnType,
    Library,
    NormalForm,
    PolyType,
    Term,
    TermApp,
    TermVar,
    TypingError,
    resolve_canonical,
)


# Distinct (polytype, argument types) applications the transformer's
# memo keeps, about 200 bytes each. The memo is the only store of
# transformer results: net refinement re-routes transitions by asking
# it again. Its keys are the library's own polytypes, hashed when the
# library was loaded, and tuples of types, hashed by address (one object
# per type). The largest run measured on fixtures/curated.sig,
# `Eq a => [(a,b)] -> a -> b` under nogar with k 20, makes 24,751
# distinct applications; a bench query a few thousand.
TRANSFORMER_MEMO_SIZE = 1 << 15


@lru_cache(maxsize=TRANSFORMER_MEMO_SIZE)
def _transform(poly: PolyType, args: tuple) -> BaseType:
    """The transformer's pure core: `apply_transformer` for a polytype
    value and a tuple of argument types of the right length."""
    for a in args:
        if a is BOTTOM:
            return BOTTOM
    bindings = unify(arg_pair(j, f, a)
                     for j, (f, a) in enumerate(zip(poly.body.params, args)))
    if bindings is None:
        return BOTTOM
    return resolve_canonical(poly.body.ret, bindings)


def clear_memos() -> None:
    """Empty the transformer's memo and the argument renaming memo
    (`lattice.arg_pair`, which `meet` uses too), so the next synthesis
    run in this process starts as a fresh one does. The tables of types
    in `types` stay: equality depends on them."""
    _transform.cache_clear()
    _rename_arg.cache_clear()


def apply_transformer(lib: Library, component: str,
                      args: Sequence[BaseType]) -> BaseType:
    """Result type of applying a component to argument types: the
    abstract type transformer behind type checking, typed replay, net
    construction, net refinement and proof generalisation.

    Unifies each formal of the signature, as written, with its actual
    (renamed apart by `arg_pair`) and resolves the return type. Any
    bottom argument, or a failed unification, gives bottom. The result
    is canonical, whatever the signature names its variables.
    `atn._instances` runs the same `arg_pair`/`unify` steps one
    argument at a time to prune its search over argument places, and
    `atn.refine_atn` runs one of them to rule out argument positions.

    Results are memoised per process, keyed by the component's polytype
    value and the argument types (`_transform`). That is sound because
    the result is a pure function of those two values: it does not
    depend on the component's name, the library or any cover, and types
    are immutable. The unknown-component and arity checks run on every
    call, outside the memo.
    """
    poly = lib.components.get(component)
    if poly is None:
        raise TypingError(f"unknown component {component}")
    if len(poly.body.params) != len(args):
        raise TypingError(
            f"{component} expects {len(poly.body.params)} arguments, got {len(args)}")
    return _transform(poly, tuple(args))


def infer(lib: Library, env: Environment, domain, e: Term) -> BaseType:
    """Bidirectional inference over application terms.

    `domain` supplies the abstraction applied at every step; passing the
    concrete domain makes it the identity. Total: never fails on typable
    or untypable terms, may return bottom.
    """
    if isinstance(e, TermVar):
        if e.name not in env:
            raise TypingError(f"unbound variable {e.name}")
        return domain.abstract(env[e.name])
    assert isinstance(e, TermApp)
    arg_types = [infer(lib, env, domain, a) for a in e.args]
    if any(t is BOTTOM for t in arg_types):
        return BOTTOM
    return domain.abstract(apply_transformer(lib, e.component, arg_types))


def check(lib: Library, domain, nf: NormalForm, t: FnType) -> bool:
    """Check a normal-form term against a ground function type.

    The independent checker: refinement uses it, and tests hold replay's
    carried types to it. The synthesis loop itself classifies a replayed
    candidate by the concrete type `pathgen.from_path` carries with it,
    without calling this."""
    if len(nf.params) != len(t.params):
        raise TypingError(
            f"arity mismatch: term binds {len(nf.params)}, type has {len(t.params)}")
    env: Environment = dict(zip(nf.params, t.params))
    inferred = infer(lib, env, domain, nf.body)
    return subsumes(t.ret, inferred)
