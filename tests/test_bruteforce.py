"""A brute-force oracle for the search variants: on small random
problems, every program a variant returns, and no other, is found by
enumerating terms and checking each concretely (criterion 5b pins the
concrete checker to the declarative typing rules).

`baseline` is left out. It searches a library monomorphised to depth 1,
whose instances cannot build every brute-force program, so it misses
some even when its instance names are mapped back to the components'
(`Library.display_name`). Its instances also fix polymorphic results
to ground types, so it may copy a subterm whose type here is no
parameter type, and it returns programs the oracle does not count.
"""

import random
from collections import Counter

import pytest

from tygar.lattice import CONCRETE
from tygar.synth import SynthConfig, synthesize
from tygar.typecheck import check, infer
from tygar.types import App, FnType, NormalForm, TermVar

from conftest import (
    CONS3,
    enumerate_terms,
    rand_env,
    rand_ground,
    rand_library,
)

MAX_LEN = 3
DRAWS = 200
VARIANTS = ("nogar", "tygar0", "tygarq", "tygarqb")


def path_length(term, params: tuple, copyable) -> int:
    """Fewest transitions on a net path that builds `term`, or -1 when a
    query parameter is unused.

    Each application fires one transition. Copy transitions sit on the
    parameters' places, so a subterm whose type is a parameter type
    (`copyable`), like a parameter itself, is built once and copied once
    per further use.
    """
    uses: Counter = Counter()
    built: set = set()

    def visit(t) -> int:
        if isinstance(t, TermVar):
            uses[t] += 1
            return 0
        if copyable(t):
            uses[t] += 1
            if t in built:
                return 0
            built.add(t)
        return 1 + sum(visit(a) for a in t.args)

    apps = visit(term)
    if any(uses[TermVar(p)] == 0 for p in params):
        return -1
    return apps + sum(n - 1 for n in uses.values())


@pytest.fixture(scope="module")
def problems() -> list:
    """(library, query, programs) per draw: the bodies of the programs
    that type-check at the query, use every parameter and need a path of
    at most MAX_LEN."""
    rng = random.Random(606)
    out = []
    for _ in range(DRAWS):
        lib = rand_library(rng, rng.randint(2, 4))
        env = {f"arg{i}": t for i, t in
               enumerate(rand_env(rng, CONS3, rng.randint(1, 2)).values())}
        query = FnType(tuple(env.values()),
                       rand_ground(rng, CONS3, 1) if rng.random() < 0.3
                       else App("A"))
        params = tuple(env)
        param_types = set(env.values())

        def copyable(t) -> bool:
            return infer(lib, env, CONCRETE, t) in param_types

        terms = [TermVar(x) for x in params]
        terms += enumerate_terms(lib, env, MAX_LEN)
        programs = {t for t in terms
                    if 0 <= path_length(t, params, copyable) <= MAX_LEN
                    and check(lib, CONCRETE, NormalForm(params, t), query)}
        out.append((lib, query, programs))
    return out


@pytest.fixture(scope="module")
def returned(problems) -> dict:
    """Per variant, the program bodies it returns, per draw."""
    out: dict = {v: [] for v in VARIANTS}
    for lib, query, _ in problems:
        for variant in VARIANTS:
            res = synthesize(lib, query, SynthConfig(
                variant=variant, max_len=MAX_LEN, max_solutions=10_000,
                timeout_s=60))
            assert res.reason in ("search space exhausted",
                                  "no valid path within bounds"), res.reason
            out[variant].append({s.nf.body for s in res.solutions})
    return out


@pytest.mark.parametrize("variant", VARIANTS)
def test_variant_finds_every_brute_force_program(problems, returned, variant):
    for (_, _, programs), got in zip(problems, returned[variant]):
        assert programs <= got
    assert sum(bool(p) for _, _, p in problems) >= DRAWS // 2
    assert sum(len(p) for _, _, p in problems) >= 1000


@pytest.mark.parametrize("variant", [
    "nogar",
    pytest.param("tygar0", marks=pytest.mark.xfail(strict=True, reason=(
        "a path found in a coarse cover may copy a subterm whose concrete "
        "type is no parameter type, so tygar0 also returns such programs"))),
    "tygarq",
    "tygarqb",
])
def test_variant_returns_exactly_the_brute_force_programs(
        problems, returned, variant):
    for (_, _, programs), got in zip(problems, returned[variant]):
        assert got == programs
