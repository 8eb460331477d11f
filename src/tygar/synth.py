"""Synthesis loops: abstract search, cover refinement, search variants."""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .atn import build_atn, refine_atn
from .lattice import (
    CONCRETE,
    AbstractCover,
    close_under_meet,
    refines,
    subsumes,
    weakenings,
)
from .pathgen import from_path
from .reach import NO_PATH, PathFinder
from .typecheck import apply_transformer, check, infer
from .types import (
    App,
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
    apply_subst,
    Substitution,
    render_term,
    render_type,
    subterm_at,
    subterm_positions,
    term_size,
)

# Reserved name for the untypeability wrapper; signature files cannot
# produce a `#`-prefixed component name.
R_COMPONENT = "#r"

VARIANTS = ("baseline", "nogar", "tygar0", "tygarq", "tygarqb")

# Instances the baseline variant may create before it gives up.
BASELINE_BUDGET = 2000


class BaselineBudgetExceeded(Exception):
    pass


def initial_cover(kind: str, t: FnType) -> AbstractCover:
    """`top` is {tau, bottom}; `query` represents the query type itself."""
    if kind == "top":
        return AbstractCover([])
    if kind == "query":
        return close_under_meet([*t.params, t.ret])
    raise ValueError(f"unknown initial cover kind {kind!r}")


# ---------------------------------------------------------------------------
# Proofs of untypeability

def proof_invariants(U: dict, estar: Term, lib: Library, env: Environment) -> None:
    """Assert the three proof invariants; raises AssertionError."""
    for pos in subterm_positions(estar):
        node = subterm_at(estar, pos)
        concrete = infer(lib, env, CONCRETE, node)
        assert subsumes(concrete, U[pos]), \
            f"I1 violated at {pos}: {render_type(concrete)} vs {render_type(U[pos])}"
        if isinstance(node, TermApp):
            labels = [U[pos + (j,)] for j in range(len(node.args))]
            res = apply_transformer(lib, node.component, labels)
            assert subsumes(res, U[pos]), \
                f"I2 violated at {pos}: {render_type(res)} vs {render_type(U[pos])}"
    assert U[()] is BOTTOM, "I3 violated: root label is not bottom"


def generalize(U: dict, estar: Term, lib: Library,
               pos: tuple = (),
               on_step: Optional[Callable] = None) -> dict:
    """Weaken argument labels top-down while the proof stays valid.

    At each application the argument labels are moved up the lattice one
    step at a time (argument index ascending, then weakening-sequence
    order), a step being kept iff the transformer applied to the
    weakened tuple stays below the node's own label.
    """
    node = subterm_at(estar, pos)
    if isinstance(node, TermVar):
        return U
    child_positions = [pos + (j,) for j in range(len(node.args))]
    changed = True
    while changed:
        changed = False
        for cpos in child_positions:
            while True:
                accepted = False
                for w in weakenings(U[cpos]):
                    labels = [w if p == cpos else U[p] for p in child_positions]
                    res = apply_transformer(lib, node.component, labels)
                    if subsumes(res, U[pos]):
                        U[cpos] = w
                        accepted = True
                        changed = True
                        if on_step is not None:
                            on_step(U)
                        break
                if not accepted:
                    break
    for cpos in child_positions:
        generalize(U, estar, lib, cpos, on_step)
    return U


def build_proof(nf: NormalForm, t: FnType, lib: Library,
                on_step: Optional[Callable] = None) -> tuple:
    """Initialize the proof by concrete inference and generalize it.

    Returns (U, estar, rlib): the label map keyed by position path in
    estar = r(body), where r is a dedicated component of type ret->ret.
    """
    rlib = lib.copy()
    rlib.components[R_COMPONENT] = PolyType((), FnType((t.ret,), t.ret))
    estar = TermApp(R_COMPONENT, (nf.body,))
    env: Environment = dict(zip(nf.params, t.params))
    U: dict = {}
    for pos in subterm_positions(estar):
        U[pos] = infer(rlib, env, CONCRETE, subterm_at(estar, pos))
    assert U[()] is BOTTOM, "candidate is concretely well-typed"
    stepper = None
    if on_step is not None:
        stepper = lambda u: on_step(u, estar, rlib, env)
    generalize(U, estar, rlib, (), stepper)
    return U, estar, rlib


def refine(cover: AbstractCover, nf: NormalForm, t: FnType, lib: Library,
           validate: bool = False) -> AbstractCover:
    """Refined cover under which the spurious candidate no longer
    type-checks abstractly."""
    if check(lib, CONCRETE, nf, t):
        raise ValueError("refine called on a concretely well-typed candidate")
    if not check(lib, cover, nf, t):
        raise ValueError("refine called on an abstractly ill-typed candidate")
    return refine_all(cover, [nf], t, lib, validate)


def refine_all(cover: AbstractCover, spurious: Sequence, t: FnType,
               lib: Library, validate: bool = False,
               deadline: Optional[float] = None) -> AbstractCover:
    """Merge the untypeability proofs of all spurious candidates of one
    path into a single cover refinement.

    Each proof is computed against the entering cover; the union of
    their ranges rejects every candidate at once. The ranges are closed
    under meet on top of the entering cover, which is already closed,
    so only the types they add are met with the cover. Raises
    TimeoutError when `deadline` (a `time.monotonic()` value) has passed
    before a proof.
    """
    stepper = proof_invariants if validate else None
    types: set = set()
    for nf in spurious:
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutError("deadline passed during refinement")
        U, estar, rlib = build_proof(nf, t, lib, stepper)
        if validate:
            proof_invariants(U, estar, rlib, dict(zip(nf.params, t.params)))
        types.update(U.values())
    new_cover = close_under_meet(types, cover)
    assert refines(new_cover, cover) and new_cover != cover, \
        "refinement must strictly refine the cover"
    for nf in spurious:
        assert not check(lib, new_cover, nf, t), \
            "refined cover must reject every spurious candidate"
    return new_cover


def added_ascending(old: AbstractCover, new: AbstractCover) -> list:
    """New members ordered so every prefix extension stays meet-closed
    (most specific first)."""
    added = [m for m in new.members if m not in old.members]

    def key(m: BaseType):
        below = sum(1 for o in added if o != m and subsumes(o, m))
        return (below, render_type(m))

    return sorted(added, key=key)


# ---------------------------------------------------------------------------
# Baseline monomorphisation

def monomorphise(lib: Library, budget: int) -> Library:
    """Instantiate every type variable with every ground type of
    unfolding depth at most one; raises once the instance budget is hit."""
    nullary = [App(c) for c, a in sorted(lib.constructors.items()) if a == 0]
    deeper = [
        App(c, args)
        for c, a in sorted(lib.constructors.items()) if a > 0
        for args in itertools.product(nullary, repeat=a)
    ]
    universe = nullary + deeper
    mono = lib.copy()
    mono.components = {}
    count = 0
    for name, poly in lib.components.items():
        if not poly.quantified:
            mono.components[name] = poly
            continue
        for k, assignment in enumerate(
                itertools.product(universe, repeat=len(poly.quantified))):
            count += 1
            if count > budget:
                raise BaselineBudgetExceeded(
                    f"monomorphisation exceeded {budget} instances")
            sigma = Substitution(dict(zip(poly.quantified, assignment)))
            fn = FnType(tuple(apply_subst(sigma, b) for b in poly.body.params),
                        apply_subst(sigma, poly.body.ret))
            inst = f"{name}#{k}"
            mono.components[inst] = PolyType((), fn)
            mono.display_names[inst] = lib.display_name(name)
    return mono


def ground_cover(lib: Library, t: FnType) -> AbstractCover:
    types: set = set(t.params) | {t.ret}
    for poly in lib.components.values():
        types.update(poly.body.params)
        types.add(poly.body.ret)
    return close_under_meet(types)


# ---------------------------------------------------------------------------
# The synthesis session

@dataclass
class SynthConfig:
    variant: str = "tygarqb"
    bound: int = 10
    max_len: int = 6
    max_solutions: int = 5
    timeout_s: float = 60.0
    validate: bool = False
    candidate_cap: int = 10_000
    on_event: Optional[Callable] = None

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.max_solutions < 1:
            raise ValueError(
                f"max_solutions must be at least 1, got {self.max_solutions}")
        if self.max_len < 0:
            raise ValueError(
                f"max_len must be at least 0, got {self.max_len}")
        if self.candidate_cap < 1:
            raise ValueError(
                f"candidate_cap must be at least 1, got {self.candidate_cap}")
        if not self.timeout_s >= 0:  # also rejects NaN
            raise ValueError(
                f"timeout_s must be a number of seconds, at least 0, "
                f"got {self.timeout_s}")


@dataclass
class Solution:
    nf: NormalForm
    rank: int
    apps: int
    millis: float


@dataclass
class SynthResult:
    status: str                 # solved | no_solution | exhausted
    reason: str
    solutions: list
    iterations: int
    refinements: int
    cover_size: int
    events: list
    elapsed_s: float
    lib: Optional[Library] = None  # library terms refer to (baseline mangles)


class NoSolutionSentinel:
    def __repr__(self) -> str:
        return "NoSolution"


NO_SOLUTION = NoSolutionSentinel()


class Synthesizer:
    """One synthesis session: single-threaded, in one process."""

    def __init__(self, lib: Library, query: FnType, cfg: SynthConfig):
        self.cfg = cfg
        self.query = query
        self.events: list = []
        self.iterations = 0
        self.refinements = 0
        self.lib = lib
        if cfg.variant == "baseline":
            self.cover = None  # prepared in run(); may exceed the budget
        elif cfg.variant == "tygar0":
            self.cover = initial_cover("top", query)
        else:
            self.cover = initial_cover("query", query)
            if cfg.variant == "tygarqb" and cfg.bound < len(self.cover):
                raise ValueError(
                    f"tygarqb bound {cfg.bound} is below the initial cover "
                    f"size {len(self.cover)}")

    def _event(self, kind: str, **data) -> None:
        evt = {"kind": kind, **data}
        self.events.append(evt)
        if self.cfg.on_event is not None:
            self.cfg.on_event(evt)

    def _may_refine(self) -> bool:
        if self.cfg.variant in ("tygar0", "tygarq"):
            return True
        if self.cfg.variant == "tygarqb":
            return len(self.cover) < self.cfg.bound
        return False

    def run(self) -> SynthResult:
        start = time.monotonic()
        deadline = start + self.cfg.timeout_s
        solutions: list = []
        emitted: set = set()

        def result(status: str, reason: str) -> SynthResult:
            if solutions:
                status = "solved"
            # ranked by (application count, emission order)
            solutions.sort(key=lambda s: s.apps)
            for i, s in enumerate(solutions):
                s.rank = i + 1
            self._event("status", status=status, reason=reason)
            return SynthResult(status, reason, solutions, self.iterations,
                               self.refinements,
                               len(self.cover) if self.cover else 0,
                               self.events, time.monotonic() - start, self.lib)

        try:
            if self.cfg.variant == "baseline":
                self.lib = monomorphise(self.lib, BASELINE_BUDGET)
                self.cover = ground_cover(self.lib, self.query)
            net = build_atn(self.lib, self.query, self.cover)
        except BaselineBudgetExceeded as e:
            self._event("diagnostic", message=str(e))
            return result("exhausted", str(e))

        finder = PathFinder(self.cfg.max_len)
        finder.reset(net)
        while True:
            if time.monotonic() > deadline:
                return result("exhausted", "timeout")
            self.iterations += 1
            try:
                path = finder.next_path(deadline)
            except TimeoutError:
                return result("exhausted", "timeout")
            if path is NO_PATH:
                self._event("iteration", n=self.iterations,
                            cover_size=len(self.cover), path=None,
                            candidates=[], chosen=None, verdict="no_path")
                if solutions:
                    return result("solved", "search space exhausted")
                return result("no_solution", "no valid path within bounds")
            cap = self.cfg.candidate_cap
            candidates: list = []
            new_solutions: list = []
            spurious: list = []
            # replay yields programs that check against net.cover,
            # each with its concrete type; where no refinement can
            # follow, it cuts bottom-typed branches, one marker each
            prune = not self._may_refine()
            pruned = 0
            for nf, ty in from_path(self.lib, net, self.query, path, prune):
                if time.monotonic() > deadline:
                    return result("exhausted", "timeout")
                if nf is None:
                    pruned += 1
                    continue
                if len(candidates) == cap:
                    self._event("diagnostic", path=list(path), cap=cap,
                                message=f"path {list(path)} denotes more "
                                        f"than {cap} programs; only the "
                                        f"first {cap} are checked")
                    break
                candidates.append(nf)
                if subsumes(self.query.ret, ty):
                    new_solutions.append(nf)
                else:
                    spurious.append(nf)
            chosen = new_solutions[0] if new_solutions else (
                spurious[0] if spurious else None)
            self._event("iteration", n=self.iterations,
                        cover_size=len(self.cover), path=list(path),
                        candidates=[render_term(c) for c in candidates],
                        chosen=render_term(chosen) if chosen else None,
                        verdict="solution" if new_solutions else
                        ("spurious" if spurious or pruned else "empty"),
                        **({"pruned": pruned} if prune else {}))
            for nf in new_solutions:
                if nf.body in emitted:
                    continue
                emitted.add(nf.body)
                solutions.append(Solution(
                    nf, len(solutions) + 1, term_size(nf.body),
                    (time.monotonic() - start) * 1000.0))
                self._event("solution", rank=len(solutions),
                            term=render_term(nf), apps=term_size(nf.body))
                if len(solutions) >= self.cfg.max_solutions:
                    return result("solved", "max solutions reached")
            if spurious and self._may_refine():
                old_cover = self.cover
                try:
                    self.cover = refine_all(old_cover, spurious,
                                            self.query, self.lib,
                                            self.cfg.validate, deadline)
                    added = added_ascending(old_cover, self.cover)
                    if time.monotonic() > deadline:
                        return result("exhausted", "timeout")
                    net = refine_atn(net, self.lib, self.query,
                                     old_cover, added, deadline)
                except TimeoutError:
                    return result("exhausted", "timeout")
                self.refinements += 1
                finder.reset(net)
                self._event("refine", n=self.refinements,
                            added=[render_type(a) for a in added],
                            cover_size=len(self.cover))


def synthesize(lib: Library, query: FnType, cfg: Optional[SynthConfig] = None) -> SynthResult:
    return Synthesizer(lib, query, cfg or SynthConfig()).run()


def syn_abstract(lib: Library, query: FnType, cover: AbstractCover,
                 cfg: Optional[SynthConfig] = None):
    """Solve one abstract synthesis problem: the first abstractly
    well-typed program on a shortest valid path, or NO_SOLUTION."""
    cfg = cfg or SynthConfig()
    net = build_atn(lib, query, cover)
    finder = PathFinder(cfg.max_len)
    finder.reset(net)
    path = finder.next_path(time.monotonic() + cfg.timeout_s)
    if path is NO_PATH:
        return NO_SOLUTION
    return next((nf for nf, _ in from_path(lib, net, query, path)),
                NO_SOLUTION)
