"""Synthesis loops: abstract search, cover refinement, search variants."""

from __future__ import annotations

import itertools
import math
import time
from typing import Callable, Optional, Sequence

from .atn import DEADLINE_STRIDE, added_ascending, build_atn, refine_atn
from .lattice import (
    CONCRETE,
    AbstractCover,
    close_under_meet,
    refines,
    resolve,
    subsumes,
    weakenings,
)
from .pathgen import from_path
from .reach import PathFinder
from .typecheck import apply_transformer, check, infer
from .types import (
    App,
    BOTTOM,
    Environment,
    FnType,
    Library,
    NormalForm,
    PolyType,
    Record,
    Term,
    TermApp,
    TermVar,
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
               on_step: Optional[Callable] = None,
               deadline: float = math.inf) -> dict:
    """Weaken argument labels top-down while the proof stays valid.

    At each application, in pre-order, the argument labels are moved up
    the lattice one step at a time (argument index ascending, then
    weakening-sequence order), a step being kept iff the transformer
    applied to the weakened tuple stays below the node's own label.
    Raises TimeoutError when `deadline` (a `time.monotonic()` value) has
    passed at a check, one every `DEADLINE_STRIDE` transformer calls.
    """
    applications = 0
    for pos in subterm_positions(estar):
        node = subterm_at(estar, pos)
        if isinstance(node, TermVar):
            continue
        child_positions = [pos + (j,) for j in range(len(node.args))]
        changed = True
        while changed:
            changed = False
            for cpos in child_positions:
                while True:
                    for w in weakenings(U[cpos]):
                        applications += 1
                        if (applications % DEADLINE_STRIDE == 0
                                and time.monotonic() > deadline):
                            raise TimeoutError("deadline passed during a proof")
                        labels = [w if p == cpos else U[p] for p in child_positions]
                        res = apply_transformer(lib, node.component, labels)
                        if subsumes(res, U[pos]):
                            U[cpos] = w
                            changed = True
                            if on_step is not None:
                                on_step(U)
                            break
                    else:  # no weakening of this label was kept
                        break
    return U


def build_proof(nf: NormalForm, t: FnType, lib: Library,
                on_step: Optional[Callable] = None,
                deadline: float = math.inf) -> tuple:
    """Initialize the proof by concrete inference and generalize it.

    Returns (U, estar, rlib): the label map keyed by position path in
    estar = r(body), where r is a dedicated component of type ret->ret;
    `deadline` is `generalize`'s.
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
    generalize(U, estar, rlib, stepper, deadline)
    return U, estar, rlib


def refine(cover: AbstractCover, nf: NormalForm, t: FnType,
           lib: Library) -> AbstractCover:
    """Refined cover under which the spurious candidate no longer
    type-checks abstractly."""
    if check(lib, CONCRETE, nf, t):
        raise ValueError("refine called on a concretely well-typed candidate")
    if not check(lib, cover, nf, t):
        raise ValueError("refine called on an abstractly ill-typed candidate")
    return refine_all(cover, [nf], t, lib)


def refine_all(cover: AbstractCover, spurious: Sequence, t: FnType,
               lib: Library, deadline: float = math.inf) -> AbstractCover:
    """Merge the untypeability proofs of all spurious candidates of one
    path into a single cover refinement.

    Each proof is computed against the entering cover; the union of
    their ranges rejects every candidate at once. The ranges are closed
    under meet on top of the entering cover, which is already closed,
    so only the types they add are met with the cover. Raises
    TimeoutError when `deadline` (a `time.monotonic()` value) has passed
    before a proof, or at one of the checks inside its generalisation.
    """
    types: set = set()
    for nf in spurious:
        if time.monotonic() > deadline:
            raise TimeoutError("deadline passed during refinement")
        U, _, _ = build_proof(nf, t, lib, deadline=deadline)
        types.update(U.values())
    new_cover = close_under_meet(types, cover)
    assert refines(new_cover, cover) and new_cover != cover, \
        "refinement must strictly refine the cover"
    for nf in spurious:
        assert not check(lib, new_cover, nf, t), \
            "refined cover must reject every spurious candidate"
    return new_cover


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
            sigma = dict(zip(poly.quantified, assignment))
            fn = FnType(tuple(resolve(b, sigma) for b in poly.body.params),
                        resolve(poly.body.ret, sigma))
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

class SynthConfig(Record):
    """One session's settings, checked here; class attributes are defaults."""

    _fields = ("variant", "bound", "max_len", "max_solutions", "timeout_s",
               "on_event")
    variant = "tygarqb"
    bound = 10
    max_len = 6
    max_solutions = 5
    timeout_s = 60.0
    on_event = None
    # the most programs of one path that are checked: a constant, not a field
    candidate_cap = 10_000

    def __init__(self, variant: str = variant, bound: int = bound,
                 max_len: int = max_len, max_solutions: int = max_solutions,
                 timeout_s: float = timeout_s,
                 on_event: Optional[Callable] = on_event):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        if max_solutions < 1:
            raise ValueError(
                f"max_solutions must be at least 1, got {max_solutions}")
        if max_len < 0:
            raise ValueError(f"max_len must be at least 0, got {max_len}")
        if not timeout_s >= 0:  # also rejects NaN
            raise ValueError(
                f"timeout_s must be a number of seconds, at least 0, "
                f"got {timeout_s}")
        self.variant = variant
        self.bound = bound
        self.max_len = max_len
        self.max_solutions = max_solutions
        self.timeout_s = timeout_s
        self.on_event = on_event


class Solution(Record):
    _fields = ("nf", "rank", "apps", "millis")

    def __init__(self, nf: NormalForm, rank: int, apps: int, millis: float):
        self.nf = nf
        self.rank = rank
        self.apps = apps
        self.millis = millis


class SynthResult(Record):
    _fields = ("status", "reason", "solutions", "iterations", "refinements",
               "cover_size", "events", "elapsed_s", "lib")

    def __init__(self, status: str, reason: str, solutions: list,
                 iterations: int, refinements: int, cover_size: int,
                 events: list, elapsed_s: float, lib: Optional[Library] = None):
        self.status = status  # solved | no_solution | exhausted
        self.reason = reason
        self.solutions = solutions
        self.iterations = iterations
        self.refinements = refinements
        self.cover_size = cover_size
        self.events = events
        self.elapsed_s = elapsed_s
        self.lib = lib  # library terms refer to (baseline mangles)


class Synthesizer:
    """One synthesis session, run once: single-threaded, in one process."""

    def __init__(self, lib: Library, query: FnType, cfg: SynthConfig):
        self.cfg = cfg
        self.query = query
        self.events: list = []
        self.iterations = 0
        self.refinements = 0
        self.lib = lib
        self._ran = False
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
        if self._ran:
            raise RuntimeError("a Synthesizer runs once; make a new one")
        self._ran = True
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
        try:
            while True:
                if time.monotonic() > deadline:
                    raise TimeoutError("deadline passed between iterations")
                self.iterations += 1
                path = finder.next_path(deadline)
                if path is None:
                    self._event("iteration", n=self.iterations,
                                cover_size=len(self.cover), path=None,
                                candidates=[], chosen=None,
                                verdict="no_path")
                    if solutions:
                        return result("solved", "search space exhausted")
                    return result("no_solution",
                                  "no valid path within bounds")
                cap = self.cfg.candidate_cap
                candidates: list = []
                new_solutions: list = []
                spurious: list = []
                # replay yields programs that check against net.cover,
                # each with its concrete type; where no refinement can
                # follow, it cuts bottom-typed branches, one marker each
                prune = not self._may_refine()
                pruned = 0
                for nf, ty in from_path(self.lib, net, path, prune):
                    if time.monotonic() > deadline:
                        raise TimeoutError("deadline passed during replay")
                    if nf is None:
                        pruned += 1
                        continue
                    if len(candidates) == cap:
                        self._event("diagnostic", path=list(path), cap=cap,
                                    message=f"path {list(path)} denotes "
                                            f"more than {cap} programs; "
                                            f"only the first {cap} are "
                                            f"checked")
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
                                term=render_term(nf),
                                apps=term_size(nf.body))
                    if len(solutions) >= self.cfg.max_solutions:
                        return result("solved", "max solutions reached")
                if spurious and self._may_refine():
                    old_cover = self.cover
                    self.cover = refine_all(old_cover, spurious, self.query,
                                            self.lib, deadline=deadline)
                    net = refine_atn(net, self.lib, self.cover, deadline)
                    self.refinements += 1
                    finder.reset(net)
                    added = added_ascending(old_cover, self.cover)
                    self._event("refine", n=self.refinements,
                                added=[render_type(a) for a in added],
                                cover_size=len(self.cover))
        except TimeoutError:
            return result("exhausted", "timeout")


def synthesize(lib: Library, query: FnType, cfg: Optional[SynthConfig] = None) -> SynthResult:
    return Synthesizer(lib, query, cfg or SynthConfig()).run()


def syn_abstract(lib: Library, query: FnType,
                 cover: AbstractCover) -> Optional[NormalForm]:
    """Solve one abstract synthesis problem: the first abstractly
    well-typed program on a shortest valid path of at most
    `SynthConfig.max_len` steps, or None."""
    net = build_atn(lib, query, cover)
    finder = PathFinder(SynthConfig.max_len)
    finder.reset(net)
    path = finder.next_path(time.monotonic() + SynthConfig.timeout_s)
    if path is None:
        return None
    return next((nf for nf, _ in from_path(lib, net, path)), None)
