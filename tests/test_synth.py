import time
from types import SimpleNamespace

import pytest

from tygar import atn, pathgen, synth
from tygar.lattice import AbstractCover, CONCRETE, close_under_meet, subsumes
from tygar.synth import (
    SynthConfig,
    Synthesizer,
    build_proof,
    generalize,
    initial_cover,
    monomorphise,
    proof_invariants,
    refine,
    refine_all,
    syn_abstract,
    synthesize,
)
from tygar.typecheck import check, infer
from tygar.types import (
    App,
    BOTTOM,
    FnType,
    NormalForm,
    TOP,
    TermApp,
    TermVar,
    render_term,
    render_type,
)

from conftest import fn, lib_of, tiny_problem, ty, unsat_problem


def example1_setting():
    lib = lib_of("f :: a -> M a -> a", "l :: L b -> M b")
    lib.register_type(App("A"))
    t = FnType((App("A"), ty("L (M A)")), App("A"))
    cover = close_under_meet([App("A"), ty("L t")])
    spurious = NormalForm(("arg0", "arg1"), TermApp("f", (
        TermVar("arg0"), TermApp("l", (TermVar("arg1"),)))))
    return lib, t, cover, spurious


def test_initial_cover_top_and_query():
    t = FnType((App("A"), ty("L (M A)")), App("A"))
    assert set(initial_cover("top", t).members) == {TOP, BOTTOM}
    q = initial_cover("query", t)
    assert set(q.members) == {TOP, BOTTOM, App("A"), ty("L (M A)")}
    # repeated types deduplicate
    t2 = FnType((App("A"), App("A")), App("A"))
    assert set(initial_cover("query", t2).members) == {TOP, BOTTOM, App("A")}


def test_refine_example1_adds_weakened_types(validated):
    lib, t, cover, spurious = example1_setting()
    assert not check(lib, CONCRETE, spurious, t)
    assert check(lib, cover, spurious, t)
    new = refine(cover, spurious, t, lib)
    assert ty("M (M t)") in new
    assert ty("L (M t)") in new
    assert not check(lib, new, spurious, t)  # the refine contract


def test_refine_preconditions():
    lib, t, cover, spurious = example1_setting()
    good = NormalForm(("arg0", "arg1"), TermVar("arg0"))
    with pytest.raises(ValueError, match="well-typed"):
        refine(cover, good, t, lib)
    rejected = refine(cover, spurious, t, lib)
    with pytest.raises(ValueError, match="ill-typed"):
        refine(rejected, spurious, t, lib)


def test_refine_unsat_example_two_steps(validated):
    lib, t = unsat_problem()
    cover0 = AbstractCover([])
    first = NormalForm((), TermApp("f", ()))
    c1 = refine(cover0, first, t, lib)
    assert set(c1.members) == {TOP, BOTTOM, ty("B t0 t1")}
    second = NormalForm((), TermApp("g", (TermApp("f", ()),)))
    c2 = refine(c1, second, t, lib)
    assert ty("B t t") in c2


def test_generalize_stops_at_bottom_labels():
    lib, t, cover, spurious = example1_setting()
    U, estar, rlib = build_proof(spurious, t, lib)
    # the wrapped body is concretely ill-typed: bottom, never weakened
    assert U[(0,)] is BOTTOM
    assert U[()] is BOTTOM
    # x1 kept concrete, the inner application weakened one step
    assert U[(0, 0)] == App("A")
    assert U[(0, 1)] == ty("M (M t0)")
    assert U[(0, 1, 0)] == ty("L (M t0)")


def test_proof_invariants_hold_and_detect_violations():
    lib, t, cover, spurious = example1_setting()
    U, estar, rlib = build_proof(spurious, t, lib)
    env = dict(zip(spurious.params, t.params))
    proof_invariants(U, estar, rlib, env)
    broken = dict(U)
    broken[(0, 0)] = ty("Z")  # not above the concrete type of x1
    with pytest.raises(AssertionError, match="I1"):
        proof_invariants(broken, estar, rlib, env)


def test_validated_proofs_catch_a_step_breaking_i2(monkeypatch, validated):
    # a generalisation that keeps one step too many, weakening the label
    # of `l arg1` to top, under which f's result is no longer bottom,
    # must fail the checks
    lib, t, cover, spurious = example1_setting()
    generalize = synth.generalize

    def overreaching(U, estar, lib, on_step, deadline):
        generalize(U, estar, lib, on_step, deadline)
        U[(0, 1)] = TOP
        on_step(U)
        return U

    monkeypatch.setattr(synth, "generalize", overreaching)
    with pytest.raises(AssertionError, match=r"I2 violated at \(0,\)"):
        refine(cover, spurious, t, lib)


def test_refine_all_merges_proofs(validated):
    lib, query = tiny_problem()
    cover = AbstractCover([])
    swap1 = NormalForm(("arg0", "arg1"),
                       TermApp("fromMaybe", (TermVar("arg0"), TermVar("arg1"))))
    swap2 = NormalForm(("arg0", "arg1"),
                       TermApp("fromMaybe", (TermVar("arg1"), TermVar("arg0"))))
    merged = refine_all(cover, [swap1, swap2], query, lib)
    assert App("a") in merged
    assert ty("List t") in merged
    assert not check(lib, merged, swap1, query)
    assert not check(lib, merged, swap2, query)


def _fake_clock(monkeypatch):
    """Give `synth` and `atn` a clock that runs with the real one until
    the returned function is called, then stands far past any deadline."""
    offset = [0.0]
    clock = SimpleNamespace(monotonic=lambda: time.monotonic() + offset[0])
    monkeypatch.setattr(synth, "time", clock)
    monkeypatch.setattr(atn, "time", clock)
    return lambda: offset.__setitem__(0, 1e6)


def _spy(monkeypatch, name: str, after=None, owner=synth) -> list:
    """Count calls to `owner.<name>`, running `after` once each returns."""
    calls = []
    orig = getattr(owner, name)

    def spied(*args, **kwargs):
        calls.append(args)
        out = orig(*args, **kwargs)
        if after is not None:
            after()
        return out

    monkeypatch.setattr(owner, name, spied)
    return calls


def test_refine_all_checks_deadline_between_proofs(monkeypatch):
    lib, query = tiny_problem()
    swap1 = NormalForm(("arg0", "arg1"),
                       TermApp("fromMaybe", (TermVar("arg0"), TermVar("arg1"))))
    swap2 = NormalForm(("arg0", "arg1"),
                       TermApp("fromMaybe", (TermVar("arg1"), TermVar("arg0"))))
    proofs = _spy(monkeypatch, "build_proof", _fake_clock(monkeypatch))
    with pytest.raises(TimeoutError):
        refine_all(AbstractCover([]), [swap1, swap2], query, lib,
                   deadline=time.monotonic() + 600)
    assert len(proofs) == 1


@pytest.mark.parametrize("stage, refine_atn_calls",
                         [("build_proof", 0), ("refine_atn", 1)])
def test_deadline_crossed_during_refinement_times_out(monkeypatch, stage,
                                                      refine_atn_calls):
    # tygar0's first path on the running example has two spurious
    # candidates whose proofs add two types, so the clock can pass the
    # deadline between the proofs, or inside the one net refinement
    # while the first added type's step runs
    lib, query = tiny_problem()
    jump = _fake_clock(monkeypatch)
    if stage == "build_proof":
        _spy(monkeypatch, "build_proof", jump)
    else:
        steps = _spy(monkeypatch, "_add_type", jump, owner=atn)
    nets = _spy(monkeypatch, "refine_atn")
    res = Synthesizer(lib, query, SynthConfig(
        variant="tygar0", max_solutions=3, timeout_s=600)).run()
    assert (res.status, res.reason) == ("exhausted", "timeout")
    assert res.iterations == 1 and res.refinements == 0
    assert len(nets) == refine_atn_calls
    if stage == "refine_atn":
        assert len(steps) == 1


def test_deadline_crossed_inside_a_proof_times_out(monkeypatch):
    # the clock passes the deadline as the first proof's generalisation
    # starts; with a stride of 2 its check before the second transformer
    # call raises there, and the run ends with the timeout result
    lib, query = tiny_problem()
    jump = _fake_clock(monkeypatch)
    monkeypatch.setattr(synth, "DEADLINE_STRIDE", 2)
    raised = []
    generalize = synth.generalize

    def late(*args):
        jump()
        try:
            return generalize(*args)
        except TimeoutError:
            raised.append(args)
            raise

    monkeypatch.setattr(synth, "generalize", late)
    calls = _spy(monkeypatch, "apply_transformer")
    nets = _spy(monkeypatch, "refine_atn")
    res = Synthesizer(lib, query, SynthConfig(
        variant="tygar0", max_solutions=3, timeout_s=600)).run()
    assert (res.status, res.reason) == ("exhausted", "timeout")
    assert len(raised) == 1 and len(calls) == 1
    assert res.iterations == 1 and res.refinements == 0 and not nets


def test_deadline_crossed_during_replay_times_out(monkeypatch):
    # under the top cover the first path fires k once: it denotes the 24
    # orders of the four arguments, and the clock passes the deadline
    # after the fifth of them is replayed
    lib = lib_of("k :: a -> a -> a -> a -> a")
    query = fn("A -> A -> A -> A -> A")
    cfg = dict(variant="tygar0", max_solutions=30, timeout_s=600)
    full = synthesize(lib, query, SynthConfig(**cfg))
    first = next(e for e in full.events if e["kind"] == "iteration")
    assert len(first["candidates"]) == 24

    jump = _fake_clock(monkeypatch)
    pulled = []
    replay = synth.from_path

    def slow_replay(*args):
        for item in replay(*args):
            pulled.append(item)
            if len(pulled) == 5:
                jump()
            yield item

    monkeypatch.setattr(synth, "from_path", slow_replay)
    res = Synthesizer(lib, query, SynthConfig(**cfg)).run()
    assert (res.status, res.reason) == ("exhausted", "timeout")
    assert len(pulled) == 5 and res.solutions == []
    assert not any(e["kind"] == "iteration" for e in res.events)


def test_deadline_crossed_during_pruned_replay_times_out(monkeypatch):
    # under nogar the running example's first path denotes two programs,
    # both bottom-typed, so replay cuts both branches and the path's
    # iteration event lists no candidate; the clock passes the deadline
    # at the first cut, and the marker the cut yields lets the loop see
    # that before the path's iteration event
    lib, query = tiny_problem()
    cfg = dict(variant="nogar", max_solutions=1, timeout_s=600)
    full = synthesize(lib, query, SynthConfig(**cfg))
    first = next(e for e in full.events if e["kind"] == "iteration")
    assert (first["candidates"], first["pruned"], first["chosen"],
            first["verdict"]) == ([], 2, None, "spurious")

    jump = _fake_clock(monkeypatch)
    transform = pathgen.apply_transformer

    def watched(*args):
        ty = transform(*args)
        if ty is BOTTOM:
            jump()
        return ty

    monkeypatch.setattr(pathgen, "apply_transformer", watched)
    res = Synthesizer(lib, query, SynthConfig(**cfg)).run()
    assert (res.status, res.reason) == ("exhausted", "timeout")
    assert res.iterations == 1
    assert not any(e["kind"] == "iteration" for e in res.events)


def test_syn_abstract_running_example():
    lib, query = tiny_problem()
    nf = syn_abstract(lib, query, AbstractCover([]))
    assert render_term(nf) == "fromMaybe arg0 arg1"
    refined = close_under_meet([
        App("a"), ty("List t"), ty("List (Maybe t)"), ty("Maybe (Maybe t)")])
    nf3 = syn_abstract(lib, query, refined)
    assert render_term(nf3) == "fromMaybe arg0 (listToMaybe (catMaybes arg1))"


def test_syn_abstract_unsat_cover_no_solution():
    lib, t = unsat_problem()
    cover = close_under_meet([ty("B a b"), ty("B t t")])
    assert syn_abstract(lib, t, cover) is None


def test_synthesize_emits_only_concrete_solutions():
    lib, query = tiny_problem()
    res = synthesize(lib, query, SynthConfig(variant="tygar0",
                                             max_solutions=3, max_len=6))
    assert res.status == "solved"
    for s in res.solutions:
        assert check(lib, CONCRETE, s.nf, query)
    ranks = [s.rank for s in res.solutions]
    assert ranks == sorted(ranks)
    apps = [s.apps for s in res.solutions]
    assert apps == sorted(apps)  # ranked by application count first


def test_candidate_cap_truncation_is_reported(monkeypatch):
    # the first path under the top cover, fromMaybe, denotes two programs
    lib, query = tiny_problem()
    cfg = SynthConfig(variant="tygar0", max_solutions=1)
    monkeypatch.setattr(SynthConfig, "candidate_cap", 1)
    res = synthesize(lib, query, cfg)
    first = next(e for e in res.events if e["kind"] == "iteration")
    notes = [e for e in res.events if e["kind"] == "diagnostic"
             and e["path"] == first["path"]]
    assert len(notes) == 1
    assert notes[0]["cap"] == 1
    assert str(first["path"]) in notes[0]["message"]
    assert first["candidates"] == ["fromMaybe arg0 arg1"]
    monkeypatch.setattr(SynthConfig, "candidate_cap", 2)
    uncapped = synthesize(lib, query, cfg)
    assert not any(e["kind"] == "diagnostic" for e in uncapped.events)
    first = next(e for e in uncapped.events if e["kind"] == "iteration")
    assert first["candidates"] == ["fromMaybe arg0 arg1",
                                   "fromMaybe arg1 arg0"]


def test_candidate_cap_counts_surviving_programs_under_nogar(monkeypatch):
    # both argument orders of g type-check: the second one still passes
    # a cap of 1
    lib = lib_of("h :: a -> M a", "g :: M a -> M a -> C")
    monkeypatch.setattr(SynthConfig, "candidate_cap", 1)
    res = synthesize(lib, fn("A -> A -> C"), SynthConfig(
        variant="nogar", max_solutions=1))
    first = next(e for e in res.events if e["kind"] == "iteration")
    assert first["candidates"] == ["g (h arg0) (h arg1)"]
    notes = [e for e in res.events if e["kind"] == "diagnostic"]
    assert [(n["path"], n["cap"]) for n in notes] == [(first["path"], 1)]


def test_candidate_cap_ignores_pruned_programs_under_nogar(monkeypatch):
    # only the first of k's six argument orders type-checks; the five
    # bottom-typed ones are cut, not counted against a cap of 1
    lib = lib_of("h :: a -> M a", "k :: M A -> M B -> M C -> D")
    monkeypatch.setattr(SynthConfig, "candidate_cap", 1)
    res = synthesize(lib, fn("A -> B -> C -> D"), SynthConfig(
        variant="nogar", max_solutions=1))
    first = next(e for e in res.events if e["kind"] == "iteration")
    assert first["candidates"] == ["k (h arg0) (h arg1) (h arg2)"]
    assert first["pruned"] == 5
    assert not any(e["kind"] == "diagnostic" for e in res.events)


def test_solutions_abstractly_typed_under_every_cover_seen():
    # over-approximation: concrete solutions stay solutions abstractly
    lib, query = tiny_problem()
    res = synthesize(lib, query, SynthConfig(variant="tygar0",
                                             max_solutions=1))
    sol = res.solutions[0].nf
    assert check(lib, initial_cover("top", query), sol, query)
    refined = close_under_meet([
        App("a"), ty("List t"), ty("List (Maybe t)"), ty("Maybe (Maybe t)")])
    assert check(lib, refined, sol, query)


def test_nogar_enumerates_without_refinement():
    lib, query = tiny_problem()
    res = synthesize(lib, query, SynthConfig(variant="nogar", max_solutions=1))
    assert res.refinements == 0
    assert res.status == "solved"
    assert render_term(res.solutions[0].nf) == \
        "fromMaybe arg0 (listToMaybe (catMaybes arg1))"


def test_tygarqb_stops_refining_at_bound():
    lib, query = tiny_problem()
    res = synthesize(lib, query, SynthConfig(variant="tygarqb", bound=4,
                                             max_solutions=1))
    assert res.status == "solved"
    # a refinement may overshoot the bound, but none starts at or past it
    sizes_before = [4]  # initial query cover size
    for e in res.events:
        if e["kind"] == "refine":
            assert sizes_before[-1] < 4
            sizes_before.append(e["cover_size"])


def test_tygarqb_bound_below_query_cover_rejected():
    lib, query = tiny_problem()
    with pytest.raises(ValueError, match="bound"):
        Synthesizer(lib, query, SynthConfig(variant="tygarqb", bound=2))


def test_monomorphise_names_and_budget():
    lib, query = tiny_problem()
    mono = monomorphise(lib, budget=1000)
    assert all(not p.quantified for p in mono.components.values())
    assert any(n.startswith("fromMaybe#") for n in mono.components)
    inst = next(n for n in mono.components if n.startswith("fromMaybe#"))
    assert mono.display_name(inst) == "fromMaybe"
    from tygar.synth import BaselineBudgetExceeded
    with pytest.raises(BaselineBudgetExceeded):
        monomorphise(lib, budget=2)


def test_config_is_a_record_with_class_defaults():
    assert SynthConfig() == SynthConfig() and SynthConfig() is not SynthConfig()
    assert SynthConfig() == SynthConfig("tygarqb", 10, 6, 5, 60.0, None)
    assert SynthConfig(bound=3) != SynthConfig()
    assert (SynthConfig.variant, SynthConfig.bound, SynthConfig.max_len,
            SynthConfig.max_solutions, SynthConfig.timeout_s) == \
        ("tygarqb", 10, 6, 5, 60.0)
    assert repr(SynthConfig(variant="nogar")) == (
        "SynthConfig(variant='nogar', bound=10, max_len=6, max_solutions=5, "
        "timeout_s=60.0, on_event=None)")
    with pytest.raises(TypeError):
        hash(SynthConfig())


def test_unknown_variant_rejected():
    with pytest.raises(ValueError, match="variant"):
        SynthConfig(variant="magic")


@pytest.mark.parametrize("field, value", [
    ("max_solutions", 0), ("max_solutions", -1), ("max_len", -1),
    ("candidate_cap", 0), ("candidate_cap", -5)])
def test_counts_out_of_range_rejected(field, value):
    # candidate_cap is a class constant, so SynthConfig takes no value of it
    error = TypeError if field == "candidate_cap" else ValueError
    with pytest.raises(error, match=field):
        SynthConfig(**{field: value})


@pytest.mark.parametrize("value", [float("nan"), -1.0, -1e-9])
def test_timeout_out_of_range_rejected(value):
    with pytest.raises(ValueError, match="timeout_s"):
        SynthConfig(timeout_s=value)


@pytest.mark.parametrize("value", [0, 0.0, float("inf")])
def test_timeout_zero_and_infinite_accepted(value):
    assert SynthConfig(timeout_s=value).timeout_s == value


def test_smallest_counts_accepted():
    cfg = SynthConfig(max_solutions=1, max_len=0, timeout_s=0)
    assert (cfg.max_solutions, cfg.max_len) == (1, 0)


def test_candidate_cap_is_a_constant():
    # the cap is no setting: every session reads the class's 10,000
    assert SynthConfig._fields == ("variant", "bound", "max_len",
                                   "max_solutions", "timeout_s", "on_event")
    assert SynthConfig().candidate_cap == 10_000
    with pytest.raises(TypeError):
        SynthConfig(candidate_cap=2)


def test_tygarq_variant_solves_running_example():
    lib, query = tiny_problem()
    res = synthesize(lib, query, SynthConfig(variant="tygarq",
                                             max_solutions=1))
    assert res.status == "solved"
    assert render_term(res.solutions[0].nf) == \
        "fromMaybe arg0 (listToMaybe (catMaybes arg1))"


def test_variants_agree_on_random_problems():
    import random

    from conftest import CONS3, rand_env, rand_library
    from tygar.frontend import render_surface, surface_term

    rng = random.Random(606)
    compared = 0
    attempts = 0
    while compared < 4 and attempts < 40:
        attempts += 1
        lib = rand_library(rng, rng.randint(2, 4))
        env = rand_env(rng, CONS3, rng.randint(1, 2))
        query = FnType(tuple(env.values()), App("A"))
        sets = {}
        for variant in ("tygar0", "nogar", "tygarqb"):
            res = synthesize(lib, query, SynthConfig(
                variant=variant, max_len=3, max_solutions=50, timeout_s=20))
            if res.reason == "timeout":
                sets = None
                break
            sets[variant] = {
                render_surface(surface_term(s.nf, res.lib, query))
                for s in res.solutions}
        if sets is None or not sets["tygar0"]:
            continue
        compared += 1
        assert sets["tygar0"] == sets["nogar"] == sets["tygarqb"]
    assert compared >= 3


@pytest.mark.parametrize("variant", ["tygar0", "tygarq", "baseline"])
def test_synthesizer_runs_once(variant):
    # a second run would carry on from the first run's iterations, events
    # and cover, and append to the events the first result returned
    lib, query = tiny_problem()
    session = Synthesizer(lib, query, SynthConfig(variant=variant,
                                                  max_solutions=2))
    first = session.run()
    events = list(first.events)
    state = (session.iterations, session.refinements, session.cover,
             session.lib)
    with pytest.raises(RuntimeError, match="runs once"):
        session.run()
    assert first.events == events and first.events is session.events
    assert (session.iterations, session.refinements, session.cover,
            session.lib) == state


def test_synthesizer_that_raised_does_not_run_again(monkeypatch):
    lib, query = tiny_problem()
    session = Synthesizer(lib, query, SynthConfig(variant="baseline"))

    def broken(*args):
        raise ValueError("net construction failed")

    monkeypatch.setattr(synth, "build_atn", broken)
    with pytest.raises(ValueError):
        session.run()
    lib_after = session.lib  # the monomorphised library
    with pytest.raises(RuntimeError, match="runs once"):
        session.run()
    assert session.lib is lib_after and not session.events
