"""Acceptance suite: one criterion per test, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import itertools
import random
import time

from tygar.atn import build_atn, refine_atn
from tygar.frontend import (
    load_library,
    prepare_problem,
    render_surface,
    solution_matches,
    surface_term,
)
from tygar.lattice import (
    CONCRETE,
    AbstractCover,
    close_under_meet,
    meet,
    refines,
    subsumes,
)
from tygar.pathgen import from_path
from tygar.synth import SynthConfig, refine, synthesize
from tygar.typecheck import check, infer
from tygar.types import (
    App,
    FnType,
    NormalForm,
    canonical,
    render_term,
    term_size,
)

from conftest import (
    CONS3,
    DeclarativeOracle,
    FIXTURES,
    bfs_oracle,
    enumerate_terms,
    ground_universe,
    rand_base,
    rand_env,
    rand_ground,
    rand_library,
    rand_net,
    smt_paths_at,
)


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


def run_fixture(sig: str, query: str, **cfg):
    lib = load_library([FIXTURES / sig])
    session, frozen = prepare_problem(lib, query)
    result = synthesize(session, frozen, SynthConfig(**cfg))
    return session, frozen, result


def test_criterion_1_running_example_trace():
    start = time.monotonic()
    session, frozen, result = run_fixture(
        "tiny.sig", "a -> [Maybe a] -> a",
        variant="tygar0", max_solutions=1, timeout_s=30)
    elapsed = time.monotonic() - start
    iters = [e for e in result.events if e["kind"] == "iteration"]
    refinements = [e for e in result.events if e["kind"] == "refine"]
    ok = (
        result.status == "solved"
        and len(iters) == 3
        and set(iters[0]["candidates"]) ==
        {"fromMaybe arg0 arg1", "fromMaybe arg1 arg0"}
        and iters[1]["candidates"] == ["fromMaybe arg0 (listToMaybe arg1)"]
        and iters[2]["candidates"] ==
        ["fromMaybe arg0 (listToMaybe (catMaybes arg1))"]
        and iters[2]["verdict"] == "solution"
        and set(refinements[1]["added"]) ==
        {"Maybe (Maybe t0)", "List (Maybe t0)"}
        and elapsed < 5.0
    )
    report("1 (running example, 3 iterations)", ok,
           f"{elapsed:.2f} s, iterations {len(iters)}")


def test_criterion_2_unsatisfiable_example():
    start = time.monotonic()
    session, frozen, result = run_fixture(
        "unsat.sig", "Z", variant="tygar0", max_solutions=1, timeout_s=30)
    elapsed = time.monotonic() - start
    refinements = [e for e in result.events if e["kind"] == "refine"]
    ok = (
        result.status == "no_solution"
        and len(refinements) == 2
        and refinements[0]["added"] == ["B t0 t1"]
        and refinements[1]["added"] == ["B t0 t0"]
        and elapsed < 5.0
    )
    report("2 (unsatisfiable, 2 refinements)", ok,
           f"{elapsed:.2f} s, trace {[e['added'] for e in refinements]}")


def test_criterion_3_pcp_instance():
    start = time.monotonic()
    session, frozen, result = run_fixture(
        "pcp.sig", "Start -> Goal", max_solutions=1, max_len=6, timeout_s=30)
    elapsed = time.monotonic() - start
    terms = [render_term(s.nf) for s in result.solutions]
    ok = (result.status == "solved"
          and terms == ["f (n3 (n2 (n3 (s1 arg0))))"]
          and elapsed < 30.0)
    report("3 (word-correspondence instance)", ok,
           f"{elapsed:.2f} s, {terms}")


def test_criterion_4_curated_spot_checks():
    start = time.monotonic()
    session, frozen, result = run_fixture(
        "curated.sig", "Eq a => [(a,b)] -> a -> b",
        max_solutions=5, timeout_s=30)
    elapsed_a = time.monotonic() - start
    rank1 = result.solutions[0] if result.solutions else None
    ok_a = (rank1 is not None and rank1.rank == 1 and elapsed_a < 30.0
            and solution_matches(rank1.nf, "fromJust (lookup arg0 arg1)",
                                 session, frozen))

    start = time.monotonic()
    session2, frozen2, result2 = run_fixture(
        "curated.sig", "(a -> b) -> [a] -> b", max_solutions=5, timeout_s=30)
    elapsed_b = time.monotonic() - start
    top5 = [s.nf for s in result2.solutions[:5]]
    ok_b = (elapsed_b < 30.0
            and any(solution_matches(nf, "arg1 (head arg0)", session2, frozen2)
                    for nf in top5))
    report("4 (curated-library spot checks)", ok_a and ok_b,
           f"lookup {elapsed_a:.2f} s rank-1; apply-head {elapsed_b:.2f} s in "
           f"top {len(top5)}")


def test_criterion_5a_lattice_laws_at_scale():
    rng = random.Random(2024)
    pairs = 0
    covers = [close_under_meet(rand_base(rng, CONS3, 2)
                               for _ in range(rng.randint(0, 4)))
              for _ in range(40)]
    while pairs < 10_000:
        a = canonical(rand_base(rng, CONS3, 2))
        b = canonical(rand_base(rng, CONS3, 2))
        pairs += 1
        m = meet(a, b)
        assert subsumes(m, a) and subsumes(m, b)
        assert canonical(meet(b, a)) == m  # commutative up to renaming
        assert subsumes(a, a)
        if subsumes(a, b) and subsumes(b, a):
            assert a == b
        cov = covers[pairs % len(covers)]
        aa = cov.abstract(a)
        assert subsumes(a, aa)
        assert cov.abstract(aa) == aa  # members map to themselves
        # monotone refinement of the abstraction
        fine = covers[(pairs + 1) % len(covers)]
        if refines(fine, cov):
            assert subsumes(fine.abstract(a), cov.abstract(a))
    report("5a (lattice laws, 10^4 pairs)", True, f"{pairs} pairs")


def _oracle_library(rng: random.Random):
    """Random library whose size-3 term enumeration stays exhaustive and
    whose typing witnesses live in the depth-2 ground universe."""
    while True:
        lib = rand_library(rng, rng.randint(3, 5))
        arities = [len(p.body.params) for p in lib.components.values()]
        if sum(a == 2 for a in arities) > 1:
            continue
        env = rand_env(rng, CONS3, 2)
        terms = enumerate_terms(lib, env, 3)
        if len(terms) <= 2500:
            return lib, env, terms


def _depth(t) -> int:
    if not isinstance(t, App) or not t.args:
        return 0
    return 1 + max(_depth(a) for a in t.args)


def test_criterion_5bc_oracle_equivalence_and_preservation():
    rng = random.Random(311)
    universe = ground_universe(CONS3, 2)
    # query returns of depth <= 1: deeper returns can require typing
    # witnesses outside the oracle's depth-2 instantiation universe
    ret_pool = [t for t in universe if _depth(t) <= 1]
    libs = 0
    terms_checked = 0
    while libs < 20:
        lib, env, terms = _oracle_library(rng)
        libs += 1
        params = tuple(env)
        param_types = tuple(env[x] for x in params)
        oracle = DeclarativeOracle(lib, env, universe)
        base = [rand_base(rng, CONS3, 2) for _ in range(2)]
        coarse = close_under_meet(base)
        fine = close_under_meet(base + [rand_base(rng, CONS3, 2)])
        for term in terms:
            terms_checked += 1
            inferred = infer(lib, env, CONCRETE, term)
            possible = oracle.possible(term)
            for ret in ret_pool:
                t = FnType(param_types, ret)
                nf = NormalForm(params, term)
                concrete = subsumes(ret, inferred)
                assert concrete == (ret in possible), \
                    f"oracle disagrees on {render_term(nf)} : {ret}"
                # 5c on the same enumeration
                if check(lib, fine, nf, t):
                    assert check(lib, coarse, nf, t)
                if concrete:
                    assert check(lib, fine, nf, t)
                    assert check(lib, coarse, nf, t)
    report("5b/5c (oracle equivalence + preservation)", True,
           f"{libs} libraries, {terms_checked} terms")


def test_criterion_5d_smt_bfs_agreement(solver):
    rng = random.Random(1234)
    nets = 0
    while nets < 200:
        net = rand_net(rng)
        nets += 1
        by_len = {}
        for p in bfs_oracle(net, 4, state_cap=100_000):
            by_len.setdefault(len(p), set()).add(p)
        for length in range(5):
            got = smt_paths_at(net, length, solver)
            assert got == by_len.get(length, set()), \
                f"net {nets} length {length}: {got} vs {by_len.get(length)}"
    report("5d (SMT/BFS path agreement)", True, f"{nets} nets")


def _required_path_len(term, params) -> int:
    from tygar.types import TermApp, TermVar
    uses = {p: 0 for p in params}

    def walk(t):
        if isinstance(t, TermVar):
            uses[t.name] += 1
        else:
            for a in t.args:
                walk(a)

    walk(term)
    if any(n == 0 for n in uses.values()):
        return -1  # not relevant: no path can produce it
    return term_size(term) + sum(n - 1 for n in uses.values())


def test_criterion_5e_atn_soundness_completeness():
    rng = random.Random(777)
    nets_done = 0
    while nets_done < 10:
        lib = rand_library(rng, rng.randint(2, 4))
        base_env = rand_env(rng, CONS3, rng.randint(1, 2))
        env = {f"arg{i}": t for i, t in enumerate(base_env.values())}
        query = FnType(tuple(env.values()),
                       rand_ground(rng, CONS3, 1) if rng.random() < 0.3
                       else App("A"))
        cover = close_under_meet(
            rand_base(rng, CONS3, 2) for _ in range(rng.randint(0, 2)))
        net = build_atn(lib, query, cover)
        try:
            paths = bfs_oracle(net, 5, state_cap=30_000)
        except Exception:
            continue
        if len(paths) > 800:
            continue
        per_path = []
        oversized = False
        for path in paths:
            programs = [nf for nf, _ in itertools.islice(
                from_path(lib, net, path), 3001)]
            if len(programs) > 3000:
                oversized = True
                break
            per_path.append(programs)
        if oversized:
            continue
        nets_done += 1
        reachable_bodies = set()
        for path, programs in zip(paths, per_path):
            # soundness: some program on every valid path checks abstractly
            if len(path) <= 4:
                assert any(check(lib, cover, nf, query) for nf in programs)
            reachable_bodies.update(nf.body for nf in programs)
        # completeness: every relevant abstractly-typed small term appears
        params = tuple(env)
        for term in enumerate_terms(lib, env, 3):
            need = _required_path_len(term, params)
            if need < 0 or need > 5:
                continue
            nf = NormalForm(params, term)
            if check(lib, cover, nf, query):
                assert term in reachable_bodies, \
                    f"missing {render_term(nf)} (needs length {need})"
    report("5e (ATN soundness + completeness)", True, f"{nets_done} nets")


def test_criterion_5f_refine_contract(validated):
    rng = random.Random(4242)
    refined = 0
    problems = 0
    while refined < 100:
        problems += 1
        lib = rand_library(rng, rng.randint(2, 4))
        env = rand_env(rng, CONS3, rng.randint(1, 2))
        query = FnType(tuple(env.values()), App("A"))
        cover = AbstractCover([])
        for _round in range(6):
            net = build_atn(lib, query, cover)
            try:
                paths = bfs_oracle(net, 3, state_cap=20_000)
            except Exception:
                break
            spurious = None
            for path in sorted(paths, key=len)[:50]:
                for nf, _ in itertools.islice(
                        from_path(lib, net, path), 50):
                    if check(lib, cover, nf, query) and \
                            not check(lib, CONCRETE, nf, query):
                        spurious = nf
                        break
                if spurious:
                    break
            if spurious is None:
                break
            new_cover = refine(cover, spurious, query, lib)
            assert refines(new_cover, cover) and new_cover != cover
            assert not check(lib, new_cover, spurious, query)
            refined += 1
            cover = new_cover
    report("5f (refine contract)", refined >= 100,
           f"{refined} spurious candidates over {problems} problems")


def test_criterion_5g_incremental_equals_scratch():
    rng = random.Random(9090)
    done = 0
    while done < 20:
        lib = rand_library(rng, rng.randint(2, 5))
        env = rand_env(rng, CONS3, rng.randint(1, 2))
        query = FnType(tuple(env.values()), App("A"))
        cover = close_under_meet(
            rand_base(rng, CONS3, 2) for _ in range(rng.randint(0, 3)))
        added = canonical(rand_base(rng, CONS3, 2))
        if added in cover.members:
            continue
        bigger = close_under_meet(list(cover.members) + [added])
        if set(bigger.members) != set(cover.members) | {added}:
            continue
        net = build_atn(lib, query, cover)
        incremental = refine_atn(net, lib, bigger)
        scratch = build_atn(lib, query, bigger)

        def groups(n):
            return {(t.args, t.out): frozenset(t.members)
                    for t in n.transitions if not t.is_copy}

        assert groups(incremental) == groups(scratch)
        assert incremental.initial == scratch.initial
        assert incremental.finals == scratch.finals
        done += 1
    report("5g (incremental net equivalence)", True, f"{done} steps")


def _solution_set(sig: str, query: str, variant: str, max_len: int):
    session, frozen, result = run_fixture(
        sig, query, variant=variant, max_solutions=5,
        max_len=max_len, timeout_s=30)
    return {render_surface(surface_term(s.nf, result.lib, frozen))
            for s in result.solutions}


def test_criterion_6_variant_sanity():
    cases = [
        ("tiny.sig", "a -> [Maybe a] -> a", 6),
        ("curated.sig", "Eq a => [(a,b)] -> a -> b", 2),
        ("curated.sig", "(a -> b) -> [a] -> b", 2),
    ]
    agree = True
    details = []
    for sig, query, max_len in cases:
        sets = {v: _solution_set(sig, query, v, max_len)
                for v in ("tygar0", "nogar", "tygarqb")}
        same = sets["tygar0"] == sets["nogar"] == sets["tygarqb"]
        agree = agree and same and bool(sets["tygar0"])
        details.append(f"{query!r}: {len(sets['tygar0'])} solutions, "
                       f"agree={same}")

    # baseline solves the tiny fixture and diagnoses the curated one
    _, _, tiny = run_fixture("tiny.sig", "a -> [Maybe a] -> a",
                             variant="baseline", max_solutions=1, timeout_s=60)
    _, _, big = run_fixture("curated.sig", "Eq a => [(a,b)] -> a -> b",
                            variant="baseline", max_solutions=1, timeout_s=60)
    baseline_ok = (tiny.status == "solved"
                   and big.status == "exhausted"
                   and "budget" in big.reason or "exceeded" in big.reason)
    report("6 (variant sanity)", agree and baseline_ok,
           "; ".join(details) + f"; baseline tiny={tiny.status}, "
           f"curated={big.reason}")
