import subprocess
import sys

import pytest

from tygar.minismt import MiniSmt, _parse_all, _take_sexpr, _tokenize
from tygar.smt import SolverClient


def run_script(lines: str) -> MiniSmt:
    s = MiniSmt()
    for expr in _parse_all(_tokenize(lines)):
        s.command(expr)
    return s


def check(s: MiniSmt) -> str:
    return s.command(["check-sat"])


def test_simple_sat_unsat():
    s = run_script("(declare-const x Int) (assert (<= 1 x)) (assert (<= x 3))"
                   "(assert (= x 2))")
    assert check(s) == "sat"
    s.command(_parse_all(_tokenize("(assert (= x 3))"))[0])
    assert check(s) == "unsat"


def test_implication_propagation():
    s = run_script("""
      (declare-const f Int) (declare-const t Int)
      (assert (and (<= 1 f) (<= f 2)))
      (assert (=> (= f 1) (= t 5)))
      (assert (=> (= f 2) (= t 7)))
      (assert (>= t 6))
    """)
    assert check(s) == "sat"
    assert s.model["f"] == 2 and s.model["t"] == 7


def test_neq_guard_pattern():
    # (or (<= v 1) (>= v 3)) encodes v != 2
    s = run_script("""
      (declare-const v Int)
      (assert (and (<= 1 v) (<= v 3)))
      (assert (or (<= v 1) (>= v 3)))
      (assert (or (<= v 0) (>= v 2)))
      (assert (or (<= v 2) (>= v 4)))
    """)
    assert check(s) == "unsat"


def test_arithmetic_forms():
    s = run_script("""
      (declare-const a Int) (declare-const b Int)
      (assert (= a 3))
      (assert (= b (- (+ a 4) 5)))
    """)
    assert check(s) == "sat"
    assert s.model["b"] == 2


def test_lexicographically_minimal_model():
    s = run_script("""
      (declare-const x Int) (declare-const y Int)
      (assert (and (<= 1 x) (<= x 3)))
      (assert (and (<= 1 y) (<= y 3)))
      (assert (>= (+ x y) 4))
    """)
    assert check(s) == "sat"
    assert (s.model["x"], s.model["y"]) == (1, 3)


def test_reset_clears_state():
    s = run_script("(declare-const x Int) (assert (= x 1)) (assert (= x 2))")
    assert check(s) == "unsat"
    s.command(["reset"])
    s.command(["declare-const", "x", "Int"])
    s.command(["assert", ["=", "x", 4]])
    assert check(s) == "sat"


def test_get_value_formats_negative():
    s = run_script("(declare-const x Int) (assert (= x (- 0 7)))")
    assert check(s) == "sat"
    reply = s.command(["get-value", ["x"]])
    assert reply == "((x (- 7)))"


def test_unknown_on_unbounded_search_var():
    s = run_script("(declare-const x Int) (declare-const y Int)"
                   "(assert (<= (+ x y) 3))")
    assert check(s) == "unknown"


def test_take_sexpr_incremental():
    expr, rest = _take_sexpr("(check-sat) (reset")
    assert expr == "(check-sat)" and rest == " (reset"
    expr, rest = _take_sexpr(rest + ")")
    assert expr == "(reset)" and rest == ""
    assert _take_sexpr("  ") == (None, "  ")


def test_subprocess_protocol_end_to_end():
    proc = subprocess.Popen([sys.executable, "-m", "tygar.minismt"],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True)
    out, _ = proc.communicate(
        "(set-logic QF_LIA)\n(declare-const x Int)\n"
        "(assert (and (<= 1 x) (<= x 9)))\n(assert (>= x 4))\n"
        "(check-sat)\n(get-value (x))\n(exit)\n", timeout=30)
    assert out.splitlines() == ["sat", "((x 4))"]


def test_client_roundtrip_unknown_is_error():
    from tygar.smt import SolverError
    with SolverClient() as client:
        client.send("(declare-const x Int) (declare-const y Int)")
        client.send("(assert (<= (+ x y) 3))")
        with pytest.raises(SolverError, match="unknown"):
            client.check_sat()


def test_closed_client_closes_its_pipes():
    with SolverClient() as client:
        client.send("(declare-const x Int) (assert (= x 2))")
        assert client.check_sat()
    assert client.proc.stdin.closed and client.proc.stdout.closed


def test_solver_stderr_is_in_the_error():
    # a solver that dies at once: its last words are in the error, cut
    # to the end of a long stderr
    from tygar.smt import STDERR_TAIL, SolverError
    script = ("import sys; sys.stderr.write('noise ' * 1000 + "
              "'ModuleNotFoundError: no module named tygar\\n'); sys.exit(3)")
    client = SolverClient([sys.executable, "-c", script])
    try:
        with pytest.raises(SolverError) as exc:
            client.send("(declare-const x Int)")
            client.check_sat()
    finally:
        client.close()
    message = str(exc.value)
    assert "ModuleNotFoundError: no module named tygar" in message
    tail = message.split("solver stderr ends with:\n", 1)[1]
    assert "noise" in tail and len(tail.encode()) <= STDERR_TAIL
    assert len(message) < 2300


def _eval_expr(e, env):
    if isinstance(e, int):
        return e
    if isinstance(e, str):
        if e == "true":
            return True
        if e == "false":
            return False
        return env[e]
    op = e[0]
    if op == "and":
        return all(_eval_expr(x, env) for x in e[1:])
    if op == "or":
        return any(_eval_expr(x, env) for x in e[1:])
    if op == "not":
        return not _eval_expr(e[1], env)
    if op == "=>":
        return (not _eval_expr(e[1], env)) or _eval_expr(e[2], env)
    vals = [_eval_expr(x, env) for x in e[1:]]
    if op == "+":
        return sum(vals)
    if op == "-":
        return -vals[0] if len(vals) == 1 else vals[0] - sum(vals[1:])
    if op == "*":
        out = 1
        for v in vals:
            out *= v
        return out
    return {"=": vals[0] == vals[1], "distinct": vals[0] != vals[1],
            "<=": vals[0] <= vals[1], ">=": vals[0] >= vals[1],
            "<": vals[0] < vals[1], ">": vals[0] > vals[1]}[op]


def test_differential_against_brute_force():
    import itertools
    import random

    rng = random.Random(31337)

    def rand_term(names, depth):
        r = rng.random()
        if depth <= 0 or r < 0.4:
            return rng.choice(names) if rng.random() < 0.7 \
                else rng.randint(-3, 3)
        op = rng.choice(["+", "-", "*"])
        if op == "*":
            return ["*", rng.randint(-2, 2), rand_term(names, depth - 1)]
        return [op, rand_term(names, depth - 1), rand_term(names, depth - 1)]

    def rand_formula(names, depth):
        r = rng.random()
        if depth <= 0 or r < 0.45:
            op = rng.choice(["=", "<=", ">=", "<", ">", "distinct"])
            return [op, rand_term(names, 1), rand_term(names, 1)]
        op = rng.choice(["and", "or", "not", "=>"])
        if op == "not":
            return ["not", rand_formula(names, depth - 1)]
        if op == "=>":
            return ["=>", rand_formula(names, depth - 1),
                    rand_formula(names, depth - 1)]
        return [op] + [rand_formula(names, depth - 1)
                       for _ in range(rng.randint(2, 3))]

    for _ in range(300):
        n = rng.randint(2, 3)
        names = [f"v{i}" for i in range(n)]
        s = MiniSmt()
        for v in names:
            s.declare(v)
            s.add_assert(["and", ["<=", 0, v], ["<=", v, 3]])
        formulas = [rand_formula(names, rng.randint(1, 3))
                    for _ in range(rng.randint(1, 4))]
        for f in formulas:
            s.add_assert(f)
        answer = s.command(["check-sat"])
        box = list(itertools.product(range(4), repeat=n))
        truth = any(
            all(_eval_expr(f, dict(zip(names, vals))) for f in formulas)
            for vals in box)
        assert answer == ("sat" if truth else "unsat"), (formulas, answer)
        if answer == "sat":
            env = {v: s.model[v] for v in names}
            assert all(_eval_expr(f, env) for f in formulas)
            assert all(0 <= env[v] <= 3 for v in names)
