"""Bounded reachability over transition nets.

`PathFinder` iterates path length and, within a length, final places
from most to least precise. It enumerates the valid fire sequences of
each (length, final place) pair in ascending lexicographic order, one
per query, resuming where the previous query stopped, by a depth-first
search over markings in process.

The paper hands this question to an SMT solver instead. `encode` keeps
that formulation: a QF_LIA script with one integer `tok_<pid>_<k>` per
place and step and one `fire_<k>` per step, to which `_block` adds a
clause per path already found. A solver returning lexicographically
least models gives the same paths as `PathFinder`. Synthesis never
uses the encoding; tests check it against the search, and the
benchmark's tracer still wraps it. An explicit-state enumerator,
`bfs_oracle`, is the search's test oracle.
"""

from __future__ import annotations

import time
from typing import Iterator, Optional, Sequence

from .atn import TransitionNet, final_place_order
from .types import BaseType


class ReplayError(Exception):
    pass


class StateSpaceCap(Exception):
    pass


class NoPath:
    """Sentinel: reachability exhausted without a valid path."""

    def __repr__(self) -> str:
        return "NoPath"


NO_PATH = NoPath()


def initial_marking(net: TransitionNet) -> tuple:
    return tuple(net.initial.get(p, 0) for p in net.places)


def fire(net: TransitionNet, marking: tuple, ti: int) -> Optional[tuple]:
    """Marking after firing transition index ti, or None if not enabled."""
    t = net.transitions[ti]
    out = list(marking)
    for i, p in enumerate(net.places):
        need = t.input_mult(p)
        if marking[i] < need:
            return None
        out[i] = marking[i] - need + t.output_mult(p)
    return tuple(out)


def is_valid_final(net: TransitionNet, marking: tuple) -> bool:
    """Exactly one token, sitting in a final place."""
    if sum(marking) != 1:
        return False
    i = marking.index(1)
    return net.places[i] in net.finals


def replay(net: TransitionNet, path: Sequence) -> list:
    """Markings along a path from the initial marking; raises on misfire."""
    markings = [initial_marking(net)]
    for ti in path:
        nxt = fire(net, markings[-1], ti)
        if nxt is None:
            raise ReplayError(f"transition {ti} not enabled at step {len(markings) - 1}")
        markings.append(nxt)
    return markings


def incidence(net: TransitionNet) -> list:
    """Per transition, `(pre, touched)` in place-index order: `pre` pairs
    each input place with its multiplicity, `touched` pairs each place
    the transition consumes from or produces to with its token change."""
    pid = {p: i for i, p in enumerate(net.places)}
    out = []
    for t in net.transitions:
        counts: dict = {}
        for p in t.args:
            i = pid[p]
            counts[i] = counts.get(i, 0) + 1
        pre = sorted(counts.items())
        delta = {i: -n for i, n in pre}
        o = pid[t.out]
        delta[o] = delta.get(o, 0) + t.out_mult
        out.append((pre, sorted(delta.items())))
    return out


def envelope(net: TransitionNet) -> Optional[tuple]:
    """Least and greatest change of the token total one firing can make;
    None for a net without transitions."""
    if not net.transitions:
        return None
    deltas = [t.out_mult - len(t.args) for t in net.transitions]
    return min(deltas), max(deltas)


# ---------------------------------------------------------------------------
# SMT encoding: a cross-check of the search, not used by synthesis


def _neq(var: str, val: int) -> str:
    return f"(or (<= {var} {val - 1}) (>= {var} {val + 1}))"


def _block(seq: Sequence) -> str:
    alts = " ".join(_neq(f"fire_{k}", ti + 1) for k, ti in enumerate(seq))
    return f"(assert (or {alts}))"


def encode(net: TransitionNet, length: int, final: BaseType) -> str:
    """Script asserting the valid paths of exactly this length that end
    with one token in `final`; deterministic tok_<pid>_<k> / fire_<k>
    naming. `_block` asserts a path away."""
    places = net.places
    trans = net.transitions
    vectors = incidence(net)
    lines = ["(set-option :produce-models true)", "(set-logic QF_LIA)"]
    for k in range(length):
        lines.append(f"(declare-const fire_{k} Int)")
    for pid in range(len(places)):
        for k in range(length + 1):
            lines.append(f"(declare-const tok_{pid}_{k} Int)")

    # (1) a valid transition is fired at each step
    for k in range(length):
        lines.append(f"(assert (and (<= 1 fire_{k}) (<= fire_{k} {len(trans)})))")

    for k in range(length):
        for ti, (pre, touched) in enumerate(vectors, start=1):
            # (2) fired transitions have sufficiently many input tokens
            if pre:
                conj = " ".join(f"(>= tok_{pid}_{k} {n})" for pid, n in pre)
                body = conj if len(pre) == 1 else f"(and {conj})"
                lines.append(f"(assert (=> (= fire_{k} {ti}) {body}))")
            # (3) fired transitions update incident markings
            if touched:
                parts = []
                for pid, delta in touched:
                    if delta == 0:
                        parts.append(f"(= tok_{pid}_{k + 1} tok_{pid}_{k})")
                    elif delta > 0:
                        parts.append(
                            f"(= tok_{pid}_{k + 1} (+ tok_{pid}_{k} {delta}))")
                    else:
                        parts.append(
                            f"(= tok_{pid}_{k + 1} (- tok_{pid}_{k} {-delta}))")
                body = parts[0] if len(parts) == 1 else f"(and {' '.join(parts)})"
                lines.append(f"(assert (=> (= fire_{k} {ti}) {body}))")

    # (4) markings of untouched places do not change
    incident: list = [[] for _ in places]
    for ti, (_, touched) in enumerate(vectors, start=1):
        for pid, _ in touched:
            incident[pid].append(ti)
    for k in range(length):
        for pid in range(len(places)):
            eq = f"(= tok_{pid}_{k + 1} tok_{pid}_{k})"
            if not incident[pid]:
                lines.append(f"(assert {eq})")
            else:
                prem = " ".join(_neq(f"fire_{k}", ti) for ti in incident[pid])
                prem = prem if len(incident[pid]) == 1 else f"(and {prem})"
                lines.append(f"(assert (=> {prem} {eq}))")

    # (5) the initial marking is I
    for pid, p in enumerate(places):
        lines.append(f"(assert (= tok_{pid}_0 {net.initial.get(p, 0)}))")

    # implied token-count envelope: from the total at step k, the final
    # total of 1 must stay reachable within the remaining steps
    bounds = envelope(net)
    if bounds is not None:
        dmin, dmax = bounds

        def shifted(total: str, c: int) -> str:
            if c == 0:
                return total
            return f"(+ {total} {c})" if c > 0 else f"(- {total} {-c})"

        for k in range(length):
            rem = length - k
            names = " ".join(f"tok_{pid}_{k}" for pid in range(len(places)))
            total = f"(+ {names})" if len(places) > 1 else names
            lines.append(f"(assert (<= {shifted(total, dmin * rem)} 1))")
            lines.append(f"(assert (>= {shifted(total, dmax * rem)} 1))")

    # (6) final marking: one token in the chosen final place
    fid = net.place_id(final)
    for pid in range(len(places)):
        want = 1 if pid == fid else 0
        lines.append(f"(assert (= tok_{pid}_{length} {want}))")

    return "\n".join(lines) + "\n"


def decode_model(values: dict, length: int) -> tuple:
    """Fire-variable assignment to a path of 0-based transition indices."""
    return tuple(values[f"fire_{k}"] - 1 for k in range(length))


# Search expansions between two deadline checks.
DEADLINE_STRIDE = 64


class PathFinder:
    """Iterative-deepening search that resumes where it stopped.

    Each (length, final place) pair is a stream of its valid paths in
    ascending lexicographic order, and `next_path` takes the next path
    from the current pair's stream, moving on to the next pair when it
    runs out. A stream is a depth-first search that tries fire indices
    in ascending order and continues after the last path it yielded; a
    (marking, steps left) state whose whole subtree holds no path is
    memoised as dead for the pair. These are the paths, in order, that
    a solver returning lexicographically least models of `encode` gives.

    An error inside a stream, a `TimeoutError` say, ends the stream
    unfinished, so the finder raises that error again on every query
    until the next `reset`.
    """

    def __init__(self, max_len: int):
        self.max_len = max_len
        self.expanded = 0  # search states expanded, all calls
        self._net: Optional[TransitionNet] = None
        self._paths: Optional[Iterator] = None
        self._failure: Optional[Exception] = None
        self._deadline: Optional[float] = None

    def reset(self, net: TransitionNet) -> None:
        self._net = net
        self._paths = self._walk(net, final_place_order(net))
        self._failure = None

    def next_path(self, deadline: Optional[float] = None):
        if self._net is None:
            raise ValueError("PathFinder.reset was never called")
        if self._failure is not None:
            raise self._failure
        self._deadline = deadline
        try:
            path = next(self._paths, NO_PATH)
        except Exception as e:
            self._failure = e
            raise
        if path is not NO_PATH:
            replay(self._net, path)  # returned paths must replay cleanly
        return path

    def _past_deadline(self) -> bool:
        return self._deadline is not None and time.monotonic() > self._deadline

    def _walk(self, net: TransitionNet, finals: list) -> Iterator:
        """Every pair's stream in turn."""
        # per-transition (pre, nonzero delta, token-total change), built
        # on the first query so the search is charged for it
        moves = [
            (tuple(pre), tuple((i, d) for i, d in touched if d),
             t.out_mult - len(t.args))
            for (pre, touched), t in zip(incidence(net), net.transitions)]
        bounds = envelope(net)
        for length in range(self.max_len + 1):
            for final in finals:
                if self._past_deadline():
                    raise TimeoutError("reachability deadline exceeded")
                yield from self._search(length, net.place_id(final),
                                        moves, bounds)

    def _search(self, length: int, fid: int, moves: list,
                bounds: Optional[tuple]) -> Iterator:
        """The paths at this pair in ascending order. Markings are
        pruned by the token-count envelope."""
        start = initial_marking(self._net)
        target = tuple(int(i == fid) for i in range(len(start)))
        if length == 0:
            if start == target:
                yield ()
            return
        if bounds is None:
            return
        dmin, dmax = bounds
        dead: set = set()
        path: list = []

        def rec(marking: tuple, total: int, rem: int) -> Iterator:
            if rem == 0:
                if marking == target:
                    yield tuple(path)
                return
            if (marking, rem) in dead:
                return
            self.expanded += 1
            if self.expanded % DEADLINE_STRIDE == 0 and self._past_deadline():
                raise TimeoutError("reachability deadline exceeded")
            found = False
            lo, hi = 1 - dmax * (rem - 1), 1 - dmin * (rem - 1)
            for ti, (pre, delta, dtotal) in enumerate(moves):
                after = total + dtotal
                if after < lo or after > hi:
                    continue
                for i, n in pre:
                    if marking[i] < n:
                        break
                else:
                    nxt = list(marking)
                    for i, d in delta:
                        nxt[i] += d
                    path.append(ti)
                    for found_path in rec(tuple(nxt), after, rem - 1):
                        found = True
                        yield found_path
                    path.pop()
            if not found:
                dead.add((marking, rem))

        total = sum(start)
        try:
            if 1 - dmax * length <= total <= 1 - dmin * length:
                yield from rec(start, total, length)
        finally:
            # `rec` reaches itself through its closure: break that cycle
            # so the memo and `moves` go when the stream ends or is
            # dropped, not at the next cyclic collection
            del rec


def bfs_oracle(net: TransitionNet, max_len: int, state_cap: int = 200_000) -> list:
    """All valid paths up to max_len by explicit-state search.

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
