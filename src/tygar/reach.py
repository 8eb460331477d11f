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
benchmark's tracer still wraps it. The search's test oracle, an
explicit-state enumerator, is `bfs_oracle` in the tests' conftest.
"""

from __future__ import annotations

import time
from typing import Iterator, Optional, Sequence

from .atn import DEADLINE_STRIDE, Transition, TransitionNet, final_place_order
from .types import BaseType


class ReplayError(Exception):
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


def replay(net: TransitionNet, path: Sequence) -> list:
    """Markings along a path from the initial marking; raises on misfire."""
    markings = [initial_marking(net)]
    for ti in path:
        nxt = fire(net, markings[-1], ti)
        if nxt is None:
            raise ReplayError(f"transition {ti} not enabled at step {len(markings) - 1}")
        markings.append(nxt)
    return markings


def _row(t: Transition, pid: dict) -> tuple:
    """`(pre, touched)` of one transition under the place numbering
    `pid`, in index order: `pre` pairs each input place with its
    multiplicity, `touched` pairs each place the transition consumes
    from or produces to with its token change."""
    counts: dict = {}
    for p in t.args:
        i = pid[p]
        counts[i] = counts.get(i, 0) + 1
    pre = sorted(counts.items())
    delta = {i: -n for i, n in pre}
    o = pid[t.out]
    delta[o] = delta.get(o, 0) + t.out_mult
    return pre, sorted(delta.items())


def incidence(net: TransitionNet) -> list:
    """Per transition, its `_row` with places numbered as in
    `net.places`."""
    pid = {p: i for i, p in enumerate(net.places)}
    return [_row(t, pid) for t in net.transitions]


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
    fid = net.places.index(final)
    for pid in range(len(places)):
        want = 1 if pid == fid else 0
        lines.append(f"(assert (= tok_{pid}_{length} {want}))")

    return "\n".join(lines) + "\n"


def decode_model(values: dict, length: int) -> tuple:
    """Fire-variable assignment to a path of 0-based transition indices."""
    return tuple(values[f"fire_{k}"] - 1 for k in range(length))


class _Budget:
    """What a finder's stream reads and counts: the current query's
    deadline and the states expanded so far. A stream holds this record,
    never its finder, so a finder dropped with its stream suspended is
    freed at once, with its last net."""

    __slots__ = ("deadline", "expanded")

    def __init__(self):
        self.deadline: Optional[float] = None
        self.expanded = 0

    def past_deadline(self) -> bool:
        return self.deadline is not None and time.monotonic() > self.deadline


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

    Search rows carry over from one net to the next. The finder numbers
    places in the order it first meets them and keeps one row (`_row`
    of a transition under that numbering) per `(args, out, out_mult)`
    of the current net's transitions, all a row depends on. A net that
    has every numbered place, as a refined net does, keeps the
    numbering and numbers its new places after them, so a transition
    gets a new row only if no transition of the previous net had its
    inputs, output and output multiplicity. A net that lacks a numbered
    place starts the numbering and the rows afresh. Rows are built on
    the first query after a `reset`, so the search is charged for them.

    An error inside a stream, a `TimeoutError` say, ends the stream
    unfinished, so the finder raises that error again on every query
    until the next `reset`.
    """

    def __init__(self, max_len: int):
        self.max_len = max_len
        self._budget = _Budget()
        self._net: Optional[TransitionNet] = None
        self._paths: Optional[Iterator] = None  # made on the first query
        self._failure: Optional[Exception] = None
        self._pid: dict = {}  # place -> its index in the search's markings
        self._rows: dict = {}  # (args, out, out_mult) -> search row

    @property
    def expanded(self) -> int:
        """Search states expanded, all calls."""
        return self._budget.expanded

    def reset(self, net: TransitionNet) -> None:
        self._net = net
        self._paths = None
        self._failure = None

    def next_path(self, deadline: Optional[float] = None):
        if self._net is None:
            raise ValueError("PathFinder.reset was never called")
        if self._failure is not None:
            raise self._failure
        self._budget.deadline = deadline
        try:
            if self._paths is None:
                self._paths = _walk(self._budget, self._net,
                                    self._moves(self._net), self._pid,
                                    self.max_len)
            path = next(self._paths, NO_PATH)
        except Exception as e:
            self._failure = e
            raise
        if path is not NO_PATH:
            replay(self._net, path)  # returned paths must replay cleanly
        return path

    def _moves(self, net: TransitionNet) -> list:
        """Per transition of `net`, in order, its search row: (pre,
        nonzero delta, token-total change) under the finder's place
        numbering, which this call extends or restarts for `net`."""
        pid = self._pid
        if not set(net.places).issuperset(pid):
            pid = self._pid = {}
            self._rows = {}
        for p in net.places:
            if p not in pid:
                pid[p] = len(pid)
        old, rows, moves = self._rows, {}, []
        for t in net.transitions:
            key = (t.args, t.out, t.out_mult)
            row = old.get(key)
            if row is None:
                pre, touched = _row(t, pid)
                nonzero = tuple((i, d) for i, d in touched if d)
                row = (tuple(pre), nonzero, t.out_mult - len(t.args))
            rows[key] = row
            moves.append(row)
        self._rows = rows
        return moves


def _walk(budget: _Budget, net: TransitionNet, moves: list, pid: dict,
          max_len: int) -> Iterator:
    """Every pair's stream in turn, over `moves`, the rows of `net`'s
    transitions under the place numbering `pid`."""
    bounds = envelope(net)
    start = tuple(net.initial.get(p, 0) for p in pid)
    finals = final_place_order(net)
    for length in range(max_len + 1):
        for final in finals:
            if budget.past_deadline():
                raise TimeoutError("reachability deadline exceeded")
            yield from _search(budget, length, pid[final], start, moves,
                               bounds)


def _search(budget: _Budget, length: int, fid: int, start: tuple,
            moves: list, bounds: Optional[tuple]) -> Iterator:
    """The paths at this pair in ascending order, from the marking
    `start` to one token on place index `fid`. Markings are pruned by
    the token-count envelope."""
    target = tuple(int(i == fid) for i in range(len(start)))
    if length == 0:
        if start == target:
            yield ()
        return
    if bounds is None:
        return
    dmin, dmax = bounds
    total = sum(start)
    if 1 - dmax * length <= total <= 1 - dmin * length:
        yield from _dfs(budget, moves, target, dmin, dmax, set(), [],
                        start, total, length)


def _dfs(budget: _Budget, moves: list, target: tuple, dmin: int, dmax: int,
         dead: set, path: list, marking: tuple, total: int,
         rem: int) -> Iterator:
    """`_search` below the fire indices in `path`, at `marking` with
    `total` tokens and `rem` steps left. `dead` holds the (marking,
    steps left) states found to have no path below them."""
    if rem == 0:
        if marking == target:
            yield tuple(path)
        return
    if (marking, rem) in dead:
        return
    budget.expanded += 1
    if budget.expanded % DEADLINE_STRIDE == 0 and budget.past_deadline():
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
            for found_path in _dfs(budget, moves, target, dmin, dmax, dead,
                                   path, tuple(nxt), after, rem - 1):
                found = True
                yield found_path
            path.pop()
    if not found:
        dead.add((marking, rem))

