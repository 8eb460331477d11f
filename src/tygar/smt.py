"""SMT-LIB 2 text-protocol client over a solver subprocess.

The client emits a QF_LIA subset (`declare-const ... Int`, `assert` with
and/or/=>/=/<=/>=/+/-, `check-sat`, `get-value`) and parses `sat`,
`unsat`, `unknown` and s-expression value bindings. Any compliant solver
works. `unknown` is a solver error.

Synthesis starts no solver: `reach.PathFinder` searches in process.
This client stays for tests that check `reach.encode` against that
search, with the bundled `minismt`, and for the benchmark, which runs
`minismt` once before timing and whose tracer wraps this class.
"""

from __future__ import annotations

import os
import shlex
import subprocess
import sys
import tempfile
from typing import Sequence, Union


class SolverError(Exception):
    """Solver-process failure: spawn, protocol, or unknown result."""


# Bytes of the child's stderr quoted in a SolverError.
STDERR_TAIL = 2048


class SolverClient:
    """One solver subprocess; queries are separated by (reset). `cmd`
    None starts the bundled solver."""

    def __init__(self, cmd: Union[str, Sequence, None] = None):
        if cmd is None:
            cmd = [sys.executable, "-m", "tygar.minismt"]
        self.cmd = shlex.split(cmd) if isinstance(cmd, str) else list(cmd)
        # the child's stderr goes to a file, quoted when the child fails
        self._stderr = tempfile.TemporaryFile()
        try:
            self.proc = subprocess.Popen(
                self.cmd,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=self._stderr,
                text=True,
            )
        except OSError as e:
            self._stderr.close()
            raise SolverError(f"cannot spawn solver {self.cmd!r}: {e}") from e

    def _failure(self, message: str) -> SolverError:
        """A SolverError carrying the end of the child's stderr."""
        try:
            self.proc.wait(timeout=1)  # let a dying child finish writing
        except subprocess.TimeoutExpired:
            pass
        self._stderr.seek(0, os.SEEK_END)
        self._stderr.seek(max(0, self._stderr.tell() - STDERR_TAIL))
        tail = self._stderr.read().decode(errors="replace").strip()
        if tail:
            message += f"; solver stderr ends with:\n{tail}"
        return SolverError(message)

    def _write(self, text: str) -> None:
        if self.proc.poll() is not None:
            raise self._failure("solver process exited unexpectedly")
        try:
            self.proc.stdin.write(text)
            self.proc.stdin.flush()
        except (BrokenPipeError, OSError) as e:
            raise self._failure(f"solver pipe failure: {e}") from e

    def _read_line(self) -> str:
        line = self.proc.stdout.readline()
        if line == "":
            raise self._failure("solver closed its output stream")
        return line.strip()

    def _read_sexpr(self) -> str:
        """Read lines until parentheses balance (one response expression)."""
        buf = []
        depth = 0
        while True:
            line = self._read_line()
            buf.append(line)
            depth += line.count("(") - line.count(")")
            if depth <= 0 and buf:
                return " ".join(buf)

    def send(self, script: str) -> None:
        self._write(script if script.endswith("\n") else script + "\n")

    def reset(self) -> None:
        self._write("(reset)\n")

    def check_sat(self) -> bool:
        self._write("(check-sat)\n")
        answer = self._read_line()
        if answer == "sat":
            return True
        if answer == "unsat":
            return False
        raise SolverError(f"solver answered {answer!r}")

    def get_values(self, names: Sequence) -> dict:
        if not names:
            return {}
        self._write(f"(get-value ({' '.join(names)}))\n")
        reply = self._read_sexpr()
        return _parse_values(reply)

    def close(self) -> None:
        try:
            self._write("(exit)\n")
        except SolverError:
            pass
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        self.proc.wait(timeout=5)
        self.proc.stdout.close()
        self._stderr.close()

    def __enter__(self) -> "SolverClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _tokenize_sexpr(text: str) -> list:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _parse_values(text: str) -> dict:
    """Parse `((name val) ...)`; values are integers, possibly `(- n)`."""
    toks = _tokenize_sexpr(text)
    pos = 0

    def parse() -> object:
        nonlocal pos
        tok = toks[pos]
        pos += 1
        if tok == "(":
            items = []
            while toks[pos] != ")":
                items.append(parse())
            pos += 1
            return items
        return tok

    try:
        tree = parse()
    except IndexError as e:
        raise SolverError(f"malformed value response: {text!r}") from e
    out = {}
    if not isinstance(tree, list):
        raise SolverError(f"malformed value response: {text!r}")
    for pair in tree:
        if not (isinstance(pair, list) and len(pair) == 2):
            raise SolverError(f"malformed value binding in: {text!r}")
        name, val = pair
        if isinstance(val, list):
            if len(val) == 2 and val[0] == "-":
                out[name] = -int(val[1])
            else:
                raise SolverError(f"non-integer value for {name}: {val!r}")
        else:
            out[name] = int(val)
    return out
