"""Command-line interface: load libraries, run a query, print solutions."""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .frontend import load_library, prepare_problem, render_surface, surface_term
from .sigparse import SignatureError
from .synth import SynthConfig, Synthesizer, VARIANTS
from .types import LibraryError


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tygar",
        description="Type-directed component synthesis over transition nets.")
    p.add_argument("--lib", action="append", required=True, metavar="PATH",
                   help="signature file; repeatable")
    p.add_argument("--query", required=True, help="query type")
    p.add_argument("--variant", choices=list(VARIANTS),
                   default=SynthConfig.variant)
    p.add_argument("--bound", type=int, default=SynthConfig.bound,
                   help="cover bound for tygarqb (default %(default)s)")
    p.add_argument("--max-len", type=int, default=SynthConfig.max_len,
                   dest="max_len",
                   help="maximum path length (default %(default)s)")
    p.add_argument("--solutions", type=int,
                   default=SynthConfig.max_solutions,
                   help="solutions to report (default %(default)s)")
    p.add_argument("--timeout", type=float, default=SynthConfig.timeout_s,
                   help="seconds before giving up (default %(default)s)")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--trace", action="store_true",
                   help="print progress events to stderr")
    return p


def _trace_printer(evt: dict) -> None:
    kind = evt["kind"]
    if kind == "iteration":
        pruned = f" pruned={evt['pruned']}" if "pruned" in evt else ""
        print(f"[iter {evt['n']}] cover={evt['cover_size']} "
              f"path={evt['path']} chosen={evt['chosen']} "
              f"verdict={evt['verdict']}{pruned}", file=sys.stderr)
    elif kind == "refine":
        print(f"[refine {evt['n']}] added={evt['added']} "
              f"cover={evt['cover_size']}", file=sys.stderr)
    elif kind == "solution":
        print(f"[solution {evt['rank']}] {evt['term']}", file=sys.stderr)
    else:
        print(f"[{kind}] {evt}", file=sys.stderr)


def run_cli(argv: Optional[Sequence] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        lib = load_library(args.lib)
        session_lib, query = prepare_problem(lib, args.query)
        cfg = SynthConfig(
            variant=args.variant,
            bound=args.bound,
            max_len=args.max_len,
            max_solutions=args.solutions,
            timeout_s=args.timeout,
            on_event=_trace_printer if args.trace else None,
        )
        result = Synthesizer(session_lib, query, cfg).run()
    except (SignatureError, LibraryError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    rendered = [
        {
            "rank": s.rank,
            "term": render_surface(surface_term(s.nf, result.lib, query)),
            "apps": s.apps,
            "millis": round(s.millis, 3),
        }
        for s in result.solutions
    ]
    if args.format == "json":
        print(json.dumps({
            "query": args.query,
            "variant": args.variant,
            "solutions": rendered,
            "iterations": result.iterations,
            "refinements": result.refinements,
            "cover_size": result.cover_size,
            "status": result.status,
            "reason": result.reason,
            "elapsed_s": round(result.elapsed_s, 3),
        }, indent=2))
    else:
        if rendered:
            for s in rendered:
                print(f"{s['rank']}. {s['term']}   "
                      f"[{s['apps']} apps, {s['millis']:.0f} ms]")
        else:
            print(f"no solution ({result.reason})")
        print(f"status: {result.status} ({result.reason}); "
              f"iterations: {result.iterations}; "
              f"cover size: {result.cover_size}; "
              f"{result.elapsed_s:.2f} s")
    return 0 if rendered else 1


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
