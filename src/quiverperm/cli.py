"""Command-line surface: batch verification, enumeration and export.

Exit codes: 0 success (and, for ``verify`` and ``check-standard``, the
verification passed), 1 a requested verification failed, 2 bad input or
I/O failure.  Output is deterministic for a fixed command line.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
from contextlib import contextmanager
from typing import Optional

from .formula import TrackedState, Verdict, verify
from .picture import PictureWord
from .quiver import (ExchangeMatrix, apply_sequence, format_matrix,
                     format_state, framed, matrix_from_json, state_to_dot,
                     state_to_json, vertex_color)
from .search import (build_exchange_graph, enumerate_loops, enumerate_mgs,
                     graph_to_dot, mgs_census)
from .standard import factor_standard, is_standard


@contextmanager
def _output(path: Optional[str]):
    if path:
        with open(path, "w") as fp:
            yield fp
    else:
        yield sys.stdout


def _parse_sequence(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in re.split(r"[,\s]+", text.strip()) if tok)


def cmd_mutate(args: argparse.Namespace) -> int:
    straight = args.b0_file is None
    if straight:
        start = framed(ExchangeMatrix.straight_a(args.n))
    else:
        with open(args.b0_file) as fp:
            start = framed(ExchangeMatrix(matrix_from_json(json.load(fp))))
    if args.sequence is not None:
        sequence = _parse_sequence(args.sequence)
    elif args.seed is not None:
        rng = random.Random(args.seed)
        sequence = tuple(rng.randint(1, start.n) for _ in range(args.max_depth))
    else:
        sequence = ()
    if straight:
        tracked = TrackedState.from_state(start).run(sequence)
        end = tracked.state
        word = PictureWord(tracked.factors)
        sigma = tracked.sigma
    else:
        end = apply_sequence(start, sequence)
        word = None
        sigma = None
    colors = {k: vertex_color(end, k).value for k in range(1, end.n + 1)}
    with _output(args.output_path) as fp:
        if args.format == "json":
            payload = {"sequence": list(sequence), "state": state_to_json(end),
                       "colors": colors}
            if word is not None:
                payload["word"] = word.to_json()
                payload["sigma"] = sigma.cycle_string()
            fp.write(json.dumps(payload) + "\n")
        elif args.format == "dot":
            fp.write(state_to_dot(end))
        else:
            fp.write(f"sequence: {' '.join(map(str, sequence)) or '(empty)'}\n")
            fp.write(format_state(end) + "\n")
            fp.write("colors: " + " ".join(
                f"{k}={v}" for k, v in colors.items()) + "\n")
            if word is not None:
                fp.write(f"word: {word.display}\n")
                fp.write(f"sigma: {sigma.cycle_string()}\n")
            else:
                fp.write("word/sigma tracking requires the straight A_n "
                         "orientation; skipped\n")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    start = framed(ExchangeMatrix.straight_a(args.n))
    checks: list[tuple[str, tuple[int, ...]]] = [
        ("mgs", r.sequence)
        for r in enumerate_mgs(args.n)]
    if args.max_depth:
        checks.extend(("loop", r.sequence)
                      for r in enumerate_loops(start, args.max_depth))
    failures = []
    with _output(args.output_path) as fp:
        for kind, seq in checks:
            report = verify(start, seq, corrupt=args.corrupt_formula)
            if report.verdict is not Verdict.MATCH:
                failures.append((kind, seq))
            if args.format == "json":
                fp.write(json.dumps({"kind": kind, "vertices": list(seq),
                                     **report.to_json()}) + "\n")
            elif report.observed_perm is None:
                fp.write(f"{kind} {' '.join(map(str, seq))}: "
                         f"{report.verdict.value}\n")
            else:
                fp.write(f"{kind} {' '.join(map(str, seq))}: "
                         f"{report.verdict.value} "
                         f"(formula {report.formula_perm.cycle_string()}, "
                         f"observed {report.observed_perm.cycle_string()})\n")
        if args.format != "json":
            fp.write(f"{len(checks)} sequences checked, "
                     f"{len(failures)} mismatches\n")
    if failures:
        for kind, seq in failures:
            print(f"mismatch: {kind} {' '.join(map(str, seq))}",
                  file=sys.stderr)
        return 1
    return 0


def cmd_census(args: argparse.Namespace) -> int:
    census = mgs_census(args.n)
    with _output(args.output_path) as fp:
        if args.format == "text":
            fp.write(f"n = {census['n']}\n")
            fp.write(f"maximal green sequences: {census['count']}\n")
            fp.write("lengths: " + ", ".join(
                f"{length}: {cnt}"
                for length, cnt in census["lengths"].items()) + "\n")
            fp.write("permutations: " + ", ".join(
                f"{p}: {cnt}"
                for p, cnt in census["permutations"].items()) + "\n")
            fp.write(f"length range: {census['min_length']}"
                     f"..{census['max_length']}\n")
        else:
            fp.write(json.dumps(census) + "\n")
    return 0


def cmd_export_dot(args: argparse.Namespace) -> int:
    graph = build_exchange_graph(args.n)
    with _output(args.output_path) as fp:
        fp.write(graph_to_dot(graph))
    return 0


def cmd_check_standard(args: argparse.Namespace) -> int:
    c = matrix_from_json(json.loads(args.matrix))
    if any(len(row) != len(c) for row in c):
        raise ValueError("matrix must be square")
    with _output(args.output_path) as fp:
        if is_standard(c):
            fp.write("standard\n")
            return 0
        fact = factor_standard(c)
        if fact is None:
            fp.write("not standard; no standard factorization\n")
        else:
            fp.write(f"not standard; factors as {fact.rho.cycle_string()} "
                     "times the standard matrix\n")
            fp.write(format_matrix(fact.m) + "\n")
    return 1


def _command(sub, name: str, run, help_text: str, formats=(),
             sized: bool = True) -> argparse.ArgumentParser:
    """A subcommand with ``--out``, plus ``--format`` when it has more than
    one output format and ``--n`` when it works on straight A_n."""
    p = sub.add_parser(name, help=help_text)
    p.set_defaults(run=run)
    if sized:
        p.add_argument("--n", type=int, default=2,
                       help="number of mutable vertices (default 2)")
    p.add_argument("--out", dest="output_path",
                   help="write output to this file instead of stdout")
    if formats:
        p.add_argument("--format", choices=formats, default="text",
                       help="output format (default text)")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quiverperm",
        description="Mutation engine for linearly oriented type A quivers "
                    "with permutation tracking.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_mutate = _command(sub, "mutate", cmd_mutate,
                        "apply a mutation sequence to the framed quiver and "
                        "print the result", formats=["text", "json", "dot"])
    walk = p_mutate.add_mutually_exclusive_group()
    walk.add_argument("--sequence", help='vertices to mutate, e.g. "2 1 2"')
    walk.add_argument("--seed", type=int,
                      help="mutate along a random walk drawn from this seed")
    p_mutate.add_argument("--max-depth", type=int, default=8,
                          dest="max_depth",
                          help="length of the seeded walk (default 8)")
    p_mutate.add_argument("--b0-file",
                          help="JSON file with an arbitrary skew-symmetric "
                               "exchange matrix to use instead of straight "
                               "A_n; word and sigma are then not tracked")
    p_verify = _command(sub, "verify", cmd_verify,
                        "check the permutation formula on every maximal "
                        "green sequence (and loops with --max-depth)",
                        formats=["text", "json"])
    p_verify.add_argument("--max-depth", type=int, dest="max_depth",
                          help="also check every loop at the framed state "
                               "of at most this length")
    p_verify.add_argument("--corrupt-formula", action="store_true",
                          help=argparse.SUPPRESS)
    _command(sub, "census", cmd_census,
             "count maximal green sequences with histograms",
             formats=["text", "json"])
    _command(sub, "export-dot", cmd_export_dot,
             "write the exchange graph as DOT")
    p_check = _command(sub, "check-standard", cmd_check_standard,
                       "test a matrix for standardness and factor it if "
                       "possible", sized=False)
    p_check.add_argument("matrix", help='JSON rows, e.g. "[[1,1],[0,-1]]"')
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "n", 1) < 1:
            raise ValueError("--n must be at least 1")
        max_depth = getattr(args, "max_depth", None)
        if max_depth is not None and max_depth < 0:
            raise ValueError("--max-depth must be nonnegative")
        return args.run(args)
    except (ValueError, IndexError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
