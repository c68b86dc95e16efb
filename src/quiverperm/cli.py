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
from dataclasses import dataclass
from typing import Optional

from .formula import TrackedState, Verdict, verify
from .picture import PictureWord
from .quiver import (ExchangeMatrix, apply_sequence, format_state, framed,
                     matrix_from_json, state_to_dot, state_to_json,
                     vertex_color)
from .search import (build_exchange_graph, enumerate_loops, enumerate_mgs,
                     graph_to_dot, mgs_census)
from .standard import factor_standard, is_standard


@dataclass(frozen=True)
class RunConfig:
    n: int = 2
    max_depth: Optional[int] = None
    seed: Optional[int] = None
    output_path: Optional[str] = None
    format: str = "text"
    b0: Optional[ExchangeMatrix] = None
    corrupt_formula: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("--n must be at least 1")
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError("--max-depth must be nonnegative")

    @property
    def exchange_matrix(self) -> ExchangeMatrix:
        return self.b0 if self.b0 is not None else ExchangeMatrix.straight_a(self.n)

    @property
    def straight(self) -> bool:
        """Whether formula tracking applies (no --b0-file override)."""
        return self.b0 is None


@contextmanager
def _output(config: RunConfig):
    if config.output_path:
        with open(config.output_path, "w") as fp:
            yield fp
    else:
        yield sys.stdout


def _format_matrix(rows) -> str:
    width = max(len(str(x)) for row in rows for x in row)
    return "\n".join(
        "[ " + " ".join(f"{x:>{width}}" for x in row) + " ]" for row in rows)


def _parse_sequence(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in re.split(r"[,\s]+", text.strip()) if tok)


def cmd_mutate(config: RunConfig, sequence: Optional[tuple[int, ...]]) -> int:
    start = framed(config.exchange_matrix)
    if sequence is None:
        if config.seed is not None:
            length = config.max_depth if config.max_depth is not None else 8
            rng = random.Random(config.seed)
            sequence = tuple(rng.randint(1, start.n) for _ in range(length))
        else:
            sequence = ()
    if config.straight:
        tracked = TrackedState.from_state(start).run(sequence)
        end = tracked.state
        word = PictureWord(tracked.factors)
        sigma = tracked.sigma
    else:
        end = apply_sequence(start, sequence)
        word = None
        sigma = None
    colors = {k: vertex_color(end, k).value for k in range(1, end.n + 1)}
    with _output(config) as fp:
        if config.format == "json":
            payload = {"sequence": list(sequence), "state": state_to_json(end),
                       "colors": colors}
            if word is not None:
                payload["word"] = word.to_json()
                payload["sigma"] = sigma.cycle_string()
            fp.write(json.dumps(payload) + "\n")
        elif config.format == "dot":
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


def cmd_verify(config: RunConfig) -> int:
    if not config.straight:
        print("verify needs the straight A_n orientation; --b0-file is not "
              "supported here", file=sys.stderr)
        return 2
    start = framed(config.exchange_matrix)
    checks: list[tuple[str, tuple[int, ...]]] = [
        ("mgs", r.sequence)
        for r in enumerate_mgs(config.n)]
    if config.max_depth:
        checks.extend(("loop", r.sequence)
                      for r in enumerate_loops(start, config.max_depth))
    failures = []
    with _output(config) as fp:
        for kind, seq in checks:
            report = verify(start, seq, corrupt=config.corrupt_formula)
            if report.verdict is not Verdict.MATCH:
                failures.append((kind, seq))
            if config.format == "json":
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
        if config.format != "json":
            fp.write(f"{len(checks)} sequences checked, "
                     f"{len(failures)} mismatches\n")
    if failures:
        for kind, seq in failures:
            print(f"mismatch: {kind} {' '.join(map(str, seq))}",
                  file=sys.stderr)
        return 1
    return 0


def cmd_census(config: RunConfig) -> int:
    if not config.straight:
        print("census needs the straight A_n orientation; --b0-file is not "
              "supported here", file=sys.stderr)
        return 2
    census = mgs_census(config.n, max_len=config.max_depth)
    with _output(config) as fp:
        if config.format == "text":
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


def cmd_export_dot(config: RunConfig) -> int:
    if not config.straight:
        print("export-dot needs the straight A_n orientation; --b0-file is "
              "not supported here", file=sys.stderr)
        return 2
    bound = config.max_depth if config.max_depth is not None else 5
    graph = build_exchange_graph(config.n, bound=max(bound, 5))
    with _output(config) as fp:
        fp.write(graph_to_dot(graph))
    return 0


def cmd_check_standard(config: RunConfig, matrix_text: str) -> int:
    c = matrix_from_json(json.loads(matrix_text))
    if any(len(row) != len(c) for row in c):
        raise ValueError("matrix must be square")
    with _output(config) as fp:
        if is_standard(c):
            fp.write("standard\n")
            return 0
        fact = factor_standard(c)
        if fact is None:
            fp.write("not standard; no standard factorization\n")
        else:
            fp.write(f"not standard; factors as {fact.rho.cycle_string()} "
                     "times the standard matrix\n")
            fp.write(_format_matrix(fact.m) + "\n")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quiverperm",
        description="Mutation engine for linearly oriented type A quivers "
                    "with permutation tracking.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n", type=int, default=2,
                        help="number of mutable vertices (default 2)")
    common.add_argument("--out", dest="output_path",
                        help="write output to this file instead of stdout")
    common.add_argument("--format", choices=["json", "dot", "text"],
                        default="text", help="output format (default text)")
    common.add_argument("--seed", type=int,
                        help="seed for the randomized walk of `mutate`")
    common.add_argument("--max-depth", type=int, dest="max_depth",
                        help="depth bound: walk length (mutate), loop length "
                             "(verify), graph bound (export-dot)")
    common.add_argument("--b0-file",
                        help="JSON file with an arbitrary skew-symmetric "
                             "exchange matrix; disables formula commands")

    sub = parser.add_subparsers(dest="command", required=True)
    p_mutate = sub.add_parser("mutate", parents=[common],
                              help="apply a mutation sequence to the framed "
                                   "quiver and print the result")
    p_mutate.add_argument("--sequence",
                          help='vertices to mutate, e.g. "2 1 2"')
    p_verify = sub.add_parser("verify", parents=[common],
                              help="check the permutation formula on every "
                                   "maximal green sequence (and loops with "
                                   "--max-depth)")
    p_verify.add_argument("--corrupt-formula", action="store_true",
                          help=argparse.SUPPRESS)
    sub.add_parser("census", parents=[common],
                   help="count maximal green sequences with histograms")
    sub.add_parser("export-dot", parents=[common],
                   help="write the exchange graph as DOT")
    p_check = sub.add_parser("check-standard", parents=[common],
                             help="test a matrix for standardness and "
                                  "factor it if possible")
    p_check.add_argument("matrix", help='JSON rows, e.g. "[[1,1],[0,-1]]"')
    return parser


def _load_b0(path: Optional[str]) -> Optional[ExchangeMatrix]:
    if path is None:
        return None
    with open(path) as fp:
        return ExchangeMatrix(matrix_from_json(json.load(fp)))


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = RunConfig(
            n=args.n, max_depth=args.max_depth, seed=args.seed,
            output_path=args.output_path, format=args.format,
            b0=_load_b0(args.b0_file),
            corrupt_formula=getattr(args, "corrupt_formula", False))
        if args.command == "mutate":
            seq = (_parse_sequence(args.sequence)
                   if args.sequence is not None else None)
            return cmd_mutate(config, seq)
        if args.command == "verify":
            return cmd_verify(config)
        if args.command == "census":
            return cmd_census(config)
        if args.command == "export-dot":
            return cmd_export_dot(config)
        if args.command == "check-standard":
            return cmd_check_standard(config, args.matrix)
        raise ValueError(f"unknown command {args.command}")
    except (ValueError, IndexError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
