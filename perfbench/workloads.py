"""The benchmark's three workloads: inputs from a seed, one timed pass, and
the checks on that pass's outputs.

Importing this module puts the checkout's own ``src`` first on ``sys.path``
and imports ``quiverperm`` from there; no installed copy is ever used.  The
frozen values below are re-derived by independent traversals in
``test_perfbench.py``.
"""

from __future__ import annotations

import hashlib
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import quiverperm  # noqa: E402
from quiverperm import cli, formula, quiver, search, standard  # noqa: E402

if not Path(quiverperm.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"quiverperm was imported from {quiverperm.__file__}, "
                      f"not from the checkout under test ({SRC})")

LOOP_N = 3
LOOP_BASEPOINTS = 84
LOOP_MAX_LEN = 7
LOOP_TOTAL = 17100
MGS_N = 5
MGS_COUNT = 2981
GRAPH_N = 5
GRAPH_NODES = 15840
# sha256 of the CLI outputs, recorded at the commit that defined the benchmark
DIGESTS = {
    "verify": "2e38460066812bc4de8e6292b55518f64395593211cf86eb687939158849640d",
    "census": "44f57e5a0f9b2da0a484444bdf4238ba7179379852b01f69299d00bdb5ff9a08",
    "export-dot": "b1602c2c66ae26c5b5c8b770a9319783d3dfd5213a326d49ad780538d01a2ede",
}


@dataclass
class Outcome:
    """What the checks found on one pass.

    ``items`` is the work done (loops verified, sequences verified or graph
    states emitted); ``attempted``/``failed`` count checked items, where a
    CLI pass is one item.  ``problems`` holds a message per failed check.
    """

    items: int = 0
    attempted: int = 0
    failed: int = 0
    output_bytes: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.problems.append(message)


class LoopVerify:
    """Every loop of length <= 7 at every reachable n = 3 state, each checked
    by ``verify``; the seed shuffles the order of the basepoints."""

    name = "loop-verify"

    def setup(self, seed: int, workdir: Path):
        states = list(search.build_exchange_graph(LOOP_N).nodes.values())
        random.Random(seed).shuffle(states)
        return [(s, standard.factor_standard(s.c).rho) for s in states]

    def run(self, basepoints):
        return [[(loop, formula.verify(state, loop.sequence))
                 for loop in search.enumerate_loops(state, LOOP_MAX_LEN)]
                for state, _ in basepoints]

    def check(self, basepoints, results) -> Outcome:
        out = Outcome()
        if len(basepoints) != LOOP_BASEPOINTS:
            out.fail(f"{len(basepoints)} basepoints, expected {LOOP_BASEPOINTS}")
        for (_, sigma), checked in zip(basepoints, results):
            for loop, report in checked:
                out.attempted += 1
                if (report.verdict is not formula.Verdict.MATCH
                        or report.observed_perm != loop.permutation
                        or report.sigma != sigma):
                    out.failed += 1
        if out.failed:
            out.fail(f"{out.failed} loops failed verification")
        if out.attempted != LOOP_TOTAL:
            out.fail(f"{out.attempted} loops, expected {LOOP_TOTAL}")
        out.items = out.attempted
        return out

    def expected_roots(self, outcome: Outcome) -> dict[str, int]:
        """Root spans of a traced pass: one per enumeration and per loop."""
        return {"search.enumerate_loops": LOOP_BASEPOINTS,
                "formula.verify": outcome.attempted}

    def reached_states(self, basepoints):
        # every state a loop walk passes through is reachable, and all 84
        # reachable states are basepoints
        return [state for state, _ in basepoints]


class MgsVerify:
    """``verify --n 5`` then ``census --n 5 --format json``, both to files."""

    name = "mgs-verify"

    def __init__(self, corrupt_formula: bool = False):
        self.corrupt_formula = corrupt_formula

    def setup(self, seed: int, workdir: Path):
        return {"verify": workdir / "verify.txt",
                "census": workdir / "census.json"}

    def run(self, paths):
        verify_argv = ["verify", "--n", str(MGS_N), "--out", str(paths["verify"])]
        if self.corrupt_formula:
            verify_argv.append("--corrupt-formula")
        return {
            "verify": cli.main(verify_argv),
            "census": cli.main(["census", "--n", str(MGS_N), "--format",
                                "json", "--out", str(paths["census"])]),
        }

    def check(self, paths, codes) -> Outcome:
        out = Outcome(attempted=1)
        for command, path in paths.items():
            if codes[command] != 0:
                out.fail(f"{command} exited with {codes[command]}")
            if not path.exists():
                out.fail(f"{command} wrote no output")
                continue
            out.output_bytes += path.stat().st_size
            if hashlib.sha256(path.read_bytes()).hexdigest() \
                    != DIGESTS[command]:
                out.fail(f"{command} output digest changed")
        summary = f"{MGS_COUNT} sequences checked, 0 mismatches"
        if paths["verify"].exists():
            lines = paths["verify"].read_text().splitlines()
            out.items = sum(1 for line in lines if line.startswith("mgs "))
            if not lines or lines[-1] != summary:
                out.fail(f"verify summary is not {summary!r}")
        out.failed = 1 if out.problems else 0
        return out

    def expected_roots(self, outcome: Outcome) -> dict[str, int]:
        """Root spans of a traced pass: one per CLI invocation."""
        return {"cli": 2}

    def reached_states(self, paths):
        """States on maximal green sequences: the green-mutation closure of
        the framed quiver."""
        start = quiver.framed(quiver.ExchangeMatrix.straight_a(MGS_N))
        seen = {start}
        todo = [start]
        while todo:
            state = todo.pop()
            for k in range(1, MGS_N + 1):
                if quiver.vertex_color(state, k) is quiver.Color.GREEN:
                    nxt = quiver.mutate(state, k)
                    if nxt not in seen:
                        seen.add(nxt)
                        todo.append(nxt)
        return list(seen)


class GraphExport:
    """``export-dot --n 5`` to a file: the whole exchange graph, no checks
    of the formula."""

    name = "graph-export"

    def __init__(self, expected_digest: str = DIGESTS["export-dot"]):
        self.expected_digest = expected_digest

    def setup(self, seed: int, workdir: Path):
        return workdir / "graph.dot"

    def run(self, path):
        return cli.main(["export-dot", "--n", str(GRAPH_N), "--out", str(path)])

    def check(self, path, code) -> Outcome:
        out = Outcome(attempted=1)
        if code != 0:
            out.fail(f"export-dot exited with {code}")
        if not path.exists():
            out.fail("export-dot wrote no output")
        else:
            data = path.read_bytes()
            out.output_bytes = len(data)
            out.items = sum(1 for line in data.splitlines()
                            if b"[label=" in line and b" -- " not in line)
            if out.items != GRAPH_NODES:
                out.fail(f"{out.items} graph nodes, expected {GRAPH_NODES}")
            if hashlib.sha256(data).hexdigest() != self.expected_digest:
                out.fail("export-dot output digest changed")
        out.failed = 1 if out.problems else 0
        return out

    def expected_roots(self, outcome: Outcome) -> dict[str, int]:
        return {"cli": 1}

    def reached_states(self, path):
        return list(search.build_exchange_graph(GRAPH_N).nodes.values())


WORKLOADS = {w.name: w for w in (LoopVerify, MgsVerify, GraphExport)}
