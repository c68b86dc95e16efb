"""Exhaustive desk-scale enumeration: green sequences, loops, and the
exchange graph of c-matrices.

Everything here is deterministic.  Depth-first searches visit mutation
directions in increasing vertex order, so enumerations come out in
lexicographic order.

Counting functions deliberately use a different traversal style than their
enumerating counterparts (breadth-first level counts against depth-first
listings, flat replay against prefix-sharing search) so that agreement
between the two is evidence, not tautology.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import product

from .formula import TrackedState
from .perm import Permutation
from .picture import PictureWord
from .quiver import (Color, ExchangeMatrix, ExtendedExchangeMatrix, IntMatrix,
                     find_row_permutation, framed, mutate, reconstructed_b,
                     vertex_color)

MAX_N = 5
"""Largest rank the exhaustive traversals accept.  At n = 5 the exchange
graph has 15840 states and there are 2981 maximal green sequences; n = 6
has 308880 states, beyond a desk-scale run."""


def _straight_a(n: int) -> ExchangeMatrix:
    if n > MAX_N:
        raise ValueError(f"n={n} exceeds the size bound MAX_N={MAX_N}")
    return ExchangeMatrix.straight_a(n)


@dataclass
class ExchangeGraph:
    """All states reachable from the framed quiver, keyed by c-matrix.

    The b-part is determined by the c-part (B = C B0 C^t), so the c-matrix
    alone is a faithful key; the builder checks that identity at every
    insert.  ``edges[key][k-1]`` is the key reached by mutating at k.
    """

    nodes: dict[IntMatrix, ExtendedExchangeMatrix] = field(default_factory=dict)
    edges: dict[IntMatrix, tuple[IntMatrix, ...]] = field(default_factory=dict)

    @property
    def node_count(self) -> int:
        return len(self.nodes)


def build_exchange_graph(n: int) -> ExchangeGraph:
    """Breadth-first closure of the framed straight-A_n state under mutation,
    for ``n <= MAX_N``."""
    b0 = _straight_a(n)
    start = framed(b0)
    graph = ExchangeGraph()
    graph.nodes[start.c] = start
    queue = [start]
    while queue:
        nxt = []
        for state in queue:
            neighbor_keys = []
            for k in range(1, n + 1):
                neighbor = mutate(state, k)
                neighbor_keys.append(neighbor.c)
                known = graph.nodes.get(neighbor.c)
                if known is None:
                    if neighbor.b != reconstructed_b(b0.b, neighbor.c):
                        raise AssertionError(
                            "b-part disagrees with C B0 C^t at a new node")
                    graph.nodes[neighbor.c] = neighbor
                    nxt.append(neighbor)
                elif known != neighbor:
                    raise AssertionError(
                        "two mutation paths reached the same c-matrix "
                        "with different b-parts")
            graph.edges[state.c] = tuple(neighbor_keys)
        queue = nxt
    return graph


def count_reachable_states(n: int) -> int:
    """Iterative depth-first recount of distinct c-matrices; shares no
    traversal code with build_exchange_graph."""
    start = framed(ExchangeMatrix.straight_a(n))
    seen = {start.c}
    stack = [start]
    while stack:
        state = stack.pop()
        for k in range(n, 0, -1):
            neighbor = mutate(state, k)
            if neighbor.c not in seen:
                seen.add(neighbor.c)
                stack.append(neighbor)
    return len(seen)


@dataclass(frozen=True)
class MGSResult:
    sequence: tuple[int, ...]
    word: PictureWord
    permutation: Permutation


def _green_vertices(state: ExtendedExchangeMatrix) -> list[int]:
    return [k for k in range(1, state.n + 1)
            if vertex_color(state, k) is Color.GREEN]


def enumerate_mgs(n: int) -> list[MGSResult]:
    """All maximal green sequences of straight A_n, ``n <= MAX_N``, in
    lexicographic order.

    A sequence is emitted when no green vertex remains.  Each result
    carries the word it spells and the permutation predicted by the
    transposition product.  No cap on the length is needed: every maximal
    green sequence of A_n has length at most n(n+1)/2.
    """
    out: list[MGSResult] = []
    seq: list[int] = []

    # the results are passed in, not closed over: a recursive closure is a
    # reference cycle, which would keep them alive until the next collection
    def dfs(ts: TrackedState, sink: list[MGSResult]):
        greens = _green_vertices(ts.state)
        if not greens:
            sink.append(MGSResult(tuple(seq), PictureWord(ts.factors),
                                  ts.sigma))
            return
        for k in greens:
            seq.append(k)
            dfs(ts.step_vertex(k), sink)
            seq.pop()

    dfs(TrackedState.from_state(framed(_straight_a(n))), out)
    return out


def count_mgs(n: int) -> int:
    """Breadth-first count of maximal green sequences.

    Walks level by level carrying path multiplicities per state, so no
    sequence is ever materialized.  Independent of enumerate_mgs.
    """
    start = framed(ExchangeMatrix.straight_a(n))
    level: Counter = Counter({start: 1})
    total = 0
    while level:
        nxt: Counter = Counter()
        for state, mult in level.items():
            greens = _green_vertices(state)
            if not greens:
                total += mult
                continue
            for k in greens:
                nxt[mutate(state, k)] += mult
        level = nxt
    return total


@dataclass(frozen=True)
class LoopResult:
    sequence: tuple[int, ...]
    permutation: Permutation


def enumerate_loops(m: ExtendedExchangeMatrix,
                    max_len: int) -> list[LoopResult]:
    """Every sequence of length <= max_len that returns to ``m`` up to a
    row permutation, with that permutation.  Includes the trivial loops
    (k, k).  Depth-first over the full prefix tree, so lexicographic with
    prefixes first.

    Each expanded state's successors ``(k, neighbor, rho or None)`` are
    memoized for the call, so mutation and the loop test run once per
    distinct state within ``max_len - 1`` steps of ``m``, not once per
    prefix.
    """
    base_rows = frozenset(m.c)
    out: list[LoopResult] = []
    seq: list[int] = []

    # the memo and the results are passed in, not closed over, as in
    # enumerate_mgs: the recursive closure is a reference cycle
    def dfs(state: ExtendedExchangeMatrix, memo: dict, sink: list[LoopResult]):
        if len(seq) >= max_len:
            return
        succ = memo.get(state)
        if succ is None:
            succ = memo[state] = []
            for k in range(1, m.n + 1):
                neighbor = mutate(state, k)
                rho = (find_row_permutation(m, neighbor)
                       if frozenset(neighbor.c) == base_rows else None)
                succ.append((k, neighbor, rho))
        for k, neighbor, rho in succ:
            seq.append(k)
            if rho is not None:
                sink.append(LoopResult(tuple(seq), rho))
            dfs(neighbor, memo, sink)
            seq.pop()

    dfs(m, {}, out)
    return out


def count_loops_by_replay(m: ExtendedExchangeMatrix, max_len: int) -> int:
    """Flat recount of loops: replay every sequence from scratch.  Shares
    no traversal state with enumerate_loops."""
    total = 0
    for length in range(1, max_len + 1):
        for seq in product(range(1, m.n + 1), repeat=length):
            state = m
            for k in seq:
                state = mutate(state, k)
            if frozenset(state.c) == frozenset(m.c) \
                    and find_row_permutation(m, state) is not None:
                total += 1
    return total


def mgs_census(n: int) -> dict:
    """Count, length histogram, permutation histogram and length range of
    the maximal green sequences of straight A_n, ``n <= MAX_N``."""
    results = enumerate_mgs(n)
    lengths = Counter(len(r.sequence) for r in results)
    perms = Counter(r.permutation.cycle_string() for r in results)
    return {
        "n": n,
        "count": len(results),
        "lengths": dict(sorted(lengths.items())),
        "permutations": dict(sorted(perms.items())),
        "min_length": min(lengths),
        "max_length": max(lengths),
    }


def graph_to_dot(graph: ExchangeGraph) -> str:
    """DOT rendering of the exchange graph, nodes labeled by c-matrices."""
    ids = {key: f"s{idx}" for idx, key in enumerate(graph.nodes)}
    lines = ["graph exchange {", "  node [shape=box, fontname=monospace];"]
    for key, node_id in ids.items():
        label = "\\n".join(" ".join(str(x) for x in row) for row in key)
        lines.append(f'  {node_id} [label="{label}"];')
    for key, neighbors in graph.edges.items():
        for k, other in enumerate(neighbors, start=1):
            # mutation is involutive, so each edge shows up from both ends;
            # keep the copy whose id string sorts first ("s10" < "s9")
            if ids[key] < ids[other]:
                lines.append(f'  {ids[key]} -- {ids[other]} [label="{k}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
