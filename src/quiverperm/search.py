"""Exhaustive desk-scale enumeration: green sequences, loops, and the
exchange graph of c-matrices.

Everything here is deterministic.  Depth-first searches visit mutation
directions in increasing vertex order, so enumerations come out in
lexicographic order.

Counting functions deliberately use a different traversal style than their
enumerating counterparts (breadth-first level counts against depth-first
listings, flat replay against prefix-sharing search) so that agreement
between the two is evidence, not tautology.  ``enumerate_mgs`` walks the
standard quotient graph Q of ``quotient_graph``, and ``mgs_census`` reads
its counts off the same graph without listing; ``count_mgs`` and the other
counting functions mutate plain states.  ``ExchangeWalk`` is the one lazily
built piece of an exchange graph, and each thread keeps one
(``_walk_for``): while the caller holds the start of the call before, every
start equal to a state already on it is rooted at that state's node, a
reachable state of straight A_n joins a walk of its rank as a new root,
and any other start replaces it.  ``enumerate_loops`` walks it from the
start's root, drops a prefix once the steps it needs to come back to the
start up to a row permutation exceed the steps it has left (its distance
on Q, or two from a state that is already back, since Q has no edge from a
node to itself) and tests for a loop only the states with the start's set
of c-rows.  ``formula.verify`` walks each sequence on the same walk, so
verifying the loops just listed mutates nothing again, and the loops of
every state of one component mutate each (state, vertex) pair once in
all, whatever the order of the starts.  ``quotient_graph`` finds each
mutated state's node by its set of c-rows.  All three readers of Q read
the per-rank Q table ``_quotient_table``, built by one ``quotient_graph``
on the first call at each rank; it keeps Q's row sets, its edges and the
green steps ``enumerate_mgs`` takes, but no state.  Permutations here are
observed, never predicted: the transposition formula is not visible to
this module.  ``graph_to_dot`` joins the lines of ``_dot_lines``, which
the CLI writes one at a time.
"""

from __future__ import annotations

import functools
import sys
import threading
import weakref
from collections import Counter
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterator, NamedTuple, Sequence

from .perm import Permutation, _trusted
from .picture import PictureWord
from .quiver import (Color, ExchangeMatrix, ExtendedExchangeMatrix, IntMatrix,
                     _reconstructor, _trusted_state, apply_sequence,
                     find_row_permutation, framed, mutate, permute_rows,
                     reconstructed_b, vertex_color)
from .roots import SignedGenerator, vector_to_signed_root
from .standard import _placement

# named tuples, not dataclasses: a dataclass costs about a millisecond at
# import, which every command pays
class ExchangeGraph(NamedTuple):
    """All states reachable from the framed quiver, in breadth-first order.

    ``nodes`` maps each c-matrix to its state: it determines the b-part
    (B = C B0 C^t), which the builder checks at every insert.
    ``edges[i][k-1]`` indexes the state that mutating state i at k reaches.
    """

    nodes: dict[IntMatrix, ExtendedExchangeMatrix]
    edges: tuple[tuple[int, ...], ...]

    @property
    def node_count(self) -> int:
        return len(self.nodes)


def build_exchange_graph(n: int) -> ExchangeGraph:
    """Breadth-first closure of the framed straight-A_n state under mutation:
    n plain ``mutate`` calls per state.

    Two checks run on the way.  A new node's b-part must equal C B0 C^t,
    read from ``quiver._reconstructor``'s table of x B0 y^t on pairs of
    c-rows, which numbers each row the first time it appears and is
    dropped when the call returns; a revisited node's b-part must equal
    that of the state stored for its c-matrix.  Either failure raises
    ``AssertionError``.  A new node's b-part is then interned: a state
    whose b-part equals an earlier node's is rebuilt by
    ``quiver._trusted_state`` on that node's tuple, so the 15840 states
    at n = 5 hold 1980 b-parts.  The node table that maps each c-matrix to
    its index while the graph grows becomes ``nodes``: each state is
    written into its key's value in place.
    """
    b0 = ExchangeMatrix.straight_a(n)
    reconstruct = _reconstructor(b0.b)
    states = [framed(b0)]
    index = {states[0].c: 0}
    b_parts = {states[0].b: states[0].b}
    edges = []
    for state in states:  # grows while it is walked
        out = []
        for k in range(1, n + 1):
            neighbor = mutate(state, k)
            i = index.get(neighbor.c)
            if i is None:
                b = neighbor.b
                if b != reconstruct(neighbor.c):
                    raise AssertionError(
                        "b-part disagrees with C B0 C^t at a new node")
                shared = b_parts.setdefault(b, b)
                if shared is not b:
                    neighbor = _trusted_state(shared, neighbor.c)
                i = index[neighbor.c] = len(states)
                states.append(neighbor)
            elif states[i].b != neighbor.b:
                raise AssertionError(
                    "two mutation paths reached the same c-matrix "
                    "with different b-parts")
            out.append(i)
        edges.append(tuple(out))
    for key, state in zip(index, states):
        index[key] = state
    return ExchangeGraph(index, tuple(edges))


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


class QuotientEdge(NamedTuple):
    """Row ``r`` of a standard state, mutated: the row's signed generator,
    green exactly when its ``delta`` is +1, the node index of the mutated
    state with its rows moved back into standard order, and ``rho``, which
    moves them (``factor_standard`` of the mutated c-matrix)."""

    generator: SignedGenerator
    target: int
    rho: Permutation


class QuotientGraph(NamedTuple):
    """The standard quotient graph Q of straight A_n.

    Every reachable state is a standard state S with its rows moved by some
    pi, and mutating it at vertex k mutates S at row pi^{-1}(k) and lands
    on the state (pi o rho, S') of that row's edge.  ``nodes`` are the
    Catalan(n+1) standard states in breadth-first order from the framed
    state; ``edges[i][r-1]`` is row r of ``nodes[i]``.
    """

    nodes: tuple[ExtendedExchangeMatrix, ...]
    edges: tuple[tuple[QuotientEdge, ...], ...]


def quotient_graph(n: int) -> QuotientGraph:
    """Breadth-first build of Q from the framed straight-A_n state, one
    plain ``mutate`` and one ``standard._placement`` per (node, row),
    whose inverse is the edge's ``rho``: ``factor_standard``'s, without
    the standard matrix.  A mutated state's node is found by its set of
    c-rows: moving rows keeps the set, and a standard matrix is fixed by
    its rows.  So its rows are moved back into standard order, by
    ``permute_rows``, only when its node is new.  Edges with equal
    ``rho`` share one ``Permutation``, so each distinct placement is
    inverted once."""
    nodes = [framed(ExchangeMatrix.straight_a(n))]
    index = {frozenset(nodes[0].c): 0}
    rhos: dict[Permutation, Permutation] = {}
    edges = []
    for node in nodes:  # grows while it is walked
        out = []
        for r in range(1, n + 1):
            mutated = mutate(node, r)
            placement = _placement(mutated.c)
            rho = rhos.get(placement)
            if rho is None:
                rho = rhos[placement] = placement.inverse()
            key = frozenset(mutated.c)
            i = index.get(key)
            if i is None:
                i = index[key] = len(nodes)
                nodes.append(permute_rows(mutated, placement))
            out.append(QuotientEdge(vector_to_signed_root(node.c_row(r)), i,
                                    rho))
        edges.append(tuple(out))
    return QuotientGraph(tuple(nodes), tuple(edges))


class _QuotientTable(NamedTuple):
    """``quotient_graph(n)`` without its states: ``index`` maps each node's
    set of c-rows to the node, ``edges`` are Q's edges, and
    ``green[i][r-1]`` is ``None`` when row r of node i is red, else the
    row's green step ``(generator, target, inverse)``: ``inverse`` holds
    the images of the inverse of the edge's ``rho`` after a 0 at index 0,
    so that ``inverse[x]`` is the image of x.  A reachable state's row set
    is that of its standard node, since moving rows keeps the set."""

    index: dict[frozenset, int]
    edges: tuple[tuple[QuotientEdge, ...], ...]
    green: tuple[tuple[tuple[SignedGenerator, int, tuple[int, ...]] | None,
                       ...], ...]


@functools.cache
def _quotient_table(n: int) -> _QuotientTable:
    """The per-rank Q table that ``enumerate_mgs``, ``mgs_census`` and
    ``_distance_to`` read, built by one ``quotient_graph(n)`` on the first
    call at rank n.  It keeps no state, so every state the build made is
    freed when it returns.  A test that corrupts Q through this module's
    ``mutate`` or ``_placement`` calls ``_quotient_table.cache_clear()``
    before and after, so that the corrupted build runs and no later reader
    sees it."""
    q = quotient_graph(n)
    inverse = {rho: (0,) + rho.inverse().images
               for rho in {edge.rho for row in q.edges for edge in row}}
    return _QuotientTable(
        {frozenset(node.c): i for i, node in enumerate(q.nodes)}, q.edges,
        tuple(tuple((edge.generator, edge.target, inverse[edge.rho])
                    if edge.generator.delta > 0 else None for edge in row)
              for row in q.edges))


@dataclass(frozen=True, slots=True, weakref_slot=True)
class MGSResult:
    """A maximal green sequence, the word it spells and its permutation:
    the relabeling that moves the coframe's rows to the endpoint's.

    Slotted like ``perm.Permutation``: the search builds one per sequence,
    and the dataclass's own ``__getstate__`` and ``__setstate__`` pickle
    and copy it.
    """

    sequence: tuple[int, ...]
    word: PictureWord
    permutation: Permutation


def _green_vertices(state: ExtendedExchangeMatrix) -> list[int]:
    return [k for k in range(1, state.n + 1)
            if vertex_color(state, k) is Color.GREEN]


def enumerate_mgs(n: int) -> list[MGSResult]:
    """All maximal green sequences of straight A_n in lexicographic order.

    A depth-first walk over the states (pi, node) of Q that reads the
    green steps of the per-rank Q table: vertex k is row pi^{-1}(k) of the
    node, and stepping along a green row moves pi by the row's observed
    ``rho``.  A sequence is emitted when no green vertex remains; its node
    is then the coframe, and its permutation is the pi that moves the
    coframe's rows to the endpoint's.  Results of one call with equal
    permutations share one ``Permutation``.  No cap on the length is
    needed: every maximal green sequence of A_n has length at most
    n(n+1)/2.
    """
    # pi is carried as its inverse, the row of each vertex, so pi <- pi o rho
    # is rows <- rho^{-1} o rows, read from the table's green steps
    green = _quotient_table(n).green
    out: list[MGSResult] = []
    seq: list[int] = []
    factors: list[SignedGenerator] = []
    # the endpoints' rows, each with the one permutation its results share
    perms: dict[tuple[int, ...], Permutation] = {}

    def dfs(rows: tuple[int, ...], node: int):
        leaf = True
        steps = green[node]
        for k, r in enumerate(rows, start=1):
            step = steps[r - 1]
            if step is not None:
                leaf = False
                generator, target, inverse = step
                seq.append(k)
                factors.append(generator)
                dfs(tuple(map(inverse.__getitem__, rows)), target)
                seq.pop()
                factors.pop()
        if leaf:
            perm = perms.get(rows)
            if perm is None:
                perm = perms[rows] = _trusted(rows).inverse()
            out.append(MGSResult(tuple(seq), PictureWord(tuple(factors)),
                                 perm))

    # a recursive closure refers to itself through its cell, a reference
    # cycle that would leave it and all it holds to the cyclic collector;
    # emptying the cell ends the cycle, so the call frees them on return
    try:
        dfs(tuple(range(1, n + 1)), 0)
    finally:
        del dfs
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


class ExchangeWalk:
    """The piece of an exchange graph that walks from its roots reach.

    Node 0 is ``states[0]``, a copy of the walk's first start;
    ``states[i]`` is node i's state and ``_nodes`` maps each state,
    compared by value, back to its index.  Any node can root a walk, and
    ``add`` makes a node for a state no step has reached yet, such as a
    start that joins the walk (``_walk_for``).
    ``step(i, k)`` mutates node i at vertex k with plain ``mutate`` the
    first time and keeps ``(generator, target node)`` in the slot
    ``_steps[i][k - 1]``; a later step there is a lookup.  The generator is
    the signed root that k's c-vector spelled before the step, or ``None``
    if it spelled none.  ``run(seq, root)`` walks a whole sequence from
    node ``root``, reading filled slots itself.  So each (state, vertex)
    pair is mutated once, in whatever order and from whichever roots walks
    take them.  ``_memo`` maps each root ``formula.verify`` has read to
    that start's sigma, its inverse and, per node a sequence from it
    ended at, the endpoint's sigma's images and the observation, so that
    they are dropped with the walk.
    The walk holds no reference cycle, so its states are freed as soon as
    it is dropped.
    """

    __slots__ = ("states", "_nodes", "_steps", "_memo")

    def __init__(self, m: ExtendedExchangeMatrix):
        self.states, self._nodes, self._steps, self._memo = [], {}, [], {}
        self.add(m)

    def add(self, m: ExtendedExchangeMatrix) -> int:
        """A new node for ``m``, a state not on the walk yet, with its
        slots empty."""
        i = self._nodes[m] = len(self.states)
        self.states.append(m)
        self._steps.append([None] * m.n)
        return i

    def step(self, node: int, k: int) -> int:
        """The node that vertex ``k`` leads to from ``node``.  A vertex out
        of range raises ``mutate``'s ``IndexError``."""
        steps = self._steps[node]
        slot = steps[k - 1] if 0 < k <= len(steps) else None
        if slot is not None:
            return slot[1]
        state = self.states[node]
        target = mutate(state, k)
        i = self._nodes.get(target)
        if i is None:
            i = self.add(target)
        steps[k - 1] = vector_to_signed_root(state.c_row(k)), i
        return i

    def run(self, seq: Sequence[int],
            root: int) -> tuple[list[SignedGenerator], int]:
        """The generators ``seq`` spells from node ``root`` and the node it
        ends at.  Each step reads its slot with one index and one unpack;
        only an empty slot or a vertex outside 1..n, which cannot be
        unpacked, goes to ``step``, which fills the one and raises
        ``mutate``'s ``IndexError`` for the other.  A step whose c-vector
        spells no signed root raises ``ValueError``."""
        slots = self._steps
        node, factors = root, []
        for k in seq:
            try:
                # k - 1 would wrap round for a vertex below 1
                g, target = slots[node][k - 1] if k > 0 else None
            except (TypeError, IndexError):
                g = target = None
            if g is None:
                if target is None:
                    target = self.step(node, k)
                    g = slots[node][k - 1][0]
                if g is None:
                    raise ValueError(
                        f"c-vector of vertex {k} is not a signed root: "
                        f"{self.states[node].c_row(k)}")
            factors.append(g)
            node = target
        return factors, node


# this thread's last start (a weak reference), its walk and its root; see
# _walk_for
_local = threading.local()


def _walk_for(m: ExtendedExchangeMatrix) -> tuple[ExchangeWalk, int]:
    """This thread's ``ExchangeWalk`` and the node ``m`` is rooted at.

    The start object of the last call is found by an identity test.  While
    that object is alive, a start equal to a state on the walk is rooted at
    that state's node.  A start off the walk joins it as a new root, a copy
    of it, when it and the walk's first state are reachable states of
    straight A_n at one rank (``_q_node``): the exchange graph of straight
    A_n is connected, so the walk still holds states of one component, and
    each (state, vertex) pair of it is mutated once however the starts are
    ordered.  Any other start replaces the walk by a new one from a copy
    of it, rooted at node 0, and the old walk's states are freed; so a
    walk never mixes states of two components or ranks.  The walk never
    holds the caller's object, so a run whose starts were all dropped
    leaves nothing that a later run's counts depend on.
    ``enumerate_loops`` and ``formula.verify`` both read it."""
    last = getattr(_local, "last", None)
    previous = None if last is None else last[0]()
    if previous is m:
        return last[1], last[2]
    walk = None if previous is None else last[1]
    root = None if walk is None else walk._nodes.get(m)
    if root is None:
        copy = _trusted_state(m.b, m.c)
        first = None if walk is None else walk.states[0]
        if (first is not None and first.n == m.n and _q_node(m) is not None
                and _q_node(first) is not None):
            root = walk.add(copy)
        else:
            walk, root = ExchangeWalk(copy), 0
    _local.last = weakref.ref(m), walk, root
    return walk, root


@dataclass(frozen=True, slots=True, weakref_slot=True)
class LoopResult:
    """A loop and the row permutation from its start to its endpoint.

    Laid out like ``MGSResult``."""

    sequence: tuple[int, ...]
    permutation: Permutation


@functools.cache
def _straight_b(n: int) -> IntMatrix:
    """Straight A_n's b-part, validated once per rank."""
    return ExchangeMatrix.straight_a(n).b


def _q_node(m: ExtendedExchangeMatrix) -> int | None:
    """The index of ``m``'s node on Q when ``m`` is a reachable state of
    straight A_n, else ``None``.

    Reachable means a standard state with its rows moved: a row set of
    Q's and the b-part C B0 C^t that the c-matrix fixes.  The b-part is
    checked first, because framed states of other matrices share Q's
    framed row set, and the per-rank Q table is read only if it holds."""
    n = m.n
    if m.b != reconstructed_b(_straight_b(n), m.c):
        return None
    return _quotient_table(n).index.get(frozenset(m.c))


def _distance_to(m: ExtendedExchangeMatrix
                 ) -> Callable[[ExtendedExchangeMatrix], tuple[int, bool]]:
    """For a state reached from ``m``: a lower bound, at least 1, on the
    steps it needs to come back to ``m`` up to a row permutation, and
    whether it has ``m``'s set of c-rows, which a row permutation keeps,
    so that only such a state can close a loop.

    For a relabelled standard state of straight A_n (``_q_node``) the
    bound is exact: the distance on Q between the two states' nodes, from
    one breadth-first search that reads the per-rank Q table, or 2 for a
    state of ``m``'s node, whose row set is ``m``'s.  Every exchange-graph
    path projects onto a Q path and every Q path lifts from any lift of
    its source, so the Q distance is the distance to the class; and no
    edge of Q joins a node to itself, so a state of the class leaves it at
    every step and is back after two at the soonest, by a trivial loop
    (k, k).  The row set is the frozenset the node lookup already builds.
    Any other ``m`` gets 1 everywhere, the least any return takes: with no
    distances known, a larger bound would drop states one step from the
    class; its row sets are compared directly.
    """
    start = _q_node(m)
    if start is None:
        rows = frozenset(m.c)
        return lambda state: (1, frozenset(state.c) == rows)
    index, edges, _ = _quotient_table(m.n)
    distance = [None] * len(edges)
    distance[start] = 0
    frontier = [start]
    for i in frontier:  # grows while it is walked
        for edge in edges[i]:
            j = edge.target
            if distance[j] is None:
                distance[j] = distance[i] + 1
                frontier.append(j)

    def measure(state):
        far = distance[index[frozenset(state.c)]]
        return far or 2, not far

    return measure


def enumerate_loops(m: ExtendedExchangeMatrix,
                    max_len: int) -> list[LoopResult]:
    """Every sequence of length <= max_len that returns to ``m`` up to a
    row permutation, with that permutation.  Includes the trivial loops
    (k, k).  Depth-first over the prefixes that can still return, so
    lexicographic with prefixes first.

    The prefixes walk this thread's ``ExchangeWalk`` by node from the
    node ``m`` is rooted at (``_walk_for``), so the walk outlives the call
    until this thread next enumerates or verifies from a start that is
    neither on it nor able to join it, and the next start the search
    reached costs no mutation.  A prefix with r steps left goes on only if
    its node can come back to ``m``'s row-permutation class within r
    steps, by ``_distance_to``: on straight A_n its distance to the class,
    or 2 for a node in the class, so every prefix that goes on closes at
    least one loop; off straight A_n every prefix with a step left goes
    on.  The recursion carries the steps left.  A row permutation keeps
    the set of c-rows, so the loop test ``find_row_permutation`` runs only
    on a state with ``m``'s row set, which ``_distance_to`` reports with
    the bound; any other state closes no loop.  Both are kept per node for
    the call, so mutation runs at most once per distinct (state, vertex)
    pair the search expands and the loop test once per distinct state of
    ``m``'s row set it reaches, not once per prefix: at n = 3, L = 7 the
    84 starts make 300 tests, where testing every reached state took 4860.
    ``m`` itself is always tested, so a start with two equal c-rows raises
    ``find_row_permutation``'s "ambiguous" ``ValueError``.  The search
    recurses per step: past half the recursion limit it raises
    ValueError.
    """
    deepest = sys.getrecursionlimit() // 2
    if max_len > deepest:
        raise ValueError(f"loop length {max_len} exceeds {deepest}, the "
                         "longest the depth-first search accepts")
    if max_len <= 0:
        return []
    distance = _distance_to(m)
    walk, root = _walk_for(m)
    # the walk may hold nodes from earlier calls, so a node's loop
    # permutation (None off m's row set) and distance are kept the first
    # time this call reaches it
    known = {root: (find_row_permutation(m, m), distance(m)[0])}
    out: list[LoopResult] = []
    seq: list[int] = []

    def dfs(node: int, left: int):
        # left: the steps left after the one taken here
        for k, slot in enumerate(walk._steps[node], start=1):
            target = walk.step(node, k) if slot is None else slot[1]
            entry = known.get(target)
            if entry is None:
                state = walk.states[target]
                far, same = distance(state)
                entry = known[target] = (
                    find_row_permutation(m, state) if same else None, far)
            rho, far = entry
            seq.append(k)
            if rho is not None:
                out.append(LoopResult(tuple(seq), rho))
            if far <= left:
                dfs(target, left - 1)
            seq.pop()

    # the closure's cycle is ended as in enumerate_mgs: a start it kept
    # alive would also keep the thread's walk (see _walk_for)
    try:
        dfs(root, max_len - 1)
    finally:
        del dfs
    return out


def count_loops_by_replay(m: ExtendedExchangeMatrix, max_len: int) -> int:
    """Flat recount of loops: replay every sequence from scratch.  Shares
    no traversal state with enumerate_loops."""
    total = 0
    for length in range(1, max_len + 1):
        for seq in product(range(1, m.n + 1), repeat=length):
            if find_row_permutation(m, apply_sequence(m, seq)) is not None:
                total += 1
    return total


def mgs_census(n: int) -> dict:
    """Count, length histogram, permutation histogram and length range of
    the maximal green sequences of straight A_n, with none listed.

    It reads the per-rank Q table.  A maximal green sequence is a path of
    green edges on Q from the framed node to the coframe, and its
    permutation is rho_1 o ... o rho_L along the path.  So a memoized DP
    counts each node's walks by (pi, length): those of each green edge's
    target with the edge's ``rho`` composed on the left, or one (id, 0) at
    the coframe.  It recurses at most n(n+1)/2 deep.
    """
    edges = _quotient_table(n).edges

    memo: dict[int, Counter] = {}

    def walks(i: int) -> Counter:
        out = memo.get(i)
        if out is None:
            out = Counter()
            for edge in edges[i]:
                if edge.generator.delta > 0:
                    for (pi, length), count in walks(edge.target).items():
                        out[edge.rho * pi, length + 1] += count
            out = memo[i] = out or Counter({(Permutation.identity(n), 0): 1})
        return out

    # the cycle of a recursive closure, ended as in enumerate_mgs
    try:
        framed_walks = walks(0)
    finally:
        del walks
    lengths, perms = Counter(), Counter()
    for (pi, length), count in framed_walks.items():
        lengths[length] += count
        perms[pi.cycle_string()] += count
    return {
        "n": n,
        "count": sum(lengths.values()),
        "lengths": dict(sorted(lengths.items())),
        "permutations": dict(sorted(perms.items())),
        "min_length": min(lengths),
        "max_length": max(lengths),
    }


class _RowText(dict):
    """A c-row's text in a DOT label, rendered the first time it is
    asked for."""

    def __missing__(self, row: tuple[int, ...]) -> str:
        text = self[row] = " ".join(map(str, row))
        return text


def _dot_lines(graph: ExchangeGraph) -> Iterator[str]:
    """The lines of ``graph_to_dot``, each ending in a newline, one at a
    time, so a writer holds none of the text but the line it writes."""
    ids = [f"s{idx}" for idx in range(graph.node_count)]
    # each distinct c-row (a signed root, at most n(n+1)) is rendered once,
    # when the first label that holds it is built
    row_text = _RowText().__getitem__
    yield "graph exchange {\n"
    yield "  node [shape=box, fontname=monospace];\n"
    for node_id, key in zip(ids, graph.nodes):
        label = "\\n".join(map(row_text, key))
        yield f'  {node_id} [label="{label}"];\n'
    for node_id, neighbors in zip(ids, graph.edges):
        for k, other in enumerate(neighbors, start=1):
            # mutation is involutive, so each edge shows up from both ends;
            # keep the copy whose id string sorts first ("s10" < "s9")
            other_id = ids[other]
            if node_id < other_id:
                yield f'  {node_id} -- {other_id} [label="{k}"];\n'
    yield "}\n"


def graph_to_dot(graph: ExchangeGraph) -> str:
    """DOT rendering of the exchange graph, nodes labeled by c-matrices."""
    return "".join(_dot_lines(graph))
