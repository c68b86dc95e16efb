import copy
import dataclasses
import gc
import math
import pickle
import sys
import weakref
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, strategies as st

import quiverperm.search
from quiverperm import (Color, ExchangeMatrix, ExtendedExchangeMatrix,
                        MGSResult, Permutation, PictureWord, TrackedState,
                        Verdict, apply_sequence, build_exchange_graph,
                        coframed, count_loops_by_replay, count_mgs,
                        count_reachable_states, enumerate_loops,
                        enumerate_mgs, find_row_permutation, framed,
                        graph_to_dot, is_all_red, is_standard, mgs_census,
                        mutate, permute_rows, quotient_graph,
                        reconstructed_b, vector_to_signed_root, verify,
                        vertex_color)

from common import (A2, A3, X01, X02, X12, drop_transposition, graph,
                    in_fresh_thread, reachable, skew_symmetric)


def test_enumerate_mgs_rank1():
    results = enumerate_mgs(1)
    assert len(results) == 1
    assert results[0].sequence == (1,)
    assert results[0].permutation.is_identity()
    with pytest.raises(ValueError):
        enumerate_mgs(0)


def test_enumerate_mgs_rank2_exact():
    results = enumerate_mgs(2)
    assert [r.sequence for r in results] == [(1, 2), (2, 1, 2)]
    assert results[0].word == PictureWord((X01, X12))
    assert results[0].permutation.is_identity()
    assert results[1].word == PictureWord((X12, X02, X01))
    assert results[1].permutation == Permutation.transposition(2, 1, 2)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_mgs_results_are_green_to_all_red(n):
    m = framed(ExchangeMatrix.straight_a(n))
    for r in enumerate_mgs(n):
        assert is_all_red(apply_sequence(m, r.sequence))
        # strictly green: every step mutates a vertex that is green after
        # the prefix before it, so no proper prefix is all red
        for cut, k in enumerate(r.sequence):
            prefix_end = apply_sequence(m, r.sequence[:cut])
            assert vertex_color(prefix_end, k) is Color.GREEN


def mgs_by_tracked_walk(n):
    """Reference listing: a depth-first walk of ``TrackedState`` steps on
    plain ``mutate``, green vertices in ascending order, each sequence
    carrying the tracked word and sigma."""
    out = []

    def dfs(ts, seq):
        greens = [k for k in range(1, n + 1)
                  if vertex_color(ts.state, k) is Color.GREEN]
        if not greens:
            out.append(MGSResult(seq, PictureWord(ts.factors), ts.sigma))
        for k in greens:
            dfs(ts.step_vertex(k), seq + (k,))

    dfs(TrackedState.from_state(framed(ExchangeMatrix.straight_a(n))), ())
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_enumerate_mgs_equals_the_walk_on_plain_mutate(n):
    # the quotient-graph walk must list the same results in the same order;
    # its permutations are observed and the walk's sigma is predicted, so
    # this also checks the formula on every maximal green sequence
    assert enumerate_mgs(n) == mgs_by_tracked_walk(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_mgs_permutations_move_the_coframe_to_the_endpoint(n):
    m = framed(ExchangeMatrix.straight_a(n))
    co = coframed(ExchangeMatrix.straight_a(n))
    for r in enumerate_mgs(n):
        assert r.permutation == find_row_permutation(
            co, apply_sequence(m, r.sequence))


def test_mgs_results_share_one_permutation_per_distinct_permutation():
    results = enumerate_mgs(5)
    assert len(results) == 2981
    assert len({id(r.permutation) for r in results}) \
        == len({r.permutation for r in results}) == 43


def test_enumerate_mgs_walks_the_observed_rho_not_the_formula(monkeypatch):
    # with x02's transposition dropped from the formula, the listing must
    # not move at all, and verify must still catch the corruption
    expected = enumerate_mgs(3)
    drop_transposition(monkeypatch, X02)
    broken = enumerate_mgs(3)
    assert broken == expected
    start = framed(ExchangeMatrix.straight_a(3))
    assert any(verify(start, r.sequence).verdict is Verdict.MISMATCH
               for r in broken)


def test_mgs_antichain_and_order():
    results = [r.sequence for r in enumerate_mgs(3)]
    assert results == sorted(results)
    assert len(set(results)) == len(results)
    for a in results:
        for b in results:
            if a != b:
                assert a != b[:len(a)]


@pytest.mark.parametrize("enumerate_,release", [
    pytest.param(lambda: enumerate_mgs(3), lambda: None, id="mgs"),
    pytest.param(lambda: enumerate_loops(framed(ExchangeMatrix.straight_a(3)),
                                         4),
                 lambda: verify(framed(A2), ()), id="loops"),
])
def test_enumeration_frees_results_without_a_collection(enumerate_, release,
                                                      monkeypatch):
    # results held by a reference cycle would outlive the caller's list
    # until the next cyclic collection; so would the states the enumeration
    # reached, and a loop permutation kept per node by enumerate_loops.
    # enumerate_loops leaves its states on the thread's walk, which the
    # next verify (or enumerate_loops) from a start on none of its nodes
    # replaces;
    # enumerate_mgs keeps none.  The per-rank Q table is dropped first, so
    # that the states of its build are watched too
    quiverperm.search._quotient_table.cache_clear()
    reached = []
    real = quiverperm.search.mutate

    def watched(state, k):
        out = real(state, k)
        reached.append(weakref.ref(out))
        return out

    monkeypatch.setattr(quiverperm.search, "mutate", watched)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        results = enumerate_()
        release()
        assert reached and all(ref() is None for ref in reached)
        first = weakref.ref(results[0])
        permutation = weakref.ref(results[0].permutation)
        del results
        assert first() is None
        assert permutation() is None
    finally:
        if was_enabled:
            gc.enable()


def test_quotient_table_is_built_once_per_rank_and_keeps_no_state(
        monkeypatch):
    quiverperm.search._quotient_table.cache_clear()
    made, moved = [], []

    def watch(name, sink):
        real = getattr(quiverperm.search, name)

        def watched(*args):
            out = real(*args)
            sink.append(weakref.ref(out))
            return out

        monkeypatch.setattr(quiverperm.search, name, watched)

    # every node of Q but the framed one is a mutated state with its rows
    # moved back, once, when its row set is first reached
    watch("mutate", made)
    watch("permute_rows", moved)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        # one plain mutate per (node, row) of Q(4): 42 nodes, 4 rows
        first = enumerate_mgs(4)
        assert len(made) == 42 * 4
        assert len(moved) == 41
        assert all(ref() is None for ref in made + moved)
        census = mgs_census(4)
        assert enumerate_mgs(4) == first
        assert len(made) == 42 * 4
        assert census["count"] == len(first) == 98
        # quotient_graph itself is not cached: every call mutates anew and
        # returns new states
        q = quotient_graph(4)
        assert len(made) == 2 * 42 * 4
        again = quotient_graph(4)
        assert len(made) == 3 * 42 * 4
        assert again == q
        assert all(a is not b for a, b in zip(again.nodes, q.nodes))
        # equal rhos share one object, so the table keeps few of them
        rhos = [edge.rho for row in q.edges for edge in row]
        assert len({id(rho) for rho in rhos}) == len(set(rhos)) < len(rhos)
    finally:
        if was_enabled:
            gc.enable()


def test_recursive_searches_leave_no_cyclic_garbage():
    # each search recurses through a closure that refers to itself; the
    # cycle is ended on return, so the cyclic collector finds nothing
    m = framed(A3)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for search in (lambda: enumerate_loops(m, 4),
                       lambda: enumerate_mgs(3), lambda: mgs_census(3)):
            assert search()
            assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


def listing_census(results):
    """The lengths and permutations of listed maximal green sequences."""
    return (Counter(len(r.sequence) for r in results),
            Counter(r.permutation.cycle_string() for r in results))


@pytest.mark.slow
def test_count_mgs_agrees_with_enumeration_past_the_cli_bound():
    # the size bound belongs to the CLI; the library enumerates n = 6
    results = enumerate_mgs(6)
    assert len(results) == count_mgs(6) == 340549
    census = mgs_census(6)
    assert (census["lengths"], census["permutations"]) \
        == listing_census(results)


CENSUS3 = {
    "n": 3, "count": 9,
    "lengths": {3: 1, 4: 4, 5: 2, 6: 2},
    "permutations": {"(12)": 2, "(123)": 2, "(13)": 2, "(23)": 2, "id": 1},
    "min_length": 3, "max_length": 6,
}


def test_mgs_census():
    assert mgs_census(2) == {
        "n": 2, "count": 2,
        "lengths": {2: 1, 3: 1},
        "permutations": {"(12)": 1, "id": 1},
        "min_length": 2, "max_length": 3,
    }
    assert mgs_census(3) == CENSUS3


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_mgs_census_matches_the_listing(n):
    # the census never lists a sequence; enumerate_mgs lists each one
    results = enumerate_mgs(n)
    lengths, perms = listing_census(results)
    assert mgs_census(n) == {
        "n": n, "count": len(results),
        "lengths": lengths, "permutations": perms,
        "min_length": min(lengths), "max_length": max(lengths),
    }


def test_mgs_census_lists_no_sequence(monkeypatch):
    def refuse(n):
        raise AssertionError("the census listed the sequences")

    monkeypatch.setattr(quiverperm.search, "enumerate_mgs", refuse)
    assert mgs_census(3) == CENSUS3


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_mgs_length_bounds(n):
    census = mgs_census(n)
    assert census["min_length"] == n
    assert census["max_length"] == n * (n + 1) // 2


def test_build_exchange_graph_rank1():
    assert graph(1).node_count == 2
    assert list(graph(1).nodes) == [((1,),), ((-1,),)]
    assert graph(1).edges == ((1,), (0,))


@pytest.mark.slow
def test_reachable_state_count_rank6():
    # n! relabelings of each of the Catalan(n+1) standard states
    catalan7 = math.comb(14, 7) // 8
    assert count_reachable_states(6) == math.factorial(6) * catalan7 == 308880


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_build_exchange_graph_mutates_once_per_state_and_vertex(n,
                                                                monkeypatch):
    # the benchmark pins search.graph.mutates_per_node at n: one plain
    # mutate per (state, vertex) pair, none skipped and none repeated
    calls = []
    real = quiverperm.search.mutate

    def counted(state, k):
        calls.append((state.c, k))
        return real(state, k)

    monkeypatch.setattr(quiverperm.search, "mutate", counted)
    built = build_exchange_graph(n)
    assert len(calls) == len(set(calls)) == n * built.node_count


def test_graph_edges_are_involutive():
    edges = graph(3).edges
    states = list(graph(3).nodes.values())
    assert len(edges) == len(states)
    for i, neighbors in enumerate(edges):
        assert len(neighbors) == 3
        for k, j in enumerate(neighbors, start=1):
            assert edges[j][k - 1] == i
            assert states[j] == mutate(states[i], k)


@pytest.mark.parametrize("n", [1, 2, 3, 4,
                               pytest.param(5, marks=pytest.mark.slow)])
def test_graph_states_are_consistent(n):
    # the builder checks b-parts through its table of numbered rows; this
    # recomputes each from scratch
    b0 = ExchangeMatrix.straight_a(n).b
    for key, state in graph(n).nodes.items():
        assert state.c == key
        assert state.b == reconstructed_b(b0, key)


def corrupted_b(state):
    """``state`` with b-entries (1, 2) and (2, 1) moved by one, so the
    b-part stays skew-symmetric but no longer matches the c-part."""
    b = [list(row) for row in state.b]
    b[0][1] += 1
    b[1][0] -= 1
    return ExtendedExchangeMatrix(tuple(map(tuple, b)), state.c)


@pytest.mark.parametrize("corrupted,message", [
    # mutating the framed state at 1 reaches a c-matrix no earlier step has
    (mutate(framed(A2), 1).c, "b-part disagrees"),
    # the build starts at the framed state, so any mutation that lands on
    # its c-matrix revisits it
    (framed(A2).c, "different b-parts"),
], ids=["new-node", "revisited-node"])
def test_graph_build_rejects_a_wrong_b_part(monkeypatch, corrupted, message):
    def broken(state, k):
        out = mutate(state, k)
        return corrupted_b(out) if out.c == corrupted else out

    monkeypatch.setattr(quiverperm.search, "mutate", broken)
    with pytest.raises(AssertionError, match=message):
        build_exchange_graph(2)


@pytest.mark.parametrize("n,expected", [(1, 2), (2, 5), (3, 14), (4, 42)])
def test_standard_node_counts_are_catalan(n, expected):
    assert sum(is_standard(c) for c in graph(n).nodes) == expected


def test_enumerate_loops_short():
    m = framed(A2)
    assert [(r.sequence, r.permutation.cycle_string())
            for r in enumerate_loops(m, max_len=2)] == [
        ((1, 1), "id"), ((2, 2), "id")]


def test_enumerate_loops_depth5_frozen():
    m = framed(A2)
    got = [(r.sequence, r.permutation.cycle_string())
           for r in enumerate_loops(m, max_len=5)]
    assert got == [
        ((1, 1), "id"),
        ((1, 1, 1, 1), "id"),
        ((1, 1, 2, 2), "id"),
        ((1, 2, 1, 2, 1), "(12)"),
        ((1, 2, 2, 1), "id"),
        ((2, 1, 1, 2), "id"),
        ((2, 1, 2, 1, 2), "(12)"),
        ((2, 2), "id"),
        ((2, 2, 1, 1), "id"),
        ((2, 2, 2, 2), "id"),
    ]


def test_loops_replay_from_other_basepoints():
    # loops exist around every state, not just the framed one
    m = apply_sequence(framed(A2), (2, 1))
    results = enumerate_loops(m, max_len=4)
    assert results
    for r in results:
        assert apply_sequence(m, r.sequence).c \
            == r.permutation.apply_to_rows(m.c)
    assert (1, 1) in [r.sequence for r in results]


@st.composite
def loop_starts(draw):
    """``framed(b0)`` for a skew-symmetric ``b0`` of any type, n <= 3, after
    up to four drawn mutations."""
    m = framed(draw(skew_symmetric(max_n=3, bound=2)))
    return apply_sequence(m, draw(st.lists(st.integers(1, m.n), max_size=4)))


def flat_replay(m, max_len):
    """Every loop of length <= max_len from ``m``, each sequence replayed
    from scratch, in lexicographic order with prefixes first."""
    reference = []
    for length in range(1, max_len + 1):
        for seq in product(range(1, m.n + 1), repeat=length):
            rho = find_row_permutation(m, apply_sequence(m, seq))
            if rho is not None:
                reference.append((seq, rho))
    return sorted(reference)


def listed(m, max_len):
    return [(r.sequence, r.permutation) for r in enumerate_loops(m, max_len)]


def assert_loops_match_flat_replay(m, max_len):
    got = listed(m, max_len)
    assert got == flat_replay(m, max_len)
    assert len(got) == count_loops_by_replay(m, max_len)


@pytest.mark.parametrize("m", [
    pytest.param(framed(ExchangeMatrix(((0, 2, 0), (-2, 0, 1), (0, -1, 0)))),
                 id="double-arrow"),
    pytest.param(mutate(framed(A3), 2), id="A3-not-framed"),
    # c = I is the row set of Q's framed node: only the b-part tells this
    # start from straight A_3's, and the walk must not be pruned on Q
    pytest.param(framed(ExchangeMatrix(((0, -1, 0), (1, 0, -1), (0, 1, 0)))),
                 id="mirrored-A3"),
    pytest.param(permute_rows(apply_sequence(framed(A3), (2, 3, 1)),
                              Permutation((3, 1, 2))), id="A3-relabelled"),
])
def test_enumerate_loops_matches_flat_replay(m):
    # the walk against every sequence replayed from scratch, off type A,
    # away from the framed state and with the rows moved
    assert_loops_match_flat_replay(m, 6)


@pytest.mark.parametrize("n,max_len", [
    (2, 6), (3, 5),
    # the benchmark's shape: loop-verify lists these loops
    pytest.param(3, 7, marks=pytest.mark.slow)])
def test_pruned_loops_match_flat_replay_at_every_reachable_start(n, max_len):
    # pruning on Q loses no loop and adds none, from any start of the rank
    starts = reachable(n)
    assert len(starts) == {2: 10, 3: 84}[n]
    for m in starts:
        assert listed(m, max_len) == flat_replay(m, max_len)


@given(loop_starts(), st.integers(0, 5))
def test_enumerate_loops_matches_flat_replay_on_drawn_starts(m, max_len):
    assert_loops_match_flat_replay(m, max_len)


def distances(edges, sources):
    """Breadth-first distances on the exchange graph from a set of nodes."""
    out = dict.fromkeys(sources, 0)
    frontier = list(out)
    for i in frontier:  # grows while it is walked
        for j in edges[i]:
            if j not in out:
                out[j] = out[i] + 1
                frontier.append(j)
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_class_state_needs_two_steps_back(n):
    # the bound the search prunes by, against distances on the exchange
    # graph: a state of the start's row-permutation class comes back in
    # two steps and no fewer, any other state in exactly its distance to
    # the class
    states = list(graph(n).nodes.values())
    edges = graph(n).edges
    for m in states:
        distance = quiverperm.search._distance_to(m)
        back = distances(edges, [i for i, s in enumerate(states)
                                 if find_row_permutation(m, s) is not None])
        for i, s in enumerate(states):
            steps = 1 + min(back[j] for j in edges[i])
            assert steps == (back[i] or 2) == distance(s)


@pytest.mark.parametrize("m,max_len", [
    *[pytest.param(framed(A3), n, id=f"{n}") for n in (2, 4, 6, 7)],
    *[pytest.param(m, n, id=f"{name}-{n}") for n in (2, 4, 6, 7)
      for name, m in [
          ("mutated", apply_sequence(framed(A3), (2, 1))),
          ("relabelled", permute_rows(apply_sequence(framed(A3), (1, 3)),
                                      Permutation((2, 3, 1))))]],
])
def test_enumerate_loops_mutates_each_step_and_tests_each_state_once(
        monkeypatch, m, max_len):
    # the rank's quotient table mutates through the same module; built
    # first, it is counted by no test, whatever ran before.  The search runs
    # on a fresh thread, so no walk left on this thread by an earlier call
    # from m, or from any state equal to one it reaches, shares its steps
    quiverperm.search._quotient_table(3)
    mutated, tested, spelled = [], [], []
    real_mutate = quiverperm.search.mutate
    real_test = quiverperm.search.find_row_permutation
    real_spell = quiverperm.search.vector_to_signed_root
    monkeypatch.setattr(quiverperm.search, "mutate",
                        lambda s, k: mutated.append(k) or real_mutate(s, k))
    monkeypatch.setattr(quiverperm.search, "find_row_permutation",
                        lambda a, b: tested.append(b) or real_test(a, b))
    monkeypatch.setattr(quiverperm.search, "vector_to_signed_root",
                        lambda v: spelled.append(v) or real_spell(v))
    in_fresh_thread(enumerate_loops, m, max_len)
    monkeypatch.undo()
    # each step spells the generator of its c-vector as it mutates
    assert len(spelled) == len(mutated)
    # on the exchange graph, not on Q: a state is expanded when a loop can
    # still pass through it, that is when its distance from m plus the
    # steps it needs to come back to m's row-permutation class is at most
    # max_len; a state of the class needs two, by a trivial loop (k, k)
    states = list(graph(3).nodes.values())
    edges = graph(3).edges
    start = distances(edges, [states.index(m)])
    back = distances(edges, [i for i, s in enumerate(states)
                             if find_row_permutation(m, s) is not None])
    expanded = {i for i, d in start.items()
                if d < max_len and d + (back[i] or 2) <= max_len}
    reached = expanded.union(*(edges[i] for i in expanded))
    # one mutation per step of an expanded state; one loop test per state
    # reached, the start included
    assert len(mutated) == 3 * len(expanded)
    assert len(tested) == len(reached)
    if max_len > 2:  # fewer than every state within max_len - 1 steps
        assert len(expanded) < sum(d < max_len for d in start.values())


@pytest.mark.parametrize("first", [
    pytest.param(lambda: enumerate_mgs(2)[1], id="MGSResult"),
    pytest.param(lambda: enumerate_loops(framed(A2), 5)[3], id="LoopResult"),
])
def test_results_are_slotted_and_still_pickle_copy_and_weakref(first):
    # the results are frozen dataclasses; pickling and copying must
    # rebuild them without assigning to a frozen field
    result = first()
    assert not hasattr(result, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.sequence = ()
    fields = {f.name: getattr(result, f.name)
              for f in dataclasses.fields(result)}
    assert type(result)(**fields) == result
    copies = [pickle.loads(pickle.dumps(result, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for again in copies + [copy.copy(result), copy.deepcopy(result)]:
        assert type(again) is type(result)
        assert again == result and hash(again) == hash(result)
    ref = weakref.ref(result)
    assert ref() is result
    del result
    assert ref() is None


def test_walk_spells_a_generator_when_step_fills_its_slot():
    # step keeps the generator its c-vector spelled next to the target, or
    # None for a c-vector that spells no root, which run then reports: on
    # the framed double arrow, vertex 1's c-row after vertex 2 is (1, 2)
    walk = quiverperm.search.ExchangeWalk(
        framed(ExchangeMatrix(((0, 2), (-2, 0)))))
    node = walk.step(0, 2)
    assert walk._steps[0][1] == (vector_to_signed_root((0, 1)), node)
    assert walk.step(node, 1) == 2
    assert walk._steps[node][0] == (None, 2)  # spelled once, as no root
    assert walk.step(node, 2) == 0
    assert walk._steps[node][1] == (vector_to_signed_root((0, -1)), 0)
    assert walk.run((2, 2), 0) == ([vector_to_signed_root((0, 1)),
                                 vector_to_signed_root((0, -1))], 0)
    with pytest.raises(ValueError, match=r"not a signed root: \(1, 2\)$"):
        walk.run((2, 1), 0)
    assert walk._steps[node][0] == (None, 2)


@pytest.mark.parametrize("n,depth", [(3, 4)])
def test_count_loops_matches_enumeration(n, depth):
    m = framed(ExchangeMatrix.straight_a(n))
    assert count_loops_by_replay(m, depth) == len(enumerate_loops(m, depth))


def test_enumerate_loops_refuses_lengths_past_half_the_recursion_limit():
    # at rank 1 the only loops are (1, 1, ...) of even length, so the
    # longest accepted length is reached without a blow-up in their number
    deepest = sys.getrecursionlimit() // 2
    m = framed(ExchangeMatrix.straight_a(1))
    assert len(enumerate_loops(m, deepest)) == deepest // 2
    with pytest.raises(ValueError, match=f"exceeds {deepest}, the longest"):
        enumerate_loops(m, deepest + 1)


def test_graph_to_dot():
    dot = graph_to_dot(graph(1))
    assert dot.startswith("graph exchange {")
    assert 's0 [label="1"];' in dot
    assert 's1 [label="-1"];' in dot
    assert dot.count(" -- ") == 1
    dot2 = graph_to_dot(graph(2))
    assert dot2.count(" -- ") == 10  # 10 nodes x 2 edges / 2


def test_graph_to_dot_writes_each_edge_once():
    # at n = 3 ids reach s83, where string order and numeric order differ
    edges = [line.split() for line in graph_to_dot(graph(3)).splitlines()
             if " -- " in line]
    assert len(edges) == 126  # 84 nodes x 3 edges / 2
    assert len({frozenset((a, b)) for a, _, b, _ in edges}) == 126
    for a, _, b, label in edges:
        k = int(label.removeprefix('[label="').removesuffix('"];'))
        assert graph(3).edges[int(a[1:])][k - 1] == int(b[1:])
