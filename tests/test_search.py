import gc
import weakref
from itertools import product

import pytest

from quiverperm import (ExchangeMatrix, Permutation, PictureWord, Root,
                        SignedGenerator, apply_sequence, build_exchange_graph,
                        count_loops_by_replay, count_mgs,
                        count_reachable_states, enumerate_loops,
                        enumerate_mgs, find_row_permutation, framed,
                        graph_to_dot, is_all_red, is_standard, mgs_census,
                        mutate, reconstructed_b)

A2 = ExchangeMatrix.straight_a(2)

X01 = SignedGenerator(Root(0, 1))
X02 = SignedGenerator(Root(0, 2))
X12 = SignedGenerator(Root(1, 2))


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


@pytest.mark.parametrize("n", [2, 3])
def test_mgs_results_are_green_to_all_red(n):
    m = framed(ExchangeMatrix.straight_a(n))
    for r in enumerate_mgs(n):
        assert is_all_red(apply_sequence(m, r.sequence))
        # strictly green: every proper prefix still has a green vertex,
        # witnessed by the prefix continuing
        for cut in range(len(r.sequence)):
            assert not is_all_red(apply_sequence(m, r.sequence[:cut]))


def test_mgs_antichain_and_order():
    results = [r.sequence for r in enumerate_mgs(3)]
    assert results == sorted(results)
    assert len(set(results)) == len(results)
    for a in results:
        for b in results:
            if a != b:
                assert a != b[:len(a)]


@pytest.mark.parametrize("enumerate_", [
    pytest.param(lambda: enumerate_mgs(3), id="mgs"),
    pytest.param(lambda: enumerate_loops(framed(ExchangeMatrix.straight_a(3)),
                                         4), id="loops"),
])
def test_enumeration_frees_results_without_a_collection(enumerate_):
    # results held by a reference cycle would outlive the caller's list
    # until the next cyclic collection; so would a loop permutation held
    # by the successor memo of enumerate_loops
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        results = enumerate_()
        first = weakref.ref(results[0])
        permutation = weakref.ref(results[0].permutation)
        del results
        assert first() is None
        assert permutation() is None
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("n,expected", [(1, 1), (2, 2), (3, 9), (4, 98)])
def test_count_mgs_agrees_with_enumeration(n, expected):
    assert count_mgs(n) == len(enumerate_mgs(n)) == expected


def test_mgs_census():
    assert mgs_census(2) == {
        "n": 2, "count": 2,
        "lengths": {2: 1, 3: 1},
        "permutations": {"(12)": 1, "id": 1},
        "min_length": 2, "max_length": 3,
    }
    census3 = mgs_census(3)
    assert census3["count"] == 9
    assert census3["lengths"] == {3: 1, 4: 4, 5: 2, 6: 2}
    assert census3["permutations"] == {
        "(12)": 2, "(123)": 2, "(13)": 2, "(23)": 2, "id": 1}
    with pytest.raises(ValueError, match="MAX_N=5"):
        mgs_census(6)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_mgs_length_bounds(n):
    census = mgs_census(n)
    assert census["min_length"] == n
    assert census["max_length"] == n * (n + 1) // 2


def test_build_exchange_graph_rank1():
    graph = build_exchange_graph(1)
    assert graph.node_count == 2
    assert set(graph.nodes) == {((1,),), ((-1,),)}
    assert graph.edges[((1,),)] == (((-1,),),)


@pytest.mark.parametrize("n,expected", [(1, 2), (2, 10), (3, 84)])
def test_graph_node_counts(n, expected):
    graph = build_exchange_graph(n)
    assert graph.node_count == expected
    assert count_reachable_states(n) == expected


def test_graph_bound():
    with pytest.raises(ValueError, match="MAX_N=5"):
        build_exchange_graph(6)


def test_graph_edges_are_involutive():
    graph = build_exchange_graph(3)
    for key, neighbors in graph.edges.items():
        assert len(neighbors) == 3
        for k, other in enumerate(neighbors, start=1):
            assert graph.edges[other][k - 1] == key
            assert graph.nodes[other] == mutate(graph.nodes[key], k)


def test_graph_states_are_consistent():
    b0 = ExchangeMatrix.straight_a(3).b
    for key, state in build_exchange_graph(3).nodes.items():
        assert state.c == key
        assert state.b == reconstructed_b(b0, key)


@pytest.mark.parametrize("n,expected", [(1, 2), (2, 5), (3, 14), (4, 42)])
def test_standard_node_counts_are_catalan(n, expected):
    graph = build_exchange_graph(n)
    assert sum(is_standard(c) for c in graph.nodes) == expected


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


@pytest.mark.parametrize("m", [
    pytest.param(framed(ExchangeMatrix(((0, 2, 0), (-2, 0, 1), (0, -1, 0)))),
                 id="double-arrow"),
    pytest.param(mutate(framed(ExchangeMatrix.straight_a(3)), 2),
                 id="A3-not-framed"),
])
def test_enumerate_loops_matches_flat_replay(m):
    # the memoized search against every sequence replayed from scratch,
    # off type A and away from the framed state
    reference = []
    for length in range(1, 7):
        for seq in product(range(1, m.n + 1), repeat=length):
            rho = find_row_permutation(m, apply_sequence(m, seq))
            if rho is not None:
                reference.append((seq, rho))
    got = [(r.sequence, r.permutation) for r in enumerate_loops(m, 6)]
    assert got == sorted(reference)
    assert len(got) == count_loops_by_replay(m, 6)


@pytest.mark.parametrize("n,depth", [(2, 6), (3, 4)])
def test_count_loops_matches_enumeration(n, depth):
    m = framed(ExchangeMatrix.straight_a(n))
    assert count_loops_by_replay(m, depth) == len(enumerate_loops(m, depth))


def test_loop_counts_depth6_frozen():
    m = framed(A2)
    results = enumerate_loops(m, max_len=6)
    assert len(results) == 30
    assert count_loops_by_replay(m, 6) == 30


def test_graph_to_dot():
    dot = graph_to_dot(build_exchange_graph(1))
    assert dot.startswith("graph exchange {")
    assert 's0 [label="1"];' in dot
    assert 's1 [label="-1"];' in dot
    assert dot.count(" -- ") == 1
    dot2 = graph_to_dot(build_exchange_graph(2))
    assert dot2.count(" -- ") == 10  # 10 nodes x 2 edges / 2


def test_graph_to_dot_writes_each_edge_once():
    # at n = 3 ids reach s83, where string order and numeric order differ
    graph = build_exchange_graph(3)
    keys = {f"s{idx}": key for idx, key in enumerate(graph.nodes)}
    edges = [line.split() for line in graph_to_dot(graph).splitlines()
             if " -- " in line]
    assert len(edges) == 126  # 84 nodes x 3 edges / 2
    assert len({frozenset((a, b)) for a, _, b, _ in edges}) == 126
    for a, _, b, label in edges:
        k = int(label.removeprefix('[label="').removesuffix('"];'))
        assert graph.edges[keys[a]][k - 1] == keys[b]
