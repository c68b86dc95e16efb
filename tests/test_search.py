import gc
import io
import json
import weakref

import pytest

from quiverperm import (ExchangeMatrix, Permutation, PictureWord, Root,
                        SignedGenerator, apply_sequence, build_exchange_graph,
                        count_loops_by_replay, count_mgs,
                        count_reachable_states, enumerate_loops,
                        enumerate_mgs, framed, graph_to_dot, is_all_red,
                        is_standard, mgs_census, mutate, reconstructed_b,
                        write_loops_jsonl, write_mgs_jsonl)

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
    # until the next cyclic collection
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        results = enumerate_()
        first = weakref.ref(results[0])
        del results
        assert first() is None
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("n,expected", [(1, 1), (2, 2), (3, 9), (4, 98)])
def test_count_mgs_agrees_with_enumeration(n, expected):
    assert count_mgs(n) == len(enumerate_mgs(n)) == expected


def test_count_mgs_max_len_guard():
    with pytest.raises(RuntimeError):
        count_mgs(2, max_len=1)


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
    assert graph.root == ((1,),)


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
            assert graph.state(other) == mutate(graph.state(key), k)


def test_graph_states_are_consistent():
    graph = build_exchange_graph(3)
    for key, state in graph.nodes.items():
        assert state.c == key
        assert state.b == reconstructed_b(graph.b0.b, key)


@pytest.mark.parametrize("n,expected", [(1, 2), (2, 5), (3, 14), (4, 42)])
def test_standard_node_counts_are_catalan(n, expected):
    graph = build_exchange_graph(n)
    standards = graph.standard_nodes()
    assert len(standards) == expected
    assert all(is_standard(m.c) for m in standards)


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


@pytest.mark.parametrize("n,depth", [(2, 6), (3, 4)])
def test_count_loops_matches_enumeration(n, depth):
    m = framed(ExchangeMatrix.straight_a(n))
    assert count_loops_by_replay(m, depth) == len(enumerate_loops(m, depth))


def test_loop_counts_depth6_frozen():
    m = framed(A2)
    results = enumerate_loops(m, max_len=6)
    assert len(results) == 30
    assert count_loops_by_replay(m, 6) == 30


def test_write_mgs_jsonl():
    buf = io.StringIO()
    write_mgs_jsonl(enumerate_mgs(2), buf)
    lines = [json.loads(line) for line in buf.getvalue().splitlines()]
    assert lines == [
        {"vertices": [1, 2], "word": PictureWord((X01, X12)).to_json(),
         "permutation": "id", "length": 2},
        {"vertices": [2, 1, 2],
         "word": PictureWord((X12, X02, X01)).to_json(),
         "permutation": "(12)", "length": 3},
    ]


def test_write_loops_jsonl():
    buf = io.StringIO()
    write_loops_jsonl(enumerate_loops(framed(A2), max_len=2), buf)
    lines = [json.loads(line) for line in buf.getvalue().splitlines()]
    assert lines == [
        {"vertices": [1, 1], "permutation": "id", "length": 2},
        {"vertices": [2, 2], "permutation": "id", "length": 2},
    ]


def test_graph_to_dot():
    dot = graph_to_dot(build_exchange_graph(1))
    assert dot.startswith("graph exchange {")
    assert 's0 [label="1"];' in dot
    assert 's1 [label="-1"];' in dot
    assert dot.count(" -- ") == 1
    dot2 = graph_to_dot(build_exchange_graph(2))
    assert dot2.count(" -- ") == 10  # 10 nodes x 2 edges / 2
