import copy
import dataclasses
import json
import pickle
import random
import sys
import threading
import weakref

import pytest
from hypothesis import given, strategies as st

from quiverperm import (Color, ExchangeMatrix, ExtendedExchangeMatrix,
                        Permutation, apply_sequence, coframed,
                        find_row_permutation, format_state, framed,
                        is_all_red, mutate, permute_rows,
                        reconstructed_b, state_to_dot, state_to_json,
                        vertex_color)
from quiverperm import quiver
from quiverperm.quiver import _reconstructor, matrix_from_json

from common import A2, A3, graph, reachable, reference_mutate, skew_symmetric

A1 = ExchangeMatrix.straight_a(1)


def test_straight_orientation():
    assert A1.b == ((0,),)
    assert A2.b == ((0, 1), (-1, 0))
    assert A3.b == ((0, 1, 0), (-1, 0, 1), (0, -1, 0))
    with pytest.raises(ValueError):
        ExchangeMatrix.straight_a(0)


def test_exchange_matrix_validation():
    with pytest.raises(ValueError):
        ExchangeMatrix(((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        ExchangeMatrix(((1,),))


def test_framed_and_coframed():
    f = framed(A2)
    assert f.b == ((0, 1), (-1, 0))
    assert f.c == ((1, 0), (0, 1))
    g = coframed(A2)
    assert g.b == f.b
    assert g.c == ((-1, 0), (0, -1))
    assert framed(A1).c == ((1,),)


def test_extended_matrix_validation():
    with pytest.raises(ValueError):
        ExtendedExchangeMatrix(((0, 1), (1, 0)), ((1, 0), (0, 1)))
    with pytest.raises(ValueError):
        ExtendedExchangeMatrix(A2.b, ((1, 0),))
    # zero c-vector can never be a signed root
    with pytest.raises(ValueError):
        ExtendedExchangeMatrix(A2.b, ((1, 0), (0, 0)))


def test_states_are_slotted_and_still_pickle_copy_and_weakref():
    # mutate builds its results through the slot descriptors; pickling and
    # copying must rebuild them without assigning to a frozen field
    m = mutate(mutate(framed(A3), 2), 1)
    assert not hasattr(m, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.b = A3.b
    copies = [pickle.loads(pickle.dumps(m, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for again in copies + [copy.copy(m), copy.deepcopy(m)]:
        assert type(again) is ExtendedExchangeMatrix
        assert again == m and hash(again) == hash(m)
        assert mutate(again, 3) == mutate(m, 3)
    ref = weakref.ref(m)
    assert ref() is m
    del m
    assert ref() is None
    # the public constructor still validates
    with pytest.raises(ValueError, match="skew-symmetric"):
        ExtendedExchangeMatrix(((0, 1), (1, 0)), ((1, 0), (0, 1)))
    with pytest.raises(ValueError, match="nonzero"):
        ExtendedExchangeMatrix(A2.b, ((1, 0), (0, 0)))


def test_constructors_reject_entries_that_are_not_ints():
    # mutate's row tables are keyed by value and 1.0 == 1, so an accepted
    # float state would leave float rows for integer states to read
    clear_memo()
    with pytest.raises(ValueError, match="ints"):
        ExtendedExchangeMatrix(((0, 1.0), (-1.0, 0)), ((1.0, 0.0), (0.0, 1.0)))
    with pytest.raises(ValueError, match="ints"):
        ExtendedExchangeMatrix(A2.b, ((1, 0), (0, 1.0)))
    with pytest.raises(ValueError, match="ints"):
        ExtendedExchangeMatrix(((0, True), (-1, 0)), ((1, 0), (0, 1)))
    with pytest.raises(ValueError, match="ints"):
        ExchangeMatrix(((0, 1.0), (-1.0, 0)))
    with pytest.raises(ValueError, match="ints"):
        ExchangeMatrix(((0, True), (-1, 0)))
    got = mutate(framed(ExchangeMatrix.straight_a(2)), 1)
    assert got.b == ((0, -1), (1, 0)) and got.c == ((-1, 0), (0, 1))
    assert all(type(x) is int for row in got.b + got.c for x in row)


def test_mutate_framed_a2():
    m1 = mutate(framed(A2), 1)
    assert m1.b == ((0, -1), (1, 0))
    assert m1.c == ((-1, 0), (0, 1))
    m2 = mutate(framed(A2), 2)
    assert m2.b == ((0, -1), (1, 0))
    assert m2.c == ((1, 1), (0, -1))


def outcome(f, m, k):
    """``f(m, k)``, or the type and message of the error it raises."""
    try:
        return f(m, k)
    except (IndexError, ValueError) as e:
        return type(e), str(e)


def test_mutate_out_of_range():
    for n in (1, 2, 3):
        m = framed(ExchangeMatrix.straight_a(n))
        for k in (0, -1, n + 1):
            got = outcome(mutate, m, k)
            assert got == (IndexError, f"vertex {k} out of range 1..{n}")
            assert got == outcome(reference_mutate, m, k)


@given(st.sampled_from([1, 3]).flatmap(lambda bound: skew_symmetric(
    bound=bound)), st.data())
def test_mutate_matches_the_entrywise_reference(b0, data):
    # arbitrary nonzero c-rows, mixed signs included, so rows of every sign
    # pattern change or are shared; drawn from a small pool and its
    # negatives, so that with b-entries of size 1 some mutations cancel a
    # c-row
    n = b0.n
    pool = data.draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n).filter(
        any), min_size=1, max_size=3))
    pool += [tuple(-x for x in row) for row in pool]
    m = ExtendedExchangeMatrix(b0.b, tuple(data.draw(
        st.lists(st.sampled_from(pool), min_size=n, max_size=n))))
    for k in data.draw(st.lists(st.integers(1, n), min_size=1, max_size=4)):
        got = outcome(mutate, m, k)
        assert got == outcome(reference_mutate, m, k)
        if not isinstance(got, ExtendedExchangeMatrix):
            break
        m = got


def clear_memo():
    """Empty ``mutate``'s memo tables."""
    for table in (quiver._pivots, quiver._b_rows, quiver._c_rows):
        table.clear()


def memo_sizes():
    return [len(t) for t in (quiver._pivots, quiver._b_rows, quiver._c_rows)]


@pytest.mark.parametrize("n", [1, 2, 3, 4,
                               pytest.param(5, marks=pytest.mark.slow)])
def test_mutate_matches_the_entrywise_reference_everywhere(n):
    # the first pass fills mutate's memo tables from empty; the second
    # reads every changed row from them
    states = list(graph(n).nodes.values())
    clear_memo()
    for _ in range(2):
        for m in states:
            for k in range(1, n + 1):
                got = mutate(m, k)
                assert got == reference_mutate(m, k)
                # a row other than k's that keeps its entries is the
                # input's tuple
                for old, new in ((m.b, got.b), (m.c, got.c)):
                    assert all(new[i] is old[i] for i in range(n)
                               if i != k - 1 and new[i] == old[i])


@pytest.mark.parametrize("seed", [1, 2])
def test_mutate_memo_is_cleared_at_its_limit(monkeypatch, seed):
    # a random walk on a matrix not of type A meets new rows at most
    # steps, so with the limit lowered every table fills and is cleared
    # many times, and every result must still equal the reference
    limit = 4
    monkeypatch.setattr(quiver, "_MEMO_LIMIT", limit)
    rng = random.Random(seed)
    n = 4
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rng.choice((-2, -1, 1, 2))
            rows[j][i] = -rows[i][j]
    m = framed(ExchangeMatrix(tuple(map(tuple, rows))))
    clear_memo()
    cleared = [False] * 3
    for _ in range(60):
        k = rng.randint(1, n)
        before = memo_sizes()
        got = mutate(m, k)
        assert got == reference_mutate(m, k)
        after = memo_sizes()
        assert max(after) <= limit
        cleared = [done or a < b
                   for done, a, b in zip(cleared, after, before)]
        m = got
    assert all(cleared)


def test_mutate_memo_is_shared_between_threads(monkeypatch):
    # formula.verify walks on several threads, and they share mutate's
    # tables; with the limit lowered and the switch interval shortened,
    # clears land between other threads' lookups, and every result must
    # still be right
    monkeypatch.setattr(quiver, "_MEMO_LIMIT", 4)
    pairs = [(m, k) for m in graph(3).nodes.values() for k in (1, 2, 3)]
    expected = {pair: reference_mutate(*pair) for pair in pairs}
    wrong = []

    def work(seed):
        rng = random.Random(seed)
        try:
            for _ in range(1000):
                m, k = rng.choice(pairs)
                if mutate(m, k) != expected[m, k]:
                    wrong.append((m, k))
        except Exception as exc:  # reported below, not lost with the thread
            wrong.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,))
                   for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def test_c_row_out_of_range():
    m = framed(A2)
    assert m.c_row(1) == (1, 0)
    assert m.c_row(2) == (0, 1)
    with pytest.raises(IndexError):
        m.c_row(0)
    with pytest.raises(IndexError):
        m.c_row(3)


def test_mutation_is_involutive():
    m = framed(A3)
    assert mutate(mutate(m, 2), 2) == m


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mutation_involution_everywhere(n):
    for m in reachable(n, 4):
        for k in range(1, n + 1):
            assert mutate(mutate(m, k), k) == m


def test_apply_sequence():
    m = framed(A2)
    assert apply_sequence(m, ()) == m
    assert apply_sequence(m, (1, 2)) == coframed(A2)
    end = apply_sequence(m, (2, 1, 2))
    assert end.b == ((0, -1), (1, 0))
    assert end.c == ((0, -1), (-1, 0))


def test_vertex_color():
    m = framed(A2)
    assert vertex_color(m, 1) is Color.GREEN
    assert vertex_color(m, 2) is Color.GREEN
    assert vertex_color(mutate(m, 2), 2) is Color.RED
    assert all(vertex_color(coframed(A2), k) is Color.RED for k in (1, 2))


def test_vertex_color_rejects_mixed_signs():
    zero2 = ((0, 0), (0, 0))
    bad = ExtendedExchangeMatrix(zero2, ((1, -1), (0, 1)))
    with pytest.raises(ValueError):
        vertex_color(bad, 1)


@given(st.one_of(st.integers(1, 5).map(ExchangeMatrix.straight_a),
                 skew_symmetric()), st.data())
def test_unvalidated_results_pass_validation(b0, data):
    # mutate and permute_rows skip the constructor's check; every state they
    # return along a random walk must still pass it
    n = b0.n
    m = framed(b0)
    for k in data.draw(st.lists(st.integers(1, n), max_size=12)):
        m = mutate(m, k)
        assert ExtendedExchangeMatrix(m.b, m.c) == m
        rho = Permutation(tuple(data.draw(st.permutations(range(1, n + 1)))))
        relabeled = permute_rows(m, rho)
        assert ExtendedExchangeMatrix(relabeled.b, relabeled.c) == relabeled


def test_mutate_rejects_a_zero_c_vector():
    # valid, but not reachable from a framed quiver: mutating at 2 adds
    # c-row 2 to c-row 1 and cancels it.  The cancelled row is never
    # memoized, so a second call raises too
    m = ExtendedExchangeMatrix(((0, 1), (-1, 0)), ((-1, 0), (1, 0)))
    for _ in range(2):
        with pytest.raises(ValueError,
                           match="every c-vector must be nonzero"):
            mutate(m, 2)


def test_is_all_red():
    assert is_all_red(coframed(A3))
    assert not is_all_red(framed(A3))
    assert not is_all_red(mutate(framed(A2), 2))


def test_permute_rows():
    swap = Permutation.transposition(2, 1, 2)
    m = permute_rows(coframed(A2), swap)
    assert m.b == ((0, -1), (1, 0))
    assert m.c == ((0, -1), (-1, 0))
    assert m == apply_sequence(framed(A2), (2, 1, 2))
    assert permute_rows(m, swap.inverse()) == coframed(A2)
    ident = Permutation.identity(2)
    assert permute_rows(m, ident) == m
    with pytest.raises(ValueError):
        permute_rows(m, Permutation.identity(3))


def test_permutation_equivariance_of_mutation():
    # relabeling commutes with mutation: mu_{rho(k)} . rho == rho . mu_k
    perms = [Permutation(im) for im in
             ((1, 2, 3), (2, 1, 3), (1, 3, 2), (3, 1, 2), (2, 3, 1), (3, 2, 1))]
    for m in reachable(3, 3):
        for rho in perms:
            for k in range(1, 4):
                assert (mutate(permute_rows(m, rho), rho(k))
                        == permute_rows(mutate(m, k), rho))


@given(skew_symmetric(), st.data())
def test_permutation_equivariance_of_mutation_any_exchange_matrix(b0, data):
    # the same identity for exchange matrices of any type, from a state a
    # few mutations away from the framed one
    n = b0.n
    m = apply_sequence(framed(b0), data.draw(
        st.lists(st.integers(1, n), max_size=4)))
    rho = Permutation(tuple(data.draw(st.permutations(range(1, n + 1)))))
    k = data.draw(st.integers(1, n))
    assert (mutate(permute_rows(m, rho), rho(k))
            == permute_rows(mutate(m, k), rho))


def test_find_row_permutation():
    m = framed(A2)
    assert find_row_permutation(m, m) == Permutation.identity(2)
    end = apply_sequence(m, (2, 1, 2))
    rho = find_row_permutation(coframed(A2), end)
    assert rho == Permutation.transposition(2, 1, 2)
    assert find_row_permutation(m, coframed(A2)) is None
    assert find_row_permutation(m, framed(A3)) is None


def test_find_row_permutation_needs_distinct_rows():
    zero2 = ((0, 0), (0, 0))
    dup = ExtendedExchangeMatrix(zero2, ((1, 0), (1, 0)))
    with pytest.raises(ValueError):
        find_row_permutation(dup, dup)


def test_find_row_permutation_checks_b_part():
    # same c-rows, incompatible b-part: no permutation relates the states
    m1 = ExtendedExchangeMatrix(A2.b, ((1, 0), (0, 1)))
    m2 = ExtendedExchangeMatrix(((0, -1), (1, 0)), ((1, 0), (0, 1)))
    assert find_row_permutation(m1, m2) is None


@given(st.permutations(range(1, 4)))
def test_round_trip_permutation_recovered(images):
    rho = Permutation(tuple(images))
    for m in [framed(A3), apply_sequence(framed(A3), (1, 2, 3))]:
        assert find_row_permutation(m, permute_rows(m, rho)) == rho


def test_reconstructed_b():
    m = apply_sequence(framed(A2), (2, 1))
    assert reconstructed_b(A2.b, m.c) == m.b
    for state in reachable(3, 4):
        assert reconstructed_b(A3.b, state.c) == state.b


@given(skew_symmetric(), st.data())
def test_reconstructor_table_matches_reconstructed_b(b0, data):
    # c-matrices drawn from a small pool of rows, so later ones read pairs
    # the table already holds, in new combinations
    n = b0.n
    pool = data.draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n),
                              min_size=1, max_size=4))
    reconstruct = _reconstructor(b0.b)
    for _ in range(data.draw(st.integers(1, 6))):
        c = tuple(data.draw(st.lists(st.sampled_from(pool),
                                     min_size=n, max_size=n)))
        assert reconstruct(c) == reconstructed_b(b0.b, c)


def test_reconstructor_rank_one():
    # itemgetter of a single row number returns the bare entry, so rank 1
    # takes its own path; the output is still a 1 x 1 matrix
    reconstruct = _reconstructor(A1.b)
    for c in [((1,),), ((-1,),), ((1,),)]:
        assert reconstruct(c) == reconstructed_b(A1.b, c) == ((0,),)


def test_reconstructor_numbers_a_repeated_new_row_once():
    reconstruct = _reconstructor(A3.b)
    for c in [((1, 1, 0), (1, 1, 0), (0, 0, 1)),
              ((0, 1, 1), (0, 1, 1), (0, 1, 1)),
              ((1, 1, 0), (0, 1, 1), (1, 1, 0))]:
        assert reconstruct(c) == reconstructed_b(A3.b, c)


def test_reconstructor_table_reused_with_rows_first_seen_late():
    # every state of n = 3, each with a row or two new to the table among
    # rows it already holds, then all of them again from the full table
    states = list(graph(3).nodes.values())
    reconstruct = _reconstructor(A3.b)
    for _ in range(2):
        for state in states:
            assert (reconstruct(state.c) == reconstructed_b(A3.b, state.c)
                    == state.b)


def test_reconstructor_on_a_b0_not_of_type_a():
    b0 = ((0, 3, -2, 1), (-3, 0, 1, -3), (2, -1, 0, 2), (-1, 3, -2, 0))
    reconstruct = _reconstructor(b0)
    rng = random.Random(7)
    pool = [tuple(rng.randint(-3, 3) for _ in range(4)) for _ in range(6)]
    for _ in range(40):
        c = tuple(rng.choice(pool) for _ in range(4))
        assert reconstruct(c) == reconstructed_b(b0, c)


def test_json_round_trip():
    m = apply_sequence(framed(A3), (2, 3, 1))
    data = json.loads(json.dumps(state_to_json(m)))
    assert data["n"] == 3
    assert matrix_from_json(data["b"]) == m.b
    assert matrix_from_json(data["c"]) == m.c


@pytest.mark.parametrize("c", [[[1, 0], [0, 1.5]], [[True, 0], [0, 1]],
                               [[1, 0], 1], 7])
def test_matrix_from_json_rejects_non_integer_entries(c):
    with pytest.raises(ValueError):
        matrix_from_json(c)


def test_matrix_from_json_rejects_empty_matrix():
    with pytest.raises(ValueError):
        matrix_from_json([])


def test_dot_output():
    dot = state_to_dot(framed(A2))
    assert dot.startswith("digraph quiver {")
    assert '"1" [style=filled, fillcolor=green];' in dot
    assert '"1" -> "2";' in dot
    assert '"1" -> "1\'";' in dot
    red = state_to_dot(coframed(A2))
    assert '"1\'" -> "1";' in red
    assert 'fillcolor=red' in red
    # a c-row of mixed sign has no color
    mixed = ExtendedExchangeMatrix(((0, 0), (0, 0)), ((1, -1), (0, 1)))
    assert '"1" [style=filled, fillcolor=gray];' in state_to_dot(mixed)


def test_format_state():
    text = format_state(framed(A2))
    assert text.splitlines() == ["[  0  1 |  1  0 ]", "[ -1  0 |  0  1 ]"]
