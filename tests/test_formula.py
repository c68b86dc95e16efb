import contextlib
import gc
import itertools
import math
import random
import re
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

import quiverperm.formula
import quiverperm.search
from quiverperm import (ExchangeMatrix, ExtendedExchangeMatrix, FormulaReport,
                        Permutation, PictureWord, Root, SignedGenerator,
                        TrackedState, Verdict, apply_sequence, act_word,
                        coframed, enumerate_loops, enumerate_mgs,
                        factor_standard, find_row_permutation,
                        formula_permutation, framed, is_all_red, mutate,
                        relations, transposition_of, verify,
                        word_from_sequence)

from common import (A2, A3, X01, X02, X12, current_walk, drop_transposition,
                    endpoint, graph, in_fresh_thread, reachable,
                    skew_symmetric)


def test_transposition_of():
    # the rule (i+1 j) spelled here without the fold it is written in; the
    # sign of the generator does not matter
    for n in range(1, 6):
        for i in range(n):
            for j in range(i + 1, n + 1):
                for delta in (1, -1):
                    g = SignedGenerator(Root(i, j), delta)
                    assert transposition_of(g, n) \
                        == Permutation.transposition(n, i + 1, j)


def test_transposition_of_rejects_a_root_beyond_n():
    with pytest.raises(ValueError, match="out of range for n=2"):
        transposition_of(SignedGenerator(Root(0, 3)), 2)


def test_formula_permutation_examples():
    ident = Permutation.identity(2)
    assert formula_permutation(PictureWord((X01, X12)), ident).is_identity()
    assert formula_permutation(PictureWord((X12, X02, X01)), ident) \
        == Permutation.transposition(2, 1, 2)
    assert formula_permutation(PictureWord(()), ident).is_identity()


def test_formula_permutation_conjugates_by_sigma():
    sigma = Permutation((3, 1, 2))
    w = PictureWord((SignedGenerator(Root(0, 2)), SignedGenerator(Root(1, 3))))
    base = formula_permutation(w, Permutation.identity(3))
    assert formula_permutation(w, sigma) == sigma * base * sigma.inverse()


@given(st.permutations(range(1, 4)), st.lists(
    st.tuples(st.sampled_from([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
              st.sampled_from([1, -1])), max_size=6))
def test_formula_covariance(images, raw):
    sigma = Permutation(tuple(images))
    w = PictureWord(tuple(SignedGenerator(Root(*ij), d) for ij, d in raw))
    base = formula_permutation(w, Permutation.identity(3))
    assert formula_permutation(w, sigma) == sigma * base * sigma.inverse()


def test_tracked_state_from_state():
    ts = TrackedState.from_state(framed(A2))
    assert ts.sigma.is_identity()
    bad = ExtendedExchangeMatrix(((0, 0), (0, 0)), ((1, 0), (1, 1)))
    with pytest.raises(ValueError):
        TrackedState.from_state(bad)


def test_tracked_state_steps():
    ts = TrackedState.from_state(framed(A2))
    ts = ts.step_vertex(2)
    assert ts.sigma.is_identity()
    ts = ts.step_vertex(1)
    assert ts.sigma == Permutation.transposition(2, 1, 2)
    ts = ts.step_vertex(2)
    assert ts.sigma == Permutation.transposition(2, 1, 2)
    assert ts.factors == (X12, X02, X01)
    assert ts.state == apply_sequence(framed(A2), (2, 1, 2))
    assert ts.state.c == ((0, -1), (-1, 0))


def test_step_vertex_matches_run():
    ts = TrackedState.from_state(framed(A2))
    assert ts.step_vertex(2).step_vertex(1).step_vertex(2) == ts.run((2, 1, 2))
    assert ts.run(()) == ts


# n = 5 (15840 states, 79200 edges) takes seconds, so it is opt-in:
# pytest -m slow
EDGE_CHECK_RANKS = [1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow)]


def first_edge_failure(n):
    """The first edge (c-matrix, vertex) of ``build_exchange_graph(n)``,
    nodes in insertion order and vertices ascending, where one tracked
    step's sigma differs from factor_standard(c).rho of the plainly
    mutated state; ``None`` if none does."""
    for c, state in graph(n).nodes.items():
        ts = TrackedState.from_state(state)
        for k in range(1, n + 1):
            if ts.step_vertex(k).sigma != factor_standard(
                    mutate(state, k).c).rho:
                return c, k
    return None


@pytest.mark.parametrize("n", EDGE_CHECK_RANKS)
def test_tracking_matches_refactoring_everywhere(n):
    # one mutation from any reachable state keeps the invariant
    # sigma == factor_standard(c).rho, so induction covers all paths
    assert first_edge_failure(n) is None


@pytest.mark.parametrize("n", EDGE_CHECK_RANKS)
def test_all_red_nodes_are_row_permutations_of_the_coframe(n):
    """Every all-red node factors through -I, and there are n! of them.

    With the edge check above this proves the formula at rank n for every
    sequence of every length, not only the lengths the sweeps enumerate.
    Along any path the edge check gives rho(end) = rho(start) t_1 ... t_N,
    with rho = factor_standard(c).rho; that is the sigma a TrackedState
    carries, so verify's prediction is rho(end) rho(start)^-1.

    - Loops: if end is the start with its rows moved by pi, then
      end.c = pi rho(start) S for the standard S of the start.  The
      factorization is unique (see ``quiverperm.standard``; criterion 5
      checks it exhaustively for n <= 4), so rho(end) = pi rho(start) and
      pi equals the prediction.  This is criterion 3's statement.
    - Reddening sequences: the framed start has rho = id.  This check says
      an all-red endpoint is -I with its rows moved by rho(end), and its
      b-part follows from its c-part (B = C B0 C^t, asserted by the graph
      builder), so the coframe's row permutation onto it is rho(end),
      the prediction.  This is criterion 2's statement, and criterion 9's
      for every length.
    """
    minus_i = coframed(ExchangeMatrix.straight_a(n)).c
    red = [c for c, state in graph(n).nodes.items()
           if is_all_red(state)]
    assert len(red) == math.factorial(n)
    for c in red:
        assert factor_standard(c).m == minus_i


def test_edge_check_names_the_broken_edge(monkeypatch):
    # dropping one generator's transposition must fail at its first edge
    n = 3
    assert first_edge_failure(n) is None
    drop_transposition(monkeypatch, X02)
    first_x02_edge = next(
        (c, k) for c, state in graph(n).nodes.items()
        for k in range(1, n + 1)
        if word_from_sequence(state, (k,)).factors == (X02,))
    assert first_edge_failure(n) == first_x02_edge


def relation_relabelings(n):
    """(observed, predicted) for every relation whose two sides are both
    defined at a state of the exchange graph: the row permutation from the
    lhs's result to the rhs's, and formula(rhs) * formula(lhs)^-1."""
    out = []
    rels = relations(n)
    for m in graph(n).nodes.values():
        sigma = factor_standard(m.c).rho
        for rel in rels:
            try:
                left, right = act_word(m, rel.lhs), act_word(m, rel.rhs)
            except ValueError:
                continue
            out.append((find_row_permutation(left, right),
                        formula_permutation(rel.rhs, sigma)
                        * formula_permutation(rel.lhs, sigma).inverse()))
    return out


@pytest.mark.parametrize("n,cases,nontrivial",
                         [(2, 2, 2), (3, 54, 36), (4, 1344, 672)])
def test_relations_relabel_by_the_formula(n, cases, nontrivial):
    # criterion 8 says the two sides agree up to some relabeling; the
    # formula names it.  Every relabeling found here is its own inverse, so
    # the reversed product formula(lhs) * formula(rhs)^-1 matches too: this
    # pins the relabeling but not the order of its two factors.
    pairs = relation_relabelings(n)
    assert len(pairs) == cases
    assert sum(not observed.is_identity() for observed, _ in pairs) \
        == nontrivial
    assert all((observed * observed).is_identity() for observed, _ in pairs)
    assert [observed for observed, _ in pairs] \
        == [predicted for _, predicted in pairs]


def test_relation_relabelings_catch_a_dropped_transposition(monkeypatch):
    drop_transposition(monkeypatch, X02)
    for n, wrong in ((2, 2), (3, 12)):
        assert sum(observed != predicted
                   for observed, predicted in relation_relabelings(n)) == wrong


def test_tracking_matches_refactoring_along_paths():
    m = framed(A2)
    start = TrackedState.from_state(m)
    for length in range(0, 11):
        for seq in itertools.product((1, 2), repeat=length):
            ts = start.run(seq)
            end = apply_sequence(m, seq)
            assert ts.sigma == factor_standard(end.c).rho
            assert ts.state == end


def test_is_reddening():
    # a sequence is reddening when its endpoint is all red, replayed with
    # plain mutate
    m = framed(A2)
    assert is_all_red(apply_sequence(m, (1, 2)))
    assert is_all_red(apply_sequence(m, (2, 1, 2)))
    assert not is_all_red(apply_sequence(m, (1,)))
    assert not is_all_red(apply_sequence(m, ()))


def test_is_loop():
    # a sequence is a loop when its endpoint is a row permutation of the
    # start; verify observes the same permutation
    m = framed(A2)
    swap = Permutation.transposition(2, 1, 2)
    for seq, rho in [((), Permutation.identity(2)),
                     ((2, 2), Permutation.identity(2)),
                     ((2, 1, 2, 1, 2), swap)]:
        assert find_row_permutation(m, apply_sequence(m, seq)) == rho
        assert verify(m, seq).observed_perm == rho
    assert find_row_permutation(m, apply_sequence(m, (1,))) is None
    assert find_row_permutation(m, apply_sequence(m, (2, 1, 2))) is None


def test_observed_reddening_permutation():
    # the endpoint of a reddening sequence is a row permutation of the
    # coframe; verify observes the same permutation
    m = framed(A2)
    coframe = coframed(A2)
    swap = Permutation.transposition(2, 1, 2)
    for seq, rho in [((1, 2), Permutation.identity(2)), ((2, 1, 2), swap)]:
        end = apply_sequence(m, seq)
        assert is_all_red(end)
        assert find_row_permutation(coframe, end) == rho
        assert verify(m, seq).observed_perm == rho


def test_verify_reddening_sequences():
    m = framed(A2)
    swap = Permutation.transposition(2, 1, 2)
    report = verify(m, (2, 1, 2))
    assert report.verdict is Verdict.MATCH
    assert report.sigma.is_identity()
    assert report.formula_perm == swap
    assert report.observed_perm == swap
    assert report.word == word_from_sequence(m, (2, 1, 2))
    assert verify(m, (1, 2)).formula_perm.is_identity()


def assert_matches_standalone(m, seq, report):
    """``report`` for ``seq`` from ``m`` equals what the standalone replays
    compute for that sequence alone, and the report of a fresh walk."""
    sigma = factor_standard(m.c).rho
    word = word_from_sequence(m, seq)
    end = apply_sequence(m, seq)
    assert TrackedState.from_state(m).run(seq).factors == word.factors
    assert report.word == word
    assert report.sigma == sigma
    assert report.formula_perm == formula_permutation(word, sigma)
    assert report.observed_perm \
        == factor_standard(end.c).rho * sigma.inverse()
    assert report.verdict is Verdict.MATCH
    assert report == in_fresh_thread(verify, m, seq)


def assert_shared_walk_matches_standalone(m, sequences):
    """Every report from ``verify``'s walk, kept across ``sequences``,
    equals the standalone pieces for its sequence alone."""
    verify(m, ())
    walk, root = current_walk()
    assert walk.states[root] == m
    for seq in sequences:
        report = verify(m, seq)
        assert current_walk() == (walk, root)
        assert endpoint(walk, root, seq) == apply_sequence(m, seq)
        assert_matches_standalone(m, seq, report)


@pytest.mark.parametrize("order", ["sorted", "shuffled"])
def test_shared_walk_matches_standalone_on_mgs(order):
    # sorted neighbours share long prefixes; shuffled ones share little,
    # so the walk cuts back to every depth
    sequences = sorted(r.sequence for r in enumerate_mgs(4))
    if order == "shuffled":
        random.Random(4).shuffle(sequences)
    assert len(sequences) == 98
    assert_shared_walk_matches_standalone(
        framed(ExchangeMatrix.straight_a(4)), sequences)


def test_shared_walk_matches_standalone_on_loops():
    for state in graph(3).nodes.values():
        assert_shared_walk_matches_standalone(
            state, [loop.sequence for loop in enumerate_loops(state, 5)])


@given(st.integers(1, 5), st.data())
def test_shared_walk_matches_standalone_on_random_sequences(n, data):
    # each sequence keeps a drawn prefix of the one before and extends it,
    # so the walk both shares and cuts back
    vertices = st.lists(st.integers(1, n), max_size=12)
    m = apply_sequence(framed(ExchangeMatrix.straight_a(n)),
                       data.draw(vertices))
    sequences, previous = [], ()
    for keep, tail in data.draw(st.lists(
            st.tuples(st.integers(0, 8), vertices), max_size=6)):
        previous = previous[:keep] + tuple(tail)
        sequences.append(previous)
    assert_shared_walk_matches_standalone(m, sequences)


def standalone_report(m, seq):
    """``verify``'s report for ``seq`` from ``m``, from the standalone
    pieces alone; they raise where ``verify`` has to."""
    sigma = factor_standard(m.c).rho
    word = word_from_sequence(m, seq)
    end = factor_standard(apply_sequence(m, seq).c)
    if end is None:
        raise ValueError("endpoint does not factor")
    predicted = formula_permutation(word, sigma)
    observed = end.rho * sigma.inverse()
    return FormulaReport(word, sigma, predicted, observed,
                         Verdict.MATCH if predicted == observed
                         else Verdict.MISMATCH)


def outcome(fn, *args):
    """``fn(*args)``, or the type of the exception it raised."""
    try:
        return fn(*args)
    except (IndexError, ValueError) as exc:
        return type(exc)


@given(st.integers(1, 4), st.data())
def test_shared_walk_matches_standalone_off_type_a(n, data):
    # skew-symmetric b0 of any type: the walk raises what the standalone
    # pieces raise, or reports what they do
    upper = data.draw(st.lists(st.integers(-2, 2), min_size=n * (n - 1) // 2,
                               max_size=n * (n - 1) // 2))
    rows = [[0] * n for _ in range(n)]
    for (i, j), x in zip(itertools.combinations(range(n), 2), upper):
        rows[i][j], rows[j][i] = x, -x
    m = framed(ExchangeMatrix(tuple(map(tuple, rows))))
    # each sequence keeps a drawn prefix of the one before, and is also
    # checked with a vertex out of range appended
    vertices = st.lists(st.integers(1, n), max_size=8)
    out_of_range = st.sampled_from(((), (-1,), (0,), (n + 1,)))
    previous = ()
    for keep, tail, bad in data.draw(st.lists(
            st.tuples(st.integers(0, 6), vertices, out_of_range),
            max_size=8)):
        previous = previous[:keep] + tuple(tail)
        for seq in (previous, previous + bad):
            assert outcome(verify, m, seq) \
                == outcome(standalone_report, m, seq)


@contextlib.contextmanager
def gc_disabled():
    """No cyclic collection in the block, so only reference counts free."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def test_walk_frees_its_states_when_the_start_changes():
    # the walk holds every state its sequences reached from its roots; held
    # by a reference cycle, they would outlive the walk until the next
    # cyclic collection.  A start equal to none of them replaces the walk
    def check():
        a = framed(A3)
        off = apply_sequence(a, (1,))
        verify(a, (2, 1, 2))
        walk, root = current_walk()
        assert off not in walk._nodes
        reached = weakref.ref(endpoint(walk, root, (2, 1)))
        del walk
        assert reached() == apply_sequence(a, (2, 1))
        verify(off, (1,))
        assert reached() is None
        walk, root = current_walk()
        assert walk.states[0] == off and root == 0

    with gc_disabled():
        in_fresh_thread(check)


def test_a_start_on_the_walk_frees_nothing():
    # the converse: a start equal to a state on the walk, built anew, is
    # rooted at that state's node, and every state the walk held stays
    def check():
        a = framed(A3)
        verify(a, (2, 1, 2))
        walk, root = current_walk()
        held = [weakref.ref(state) for state in walk.states]
        on = apply_sequence(framed(A3), (2, 1))
        del walk
        verify(on, (1,))
        walk, root = current_walk()
        assert walk.states[0] == a and walk.states[root] == on
        assert all(ref() is not None for ref in held)

    with gc_disabled():
        in_fresh_thread(check)


def test_shared_walk_edge_cases():
    # from an unframed start: a long sequence, then the empty one, a strict
    # prefix of the one before, the same sequence twice, and a long one
    # again
    m = apply_sequence(framed(ExchangeMatrix.straight_a(3)), (2, 1))
    long = (1, 2, 3, 1, 2, 3, 2, 1, 3, 2, 1, 2)
    assert_shared_walk_matches_standalone(
        m, [long, (), long, long[:5], long[:2], long[:2], (), (3,), long])
    # a vertex out of range stops the walk after the steps before it, and
    # the walk goes on from there; 0 and -1 raise even where the walk has
    # taken vertices n and n - 1, which a table indexed by k - 1 would read
    for prefix in ((), long[:3]):
        verify(m, prefix + (3,))
        verify(m, prefix + (2,))
        for bad in (0, -1, 4):
            with pytest.raises(IndexError,
                               match=f"^vertex {bad} out of range 1..3$"):
                verify(m, prefix + (bad,))
            assert verify(m, long) == in_fresh_thread(verify, m, long)
            assert_matches_standalone(m, prefix, verify(m, prefix))


def test_walk_mutates_each_step_and_factors_each_endpoint_once(monkeypatch):
    # listed first: quotient_graph mutates through the same module
    sequences = [r.sequence for r in enumerate_mgs(4)]
    mutated, factored = [], []
    real_mutate = quiverperm.search.mutate
    real_factor = quiverperm.formula.factor_standard
    monkeypatch.setattr(quiverperm.search, "mutate",
                        lambda m, k: mutated.append(k) or real_mutate(m, k))
    monkeypatch.setattr(quiverperm.formula, "factor_standard",
                        lambda c: factored.append(c) or real_factor(c))
    m = framed(ExchangeMatrix.straight_a(4))
    # a fresh thread, so no walk left from m by another test shares steps
    in_fresh_thread(lambda: [verify(m, seq) for seq in sequences])
    steps, endpoints = set(), set()
    for seq in sequences:
        state = m
        for k in seq:
            steps.add((state, k))
            state = mutate(state, k)
        endpoints.add(state)
    prefixes = {seq[:i] for seq in sequences for i in range(1, len(seq) + 1)}
    assert len(mutated) == len(steps) < len(prefixes)
    assert len(factored) == 1 + len(endpoints) < 1 + len(sequences)


def test_verify_follows_a_change_of_start():
    # starts A, B, A interleaved call by call, then a state equal to A but
    # built anew.  B lies on the walk from A once (2, 1) is walked, so every
    # start is rooted at its own node of that one walk
    a = framed(A3)
    b = apply_sequence(a, (2, 1))
    a_again = framed(A3)
    assert a_again == a and a_again is not a

    def check():
        verify(a, (2, 1))
        walk, _ = current_walk()
        for seq in [loop.sequence for loop in enumerate_loops(a, 4)]:
            for m in (a, b, a, a_again):
                assert_matches_standalone(m, seq, verify(m, seq))
                assert current_walk()[0] is walk
                assert walk.states[current_walk()[1]] == m
        assert walk.states[0] == a
        assert walk._nodes[a_again] == 0 and walk._nodes[b] != 0

    in_fresh_thread(check)


def test_verify_mutates_nothing_after_enumerate_loops(monkeypatch):
    # verify walks each loop on the walk that enumerate_loops left, and each
    # next start is a node of that walk.  Over the 84 states of A3 and
    # lengths <= 7, in graph order, the enumerations mutate each of the
    # 3 x 84 (state, vertex) pairs once and verify never
    quiverperm.search._quotient_table(3)  # mutates through the same module
    starts = [ExtendedExchangeMatrix(s.b, s.c)
              for s in graph(3).nodes.values()]
    mutated = []
    real = quiverperm.search.mutate
    monkeypatch.setattr(quiverperm.search, "mutate",
                        lambda m, k: mutated.append((m, k)) or real(m, k))

    def check():
        verified = 0
        for m in starts:
            loops = enumerate_loops(m, 7)
            enumerated = len(mutated)
            for loop in loops:
                report = verify(m, loop.sequence)
                assert report.verdict is Verdict.MATCH
                assert report.observed_perm == loop.permutation
            assert len(mutated) == enumerated
            verified += len(loops)
        return verified

    # a fresh thread, so no walk left by an earlier test is reused
    assert in_fresh_thread(check) == 17100
    assert len(mutated) == len(set(mutated)) == 3 * len(starts) == 252


def test_enumerate_loops_frees_the_states_verify_reached(monkeypatch):
    # one walk per thread: enumerating from a start off the walk replaces
    # the walk verify left, and every state on it is freed with no cyclic
    # collection
    a = framed(A3)
    near = set(reachable(3, 4))
    far = next(s for s in graph(3).nodes.values() if s not in near)
    reached = []
    real = quiverperm.search.mutate

    def watched(state, k):
        out = real(state, k)
        reached.append(weakref.ref(out))
        return out

    def check():
        monkeypatch.setattr(quiverperm.search, "mutate", watched)
        for seq in itertools.product((1, 2, 3), repeat=4):
            verify(a, seq)
        monkeypatch.undo()
        # a step that reaches a node already on the walk drops its result
        assert sum(ref() is not None for ref in reached) > 20
        assert far not in current_walk()[0]._nodes
        enumerate_loops(far, 4)
        walk, root = current_walk()
        assert walk.states[0] == far and root == 0
        assert all(ref() is None for ref in reached)

    with gc_disabled():
        in_fresh_thread(check)


def test_a_run_whose_starts_were_dropped_shares_no_walk(monkeypatch):
    # a walk serves the starts a caller holds while it runs over them: once
    # the last start it served is dropped, an equal start built anew gets a
    # fresh walk, so a second run over new, equal starts mutates as often as
    # the first.  Reference counts alone must free the first run's starts
    quiverperm.search._quotient_table(3)  # mutates through the same module
    mutated = []
    real = quiverperm.search.mutate
    monkeypatch.setattr(quiverperm.search, "mutate",
                        lambda m, k: mutated.append(k) or real(m, k))

    def run():
        starts = [ExtendedExchangeMatrix(s.b, s.c)
                  for s in list(graph(3).nodes.values())[:4]]
        before = len(mutated)
        for m in starts:
            for loop in enumerate_loops(m, 5):
                verify(m, loop.sequence)
        return len(mutated) - before, weakref.ref(starts[0])

    def check():
        first, start = run()
        assert start() is None  # the walk holds a copy of its start
        second, _ = run()
        assert first == second > 0

    with gc_disabled():
        in_fresh_thread(check)


@settings(max_examples=20, deadline=None)
@given(skew_symmetric(max_n=4, bound=2), st.data())
def test_alternating_starts_on_one_thread_match_fresh_threads(b0, data):
    # starts of A3, of A2 and of a b0 of any type, alternated on one
    # thread: every report equals a fresh thread's, a start equal to a
    # state on the walk is rooted there, and any other start replaces the
    # walk.  Rooting a start off the walk on it instead would mix states of
    # two ranks on one walk
    starts = [framed(A3), apply_sequence(framed(A3), (2, 1)), framed(A2),
              apply_sequence(framed(A2), (1,)), framed(b0)]
    calls = data.draw(st.lists(st.tuples(
        st.sampled_from(starts),
        st.lists(st.integers(1, 4), max_size=6)), min_size=1, max_size=12))

    def check():
        walk = None
        for m, seq in calls:
            on = walk is not None and m in walk._nodes
            got = outcome(verify, m, seq)
            assert got == in_fresh_thread(outcome, verify, m, seq)
            previous = walk
            walk, root = current_walk()
            assert walk.states[root] == m
            if on:
                assert walk is previous
            else:
                assert walk is not previous
                assert walk.states[0] == m and root == 0

    in_fresh_thread(check)


@pytest.mark.parametrize("shared", [False, True], ids=["two", "one"])
def test_threads_keep_their_own_walks(shared):
    # two threads verify at the same time, from different starts or from
    # one start in different orders; each report matches the standalone
    # pieces
    a = framed(A3)
    b = a if shared else apply_sequence(a, (2, 1))
    jobs = [(m, [loop.sequence for loop in enumerate_loops(m, 6)])
            for m in (a, b)]
    random.Random(3).shuffle(jobs[1][1])
    ready = threading.Barrier(2)

    def check(m, sequences):
        ready.wait(timeout=30)
        return [verify(m, seq) for seq in sequences]

    # switch threads often, so that a walk shared between them would be
    # cut back by one thread in the middle of the other's call
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(2) as pool:
            results = list(pool.map(check, *zip(*jobs), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for (m, sequences), reports in zip(jobs, results):
        assert len(reports) == len(sequences) > 100
        for seq, report in zip(sequences, reports):
            assert_matches_standalone(m, seq, report)


def test_walk_stores_no_sigma_across_calls(monkeypatch):
    # negative control: the same start and sequence once more on the walk
    # that already holds them mutates nothing, and still reads the
    # transpositions afresh
    m = framed(A2)
    assert verify(m, (2, 1, 2)).verdict is Verdict.MATCH
    walk, root = current_walk()
    calls = []
    real = quiverperm.search.mutate
    monkeypatch.setattr(quiverperm.search, "mutate",
                        lambda state, k: calls.append(k) or real(state, k))
    drop_transposition(monkeypatch, X02)
    report = verify(m, (2, 1, 2))
    assert current_walk() == (walk, root) and calls == []
    assert report.verdict is Verdict.MISMATCH
    assert report.formula_perm.is_identity()


def test_shared_walk_reads_the_transpositions_at_each_step(monkeypatch):
    # negative control: a walk made before x02's transposition is dropped
    # still predicts without it, so (2, 1, 2) mismatches
    m = framed(A2)
    assert verify(m, (2,)).verdict is Verdict.MATCH
    drop_transposition(monkeypatch, X02)
    report = verify(m, (2, 1, 2))
    assert report.verdict is Verdict.MISMATCH
    assert report.formula_perm.is_identity()
    assert report.observed_perm == Permutation.transposition(2, 1, 2)


def test_verify_loop_from_unframed_start():
    m = mutate(framed(A2), 1)
    report = verify(m, (1, 1))
    assert report.verdict is Verdict.MATCH
    assert report.formula_perm.is_identity()
    assert report.word.display == "x01 x01^-1"


def test_verify_arbitrary_sequence():
    # neither a loop nor reddening, and still compared
    report = verify(framed(A2), (2,))
    assert report.verdict is Verdict.MATCH
    assert report.observed_perm.is_identity()
    assert report.formula_perm.is_identity()


def test_verify_unfactorable_start():
    bad = ExtendedExchangeMatrix(((0, 0), (0, 0)), ((1, 0), (1, 1)))
    with pytest.raises(ValueError):
        verify(bad, ())


def test_verify_rejects_an_unfactorable_endpoint():
    # negative control: mutating the framed double arrow at 2 gives the
    # c-row (1, 2), which is not a root, so there is nothing to observe
    m = framed(ExchangeMatrix(((0, 2), (-2, 0))))
    with pytest.raises(ValueError, match="does not factor"):
        verify(m, (2,))


def test_verify_walks_through_an_unfactorable_state():
    # only the start and the endpoint have to factor: after vertex 2 the
    # c-row (1, 2) is not a root, but (2, 2) returns to the start
    m = framed(ExchangeMatrix(((0, 2), (-2, 0))))
    assert verify(m, (2, 2)).verdict is Verdict.MATCH


def test_verify_names_the_step_that_spells_no_root():
    # after vertex 2 the c-row of vertex 1 is (1, 2), not a root: the walk
    # raises what word_from_sequence raises, on the step that takes it
    # first and on the slot that step left
    m = framed(ExchangeMatrix(((0, 2), (-2, 0))))
    message = "c-vector of vertex 1 is not a signed root: (1, 2)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        word_from_sequence(m, (2, 1))
    for _ in range(2):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            verify(m, (2, 1))
    walk, root = current_walk()
    assert walk.states[root] == m


def test_verify_observation_ignores_the_transpositions(monkeypatch):
    # negative control: with x02's transposition dropped the prediction
    # for (2, 1, 2) is the identity, while the endpoint still shows (12)
    assert verify(framed(A2), (2, 1, 2)).verdict is Verdict.MATCH
    drop_transposition(monkeypatch, X02)
    report = verify(framed(A2), (2, 1, 2))
    assert report.verdict is Verdict.MISMATCH
    assert report.observed_perm == Permutation.transposition(2, 1, 2)


def reference_advance(images, factors):
    """``_advance`` composed point by point with each transposition
    (i+1 j), spelled by ``Permutation.transposition``."""
    n = len(images)
    for g in factors:
        t = Permutation.transposition(n, g.root.i + 1, g.root.j)
        images = tuple([images[y - 1] for y in t.images])
    return images


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_advance_matches_the_pointwise_fold(n):
    rng = random.Random(n)
    generators = [SignedGenerator(Root(i, j), delta)
                  for i in range(n) for j in range(i + 1, n + 1)
                  for delta in (1, -1)]
    for _ in range(200):
        images = list(range(1, n + 1))
        rng.shuffle(images)
        factors = rng.choices(generators, k=rng.randrange(12))
        got = quiverperm.formula._advance(tuple(images), factors)
        assert type(got) is tuple
        assert got == reference_advance(tuple(images), factors)


def test_verify_exhaustive_small():
    # every sequence matches; the corrupted prediction never does
    m = framed(A2)
    for length in range(0, 8):
        for seq in itertools.product((1, 2), repeat=length):
            assert verify(m, seq).verdict is Verdict.MATCH
            assert verify(m, seq, corrupt=True).verdict is Verdict.MISMATCH


def test_corrupt_prediction_is_the_prediction_times_one_two():
    # on every n = 3 loop: the negative control moves the prediction by
    # (1 2) on the right and so mismatches, while a match reports the
    # start's memoized observation as its prediction
    swap = Permutation.transposition(3, 1, 2)
    for m in reachable(3):
        for loop in enumerate_loops(m, 4):
            report = verify(m, loop.sequence)
            corrupted = verify(m, loop.sequence, corrupt=True)
            assert report.formula_perm is report.observed_perm
            assert corrupted.formula_perm == report.formula_perm * swap
            assert corrupted.formula_perm != corrupted.observed_perm
            assert corrupted.observed_perm == report.observed_perm


def test_honest_mismatches_from_starts_whose_sigma_moves(monkeypatch):
    # negative control away from framed A2, where sigma is the identity:
    # with x02's transposition dropped, every n = 3 loop's prediction is
    # still the reference formula's, and its verdict is decided by the
    # two permutations alone, also from starts whose sigma moves rows
    drop_transposition(monkeypatch, X02)
    loops = mismatches = moved = 0
    for m in reachable(3):
        for loop in enumerate_loops(m, 4):
            report = verify(m, loop.sequence)
            loops += 1
            assert report.formula_perm == formula_permutation(report.word,
                                                              report.sigma)
            match = report.formula_perm == report.observed_perm
            assert (report.verdict is Verdict.MATCH) == match
            if not match:
                mismatches += 1
                moved += not report.sigma.is_identity()
    assert (loops, mismatches, moved) == (1656, 216, 180)


def test_report_json():
    data = verify(framed(A2), (2, 1, 2)).to_json()
    assert data["verdict"] == "match"
    assert data["sigma"] == "id"
    assert data["formula"] == "(12)"
    assert data["observed"] == "(12)"
    assert data["word"]["display"] == "x01 x02 x12"
    single = verify(framed(A2), (2,)).to_json()
    assert single["observed"] == "id"
    assert single["verdict"] == "match"
