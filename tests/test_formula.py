import itertools
import math

import pytest
from hypothesis import given, strategies as st

import quiverperm.formula
from quiverperm import (ExchangeMatrix, ExtendedExchangeMatrix, Permutation,
                        PictureWord, Root, SignedGenerator, TrackedState,
                        Verdict, apply_sequence, build_exchange_graph,
                        coframed, enumerate_loops, enumerate_mgs,
                        factor_standard, find_row_permutation,
                        formula_permutation, framed, is_all_red, mutate,
                        transposition_of, verify, word_from_sequence)

A2 = ExchangeMatrix.straight_a(2)

X01 = SignedGenerator(Root(0, 1))
X02 = SignedGenerator(Root(0, 2))
X12 = SignedGenerator(Root(1, 2))


def test_transposition_of():
    assert transposition_of(X02, 2) == Permutation.transposition(2, 1, 2)
    assert transposition_of(X01, 2).is_identity()
    assert transposition_of(X12, 2).is_identity()
    assert transposition_of(SignedGenerator(Root(1, 3)), 3) \
        == Permutation.transposition(3, 2, 3)
    # the sign of the generator does not matter
    assert transposition_of(SignedGenerator(Root(0, 2), -1), 2) \
        == transposition_of(X02, 2)


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
    step breaks sigma == factor_standard(c).rho; ``None`` if none does."""
    for c, state in build_exchange_graph(n).nodes.items():
        ts = TrackedState(state, factor_standard(c).rho)
        for k in range(1, n + 1):
            stepped = ts.step_vertex(k)
            if stepped.sigma != factor_standard(stepped.state.c).rho:
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
      checks it exhaustively for n <= 3), so rho(end) = pi rho(start) and
      pi equals the prediction.  This is criterion 3's statement.
    - Reddening sequences: the framed start has rho = id.  This check says
      an all-red endpoint is -I with its rows moved by rho(end), and its
      b-part follows from its c-part (B = C B0 C^t, asserted by the graph
      builder), so the coframe's row permutation onto it is rho(end),
      the prediction.  This is criterion 2's statement, and criterion 9's
      for every length.
    """
    minus_i = coframed(ExchangeMatrix.straight_a(n)).c
    red = [c for c, state in build_exchange_graph(n).nodes.items()
           if is_all_red(state)]
    assert len(red) == math.factorial(n)
    for c in red:
        assert factor_standard(c).m == minus_i


def test_edge_check_names_the_broken_edge(monkeypatch):
    # dropping one generator's transposition must fail at its first edge
    g0 = SignedGenerator(Root(0, 2))
    real = quiverperm.formula.transposition_of
    monkeypatch.setattr(
        quiverperm.formula, "transposition_of",
        lambda g, n: Permutation.identity(n) if g == g0 else real(g, n))
    n = 3
    first_g0_edge = next(
        (c, k) for c, state in build_exchange_graph(n).nodes.items()
        for k in range(1, n + 1)
        if word_from_sequence(state, (k,)).factors == (g0,))
    assert first_edge_failure(n) == first_g0_edge


def test_tracking_matches_refactoring_along_paths():
    start = TrackedState.from_state(framed(A2))
    for length in range(0, 11):
        for seq in itertools.product((1, 2), repeat=length):
            ts = start.run(seq)
            assert ts.sigma == factor_standard(ts.state.c).rho


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
    assert verify(m, (1,)).observed_perm is None


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


def _assert_one_walk_matches_standalone(m, seq, observed):
    report = verify(m, seq)
    word = word_from_sequence(m, seq)
    sigma = factor_standard(m.c).rho
    assert TrackedState.from_state(m).run(seq).factors == word.factors
    assert report.word == word
    assert report.sigma == sigma
    assert report.formula_perm == formula_permutation(word, sigma)
    assert report.observed_perm == observed
    assert report.verdict is Verdict.MATCH


def test_verify_one_walk_matches_standalone_pieces():
    # verify walks each sequence once; every field of its report must equal
    # what the separate replays compute
    a4 = ExchangeMatrix.straight_a(4)
    m = framed(a4)
    for r in enumerate_mgs(4):
        _assert_one_walk_matches_standalone(
            m, r.sequence,
            find_row_permutation(coframed(a4), apply_sequence(m, r.sequence)))
    for state in build_exchange_graph(3).nodes.values():
        for loop in enumerate_loops(state, 4):
            _assert_one_walk_matches_standalone(
                state, loop.sequence,
                find_row_permutation(state,
                                     apply_sequence(state, loop.sequence)))


@given(st.integers(1, 5), st.data())
def test_verify_prediction_equals_closed_form(n, data):
    # the prediction verify reads off its walk equals the closed form on the
    # word, from any reachable start and for any sequence, whatever the verdict
    vertices = st.lists(st.integers(1, n), max_size=12)
    m = apply_sequence(framed(ExchangeMatrix.straight_a(n)),
                       data.draw(vertices))
    seq = data.draw(vertices)
    report = verify(m, seq)
    word = word_from_sequence(m, seq)
    assert report.word == word
    assert report.formula_perm == formula_permutation(
        word, factor_standard(m.c).rho)


def test_verify_loop_from_unframed_start():
    m = mutate(framed(A2), 1)
    report = verify(m, (1, 1))
    assert report.verdict is Verdict.MATCH
    assert report.formula_perm.is_identity()
    assert report.word.display == "x01 x01^-1"


def test_verify_not_applicable():
    report = verify(framed(A2), (2,))
    assert report.verdict is Verdict.NOT_APPLICABLE
    assert report.observed_perm is None
    assert report.formula_perm.is_identity()


def test_verify_unfactorable_start():
    bad = ExtendedExchangeMatrix(((0, 0), (0, 0)), ((1, 0), (1, 1)))
    with pytest.raises(ValueError):
        verify(bad, ())


def test_verify_rejects_an_endpoint_off_the_coframe(monkeypatch):
    # negative control: measured against the frame instead of the coframe,
    # the all-red endpoint of (2, 1, 2) matches no row permutation
    monkeypatch.setattr(quiverperm.formula, "coframed", framed)
    with pytest.raises(ValueError, match="coframe"):
        verify(framed(A2), (2, 1, 2))


def test_verify_corrupt_negative_control():
    m = framed(A2)
    assert verify(m, (2, 1, 2), corrupt=True).verdict is Verdict.MISMATCH
    assert verify(m, (1, 2), corrupt=True).verdict is Verdict.MISMATCH
    assert verify(m, (2, 2), corrupt=True).verdict is Verdict.MISMATCH


def test_verify_exhaustive_small():
    # every comparable sequence matches; the corrupted prediction never does
    m = framed(A2)
    for length in range(0, 8):
        for seq in itertools.product((1, 2), repeat=length):
            assert verify(m, seq).verdict is not Verdict.MISMATCH
            assert verify(m, seq, corrupt=True).verdict is not Verdict.MATCH


def test_report_json():
    data = verify(framed(A2), (2, 1, 2)).to_json()
    assert data["verdict"] == "match"
    assert data["sigma"] == "id"
    assert data["formula"] == "(12)"
    assert data["observed"] == "(12)"
    assert data["word"]["display"] == "x01 x02 x12"
    na = verify(framed(A2), (2,)).to_json()
    assert na["observed"] is None
    assert na["verdict"] == "not_applicable"
