"""Acceptance sweep: one test per criterion, each printing a PASS/FAIL line.

These are the binding end-to-end checks of the engine: exhaustive
desk-scale enumerations compared against independent observations and
frozen regression values.  Unit-level details live in the other files.
"""

import itertools
import time
from collections import Counter

from quiverperm import (ExchangeMatrix, Permutation, Root,
                        RelationVerdict, SignedGenerator, TrackedState,
                        Verdict, act, all_roots, allowed, apply_sequence,
                        check_preservation, coframed, count_loops_by_replay,
                        count_mgs, count_reachable_states, enumerate_loops,
                        enumerate_mgs, ext, factor_standard,
                        find_row_permutation, framed, hom, is_all_red,
                        is_standard, euler_pairing, relation_holds_on,
                        relations, reconstructed_b, root_to_vector,
                        validate_c_matrix, vector_to_signed_root, verify,
                        vertex_color)

from common import graph
from rep_oracle import all_root_pairs, ext_oracle, hom_oracle


def emit(capsys, num, desc, failed=False):
    with capsys.disabled():
        print(f"{'FAIL' if failed else 'PASS'} criterion {num:2d}: {desc}")


def criterion(capsys, num, desc, body):
    try:
        body()
    except BaseException:
        emit(capsys, num, desc, failed=True)
        raise
    emit(capsys, num, desc)


def test_criterion_01_rank2_baseline(capsys):
    def body():
        t0 = time.perf_counter()
        results = enumerate_mgs(2)
        assert [r.sequence for r in results] == [(1, 2), (2, 1, 2)]

        b0 = ((0, 1), (-1, 0))
        bm = ((0, -1), (1, 0))
        expected = {
            (): (b0, ((1, 0), (0, 1))),
            (1,): (bm, ((-1, 0), (0, 1))),
            (2,): (bm, ((1, 1), (0, -1))),
            (1, 2): (b0, ((-1, 0), (0, -1))),
            (2, 1): (b0, ((-1, -1), (1, 0))),
            (2, 1, 2): (bm, ((0, -1), (-1, 0))),
        }
        m = framed(ExchangeMatrix.straight_a(2))
        for seq, (b, c) in expected.items():
            state = apply_sequence(m, seq)
            assert state.b == b and state.c == c

        swap = Permutation.transposition(2, 1, 2)
        coframe = coframed(ExchangeMatrix.straight_a(2))
        assert find_row_permutation(
            coframe, apply_sequence(m, (1, 2))).is_identity()
        assert find_row_permutation(
            coframe, apply_sequence(m, (2, 1, 2))) == swap
        for r in results:
            report = verify(m, r.sequence)
            assert report.verdict is Verdict.MATCH
            assert report.formula_perm == r.permutation
        assert time.perf_counter() - t0 < 1.0

    criterion(capsys, 1, "rank-2 baseline: green sequences, the six states, "
                         "both permutations, formula agreement, under 1s", body)


def test_criterion_02_formula_on_every_mgs(capsys):
    def body():
        for n in (2, 3, 4):
            m = framed(ExchangeMatrix.straight_a(n))
            coframe = coframed(ExchangeMatrix.straight_a(n))
            for r in enumerate_mgs(n):
                end = apply_sequence(m, r.sequence)
                assert is_all_red(end)
                observed = find_row_permutation(coframe, end)
                assert observed == r.permutation
                report = verify(m, r.sequence)
                assert report.verdict is Verdict.MATCH
                assert report.formula_perm == observed
                assert report.observed_perm == observed

    criterion(capsys, 2, "formula equals the observed reddening permutation "
                         "on every maximal green sequence, n = 2..4", body)


def test_criterion_03_formula_on_every_loop(capsys):
    def body():
        total = 0
        for state in graph(3).nodes.values():
            sigma = factor_standard(state.c).rho
            # the loops of one basepoint share their prefixes on the walk
            # enumerate_loops leaves, which verify reads; every later
            # basepoint is a node of that walk and is rooted there
            for loop in enumerate_loops(state, max_len=8):
                report = verify(state, loop.sequence)
                assert report.verdict is Verdict.MATCH
                assert report.sigma == sigma
                assert report.observed_perm == loop.permutation
                total += 1
        assert total == 81288

    criterion(capsys, 3, "formula equals the loop permutation for all 81288 "
                         "loops of length <= 8 at every reachable state, "
                         "n = 3", body)


def test_criterion_04_preservation_with_row_moves(capsys):
    def body():
        frozen = {1: (2, 0, 0), 2: (10, 0, 1), 3: (42, 2, 6), 4: (168, 18, 28)}
        for n in (1, 2, 3, 4):
            total_allowed = case_c = case_d = 0
            standards = [state for key, state in graph(n).nodes.items()
                         if is_standard(key)]
            for state in standards:
                for root in all_roots(n):
                    for delta in (1, -1):
                        g = SignedGenerator(root, delta)
                        if allowed(state, g) is None:
                            continue
                        total_allowed += 1
                        assert check_preservation(state, g)
                        if delta != 1:
                            continue
                        i, j = root.i, root.j
                        acted = act(state, g)
                        for ell in range(i + 2, j):
                            assert acted.c[ell - 1] == state.c[ell - 1]
                            case_c += 1
                        if j > i + 1:
                            row_j = vector_to_signed_root(state.c[j - 1])
                            assert row_j.delta == -1
                            assert row_j.root.j == j and row_j.root.i > i
                            assert acted.c[j - 1] == root_to_vector(
                                Root(i, row_j.root.i), n)
                            case_d += 1
            assert (total_allowed, case_c, case_d) == frozen[n]

    criterion(capsys, 4, "every allowed action on a standard state stays "
                         "standard after the row swap; interior rows frozen, "
                         "row j rewrites -b_mj to +b_im, n <= 4", body)


def test_criterion_05_factorization_uniqueness(capsys):
    def body():
        for n in (1, 2, 3, 4):
            perms = [Permutation(im)
                     for im in itertools.permutations(range(1, n + 1))]
            standards = [c for c in graph(n).nodes if is_standard(c)]
            assert standards
            for c in standards:
                for rho in perms:
                    assert is_standard(rho.apply_to_rows(c)) \
                        == rho.is_identity()

    criterion(capsys, 5, "no nontrivial row permutation of a reachable "
                         "standard matrix is standard, exhaustive n <= 4", body)


def test_criterion_06_reachable_validity(capsys):
    def body():
        for n in (1, 2, 3, 4):
            b0 = ExchangeMatrix.straight_a(n).b
            for key, state in graph(n).nodes.items():
                assert state.c == key
                assert validate_c_matrix(key) == ()
                for k in range(1, n + 1):
                    vertex_color(state, k)  # raises on a mixed-sign row
                assert state.b == reconstructed_b(b0, key)

    criterion(capsys, 6, "every reachable state is keyed by its c-matrix, "
                         "which is valid and sign-coherent and determines "
                         "the b-part, n <= 4", body)


def test_criterion_07_pairings_match_oracle(capsys):
    def body():
        for n in (1, 2, 3, 4, 5):
            for (a, b) in all_root_pairs(n):
                ra, rb = Root(*a), Root(*b)
                h, e = hom_oracle(a, b, n), ext_oracle(a, b, n)
                assert hom(ra, rb) == h
                assert ext(ra, rb) == e
                assert e >= 0
                assert euler_pairing(root_to_vector(ra, n),
                                     root_to_vector(rb, n)) == h - e

    criterion(capsys, 7, "hom and ext criteria match the brute-force "
                         "representation oracle on all root pairs, n <= 5", body)


def test_criterion_08_relations_on_reachable_states(capsys):
    def body():
        frozen = {
            1: {},
            2: {RelationVerdict.BOTH_UNDEFINED: 8,
                RelationVerdict.AGREE_TRUE: 2},
            3: {RelationVerdict.BOTH_UNDEFINED: 450,
                RelationVerdict.AGREE_TRUE: 54},
        }
        for n in (1, 2, 3):
            counts = Counter()
            rels = relations(n)
            for state in graph(n).nodes.values():
                for rel in rels:
                    verdict = relation_holds_on(state, rel)
                    assert verdict is not RelationVerdict.DISAGREE
                    counts[verdict] += 1
            assert dict(counts) == frozen[n]

    criterion(capsys, 8, "defining relations never disagree on any "
                         "reachable state, n <= 3", body)


def test_criterion_09_reddening_endpoints_standardize_to_minus_identity(capsys):
    def body():
        for n in (1, 2, 3, 4):
            minus_i = coframed(ExchangeMatrix.straight_a(n)).c
            m = framed(ExchangeMatrix.straight_a(n))
            start = TrackedState.from_state(m)
            for r in enumerate_mgs(n):
                end = apply_sequence(m, r.sequence)
                assert is_all_red(end)
                fact = factor_standard(end.c)
                assert fact.m == minus_i
                assert fact.rho == start.run(r.sequence).sigma \
                    == r.permutation
        # non-green reddening sequences behave the same way
        for n in (2, 3):
            m = framed(ExchangeMatrix.straight_a(n))
            minus_i = coframed(ExchangeMatrix.straight_a(n)).c
            for length in range(1, 7):
                for seq in itertools.product(range(1, n + 1), repeat=length):
                    end = apply_sequence(m, seq)
                    if is_all_red(end):
                        assert factor_standard(end.c).m == minus_i

    criterion(capsys, 9, "every reddening endpoint factors as a permutation "
                         "of -I: all green sequences n <= 4, all sequences "
                         "of length <= 6 for n <= 3", body)


def test_criterion_10_regression_freeze(capsys):
    def body():
        mgs_counts = {1: 1, 2: 2, 3: 9, 4: 98, 5: 2981}
        for n, expected in mgs_counts.items():
            assert len(enumerate_mgs(n)) == count_mgs(n) == expected

        node_counts = {1: 2, 2: 10, 3: 84, 4: 1008}
        for n, expected in node_counts.items():
            assert graph(n).node_count == count_reachable_states(n) == expected

        m = framed(ExchangeMatrix.straight_a(2))
        loops = enumerate_loops(m, max_len=6)
        assert len(loops) == count_loops_by_replay(m, 6) == 30
        lengths = Counter(len(r.sequence) for r in loops)
        assert dict(lengths) == {2: 2, 4: 6, 5: 2, 6: 20}
        perms = Counter(r.permutation.cycle_string() for r in loops)
        assert dict(perms) == {"id": 28, "(12)": 2}

    criterion(capsys, 10, "frozen counts hold and independent traversals "
                          "agree: green sequences n <= 5, graph nodes "
                          "n <= 4, loops of length <= 6 at the framed A2",
              body)
