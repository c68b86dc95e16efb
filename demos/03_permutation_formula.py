"""The closed-form permutation of a mutation sequence.

Each mutation step reads the signed root on the mutated row and contributes
the transposition (i+1 j); conjugating the product by the permutation part
of the starting c-matrix predicts how the endpoint is relabeled.  The
prediction is checked against an observation that does not use the
formula: the permutation part of the endpoint's c-matrix, factored from
scratch, relative to the start's.  For a reddening sequence that is the
row permutation from the coframe, for a loop the one from the start.
"""

from quiverperm import (ExchangeMatrix, TrackedState, framed, transposition_of,
                        verify, word_from_sequence)

m = framed(ExchangeMatrix.straight_a(2))

seq = (2, 1, 2)
word = word_from_sequence(m, seq)
print(f"sequence {seq} spells the word {word.display}")
print("transpositions of its factors:",
      [transposition_of(g, 2).cycle_string() for g in word.factors])
print()

print("tracking sigma step by step:")
ts = TrackedState.from_state(m)
for k in seq:
    ts = ts.step_vertex(k)
    print(f"  after vertex {k}: sigma = {ts.sigma.cycle_string()}")
print()

print("verify compares the formula with an observation:")
for s in [(1, 2), (2, 1, 2), (2, 2), (2, 1, 2, 1, 2), (2,)]:
    report = verify(m, s)
    print(f"  {str(s):<18} formula {report.formula_perm.cycle_string():<5}"
          f" observed {report.observed_perm.cycle_string():<5}"
          f" {report.verdict.value}")
print()

print("the pentagon loop returns to the start with rows 1 and 2 swapped:")
rho = verify(m, (2, 1, 2, 1, 2)).observed_perm
print("  loop permutation:", rho.cycle_string())
print()

print("negative control: corrupting the prediction has to mismatch:")
print(" ", verify(m, (2, 1, 2), corrupt=True).verdict.value)
