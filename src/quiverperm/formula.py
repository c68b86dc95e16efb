"""Closed-form permutation attached to a mutation word, and its check.

Each generator x_ij contributes the transposition (i+1 j), independent of
sign.  For a word w = g_1 g_2 ... g_N (application order) acting on a state
whose c-matrix factors as sigma times a standard matrix, the predicted
relabeling of mutable vertices is

    sigma o t_1 o t_2 o ... o t_N o sigma^{-1}

A ``TrackedState`` follows sigma step by step, sigma <- sigma o (i+1 j),
because each such step keeps the c-matrix standard (``check_preservation``);
after a sequence it holds sigma o t_1 o ... o t_N.  ``verify`` walks each
sequence once and takes its prediction from that walk;
``formula_permutation`` is the closed form above, the reference the tracked
prediction is tested against.  The walk's states come from plain
``mutate``, so the formula decides only the tracked sigma, never which
state comes next.  Every sequence is compared with one independent
observation: the permutation part of the endpoint's c-matrix, refactored
from scratch, times the inverse of the start's.  On a loop this is the row
permutation from the start to the endpoint, and on a reddening sequence
from the framed start the row permutation from the coframe.  The
observation is read off the endpoint alone, never from the tracked sigma.
No other module knows the transpositions, so no other one predicts.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .perm import Permutation
from .picture import PictureWord, act, step
from .quiver import ExtendedExchangeMatrix, permute_rows
from .roots import SignedGenerator
from .standard import factor_standard, is_standard


@functools.cache
def transposition_of(g: SignedGenerator, n: int) -> Permutation:
    """(i+1 j) for the generator of root (i, j); identity for simple roots.
    Built once per generator and rank, at most n(n+1) per rank."""
    return Permutation.transposition(n, g.root.i + 1, g.root.j)


def check_preservation(state: ExtendedExchangeMatrix, g) -> bool:
    """Apply generator ``g`` and then the transposition (i+1, j) to a state
    with standard c-matrix; report whether the result is again standard.

    Raises ``ValueError`` when ``g`` is not allowed on the state or the
    state's c-matrix is not standard.
    """
    if not is_standard(state.c):
        raise ValueError("state's c-matrix is not standard")
    acted = act(state, g)
    return is_standard(permute_rows(acted, transposition_of(g, state.n)).c)


def formula_permutation(w: PictureWord, sigma: Permutation) -> Permutation:
    acc = sigma
    for g in w.factors:
        acc = acc * transposition_of(g, sigma.n)
    return acc * sigma.inverse()


@dataclass(frozen=True)
class TrackedState:
    """A state together with the permutation part of its c-matrix and the
    generators applied so far (``factors``, in application order).

    The invariant ``factor_standard(state.c).rho == sigma`` holds after
    every step; stepping maintains it incrementally instead of refactoring.
    """

    state: ExtendedExchangeMatrix
    sigma: Permutation
    factors: tuple[SignedGenerator, ...] = ()

    @classmethod
    def from_state(cls, m: ExtendedExchangeMatrix) -> "TrackedState":
        fact = factor_standard(m.c)
        if fact is None:
            raise ValueError("c-matrix does not factor through a standard matrix")
        return cls(m, fact.rho)

    def step_vertex(self, k: int) -> "TrackedState":
        return self.run((k,))

    def run(self, seq: Sequence[int]) -> "TrackedState":
        state, sigma, factors = self.state, self.sigma, list(self.factors)
        for k in seq:
            g, state = step(state, k)
            sigma = sigma * transposition_of(g, state.n)
            factors.append(g)
        return TrackedState(state, sigma, tuple(factors))


class Verdict(Enum):
    MATCH = "match"
    MISMATCH = "mismatch"


@dataclass(frozen=True)
class FormulaReport:
    word: PictureWord
    sigma: Permutation
    formula_perm: Permutation
    observed_perm: Permutation
    verdict: Verdict

    def to_json(self) -> dict:
        return {
            "word": self.word.to_json(),
            "sigma": self.sigma.cycle_string(),
            "formula": self.formula_perm.cycle_string(),
            "observed": self.observed_perm.cycle_string(),
            "verdict": self.verdict.value,
        }


def verify(m: ExtendedExchangeMatrix, seq: Sequence[int],
           corrupt: bool = False) -> FormulaReport:
    """Predict the permutation of one sequence and compare it.

    The sequence is walked once, by ``TrackedState.run``; the prediction is
    the tracked sigma at the end times the inverse of the one at the start,
    which is ``formula_permutation`` of the word the walk spells.  The
    observation is independent of the prediction: the endpoint's c-matrix
    is factored from scratch with ``factor_standard``, and its permutation
    part times the inverse of the start's is compared, never the tracked
    sigma.  Raises ``ValueError`` when the starting or the ending c-matrix
    does not factor through a standard matrix.

    ``corrupt`` multiplies the prediction by (1 2), as a negative control:
    every comparison then has to mismatch.
    """
    start = TrackedState.from_state(m)
    end = start.run(seq)
    word = PictureWord(end.factors)
    back = start.sigma.inverse()
    predicted = end.sigma * back
    if corrupt:
        predicted = predicted * Permutation.transposition(m.n, 1, 2)
    observed = TrackedState.from_state(end.state).sigma * back
    verdict = Verdict.MATCH if predicted == observed else Verdict.MISMATCH
    return FormulaReport(word, start.sigma, predicted, observed, verdict)
