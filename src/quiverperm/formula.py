"""Closed-form permutation attached to a mutation word, and its check.

Each generator x_ij contributes the transposition (i+1 j), independent of
sign.  For a word w = g_1 g_2 ... g_N (application order) acting on a state
whose c-matrix factors as sigma times a standard matrix, the predicted
relabeling of mutable vertices is

    sigma o t_1 o t_2 o ... o t_N o sigma^{-1}

A ``TrackedState`` follows sigma step by step, sigma <- sigma o (i+1 j),
because each such step keeps the c-matrix standard; after a sequence it
holds sigma o t_1 o ... o t_N.  ``verify`` walks each sequence once and
takes its prediction from that walk; ``formula_permutation`` is the closed
form above, the reference the tracked prediction is tested against.  The
prediction is compared with an independent observation: the row
permutation relating the endpoint to the coframe (reddening sequences) or
to the start (loop sequences).  The observation is read off the endpoint
alone, never from the tracked sigma.  Arbitrary sequences carry a
predicted value but nothing to compare it with.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .perm import Permutation
from .picture import PictureWord, step, transposition_of
from .quiver import (ExchangeMatrix, ExtendedExchangeMatrix, coframed,
                     find_row_permutation, is_all_red, is_framed)
from .roots import SignedGenerator
from .standard import factor_standard


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
        g, nxt = step(self.state, k)
        return TrackedState(nxt, self.sigma * transposition_of(g, nxt.n),
                            self.factors + (g,))

    def run(self, seq: Sequence[int]) -> "TrackedState":
        cur = self
        for k in seq:
            cur = cur.step_vertex(k)
        return cur


class Verdict(Enum):
    MATCH = "match"
    MISMATCH = "mismatch"
    NOT_APPLICABLE = "not_applicable"


@dataclass(frozen=True)
class FormulaReport:
    word: PictureWord
    sigma: Permutation
    formula_perm: Permutation
    observed_perm: Optional[Permutation]
    verdict: Verdict

    def to_json(self) -> dict:
        return {
            "word": self.word.to_json(),
            "sigma": self.sigma.cycle_string(),
            "formula": self.formula_perm.cycle_string(),
            "observed": (None if self.observed_perm is None
                         else self.observed_perm.cycle_string()),
            "verdict": self.verdict.value,
        }


def verify(m: ExtendedExchangeMatrix, seq: Sequence[int],
           corrupt: bool = False) -> FormulaReport:
    """Predict the permutation of one sequence and compare where possible.

    The sequence is walked once, by ``TrackedState.run``; the prediction is
    the tracked sigma at the end times the inverse of the one at the start,
    which is ``formula_permutation`` of the word the walk spells.  The
    observation is independent of the prediction: it is read off the
    endpoint alone, never from the tracked sigma.  For a reddening sequence
    it is the row permutation from the coframe to the endpoint, for a loop
    the row permutation from the start.  A sequence that is neither has
    nothing to compare against and reports NotApplicable.  Raises
    ``ValueError`` when the starting c-matrix does not factor, or when the
    all-red endpoint of a framed start is not a row permutation of the
    coframe.

    ``corrupt`` multiplies the prediction by (1 2), as a negative control:
    every comparison then has to mismatch.
    """
    start = TrackedState.from_state(m)
    end = start.run(seq)
    word = PictureWord(end.factors)
    predicted = end.sigma * start.sigma.inverse()
    if corrupt:
        predicted = predicted * Permutation.transposition(m.n, 1, 2)
    if is_framed(m) and is_all_red(end.state):
        observed = find_row_permutation(coframed(ExchangeMatrix(m.b)),
                                        end.state)
        if observed is None:
            raise ValueError(
                "all-red endpoint is not a row permutation of the coframe")
    else:
        observed = find_row_permutation(m, end.state)
    if observed is None:
        return FormulaReport(word, start.sigma, predicted, None,
                             Verdict.NOT_APPLICABLE)
    verdict = Verdict.MATCH if predicted == observed else Verdict.MISMATCH
    return FormulaReport(word, start.sigma, predicted, observed, verdict)
