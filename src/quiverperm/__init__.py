"""Exact quiver-mutation engine for linearly oriented type A.

Mutation of extended exchange matrices, green and reddening sequences,
standard-form c-matrices, a picture-group action, and the transposition
product predicting the permutation a mutation sequence induces, all over
exact integer arithmetic with exhaustive desk-scale verification.
"""

from .formula import (FormulaReport, TrackedState, Verdict,
                      check_preservation, formula_permutation,
                      transposition_of, verify)
from .perm import Permutation
from .picture import (PictureWord, Relation, RelationVerdict, act, act_word,
                      allowed, coxeter, relation_holds_on, relations,
                      word_from_sequence)
from .quiver import (Color, ExchangeMatrix, ExtendedExchangeMatrix,
                     apply_sequence, coframed, find_row_permutation,
                     format_state, framed, is_all_red, mutate,
                     permute_rows, reconstructed_b, state_to_dot,
                     state_to_json, vertex_color)
from .roots import (CMatrixViolation, Root, SignedGenerator, all_roots,
                    euler_matrix, euler_pairing, ext, hom, in_wall,
                    root_to_vector, subroots, validate_c_matrix,
                    vector_to_signed_root)
from .search import (ExchangeGraph, LoopResult, MGSResult, QuotientEdge,
                     QuotientGraph, build_exchange_graph,
                     count_loops_by_replay, count_mgs, count_reachable_states,
                     enumerate_loops, enumerate_mgs, graph_to_dot, mgs_census,
                     quotient_graph)
from .standard import (StandardFactorization, canonical_row, factor_standard,
                       is_standard)

__version__ = "0.1.0"

__all__ = [
    "Color", "CMatrixViolation", "ExchangeGraph",
    "ExchangeMatrix", "ExtendedExchangeMatrix", "FormulaReport", "LoopResult",
    "MGSResult", "Permutation", "PictureWord", "QuotientEdge",
    "QuotientGraph", "Relation", "RelationVerdict",
    "Root", "SignedGenerator", "StandardFactorization",
    "TrackedState", "Verdict", "act", "act_word", "all_roots", "allowed",
    "apply_sequence", "build_exchange_graph", "canonical_row",
    "check_preservation", "coframed", "count_loops_by_replay", "count_mgs",
    "count_reachable_states", "coxeter", "enumerate_loops", "enumerate_mgs",
    "euler_matrix", "euler_pairing", "ext", "factor_standard",
    "find_row_permutation", "format_state", "formula_permutation", "framed",
    "graph_to_dot", "hom", "in_wall", "is_all_red", "is_standard",
    "mgs_census", "mutate", "permute_rows", "quotient_graph",
    "reconstructed_b",
    "relation_holds_on", "relations", "root_to_vector", "state_to_dot",
    "state_to_json", "subroots", "transposition_of", "validate_c_matrix",
    "vector_to_signed_root", "verify", "vertex_color", "word_from_sequence",
]
