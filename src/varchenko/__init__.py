"""Exact toolkit for weighted hyperplane arrangements: chambers, relevant
edges, the chamber-pairing matrix of separating-set weight products, its
brute-force determinant over prime fields, closed-form factorizations for the
Coxeter families, and a randomized verification harness that adjudicates the
closed forms against ground truth."""

from .closedform import (formula, formula_A, formula_B, formula_D, formula_I2,
                         printed_edges, signed_pair_weight, signed_subsets,
                         zagier)
from .exactalg import (DEFAULT_PRIME, FactoredProduct, Monomial, PrimeField,
                       factored_eval, factored_specialize_all)
from .families import FamilyKind, build_family, chambers_combinatorial
from .feasibility import feasible_strict
from .geometry import (Arrangement, Chamber, Edge, Hyperplane, canonical_edge,
                       enumerate_chambers, face_of,
                       factored_determinant_general, multiplicity,
                       relevant_edges)
from .harness import (SOURCES, DetSource, FactoredDiff, VerificationReport,
                      compare_factored, parse_arrangement_file, source,
                      verify_identity)
from .matrix import (degree_bound, det_mod, varchenko_det_mod,
                     varchenko_matrix_eval)

__version__ = "0.1.0"
