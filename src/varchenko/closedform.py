"""Closed-form determinant factorizations for the Coxeter families.

formula(kind) emits the published factorization of a family exactly as
printed, as a canonical FactoredProduct, and formula_A/B/D/I2(n) are its
per-family shorthands; none of them consults the geometric engine.
Where a printed formula is wrong (the D family is the documented suspect),
the output is wrong in the same way; the verification harness is the only
place where formulas are judged against ground truth.

zagier(n) is the single-variable specialization of the A-family determinant:
assigning one variable q to every hyperplane collapses the formula to
prod_{i=2..n} (1 - q^{i^2-i})^{n!(n-i+1)/(i^2-i)}, whose exponents are
integers for every n (checked exactly here with big-integer arithmetic).
"""

from __future__ import annotations

from math import factorial

from .exactalg import (FactoredProduct, InternalConsistencyError, Monomial,
                       single_var)
from .families import (FamilyKind, descriptor_weight_monomial,
                       multiplicity_combinatorial, relevant_edges_combinatorial)


def formula(kind: FamilyKind) -> FactoredProduct:
    """The printed factored determinant of the family `kind`.

    A, B and D take each relevant edge of the combinatorial model with its
    printed multiplicity; I2(m) is (1 - prod_i q_i^2)^{m-2} * prod_j (1 - q_j^2)^2.
    """
    if kind.letter == "I2":
        m = kind.param
        factors = [(Monomial.from_vars(single_var(i) for i in range(1, m + 1)), m - 2)]
        factors.extend((Monomial.from_vars([single_var(j)]), 2) for j in range(1, m + 1))
    else:
        factors = [(descriptor_weight_monomial(kind, d),
                    multiplicity_combinatorial(kind, d))
                   for d in relevant_edges_combinatorial(kind)]
    return FactoredProduct(tuple(factors)).canonical()


def formula_A(n: int) -> FactoredProduct:
    """prod over index subsets I (|I| >= 2) of
    (1 - prod_{{i,j} in I} q_{i,j}^2)^{(|I|-2)! (n-|I|+1)!}."""
    return formula(FamilyKind("A", n))


def formula_B(n: int) -> FactoredProduct:
    """Signed-subset product (|J| >= 2, exponent 2^{n-|J|+1}(|J|-2)!(n-|J|+1)!)
    times the zero-set product (|I| >= 1, exponent 2^{n-1}(|I|-1)!(n-|I|)!)."""
    return formula(FamilyKind("B", n))


def formula_D(n: int) -> FactoredProduct:
    """As printed: signed-subset product (|J| >= 2, exponent
    2^{n-|J|}(|J|-2)!(n-|J|+1)!) times the zero-set product (|I| >= 2,
    exponent 2^{n-1}(|I|-2)!(n-|I|)!)."""
    return formula(FamilyKind("D", n))


def formula_I2(m: int) -> FactoredProduct:
    """(1 - prod_i q_i^2)^{m-2} * prod_j (1 - q_j^2)^2."""
    return formula(FamilyKind("I2", m))


def zagier(n: int) -> FactoredProduct:
    """prod_{i=2..n} (1 - q^{i^2-i})^{n!(n-i+1)/(i^2-i)} in one variable.

    Each factor is stored as (q^{(i^2-i)/2}, exponent) since a factored
    product squares its monomials.  Exponents are computed with exact integer
    arithmetic and verified integral.
    """
    if n < 2:
        raise ValueError("zagier needs n >= 2")
    factors = []
    for i in range(2, n + 1):
        half_degree = i * (i - 1) // 2
        num = factorial(n) * (n - i + 1)
        den = i * i - i
        exponent, rem = divmod(num, den)
        if rem:
            raise InternalConsistencyError(f"non-integral exponent at i={i}, n={n}")
        factors.append((Monomial((("q", half_degree),)), exponent))
    return FactoredProduct(tuple(factors)).canonical()


__all__ = ["formula", "formula_A", "formula_B", "formula_D", "formula_I2", "zagier"]
