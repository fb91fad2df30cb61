"""Closed-form determinant factorizations for the Coxeter families.

printed_edges(kind) is the published factorization of A(n), B(n) or D(n) as
a table: one row per factor, each with the edge it belongs to, the weight
monomial of that edge and the printed exponent.  Every printed exponent rule
is written once, there.  formula(kind) turns the table (or, for I2(m), its
two-line closed form) into a canonical FactoredProduct, and
formula_A/B/D/I2(n) are its per-family shorthands; none of them consults the
geometric engine.  Where a printed formula is wrong (the D family is the
documented suspect), the output is wrong in the same way; the verification
harness is the only place where formulas are judged against ground truth.

zagier(n) is the single-variable specialization of the A-family determinant:
assigning one variable q to every hyperplane collapses the formula to
prod_{i=2..n} (1 - q^{i^2-i})^{n!(n-i+1)/(i^2-i)}, whose exponents are
integers for every n (checked exactly here with big-integer arithmetic).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import factorial
from typing import Iterator

from .exactalg import (FactoredProduct, InternalConsistencyError, Monomial,
                       pair_var, single_var)
from .families import FamilyError, FamilyKind


@dataclass(frozen=True)
class PrintedEdge:
    """One factor (1 - monomial^2)^exponent of a printed factorization.

    variant names the edge by what vanishes on it, over `entries`:
      "equal"         x_{i_1} = ... = x_{i_r}            (indices)
      "signed_equal"  e_1 x_{i_1} = ... = e_r x_{i_r}    (signed indices)
      "zero_set"      x_{i_1} = ... = x_{i_r} = 0        (indices)
    monomial is the product of the weights of the hyperplanes through the edge.
    """

    variant: str
    entries: tuple[int, ...]
    monomial: Monomial
    exponent: int


def signed_subsets(n: int, min_size: int = 1) -> Iterator[tuple[int, ...]]:
    """One of each pair {J, -J} of signed subsets of {-n..-1, 1..n} with
    size >= min_size: entries sorted by absolute value, the last positive.
    Ordered by size, then support, then sign pattern."""
    for k in range(min_size, n + 1):
        for support in combinations(range(1, n + 1), k):
            for signs in product((1, -1), repeat=k - 1):
                yield tuple(s * v for s, v in zip(signs + (1,), support))


def signed_pair_weight(a: int, b: int) -> str:
    """Weight variable of the hyperplane through a pair of signed indices:
    q_{i,j} when the signs agree (x_i = x_j), q_{-i,j} when they differ."""
    if a == 0 or b == 0 or abs(a) == abs(b):
        raise FamilyError(f"need nonzero entries with distinct absolute values, got {a}, {b}")
    i, j = sorted((abs(a), abs(b)))
    return pair_var(i, j, negated=(a > 0) != (b > 0))


def printed_edges(kind: FamilyKind) -> list[PrintedEdge]:
    """The printed factorization of A(n), B(n) or D(n), one row per factor.

    Each family's rows come from the rule the paper prints for them, with r
    the number of entries, taken at face value even where the geometric
    engine contradicts it; judging the rules is the verification harness's
    job.
    """
    n, f = kind.param, factorial

    def subsets(min_size):
        return (I for r in range(min_size, n + 1) for I in combinations(range(1, n + 1), r))

    def equal(rule):
        return [PrintedEdge("equal", I,
                            Monomial.from_vars(pair_var(i, j) for i, j in combinations(I, 2)),
                            rule(len(I)))
                for I in subsets(2)]

    def signed_equal(rule):
        return [PrintedEdge("signed_equal", J,
                            Monomial.from_vars(signed_pair_weight(a, b)
                                               for a, b in combinations(J, 2)),
                            rule(len(J)))
                for J in signed_subsets(n, min_size=2)]

    def zero_set(min_size, rule, axes):
        rows = []
        for I in subsets(min_size):
            # x_i = 0 for each i when the family has axes, x_i = +-x_j for each pair
            names = [single_var(i) for i in I] if axes else []
            for i, j in combinations(I, 2):
                names += [pair_var(i, j), pair_var(i, j, negated=True)]
            rows.append(PrintedEdge("zero_set", I, Monomial.from_vars(names), rule(len(I))))
        return rows

    if kind.letter == "A":
        return equal(lambda r: f(r - 2) * f(n - r + 1))
    if kind.letter == "B":
        return (signed_equal(lambda r: 2 ** (n - r + 1) * f(r - 2) * f(n - r + 1))
                + zero_set(1, lambda r: 2 ** (n - 1) * f(r - 1) * f(n - r), axes=True))
    if kind.letter == "D":
        return (signed_equal(lambda r: 2 ** (n - r) * f(r - 2) * f(n - r + 1))
                + zero_set(2, lambda r: 2 ** (n - 1) * f(r - 2) * f(n - r), axes=False))
    raise FamilyError("printed edges exist for A, B, D only")


def formula(kind: FamilyKind) -> FactoredProduct:
    """The printed factored determinant of the family `kind`: the rows of
    printed_edges for A, B and D, and
    (1 - prod_i q_i^2)^{m-2} * prod_j (1 - q_j^2)^2 for I2(m)."""
    if kind.letter == "I2":
        m = kind.param
        factors = [(Monomial.from_vars(single_var(i) for i in range(1, m + 1)), m - 2)]
        factors.extend((Monomial.from_vars([single_var(j)]), 2) for j in range(1, m + 1))
    else:
        factors = [(e.monomial, e.exponent) for e in printed_edges(kind)]
    return FactoredProduct(tuple(factors)).canonical()


def formula_A(n: int) -> FactoredProduct:
    """formula(A:n); its factors are the rows of printed_edges(A:n)."""
    return formula(FamilyKind("A", n))


def formula_B(n: int) -> FactoredProduct:
    """formula(B:n); its factors are the rows of printed_edges(B:n)."""
    return formula(FamilyKind("B", n))


def formula_D(n: int) -> FactoredProduct:
    """formula(D:n) as printed; its factors are the rows of printed_edges(D:n)."""
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


__all__ = ["PrintedEdge", "formula", "formula_A", "formula_B", "formula_D",
           "formula_I2", "printed_edges", "signed_pair_weight", "signed_subsets",
           "zagier"]
