"""Coxeter families A(n), B(n), D(n), I2(m): constructors and combinatorial models.

The geometric side (build_family) produces ordinary Arrangement objects; the
combinatorial side describes chambers and relevant edges without chamber
enumeration, directly from (signed) permutations and (signed) index subsets.
The two sides are cross-checked against each other in the test suite.

Conventions:
  A(n)   hyperplanes x_i = x_j (i < j) in R^n, weights q_{i,j}
  B(n)   adds x_i = -x_j (weights q_{-i,j}) and x_i = 0 (weights q_{i})
  D(n)   the two pair families only
  I2(m)  m distinct concurrent lines in the plane, weights q_{1}..q_{m}

I2(m) uses exact rational normals in strictly increasing angle order instead
of the unit-circle directions (cos, sin at multiples of pi/m), which are
irrational for most m.  Chambers, separating sets, edges and multiplicities
of concurrent line arrangements depend only on the angular order of the
lines, so every quantity this package computes is unchanged; for m in {2, 4}
the angles are exact and I2(4) coincides with B(2) as a line set.

multiplicity_combinatorial returns the printed closed-form exponent for each
edge, even where the geometric engine disagrees; adjudication between the two
is the verification harness's job, not this module's.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Iterator

from .exactalg import Monomial, pair_var, single_var
from .geometry import Arrangement, Chamber, Hyperplane


class FamilyError(ValueError):
    pass


_LETTERS = ("A", "B", "D", "I2")


@dataclass(frozen=True)
class FamilyKind:
    """One of A(n), B(n), D(n), I2(m); n, m >= 2."""

    letter: str
    param: int

    def __post_init__(self):
        if self.letter not in _LETTERS:
            raise FamilyError(f"unknown family {self.letter!r}, expected one of {_LETTERS}")
        if self.param < 2:
            raise FamilyError(f"{self.letter} parameter must be >= 2, got {self.param}")

    @staticmethod
    def parse(text: str) -> "FamilyKind":
        """Selector grammar: 'A:n', 'B:n', 'D:n', 'I2:m'."""
        parts = text.split(":")
        if len(parts) != 2:
            raise FamilyError(f"bad family selector {text!r}, expected LETTER:PARAM")
        letter, param = parts[0], parts[1]
        try:
            value = int(param)
        except ValueError:
            raise FamilyError(f"bad family parameter {param!r} in {text!r}") from None
        return FamilyKind(letter, value)

    def __str__(self):
        return f"{self.letter}:{self.param}"


def _pair_hyperplane(n: int, i: int, j: int, negated: bool) -> Hyperplane:
    normal = [Fraction(0)] * n
    normal[i - 1] = Fraction(1)
    normal[j - 1] = Fraction(1) if negated else Fraction(-1)
    return Hyperplane.make(normal, 0, pair_var(i, j, negated))


def _axis_hyperplane(n: int, i: int) -> Hyperplane:
    normal = [Fraction(0)] * n
    normal[i - 1] = Fraction(1)
    return Hyperplane.make(normal, 0, single_var(i))


def _i2_normal(t: int, m: int) -> tuple[Fraction, Fraction]:
    # Rational direction with angle strictly increasing in t over [0, pi).
    # Exact at the quarter turns: t=0 -> (1,0), t=m/4 -> (1,1), t=m/2 -> (0,1),
    # t=3m/4 -> (-1,1).
    if t == 0:
        return (Fraction(1), Fraction(0))
    if 2 * t == m:
        return (Fraction(0), Fraction(1))
    if 2 * t < m:
        slope = Fraction(2 * t, m - 2 * t)
        return (Fraction(slope.denominator), Fraction(slope.numerator))
    x, y = _i2_normal(m - t, m)
    return (-x, y)


@lru_cache(maxsize=None)
def build_family(kind: FamilyKind) -> Arrangement:
    """The arrangement of the given family.  Cached, so repeated calls share
    one Arrangement instance (and with it the chamber and face caches)."""
    n = kind.param
    if kind.letter == "A":
        hyps = [_pair_hyperplane(n, i, j, False)
                for i, j in itertools.combinations(range(1, n + 1), 2)]
        return Arrangement(n, hyps)
    if kind.letter == "B":
        hyps = []
        for i, j in itertools.combinations(range(1, n + 1), 2):
            hyps.append(_pair_hyperplane(n, i, j, False))
            hyps.append(_pair_hyperplane(n, i, j, True))
        hyps.extend(_axis_hyperplane(n, i) for i in range(1, n + 1))
        return Arrangement(n, hyps)
    if kind.letter == "D":
        hyps = []
        for i, j in itertools.combinations(range(1, n + 1), 2):
            hyps.append(_pair_hyperplane(n, i, j, False))
            hyps.append(_pair_hyperplane(n, i, j, True))
        return Arrangement(n, hyps)
    hyps = [Hyperplane.make(_i2_normal(t, n), 0, single_var(t + 1)) for t in range(n)]
    return Arrangement(2, hyps)


# ---------------------------------------------------------------------------
# combinatorial chambers
# ---------------------------------------------------------------------------


def _signs_at(A: Arrangement, witness: tuple[Fraction, ...]) -> tuple[int, ...]:
    signs = []
    for h in A.hyperplanes:
        v = h.value_at(witness)
        if v == 0:
            raise FamilyError("witness lies on a hyperplane")
        signs.append(1 if v > 0 else -1)
    return tuple(signs)


def chambers_combinatorial(kind: FamilyKind) -> list[Chamber]:
    """Chambers of A/B/D indexed by (signed) permutations, no enumeration.

    A(n): regions x_{s(1)} > ... > x_{s(n)}, one per permutation s.
    B(n): e_1 x_{s(1)} > ... > e_n x_{s(n)} > 0, signs e in {+-1}^n.
    D(n): e_1 x_{s(1)} > ... > e_{n-1} x_{s(n-1)} > |x_{s(n)}|, the last
          coordinate unsigned.
    Each chamber gets an integer witness (rank values), and its sign vector
    is read off that witness exactly.
    """
    n = kind.param
    A = build_family(kind)
    chambers = []
    if kind.letter == "A":
        for perm in itertools.permutations(range(1, n + 1)):
            w = [Fraction(0)] * n
            for pos, coord in enumerate(perm):
                w[coord - 1] = Fraction(n - pos)
            witness = tuple(w)
            chambers.append(Chamber(_signs_at(A, witness), witness))
        return chambers
    if kind.letter == "B":
        for perm in itertools.permutations(range(1, n + 1)):
            for eps in itertools.product((1, -1), repeat=n):
                w = [Fraction(0)] * n
                for pos, coord in enumerate(perm):
                    w[coord - 1] = Fraction(eps[pos] * (n - pos))
                witness = tuple(w)
                chambers.append(Chamber(_signs_at(A, witness), witness))
        return chambers
    if kind.letter == "D":
        for perm in itertools.permutations(range(1, n + 1)):
            for eps in itertools.product((1, -1), repeat=n - 1):
                w = [Fraction(0)] * n
                for pos, coord in enumerate(perm[:-1]):
                    w[coord - 1] = Fraction(eps[pos] * (n - pos))
                w[perm[-1] - 1] = Fraction(0)
                witness = tuple(w)
                chambers.append(Chamber(_signs_at(A, witness), witness))
        return chambers
    raise FamilyError("combinatorial chambers exist for A, B, D only")


# ---------------------------------------------------------------------------
# signed subsets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SignedSubset:
    """Nonzero integers with pairwise distinct absolute values, canonicalized
    so the entry of largest absolute value is positive (one representative of
    each {J, -J} pair).  Entries are stored sorted by absolute value."""

    entries: tuple[int, ...]

    @staticmethod
    def canonical(entries) -> "SignedSubset":
        items = sorted(entries, key=abs)
        if not items:
            raise FamilyError("signed subset must be nonempty")
        if any(e == 0 for e in items):
            raise FamilyError("signed subset entries must be nonzero")
        if len({abs(e) for e in items}) != len(items):
            raise FamilyError("signed subset entries must have distinct absolute values")
        if items[-1] < 0:
            items = [-e for e in items]
        return SignedSubset(tuple(items))

    def __len__(self):
        return len(self.entries)


def signed_subsets(n: int, min_size: int = 1) -> Iterator[SignedSubset]:
    """All canonical signed subsets of {-n..-1, 1..n} with size >= min_size,
    in deterministic order (by size, then support, then sign pattern)."""
    for k in range(min_size, n + 1):
        for support in itertools.combinations(range(1, n + 1), k):
            for signs in itertools.product((1, -1), repeat=k - 1):
                entries = tuple(s * v for s, v in zip(signs + (1,), support))
                yield SignedSubset.canonical(entries)


def signed_pair_weight(a: int, b: int) -> str:
    """Weight variable of the hyperplane through a pair of signed indices:
    q_{i,j} when the signs agree (x_i = x_j), q_{-i,j} when they differ."""
    if a == 0 or b == 0 or abs(a) == abs(b):
        raise FamilyError(f"need nonzero entries with distinct absolute values, got {a}, {b}")
    i, j = sorted((abs(a), abs(b)))
    return pair_var(i, j, negated=(a > 0) != (b > 0))


# ---------------------------------------------------------------------------
# combinatorial relevant edges and the printed multiplicity formulas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FamilyEdgeDescriptor:
    """A relevant edge of a Coxeter family, named by what vanishes on it.

    variant "equal":        x_{i_1} = ... = x_{i_r}   (indices, r >= 2)
    variant "signed_equal": e_1 x_{i_1} = ... = e_r x_{i_r}  (signed, r >= 2)
    variant "zero_set":     x_{i_1} = ... = x_{i_r} = 0     (indices, r >= 1)
    """

    variant: str
    indices: tuple[int, ...] = ()
    signed: SignedSubset | None = None

    @property
    def size(self) -> int:
        return len(self.signed) if self.variant == "signed_equal" else len(self.indices)


def _equal_descriptor(indices) -> FamilyEdgeDescriptor:
    return FamilyEdgeDescriptor("equal", indices=tuple(sorted(indices)))


def _zero_descriptor(indices) -> FamilyEdgeDescriptor:
    return FamilyEdgeDescriptor("zero_set", indices=tuple(sorted(indices)))


def _signed_descriptor(subset: SignedSubset) -> FamilyEdgeDescriptor:
    return FamilyEdgeDescriptor("signed_equal", signed=subset)


def descriptor_weight_vars(kind: FamilyKind, d: FamilyEdgeDescriptor) -> list[str]:
    """Weight variables of the hyperplanes containing the described edge."""
    if d.variant == "equal":
        return [pair_var(i, j) for i, j in itertools.combinations(d.indices, 2)]
    if d.variant == "signed_equal":
        return [signed_pair_weight(a, b)
                for a, b in itertools.combinations(d.signed.entries, 2)]
    if d.variant == "zero_set":
        names = []
        if kind.letter == "B":
            names.extend(single_var(u) for u in d.indices)
        for i, j in itertools.combinations(d.indices, 2):
            names.append(pair_var(i, j, False))
            names.append(pair_var(i, j, True))
        return names
    raise FamilyError(f"unknown descriptor variant {d.variant!r}")


def descriptor_weight_monomial(kind: FamilyKind, d: FamilyEdgeDescriptor) -> Monomial:
    return Monomial.from_vars(descriptor_weight_vars(kind, d))


def descriptor_hyperplanes(kind: FamilyKind, d: FamilyEdgeDescriptor) -> frozenset[int]:
    """Indices of the containing hyperplanes inside build_family(kind)."""
    A = build_family(kind)
    index_of = {name: i for i, name in enumerate(A.weight_names())}
    return frozenset(index_of[name] for name in descriptor_weight_vars(kind, d))


def relevant_edges_combinatorial(kind: FamilyKind) -> list[FamilyEdgeDescriptor]:
    """The families' relevant edges, described combinatorially.

    A(n): every index subset of size >= 2.
    B(n): every canonical signed subset of size >= 2, plus every zero set of
          size >= 1.
    D(n): every canonical signed subset of size >= 2, plus zero sets of size
          >= 2 only ({x_i = 0} alone is not an intersection of D hyperplanes).
    """
    n = kind.param
    if kind.letter == "A":
        return [_equal_descriptor(c)
                for k in range(2, n + 1)
                for c in itertools.combinations(range(1, n + 1), k)]
    if kind.letter in ("B", "D"):
        out: list[FamilyEdgeDescriptor] = [
            _signed_descriptor(s) for s in signed_subsets(n, min_size=2)]
        min_zero = 1 if kind.letter == "B" else 2
        out.extend(_zero_descriptor(c)
                   for k in range(min_zero, n + 1)
                   for c in itertools.combinations(range(1, n + 1), k))
        return out
    raise FamilyError("combinatorial edges exist for A, B, D only")


def multiplicity_combinatorial(kind: FamilyKind, d: FamilyEdgeDescriptor) -> int:
    """The printed closed-form multiplicity of the edge, taken at face value.

    This models the published formulas exactly as stated, including the cases
    where the geometric engine contradicts them; comparing the two is the
    verification harness's job.  Undefined factorials (negative argument)
    are rejected.
    """
    n = kind.param
    r = d.size
    if kind.letter == "A":
        if d.variant != "equal" or r < 2:
            raise FamilyError("A edges are index subsets of size >= 2")
        return factorial(r - 2) * factorial(n - r + 1)
    if kind.letter == "B":
        if d.variant == "signed_equal":
            if r < 2:
                raise FamilyError("signed subset edges need size >= 2")
            return (1 << (n - r + 1)) * factorial(r - 2) * factorial(n - r + 1)
        if d.variant == "zero_set":
            if r < 1:
                raise FamilyError("zero-set edges need size >= 1")
            return (1 << (n - 1)) * factorial(r - 1) * factorial(n - r)
        raise FamilyError(f"descriptor {d.variant!r} not a B edge")
    if kind.letter == "D":
        if d.variant == "signed_equal":
            if r < 2:
                raise FamilyError("signed subset edges need size >= 2")
            return (1 << (n - r)) * factorial(r - 2) * factorial(n - r + 1)
        if d.variant == "zero_set":
            if r < 2:
                raise FamilyError("D zero-set edges need size >= 2 "
                                  "((size-2)! is undefined below that)")
            return (1 << (n - 1)) * factorial(r - 2) * factorial(n - r)
        raise FamilyError(f"descriptor {d.variant!r} not a D edge")
    raise FamilyError("combinatorial multiplicities exist for A, B, D only")


__all__ = [
    "FamilyError", "FamilyKind", "FamilyEdgeDescriptor", "SignedSubset",
    "build_family", "chambers_combinatorial", "descriptor_hyperplanes",
    "descriptor_weight_monomial", "descriptor_weight_vars",
    "multiplicity_combinatorial", "relevant_edges_combinatorial",
    "signed_pair_weight", "signed_subsets",
]
