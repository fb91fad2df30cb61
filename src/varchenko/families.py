"""Coxeter families A(n), B(n), D(n), I2(m): arrangement constructors and
signed-permutation chambers.

build_family produces ordinary Arrangement objects; chambers_combinatorial
lists the chambers of A, B and D from (signed) permutations, without chamber
enumeration, and the test suite checks the two against each other.  The
printed factorizations of these families live in closedform.printed_edges.

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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exactalg import pair_var, single_var
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
    Each chamber gets an integer witness, x_{s(k)} = e_k (n - k + 1) with
    every e_k = 1 for A and x_{s(n)} = 0 for D, and its sign vector is read
    off that witness exactly.
    """
    if kind.letter == "I2":
        raise FamilyError("combinatorial chambers exist for A, B, D only")
    n = kind.param
    # how many leading positions carry a sign e, and the factor of the rest
    signed, tail = {"A": (0, 1), "B": (n, 0), "D": (n - 1, 0)}[kind.letter]
    A = build_family(kind)
    chambers = []
    for perm in itertools.permutations(range(1, n + 1)):
        for eps in itertools.product((1, -1), repeat=signed):
            signs = eps + (tail,) * (n - signed)
            w = [Fraction(0)] * n
            for pos, coord in enumerate(perm):
                w[coord - 1] = Fraction(signs[pos] * (n - pos))
            witness = tuple(w)
            chambers.append(Chamber(_signs_at(A, witness), witness))
    return chambers

__all__ = ["FamilyError", "FamilyKind", "build_family", "chambers_combinatorial"]
