"""Exact arithmetic substrate: prime fields, weight monomials, factored products.

Rational numbers are `fractions.Fraction` (already canonical: positive
denominator, reduced) and integers are Python ints, so everything here is
exact by construction.  No floating point is used anywhere in the package.

The symbolic layer is deliberately tiny.  Determinant formulas in this domain
are products of factors (1 - m^2)^e where m is a monomial in the hyperplane
weight variables, so a `FactoredProduct` (list of monomial/exponent pairs in
canonical order) is the only polynomial representation we need.  General
multivariate expansion is out of scope.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping


class ExactAlgError(ValueError):
    """Base error for this module."""


class NotPrimeError(ExactAlgError):
    """Modulus failed the primality check."""


class MissingVariableError(ExactAlgError):
    """An evaluation assignment does not cover some variable."""

    def __init__(self, name: str):
        super().__init__(f"assignment does not cover variable {name!r}")
        self.name = name


class BadVariableNameError(ExactAlgError):
    """Variable name outside the accepted grammar."""


class InternalConsistencyError(AssertionError):
    """An invariant of the engine failed; indicates a bug, not bad input."""


# ---------------------------------------------------------------------------
# Variable names
#
# Canonical weight names follow the grammar used by the Coxeter families:
#   q_{i,j}   pair weight, 1 <= i < j
#   q_{-i,j}  signed pair weight, 1 <= i < j
#   q_{i}     single-index weight, i >= 1
# plus identifier-style user names for arrangements read from files.
# ---------------------------------------------------------------------------

_PAIR_RE = re.compile(r"^q_\{(-?)(\d+),(\d+)\}$")
_SINGLE_RE = re.compile(r"^q_\{(\d+)\}$")
_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def pair_var(i: int, j: int, negated: bool = False) -> str:
    """Canonical name q_{i,j} or q_{-i,j} for a pair weight, requires 1 <= i < j."""
    if not (1 <= i < j):
        raise BadVariableNameError(f"pair variable needs 1 <= i < j, got {i},{j}")
    return f"q_{{-{i},{j}}}" if negated else f"q_{{{i},{j}}}"


def single_var(i: int) -> str:
    """Canonical name q_{i} for a single-index weight, requires i >= 1."""
    if i < 1:
        raise BadVariableNameError(f"single variable needs i >= 1, got {i}")
    return f"q_{{{i}}}"


def validate_var(name: str) -> str:
    """Check `name` against the variable grammar and return it unchanged.

    Accepts the three canonical forms (with their index constraints) and plain
    identifiers.  Parsing a canonical form round-trips through pair_var /
    single_var by construction.
    """
    m = _PAIR_RE.match(name)
    if m:
        neg, i, j = m.group(1) == "-", int(m.group(2)), int(m.group(3))
        if not (1 <= i < j):
            raise BadVariableNameError(f"{name!r}: pair indices must satisfy 1 <= i < j")
        if pair_var(i, j, neg) != name:
            raise BadVariableNameError(f"{name!r}: not in canonical spelling")
        return name
    m = _SINGLE_RE.match(name)
    if m:
        i = int(m.group(1))
        if i < 1:
            raise BadVariableNameError(f"{name!r}: index must be >= 1")
        if single_var(i) != name:
            raise BadVariableNameError(f"{name!r}: not in canonical spelling")
        return name
    if _IDENT_RE.match(name):
        return name
    raise BadVariableNameError(f"{name!r}: not a weight variable name")


# ---------------------------------------------------------------------------
# Prime field
# ---------------------------------------------------------------------------

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n < 2^64, which covers
    PrimeField's moduli below 2^63: trial division by the primes 2-37, then
    the seven bases 2, 325, 9375, 28178, 450775, 9780504 and 1795265022
    that Jim Sinclair found in 2011 to have no common strong pseudoprime
    below 2^64.  A base is reduced mod n and skipped when n divides it: a
    prime such as 73, which divides 28178, would otherwise read as
    composite."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# Default modulus for identity testing: the Mersenne prime 2^61 - 1.
DEFAULT_PRIME = (1 << 61) - 1


class PrimeField:
    """Arithmetic mod a word-sized prime.  Elements are plain reduced ints.

    Keeping elements as ints (rather than wrapper objects) matters: the
    brute-force determinant touches hundreds of millions of them.
    """

    __slots__ = ("p",)

    def __init__(self, modulus: int):
        if not isinstance(modulus, int) or modulus >= 1 << 63:
            raise NotPrimeError(f"modulus must be an int below 2^63, got {modulus!r}")
        # 2^61 - 1 is a Mersenne prime, and most fields use it: no test
        if modulus != DEFAULT_PRIME and not is_prime(modulus):
            raise NotPrimeError(f"{modulus} is not prime")
        self.p = modulus

    def __repr__(self):
        return f"PrimeField({self.p})"


# ---------------------------------------------------------------------------
# Monomials
# ---------------------------------------------------------------------------


def _exponent(e, name: str | None = None) -> int:
    """e itself if it is a nonnegative int; name is its variable, None for a factor."""
    if isinstance(e, int) and not isinstance(e, bool) and e >= 0:
        return e
    what = "factor exponent" if name is None else f"exponent for {name!r}"
    raise ExactAlgError(f"{what} must be a nonnegative int, got {e!r}")


@dataclass(frozen=True)
class Monomial:
    """A product of weight variables with positive integer exponents.

    The constructor stores the canonical form: names checked against the
    variable grammar, repeated names merged, zero exponents dropped, and the
    rest sorted by name; the empty tuple is the monomial 1.  An exponent must
    be a nonnegative int.
    """

    powers: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        merged: dict[str, int] = {}
        for name, e in self.powers:
            if _exponent(e, name):
                merged[validate_var(name)] = merged.get(name, 0) + e
        object.__setattr__(self, "powers", tuple(sorted(merged.items())))

    @staticmethod
    def from_dict(exps: Mapping[str, int]) -> "Monomial":
        return Monomial(tuple(exps.items()))

    @staticmethod
    def from_vars(names: Iterable[str]) -> "Monomial":
        """Product of the given variables (repeats accumulate exponents)."""
        return Monomial(tuple((name, 1) for name in names))

    @property
    def degree(self) -> int:
        return sum(e for _, e in self.powers)

    def variables(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.powers)

    def eval(self, assignment: Mapping[str, int], field: PrimeField) -> int:
        """Value of the monomial in the field; raises on uncovered variables."""
        acc = 1
        for name, e in self.powers:
            if name not in assignment:
                raise MissingVariableError(name)
            acc = acc * pow(assignment[name] % field.p, e, field.p) % field.p
        return acc

    def __str__(self):
        if not self.powers:
            return "1"
        parts = []
        for name, e in self.powers:
            parts.append(name if e == 1 else f"{name}^{e}")
        return "".join(parts)


def _mono_sort_key(m: Monomial):
    # Canonical factor order: total degree first, then variable/exponent tuples
    # compared lexicographically (plain string order on names).
    return (m.degree, m.powers)


# ---------------------------------------------------------------------------
# Factored products:  prod over factors of (1 - monomial^2)^exponent
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FactoredProduct:
    """A formal product prod_i (1 - m_i^2)^{e_i} over monomials m_i.

    The constructor stores the canonical form: factors with equal monomials
    merged, zero exponents dropped, and the rest sorted by (total degree,
    variable order).  An exponent must be a nonnegative int.  Since each
    factor 1 - m^2 is determined by its monomial, two products are equal as
    polynomials iff they compare equal, and equal products hash equal.
    """

    factors: tuple[tuple[Monomial, int], ...] = ()

    def __post_init__(self):
        merged: dict[Monomial, int] = {}
        for mono, e in self.factors:
            if _exponent(e):
                merged[mono] = merged.get(mono, 0) + e
        object.__setattr__(self, "factors", tuple(
            sorted(merged.items(), key=lambda it: _mono_sort_key(it[0]))))

    def variables(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for mono, _ in self.factors:
            for name in mono.variables():
                seen[name] = None
        return tuple(sorted(seen))

    def to_json_obj(self) -> dict:
        """JSON shape: {"factors": [{"monomial": [[name, exp], ...], "exponent": e}, ...]}."""
        return {
            "factors": [
                {"monomial": [[name, exp] for name, exp in mono.powers], "exponent": e}
                for mono, e in self.factors
            ]
        }

    @staticmethod
    def from_json_obj(obj: dict) -> "FactoredProduct":
        factors = []
        for f in obj["factors"]:
            mono = Monomial.from_dict({name: exp for name, exp in f["monomial"]})
            factors.append((mono, f["exponent"]))
        return FactoredProduct(tuple(factors))


def factored_eval(f: FactoredProduct, assignment: Mapping[str, int],
                  field: PrimeField) -> int:
    """Evaluate prod (1 - m(assignment)^2)^e in the field."""
    acc = 1
    p = field.p
    for mono, e in f.factors:
        v = mono.eval(assignment, field)
        base = (1 - v * v) % p
        acc = acc * pow(base, e, p) % p
    return acc


def factored_specialize_all(f: FactoredProduct, varname: str) -> FactoredProduct:
    """Collapse every variable to `varname`: a degree-d monomial becomes varname^d.

    Reduces a multivariate determinant formula to its single-variable shape.
    """
    validate_var(varname)
    factors = []
    for mono, e in f.factors:
        d = mono.degree
        new = Monomial() if d == 0 else Monomial(((varname, d),))
        factors.append((new, e))
    return FactoredProduct(tuple(factors))
