"""Exact feasibility of linear systems by Fourier-Motzkin elimination.

Decides whether a system of strict and weak inequalities over the rationals
has a solution, and produces an exact rational witness when it does.  Chosen
over simplex because it is the simplest method that is provably exact at the
scales this package targets (a few dozen constraints, dimension below ten).

A relation is a pair (form, rel) where form is a sequence of dim+1 integers
a_1, ..., a_n, c representing the affine function a.x + c, and rel is ">" or
">=" (meaning a.x + c REL 0).  A rational form is scaled to integers by the
caller, and an equation is two opposite ">=" rows.  The witness is returned as
one homogeneous integer vector w = (x_1, ..., x_n, x0): the point x / x0, with
x0 >= 1 and gcd(*w) == 1, so a form's value there times x0 is the dot product
of the form with w.

Implementation notes:
  * elimination is on the integer rows as they are given (neither pivot
    choice nor witness depends on a row's scale); witness back-substitution
    takes integer dot products with the homogeneous point, and only the
    bounds a round puts on its variable are Fractions,
  * derived rows are gcd-normalized and deduplicated; for identical
    coefficient vectors only the tightest constant is kept (this is what
    keeps Fourier-Motzkin growth tame on reflection-arrangement systems),
  * strict/weak bookkeeping: a positive combination is strict iff either
    parent is strict, which makes the projection exact for mixed systems.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul
from typing import Optional, Sequence

from .exactalg import InternalConsistencyError


class DimensionMismatchError(ValueError):
    """A form's length does not match the ambient dimension."""


Relation = tuple[Sequence[int], str]

_RELS = (">", ">=")


def _checked_row(form: Sequence[int], rel: str, dim: int):
    if len(form) != dim + 1:
        raise DimensionMismatchError(
            f"form has {len(form)} entries, expected dim+1 = {dim + 1}")
    if rel not in _RELS:
        raise ValueError(f"relation must be one of {_RELS}, got {rel!r}")
    for v in form:
        if type(v) is not int:
            raise ValueError(f"integer coefficient expected, got {type(v).__name__}")
    return tuple(form[:-1]), form[-1]


def _normalize(coefs: tuple, const: int):
    g = gcd(*coefs, const)
    if g > 1:
        coefs = tuple(v // g for v in coefs)
        const //= g
    return coefs, const


def _at(row: Sequence[int], w: Sequence[int]) -> int:
    """x0 times the value of the integer row (coefficients, then constant)
    at the homogeneous point w = (x, x0)."""
    return sum(map(mul, row, w))


class _Infeasible(Exception):
    pass


def _add_row(rows: dict, coefs: tuple, const: int, strict: bool):
    """Insert an inequality row, keeping only the tightest constant per
    coefficient vector.  Raises _Infeasible on a violated constant row."""
    if not any(coefs):
        if const < 0 or (const == 0 and strict):
            raise _Infeasible
        return
    coefs, const = _normalize(coefs, const)
    prev = rows.get(coefs)
    if prev is None or (const, not strict) < (prev[0], not prev[1]):
        rows[coefs] = (const, strict)


def feasible_strict(system: list[Relation], dim: int) -> Optional[tuple[int, ...]]:
    """Decide the system of integer forms exactly; return a witness point as
    the homogeneous integer vector (x_1, ..., x_dim, x0), x0 >= 1 and
    gcd(*w) == 1, or None.

    The witness x / x0 strictly satisfies every ">" relation and weakly
    every ">=".
    """
    rows: dict = {}   # coefs -> (const, strict)
    # Fourier-Motzkin rounds.  Each round records (var, lower_rows, upper_rows)
    # where lower_rows have positive and upper_rows negative coefficient on var.
    rounds = []
    try:
        for form, rel in system:
            _add_row(rows, *_checked_row(form, rel, dim), rel == ">")
        while True:
            present: dict[int, list[int]] = {}
            for coefs in rows:
                for i, a in enumerate(coefs):
                    if a:
                        cnt = present.setdefault(i, [0, 0])
                        cnt[0 if a > 0 else 1] += 1
            if not present:
                break
            var = min(present, key=lambda i: (present[i][0] * present[i][1], i))
            pos, neg, rest = [], [], {}
            for coefs, (const, strict) in rows.items():
                a = coefs[var]
                if a > 0:
                    pos.append((coefs, const, strict))
                elif a < 0:
                    neg.append((coefs, const, strict))
                else:
                    rest[coefs] = (const, strict)
            rounds.append((var, pos, neg))
            rows = rest
            for pc, pk, ps in pos:
                pa = pc[var]
                for nc, nk, ns in neg:
                    na = -nc[var]
                    row = tuple(na * x + pa * y for x, y in zip(pc, nc))
                    _add_row(rows, row, na * pk + pa * nk, ps or ns)
    except _Infeasible:
        return None

    # Feasible.  Reconstruct a witness: free variables get 0, then walk the
    # Fourier-Motzkin rounds in reverse.  Each variable is eliminated once, so
    # x_var is still 0 when its turn comes, and a row bounds x0 * x_var by
    # -_at(row) / a_var.  Setting x0 * x_var to x scales w by x's denominator,
    # which keeps it in lowest terms: a prime dividing it all cannot divide
    # that denominator, so it divides every old entry.
    w = [0] * dim + [1]
    for var, pos, neg in reversed(rounds):
        lo = [(Fraction(-_at(c + (k,), w), c[var]), s) for c, k, s in pos]
        up = [(Fraction(-_at(c + (k,), w), c[var]), s) for c, k, s in neg]
        if lo and up:
            low, high = max(lo)[0], min(up)[0]
            if low < high:
                x = (low + high) / 2
            elif low == high and not any(s for b, s in lo + up if b == low):
                # equal bounds can only be weak-weak, else the combined row
                # would have been strict and infeasible at this point
                x = low
            else:
                raise InternalConsistencyError(
                    f"empty range [{low / w[-1]}, {high / w[-1]}] for variable {var} "
                    f"in witness back-substitution")
        elif lo:
            x = max(lo)[0] + w[-1]
        else:
            x = min(up)[0] - w[-1]
        w = [v * x.denominator for v in w]
        w[var] = x.numerator
    return tuple(w)
