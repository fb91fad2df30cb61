"""Exact feasibility of linear systems by Fourier-Motzkin elimination.

Decides whether a system of strict inequalities, weak inequalities and
equations over the rationals has a solution, and produces an exact rational
witness when it does.  Chosen over simplex because it is the simplest method
that is provably exact at the scales this package targets (a few dozen
constraints, dimension below ten).

A relation is a pair (form, rel) where form is a sequence of dim+1 integers
a_1, ..., a_n, c representing the affine function a.x + c, and rel is one of
">", ">=", "=" (meaning a.x + c REL 0).  A rational form is scaled to
integers by the caller.  The witness is returned as (nums, den): the point
nums / den with den >= 1 and gcd(den, *nums) == 1.

Implementation notes:
  * elimination is on the integer rows as they are given (neither pivot
    choice nor witness depends on a row's scale); witness back-substitution
    takes integer dot products over the point's one denominator, and only
    the bounds a round puts on its variable are Fractions,
  * equations are eliminated first by exact substitution,
  * derived rows are gcd-normalized and deduplicated; for identical
    coefficient vectors only the tightest constant is kept (this is what
    keeps Fourier-Motzkin growth tame on reflection-arrangement systems),
  * strict/weak bookkeeping: a positive combination is strict iff either
    parent is strict, which makes the projection exact for mixed systems.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from .exactalg import InternalConsistencyError


class DimensionMismatchError(ValueError):
    """A form's length does not match the ambient dimension."""


Relation = tuple[Sequence[int], str]

_RELS = (">", ">=", "=")


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
    g = 0
    for v in coefs:
        g = gcd(g, v)
    g = gcd(g, const)
    if g > 1:
        coefs = tuple(v // g for v in coefs)
        const //= g
    return coefs, const


def _scaled(coefs: tuple, const: int, nums: list[int], den: int) -> int:
    """den times the value of the row (coefs, const) at the point nums / den."""
    return sum(a * x for a, x in zip(coefs, nums)) + const * den


def _assign(nums: list[int], den: int, var: int, x: Fraction):
    """The point nums / den, in lowest terms and with x_var 0, with den * x_var
    set to x.  The result is in lowest terms too: a prime dividing it all
    cannot divide x's denominator, so it divides den and every old numerator."""
    nums = [v * x.denominator for v in nums]
    nums[var] = x.numerator
    return nums, den * x.denominator


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


def feasible_strict(system: list[Relation],
                    dim: int) -> Optional[tuple[tuple[int, ...], int]]:
    """Decide the system of integer forms exactly; return a witness point as
    (nums, den), den >= 1 and gcd(den, *nums) == 1, or None.

    The witness nums / den strictly satisfies every ">" relation, weakly
    every ">=", and exactly every "=".
    """
    eqs = []           # (coefs, const)
    ineqs: dict = {}   # coefs -> (const, strict)
    try:
        for form, rel in system:
            coefs, const = _checked_row(form, rel, dim)
            if rel == "=":
                if any(coefs):
                    eqs.append((coefs, const))
                elif const != 0:
                    return None
            else:
                _add_row(ineqs, coefs, const, rel == ">")
    except _Infeasible:
        return None

    # Substitute equations away.  Each pivot records (var, coefs, const) with
    # coefs[var] != 0 for back-substitution.
    substitutions = []
    try:
        while eqs:
            coefs, const = eqs.pop()
            if not any(coefs):
                if const != 0:
                    return None
                continue
            # pivot on the entry of smallest magnitude to limit growth
            var = min((i for i, a in enumerate(coefs) if a), key=lambda i: abs(coefs[i]))
            substitutions.append((var, coefs, const))
            ev = coefs[var]
            sign = 1 if ev > 0 else -1
            mag = abs(ev)
            new_eqs = []
            for c2, k2 in eqs:
                a = c2[var]
                if a:
                    c2 = tuple(mag * x - sign * a * y for x, y in zip(c2, coefs))
                    k2 = mag * k2 - sign * a * const
                    c2, k2 = _normalize(c2, k2)
                new_eqs.append((c2, k2))
            eqs = new_eqs
            old = ineqs
            ineqs = {}
            for c2, (k2, strict) in old.items():
                a = c2[var]
                if a:
                    row = tuple(mag * x - sign * a * y for x, y in zip(c2, coefs))
                    k2 = mag * k2 - sign * a * const
                    _add_row(ineqs, row, k2, strict)
                else:
                    _add_row(ineqs, c2, k2, strict)
    except _Infeasible:
        return None

    # Fourier-Motzkin rounds.  Each round records (var, lower_rows, upper_rows)
    # where lower_rows have positive and upper_rows negative coefficient on var.
    rounds = []
    try:
        while True:
            present: dict[int, list[int]] = {}
            for coefs in ineqs:
                for i, a in enumerate(coefs):
                    if a:
                        cnt = present.setdefault(i, [0, 0])
                        cnt[0 if a > 0 else 1] += 1
            if not present:
                break
            var = min(present, key=lambda i: (present[i][0] * present[i][1], i))
            pos, neg, rest = [], [], {}
            for coefs, (const, strict) in ineqs.items():
                a = coefs[var]
                if a > 0:
                    pos.append((coefs, const, strict))
                elif a < 0:
                    neg.append((coefs, const, strict))
                else:
                    rest[coefs] = (const, strict)
            rounds.append((var, pos, neg))
            ineqs = rest
            for pc, pk, ps in pos:
                pa = pc[var]
                for nc, nk, ns in neg:
                    na = -nc[var]
                    row = tuple(na * x + pa * y for x, y in zip(pc, nc))
                    _add_row(ineqs, row, na * pk + pa * nk, ps or ns)
    except _Infeasible:
        return None

    # Feasible.  Reconstruct a witness: free variables get 0, then walk the
    # Fourier-Motzkin rounds and the equation substitutions in reverse.  Each
    # variable is eliminated once, so x_var is still 0 when its turn comes,
    # and a row bounds den * x_var by -_scaled(row) / a_var.
    nums, den = [0] * dim, 1
    for var, pos, neg in reversed(rounds):
        lo = [(Fraction(-_scaled(c, k, nums, den), c[var]), s) for c, k, s in pos]
        up = [(Fraction(-_scaled(c, k, nums, den), c[var]), s) for c, k, s in neg]
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
                    f"empty range [{low / den}, {high / den}] for variable {var} "
                    f"in witness back-substitution")
        elif lo:
            x = max(lo)[0] + den
        else:
            x = min(up)[0] - den
        nums, den = _assign(nums, den, var, x)
    for var, coefs, const in reversed(substitutions):
        x = Fraction(-_scaled(coefs, const, nums, den), coefs[var])
        nums, den = _assign(nums, den, var, x)
    return tuple(nums), den
