"""Exact feasibility of linear systems by Fourier-Motzkin elimination.

Decides whether a system of strict inequalities, weak inequalities and
equations over the rationals has a solution, and produces an exact rational
witness when it does.  Chosen over simplex because it is the simplest method
that is provably exact at the scales this package targets (a few dozen
constraints, dimension below ten).

A relation is a pair (form, rel) where form is a sequence of dim+1 rationals
a_1, ..., a_n, c representing the affine function a.x + c, and rel is one of
">", ">=", "=" (meaning a.x + c REL 0).

Implementation notes:
  * all elimination arithmetic is on scaled integer rows; Fractions only
    appear during witness back-substitution.  An all-integer form is used as
    it is (callers with hot loops pass precomputed primitive rows); a form
    with Fractions is first scaled to primitive integers,
  * equations are eliminated first by exact substitution,
  * derived rows are gcd-normalized and deduplicated; for identical
    coefficient vectors only the tightest constant is kept (this is what
    keeps Fourier-Motzkin growth tame on reflection-arrangement systems),
  * strict/weak bookkeeping: a positive combination is strict iff either
    parent is strict, which makes the projection exact for mixed systems.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

from .exactalg import InternalConsistencyError


class DimensionMismatchError(ValueError):
    """A form's length does not match the ambient dimension."""


Relation = tuple[Sequence, str]

_RELS = (">", ">=", "=")


def _primitive_ints(values: Sequence) -> list[int]:
    """Exact rationals scaled to coprime integers: clear the denominators,
    then divide by the gcd.  Proportional inputs differ only in sign after."""
    den = 1
    for v in values:
        if isinstance(v, Fraction):
            den = lcm(den, v.denominator)
        elif not isinstance(v, int):
            raise ValueError(f"exact coefficient expected, got {type(v).__name__}")
    ints = [v.numerator * (den // v.denominator) if isinstance(v, Fraction) else v * den
            for v in values]
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g > 1:
        ints = [v // g for v in ints]
    return ints


def _to_int_row(form: Sequence, rel: str, dim: int):
    if len(form) != dim + 1:
        raise DimensionMismatchError(
            f"form has {len(form)} entries, expected dim+1 = {dim + 1}")
    if rel not in _RELS:
        raise ValueError(f"relation must be one of {_RELS}, got {rel!r}")
    if all(type(v) is int for v in form):
        # integer rows go in as they are: every derived row is normalized,
        # and neither pivot choice nor witness depends on a row's scale
        return tuple(form[:-1]), form[-1]
    ints = _primitive_ints(form)
    return tuple(ints[:-1]), ints[-1]


def _normalize(coefs: tuple, const: int):
    g = 0
    for v in coefs:
        g = gcd(g, v)
    g = gcd(g, const)
    if g > 1:
        coefs = tuple(v // g for v in coefs)
        const //= g
    return coefs, const


def _value(coefs, const, point):
    acc = Fraction(const)
    for a, x in zip(coefs, point):
        if a:
            acc += a * x
    return acc


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


def feasible_strict(system: list[Relation], dim: int) -> Optional[tuple[Fraction, ...]]:
    """Decide the system exactly; return a rational witness point or None.

    The witness strictly satisfies every ">" relation, weakly every ">=",
    and exactly every "=".
    """
    eqs = []           # (coefs, const)
    ineqs: dict = {}   # coefs -> (const, strict)
    try:
        for form, rel in system:
            coefs, const = _to_int_row(form, rel, dim)
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
    # Fourier-Motzkin rounds and the equation substitutions in reverse.
    point = [Fraction(0)] * dim
    for var, pos, neg in reversed(rounds):
        lo = up = None
        lo_strict = up_strict = False
        for coefs, const, strict in pos:
            a = coefs[var]
            bound = -(_value(coefs, const, point) - a * point[var]) / a
            if lo is None or bound > lo:
                lo, lo_strict = bound, strict
            elif bound == lo:
                lo_strict = lo_strict or strict
        for coefs, const, strict in neg:
            a = coefs[var]
            bound = -(_value(coefs, const, point) - a * point[var]) / a
            if up is None or bound < up:
                up, up_strict = bound, strict
            elif bound == up:
                up_strict = up_strict or strict
        if lo is not None and up is not None:
            if lo < up:
                point[var] = (lo + up) / 2
            else:
                # equal bounds can only be weak-weak, else the combined row
                # would have been strict and infeasible at this point
                if lo != up or lo_strict or up_strict:
                    raise InternalConsistencyError(
                        f"empty range [{lo}, {up}] (strict: {lo_strict}, {up_strict}) "
                        f"for variable {var} in witness back-substitution")
                point[var] = lo
        elif lo is not None:
            point[var] = lo + 1
        elif up is not None:
            point[var] = up - 1
    for var, coefs, const in reversed(substitutions):
        acc = Fraction(const)
        for i, a in enumerate(coefs):
            if a and i != var:
                acc += a * point[i]
        point[var] = -acc / coefs[var]
    return tuple(point)
