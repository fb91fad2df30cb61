"""Weighted hyperplane arrangements: chambers, faces, edges, multiplicities.

The engine is fully exact and works for any arrangement with rational
coefficients, central or not.  Each hyperplane enters the hot loops as its
primitive integer row (normal, -offset), which the Arrangement constructor
computes once (Arrangement.rows) and also uses for its duplicate check and
its centrality flag (Arrangement.central).  Points are integer numerators
over one common denominator, so a sign test is one integer dot product, and
feasible_strict takes and returns that format.
Fractions remain only in the witnesses handed out here.
The pipeline:

  enumerate_chambers   incremental insertion; a region's witness decides one
                       side of the new hyperplane for free, and the other
                       side costs one exact feasibility test, or none when
                       the witness lies on the hyperplane (both sides are
                       then nonempty)
  face_of              the closed chamber intersected with one hyperplane,
                       with the set of hyperplanes vanishing on it; facets
                       come from chamber adjacency, further zeros from the
                       elimination basis of those already found, and one
                       feasibility test decides each remaining hyperplane
                       (central arrangements use the origin as base point,
                       and the face table copies each face of -C from C)
  canonical_edge       intersection of a hyperplane subset, closed under
                       implied hyperplanes, by integer Gaussian elimination
  relevant_edges       edges generated by faces, each with its multiplicity
  multiplicity         half the number of chambers whose face at a pivot
                       hyperplane spans exactly the given edge
  factored_determinant_general
                       the factored determinant  prod_E (1 - a(E)^2)^{l(E)}
                       built from relevant edges and multiplicities

Results of the expensive scans are cached on the Arrangement instance, so a
given arrangement object pays for chamber enumeration and the face scan once.
The caller's size guards are checked on every call, cached or not.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence, Union

from .exactalg import (FactoredProduct, InternalConsistencyError, Monomial,
                       validate_var)
from .feasibility import feasible_strict

DEFAULT_MAX_HYPERPLANES = 32
DEFAULT_MAX_CHAMBERS = 6000


class GeometryError(ValueError):
    pass


class GuardExceededError(GeometryError):
    """A configured size guard was hit; carries the count reached."""

    def __init__(self, what: str, count: int, limit: int):
        super().__init__(f"{what} guard exceeded: reached {count}, limit {limit}")
        self.count = count
        self.limit = limit


class DuplicateHyperplaneError(GeometryError):
    """Hyperplane `index` repeats the affine set or the weight of hyperplane `other`."""

    def __init__(self, index: int, other: int, what: str):
        super().__init__(f"hyperplane {index} duplicates the {what} of hyperplane {other}")
        self.index = index
        self.other = other
        self.what = what


class EmptyFaceError(GeometryError):
    """The closed chamber does not meet the hyperplane (non-central only)."""


class EmptyIntersectionError(GeometryError):
    """The requested hyperplanes have empty common intersection."""


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


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise GeometryError(f"exact rational expected, got {type(x).__name__}")


@dataclass(frozen=True)
class Hyperplane:
    """The affine set {x : normal . x = offset}, carrying a weight variable."""

    normal: tuple[Fraction, ...]
    offset: Fraction
    weight: str

    @staticmethod
    def make(normal: Sequence, offset, weight: str) -> "Hyperplane":
        nv = tuple(_as_fraction(a) for a in normal)
        if not any(nv):
            raise GeometryError(f"hyperplane {weight!r} has zero normal")
        return Hyperplane(nv, _as_fraction(offset), validate_var(weight))

    def value_at(self, point: Sequence[Fraction]) -> Fraction:
        return sum((a * x for a, x in zip(self.normal, point)), Fraction(0)) - self.offset


class Arrangement:
    """A finite list of pairwise distinct weighted hyperplanes in Q^dimension.

    rows[i] holds the primitive integer rows of H_i > 0 and H_i < 0:
    (normal, -offset) cleared of denominators, and its negation; rows[i][s < 0]
    is the row of side s.  Proportional hyperplanes have the same rows up to
    sign, so the larger of the two is the key of the duplicate check.
    central is true iff every hyperplane passes through the origin.
    """

    def __init__(self, dimension: int, hyperplanes: Sequence[Hyperplane]):
        if dimension < 1:
            raise GeometryError("dimension must be positive")
        hyps = tuple(hyperplanes)
        rows = []
        keys: dict[tuple, int] = {}
        weights: dict[str, int] = {}
        for idx, h in enumerate(hyps):
            if len(h.normal) != dimension:
                raise GeometryError(
                    f"hyperplane {idx} has {len(h.normal)} coefficients, expected {dimension}")
            row = tuple(_primitive_ints(h.normal + (-h.offset,)))
            neg = tuple(-v for v in row)
            k = max(row, neg)
            if k in keys:
                raise DuplicateHyperplaneError(idx, keys[k], "affine set")
            if h.weight in weights:
                raise DuplicateHyperplaneError(
                    idx, weights[h.weight], f"weight {h.weight!r}")
            keys[k] = idx
            weights[h.weight] = idx
            rows.append((row, neg))
        self.dimension = dimension
        self.hyperplanes = hyps
        self.rows = tuple(rows)
        self.central = all(row[-1] == 0 for row, _ in rows)
        self._cache: dict = {}

    def __repr__(self):
        return f"Arrangement(dim={self.dimension}, m={len(self.hyperplanes)})"

    def weight_names(self) -> tuple[str, ...]:
        return tuple(h.weight for h in self.hyperplanes)


@dataclass(frozen=True)
class Chamber:
    """Open region given by a sign per hyperplane, with a strict interior point."""

    signs: tuple[int, ...]
    witness: tuple[Fraction, ...]

    def sign_string(self) -> str:
        return "".join("+" if s > 0 else "-" for s in self.signs)


@dataclass(frozen=True)
class Face:
    """Closed chamber intersected with one hyperplane (the pivot)."""

    chamber_index: int
    pivot: int
    zeros: frozenset[int]
    relint_witness: tuple[Fraction, ...]


@dataclass(frozen=True)
class Edge:
    """Nonempty intersection of hyperplanes, closed under implied ones."""

    containing: frozenset[int]
    dim: int
    weight_monomial: Monomial
    multiplicity: int


# ---------------------------------------------------------------------------
# integer points
# ---------------------------------------------------------------------------


def _at(row: Sequence[int], nums: Sequence[int], den: int) -> int:
    """den times the value of the integer row at the point nums / den."""
    return sum(a * x for a, x in zip(row, nums)) + row[-1] * den


# ---------------------------------------------------------------------------
# chamber enumeration
# ---------------------------------------------------------------------------


def enumerate_chambers(A: Arrangement,
                       max_hyperplanes: Optional[int] = None,
                       max_chambers: Optional[int] = None) -> tuple[Chamber, ...]:
    """All chambers of A, sorted lexicographically on signs with + before -.

    Incremental insertion: the regions of the first k hyperplanes are split
    by hyperplane k+1.  A region's witness w decides one side for free, and
    the other side costs one exact feasibility test.  When w lies on the new
    hyperplane H, both sides are nonempty and no test is needed: w +- t n_H
    are strict points of the two sides, where t is half the smallest
    K(w) / |n_K . n_H| over the region's rows K.
    """
    m = len(A.hyperplanes)
    cached = A._cache.get("chambers")
    if cached is not None:
        # The default limits guard the enumeration below; a cached result
        # answers only to the limits its caller passes.
        if max_hyperplanes is not None and m > max_hyperplanes:
            raise GuardExceededError("hyperplane", m, max_hyperplanes)
        if max_chambers is not None and len(cached) > max_chambers:
            raise GuardExceededError("chamber", len(cached), max_chambers)
        return cached
    limit_h = DEFAULT_MAX_HYPERPLANES if max_hyperplanes is None else max_hyperplanes
    limit_c = DEFAULT_MAX_CHAMBERS if max_chambers is None else max_chambers
    if m > limit_h:
        raise GuardExceededError("hyperplane", m, limit_h)
    dim = A.dimension
    # region: (signs, witness numerators, witness denominator, strict rows so far)
    regions = [((), (0,) * dim, 1, [])]
    for up, down in A.rows:
        normal = up[:-1]
        new_regions = []
        for signs, nums, den, rows in regions:
            v = _at(up, nums, den)
            if v:
                side = 1 if v > 0 else -1
                new_regions.append((signs + (side,), nums, den,
                                    rows + [(up if side > 0 else down, ">")]))
                far = rows + [(down if side > 0 else up, ">")]
                w = feasible_strict(far, dim)
                if w is not None:
                    new_regions.append((signs + (-side,), *w, far))
                continue
            # w lies on H: t = q / (2 den), q the smallest den K(w) / |n_K . n_H|
            q = None
            for K, _ in rows:
                c = abs(sum(a * b for a, b in zip(K, normal)))
                if c:
                    kw = _at(K, nums, den)
                    if q is None or kw * q[1] < q[0] * c:
                        q = (kw, c)
            qn, qd = q or (1, 1)
            for side, row in ((1, up), (-1, down)):
                shifted = [2 * qd * x + side * qn * a for x, a in zip(nums, normal)]
                d = 2 * qd * den
                g = gcd(d, *shifted)
                new_regions.append((signs + (side,), tuple(x // g for x in shifted),
                                    d // g, rows + [(row, ">")]))
        if len(new_regions) > limit_c:
            raise GuardExceededError("chamber", len(new_regions), limit_c)
        regions = new_regions
    regions.sort(key=lambda r: tuple(0 if s > 0 else 1 for s in r[0]))
    chambers = tuple(Chamber(signs, tuple(Fraction(x, den) for x in nums))
                     for signs, nums, den, _ in regions)
    A._cache["chambers"] = chambers
    A._cache["witnesses"] = tuple((nums, den) for _, nums, den, _ in regions)
    A._cache["chamber_index"] = {c.signs: i for i, c in enumerate(chambers)}
    return chambers


def chamber_index(A: Arrangement, chamber: Union[Chamber, int]) -> int:
    """Position of `chamber` (a Chamber or an index) in enumerate_chambers(A)."""
    n = len(enumerate_chambers(A))
    if isinstance(chamber, int):
        if not 0 <= chamber < n:
            raise GeometryError(f"chamber index {chamber} out of range (0..{n - 1})")
        return chamber
    idx = A._cache["chamber_index"].get(chamber.signs)
    if idx is None:
        raise GeometryError("not a chamber of this arrangement")
    return idx


# ---------------------------------------------------------------------------
# edges
# ---------------------------------------------------------------------------


def _reduce_row(row: Sequence[int], basis: list[tuple[int, list[int]]]) -> list[int]:
    """The integer row with the pivot column of each basis row cleared, in
    basis order.  A basis row is zero on the pivots of the rows before it, so
    clearing a later pivot never refills an earlier one."""
    row = list(row)
    for col, brow in basis:
        f = row[col]
        if f:
            p = brow[col]
            row = [p * x - f * y for x, y in zip(row, brow)]
    return row


def _extend_basis(basis: list[tuple[int, list[int]]], row: list[int], n: int) -> bool:
    """Add `row`, already reduced against `basis`, as a new pivot row.

    The basis is an echelon form of integer rows over the first n columns
    (the normal); column n is the constant.  Returns False, leaving the basis
    unchanged, when the row has no pivot among the first n columns.
    """
    col = next((j for j in range(n) if row[j]), None)
    if col is None:
        return False
    g = gcd(*row)
    basis.append((col, [v // g for v in row]))
    return True


def canonical_edge(A: Arrangement, subset: Iterable[int]) -> Edge:
    """Intersection of the given hyperplanes, closed under implication.

    Gaussian elimination on the augmented integer rows; a
    hyperplane belongs to the edge iff its equation reduces to zero against
    the row basis.  Multiplicity is left unset (0).
    """
    idxs = frozenset(subset)
    if not idxs:
        raise GeometryError("edge subset must be nonempty")
    for i in idxs:
        if not (0 <= i < len(A.hyperplanes)):
            raise GeometryError(f"hyperplane index {i} out of range")
    n = A.dimension
    basis: list[tuple[int, list[int]]] = []
    for i in sorted(idxs):
        row = _reduce_row(A.rows[i][0], basis)
        if not _extend_basis(basis, row, n) and row[n]:
            raise EmptyIntersectionError(f"hyperplanes {sorted(idxs)} do not meet")
    containing = frozenset(i for i, (row, _) in enumerate(A.rows)
                           if i in idxs or not any(_reduce_row(row, basis)))
    mono = Monomial.from_vars(A.hyperplanes[i].weight for i in sorted(containing))
    return Edge(containing, n - len(basis), mono, 0)


# ---------------------------------------------------------------------------
# faces
# ---------------------------------------------------------------------------


def face_of(A: Arrangement, chamber: Union[Chamber, int], h: int) -> Face:
    """The face (closure of the chamber) intersect (hyperplane h).

    zeros collects every hyperplane vanishing identically on the face: i is a
    zero iff {H_h = 0, all chamber inequalities weakened, sign_i H_i strict}
    is infeasible.  The relative-interior witness is the average of the
    witnesses of the feasible tests, which by convexity is strict off zeros
    and exact.  Raises EmptyFaceError when the closed chamber misses H_h
    (possible only for non-central arrangements).

    Exact shortcuts spare most feasibility tests:
      * the face is a facet (zeros {h}) iff the chamber with sign h flipped
        exists; the segment between the two witnesses is strict on every
        other hyperplane, so where it crosses H_h is a relative-interior point;
      * on a central arrangement the origin lies in every closed face, so it
        serves as the base point and the face is never empty;
      * a hyperplane containing the flat cut out by the zeros found so far
        contains the face, so it is a zero without a test;
      * a hyperplane strict at the running witness average is not a zero.
    """
    ci = chamber_index(A, chamber)
    if not (0 <= h < len(A.hyperplanes)):
        raise GeometryError(f"hyperplane index {h} out of range")
    signs = A._cache["chambers"][ci].signs  # enumerated by chamber_index
    dim = A.dimension
    rows = A.rows
    eq_h = rows[h][0]

    flipped = signs[:h] + (-signs[h],) + signs[h + 1:]
    cj = A._cache["chamber_index"].get(flipped)
    if cj is not None:
        # p = P / dp and q = Q / dq; the point (b p - a q) / (b - a) for the
        # values a, b of H_h at p, q lies on H_h
        witnesses = A._cache["witnesses"]
        (P, dp), (Q, dq) = witnesses[ci], witnesses[cj]
        a, b = _at(eq_h, P, dp), _at(eq_h, Q, dq)
        den = b * dp - a * dq
        return Face(ci, h, frozenset([h]),
                    tuple(Fraction(b * x - a * y, den) for x, y in zip(P, Q)))

    eq = (eq_h, "=")
    weak = [(rows[i][s < 0], ">=") for i, s in enumerate(signs) if i != h]
    if A.central:
        nums, den = (0,) * dim, 1
    else:
        base = feasible_strict([eq] + weak, dim)
        if base is None:
            raise EmptyFaceError(f"chamber {ci} closure does not meet hyperplane {h}")
        nums, den = base

    basis: list[tuple[int, list[int]]] = []
    _extend_basis(basis, eq_h, dim)
    # nums / den is the sum of the k witnesses found so far
    k = 1
    zeros = {h}
    for i, s in enumerate(signs):
        if i == h:
            continue
        strict = rows[i][s < 0]
        if _at(strict, nums, den * k) > 0:
            continue
        row = _reduce_row(rows[i][0], basis)
        if not any(row):
            zeros.add(i)
            continue
        wi = feasible_strict([eq] + weak + [(strict, ">")], dim)
        if wi is None:
            zeros.add(i)
            _extend_basis(basis, row, dim)
        else:
            k += 1
            wn, wd = wi
            nums = tuple(x * wd + y * den for x, y in zip(nums, wn))
            den *= wd
    return Face(ci, h, frozenset(zeros), tuple(Fraction(x, den * k) for x in nums))


def _face_edge_table(A: Arrangement) -> dict:
    """(chamber index, hyperplane) -> zeros frozenset of the face, or None if
    the face is empty.  Computed once per arrangement.

    On a central arrangement x -> -x maps chambers to chambers and faces to
    faces, so the face of -C at h has the zeros of the face of C at h.
    """
    table = A._cache.get("face_table")
    if table is not None:
        return table
    chambers = enumerate_chambers(A)
    index = A._cache["chamber_index"]
    table = {}
    for ci, C in enumerate(chambers):
        anti = index[tuple(-s for s in C.signs)] if A.central else ci
        for h in range(len(A.hyperplanes)):
            if anti < ci:
                table[(ci, h)] = table[(anti, h)]
                continue
            try:
                table[(ci, h)] = face_of(A, ci, h).zeros
            except EmptyFaceError:
                table[(ci, h)] = None
    A._cache["face_table"] = table
    return table


# ---------------------------------------------------------------------------
# relevant edges, multiplicities, factored determinant
# ---------------------------------------------------------------------------


def multiplicity(A: Arrangement, E: Edge, pivot: Optional[int] = None) -> int:
    """Half the number of chambers whose face at `pivot` spans exactly E.

    Such chambers pair up: the chamber with its signs flipped on E's
    hyperplanes (the reflection through a relative-interior point of the
    face) exists and has the same face zeros at `pivot`.  A chamber without
    that partner means the engine itself is broken and raises
    InternalConsistencyError; the pairing also makes the count even.
    """
    if pivot is None:
        pivot = min(E.containing)
    if pivot not in E.containing:
        raise GeometryError(f"pivot {pivot} does not contain the edge")
    table = _face_edge_table(A)
    index = A._cache["chamber_index"]
    zeros = E.containing
    count = 0
    for ci, C in enumerate(enumerate_chambers(A)):
        if table[(ci, pivot)] != zeros:
            continue
        count += 1
        partner = index.get(tuple(-s if i in zeros else s for i, s in enumerate(C.signs)))
        if partner is None or table[(partner, pivot)] != zeros:
            raise InternalConsistencyError(
                f"chamber {ci} has face {sorted(zeros)} at pivot {pivot} but its "
                f"reflection across that face does not")
    return count // 2


def relevant_edges(A: Arrangement) -> list[Edge]:
    """Edges generated by faces, deduplicated, each with multiplicity >= 1.

    A face's zeros set is already closed (any hyperplane containing the
    generated edge contains the face), which canonical_edge re-verifies.
    """
    cached = A._cache.get("relevant_edges")
    if cached is not None:
        return list(cached)
    table = _face_edge_table(A)
    keys = {z for z in table.values() if z is not None}
    edges = []
    for zeros in sorted(keys, key=lambda z: (len(z), tuple(sorted(z)))):
        e = canonical_edge(A, zeros)
        if e.containing != zeros:
            raise InternalConsistencyError(
                f"face zeros {sorted(zeros)} not closed, edge gave {sorted(e.containing)}")
        mult = multiplicity(A, e)
        if mult < 1:
            raise InternalConsistencyError(
                f"face-generated edge {sorted(zeros)} has multiplicity 0")
        edges.append(Edge(e.containing, e.dim, e.weight_monomial, mult))
    A._cache["relevant_edges"] = tuple(edges)
    return edges


def factored_determinant_general(A: Arrangement) -> FactoredProduct:
    """Factored determinant prod_E (1 - a(E)^2)^{l(E)} over the relevant
    edges with their geometric multiplicities."""
    return FactoredProduct(tuple((e.weight_monomial, e.multiplicity)
                                 for e in relevant_edges(A)))


__all__ = [
    "Arrangement", "Chamber", "Edge", "Face", "Hyperplane",
    "DuplicateHyperplaneError", "EmptyFaceError", "EmptyIntersectionError",
    "GeometryError", "GuardExceededError", "InternalConsistencyError",
    "DEFAULT_MAX_CHAMBERS", "DEFAULT_MAX_HYPERPLANES",
    "canonical_edge", "chamber_index", "enumerate_chambers", "face_of",
    "factored_determinant_general", "feasible_strict", "multiplicity",
    "relevant_edges",
]
