"""Weighted hyperplane arrangements: chambers, faces, edges, multiplicities.

The engine is fully exact and works for any arrangement with rational
coefficients, central or not.  Each hyperplane enters the hot loops as its
primitive integer row (normal, -offset), which the Arrangement constructor
computes once (Arrangement.rows) and also uses for its duplicate check and
its centrality flag (Arrangement.central).  A point is one homogeneous
integer vector w = (x_1, ..., x_d, x0) with x0 >= 1, standing for x / x0, so
a row's value there times x0 is one integer dot product, and
feasible_strict takes rows and returns points in that format.
Fractions remain only in the chamber witnesses handed out here.
The pipeline:

  enumerate_chambers   incremental insertion by deletion-restriction, with
                       no feasibility test: the new hyperplane H cuts the
                       regions that hold a chamber of the restriction to
                       H, enumerated one dimension down, whose witness on
                       H gives both sides' witnesses; a central arrangement
                       splits only the regions on the + side of its first
                       hyperplane and mirrors them (-C, witness -w) at the end
  face_of              the zero set of the closed chamber intersected with
                       one hyperplane: the hyperplanes vanishing on it; the
                       chamber's walls (its facets, found by chamber
                       adjacency and cached per chamber) cut out the closed
                       chamber, so one feasibility test on the walls alone
                       decides each wall, and every other zero follows as
                       the closure of H_h and the zero walls; the tests run
                       on H_h through the wall rows, reduced once against
                       H_h's row (central arrangements use the origin as
                       base point, and the face table copies each face of
                       -C from C)
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

from fractions import Fraction
from math import gcd, lcm
from operator import add, mul
from typing import Iterable, NamedTuple, Optional, Sequence, Union

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


class InvalidHyperplaneError(GeometryError):
    """Hyperplane `index` fails a check of Hyperplane.make, for `reason`."""

    def __init__(self, index: int, reason: str):
        super().__init__(f"hyperplane {index}: {reason}")
        self.index = index
        self.reason = reason


class EmptyFaceError(GeometryError):
    """The closed chamber does not meet the hyperplane (non-central only)."""


class EmptyIntersectionError(GeometryError):
    """The requested hyperplanes have empty common intersection."""


def _primitive_ints(values: Sequence[Fraction]) -> tuple[int, ...]:
    """Rationals, not all 0, scaled to coprime integers: clear the
    denominators, then divide by the gcd.  Proportional inputs differ only in
    sign after."""
    den = lcm(*(v.denominator for v in values))
    ints = [v.numerator * (den // v.denominator) for v in values]
    g = gcd(*ints)
    return tuple(v // g for v in ints)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise GeometryError(f"exact rational expected, got {type(x).__name__}")


class Hyperplane(NamedTuple):
    """The affine set {x : normal . x = offset}, carrying a weight variable."""

    normal: tuple[Fraction, ...]
    offset: Fraction
    weight: str

    @staticmethod
    def make(normal: Sequence, offset, weight: str) -> "Hyperplane":
        """The hyperplane with Fraction entries; raises ValueError on an entry
        that is not an int or a Fraction (bool included), a zero normal or a
        weight outside the variable grammar."""
        nv = tuple(_as_fraction(a) for a in normal)
        if not any(nv):
            raise GeometryError(f"hyperplane {weight!r} has zero normal")
        return Hyperplane(nv, _as_fraction(offset), validate_var(weight))

    def value_at(self, point: Sequence[Fraction]) -> Fraction:
        return sum((a * x for a, x in zip(self.normal, point)), Fraction(0)) - self.offset


class Arrangement:
    """A finite list of pairwise distinct weighted hyperplanes in Q^dimension.

    Each hyperplane, also one built directly, passes the checks of
    Hyperplane.make and is stored as make returns it; a failed check raises
    InvalidHyperplaneError with the hyperplane's index.

    rows[i] holds the primitive integer rows of H_i > 0 and H_i < 0:
    (normal, -offset) cleared of denominators, and its negation; rows[i][s < 0]
    is the row of side s.  Proportional hyperplanes have the same rows up to
    sign, so the larger of the two is the key of the duplicate check.
    central is true iff every hyperplane passes through the origin.
    """

    def __init__(self, dimension: int, hyperplanes: Sequence[Hyperplane]):
        if dimension < 1:
            raise GeometryError("dimension must be positive")
        hyps = []
        rows = []
        keys: dict[tuple, int] = {}
        weights: dict[str, int] = {}
        for idx, h in enumerate(hyperplanes):
            if len(h.normal) != dimension:
                raise InvalidHyperplaneError(
                    idx, f"{len(h.normal)} coefficients, expected {dimension}")
            try:
                h = Hyperplane.make(h.normal, h.offset, h.weight)
            except ValueError as exc:
                raise InvalidHyperplaneError(idx, str(exc)) from None
            row = _primitive_ints(h.normal + (-h.offset,))
            neg = tuple(-v for v in row)
            k = max(row, neg)
            if k in keys:
                raise DuplicateHyperplaneError(idx, keys[k], "affine set")
            if h.weight in weights:
                raise DuplicateHyperplaneError(
                    idx, weights[h.weight], f"weight {h.weight!r}")
            keys[k] = idx
            weights[h.weight] = idx
            hyps.append(h)
            rows.append((row, neg))
        self.dimension = dimension
        self.hyperplanes = tuple(hyps)
        self.rows = tuple(rows)
        self.central = all(row[-1] == 0 for row, _ in rows)
        self._cache: dict = {}

    def __repr__(self):
        return f"Arrangement(dim={self.dimension}, m={len(self.hyperplanes)})"

    def weight_names(self) -> tuple[str, ...]:
        return tuple(h.weight for h in self.hyperplanes)


class Chamber(NamedTuple):
    """Open region given by a sign per hyperplane, with a strict interior point."""

    signs: tuple[int, ...]
    witness: tuple[Fraction, ...]

    def sign_string(self) -> str:
        return "".join("+" if s > 0 else "-" for s in self.signs)


class Edge(NamedTuple):
    """Nonempty intersection of hyperplanes, closed under implied ones."""

    containing: frozenset[int]
    dim: int
    weight_monomial: Monomial
    multiplicity: int


# ---------------------------------------------------------------------------
# chamber enumeration
# ---------------------------------------------------------------------------


def enumerate_chambers(A: Arrangement,
                       max_hyperplanes: Optional[int] = None,
                       max_chambers: Optional[int] = None) -> tuple[Chamber, ...]:
    """All chambers of A, sorted lexicographically on signs with + before -.

    Incremental insertion by deletion-restriction (Zaslavsky), in integer
    arithmetic and with no feasibility test: H = H_{k+1} cuts a region of
    the first k hyperplanes exactly when the region holds a chamber of
    their restriction to H, enumerated the same way one dimension down.
    That chamber's witness, lifted onto H, is a point y of the region, and
    y +- t n_H are strict points of its two sides, where t is half the
    smallest |K(y)| / |n_K . n_H| over the rows K.  A region that H does
    not cut keeps the side of its witness.

    A central arrangement, at every level of the recursion, splits only the
    regions on the + side of its first hyperplane and adds the mirror image
    -R, with witness -w, of each region R at the end.  The chamber guard
    counts both halves and is checked after each insertion.
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
    regions = _regions([up for up, _ in A.rows], A.dimension, limit_c)
    regions.sort(key=lambda r: tuple(0 if s > 0 else 1 for s in r[0]))
    chambers = tuple(Chamber(signs, tuple(Fraction(x, w[-1]) for x in w[:-1]))
                     for signs, w in regions)
    A._cache["chambers"] = chambers
    A._cache["chamber_index"] = {c.signs: i for i, c in enumerate(chambers)}
    return chambers


def _regions(rows: list, dim: int, limit: Optional[int] = None,
             half: bool = False) -> list:
    """The regions of the pairwise non-proportional primitive integer rows
    in Q^dim, each as (signs, witness), the witness a homogeneous point
    (x, x0) in lowest terms.

    On a central arrangement the regions on the + side of rows[0] come
    first and their mirror images after; `half` returns the first half
    alone.  `limit` is the chamber guard, None for none.
    """
    central = bool(rows) and not any(r[-1] for r in rows)
    share = 2 if central else 1
    regions = [((), (0,) * dim + (1,))]
    for k, H in enumerate(rows):
        normal = H[:-1] + (0,)  # the direction n_H, x0 unchanged
        known = rows[:k]
        restricted, source, b, col = _restriction(known, H, dim)
        p, rest = b[col], b[:col] + b[col + 1:]
        on_h = {}
        for sub, v in _regions(restricted, dim - 1, half=central):
            # lift onto H: p x_col = -(b . x without column col)
            y = [p * x for x in v]
            y.insert(col, -sum(map(mul, rest, v)))
            on_h[tuple(o if j is None else o * sub[j] for j, o in source)] = y
        dots = [abs(sum(map(mul, K, normal))) for K in known]
        new_regions = []
        for signs, w in regions:
            y = on_h.get(signs)
            if y is None:
                new_regions.append((signs + (1 if sum(map(mul, H, w)) > 0 else -1,), w))
                continue
            # t = qn / (2 qd x0), qn / qd the smallest |x0 K(y)| / |n_K . n_H|
            q = None
            for K, c in zip(known, dots):
                if c:
                    kw = abs(sum(map(mul, K, y)))
                    if q is None or kw * q[1] < q[0] * c:
                        q = (kw, c)
            qn, qd = q or (1, 1)
            for side in (1, -1):
                shifted = [2 * qd * x + side * qn * a for x, a in zip(y, normal)]
                g = gcd(*shifted)
                new_regions.append((signs + (side,), tuple(x // g for x in shifted)))
        if k == 0 and central:
            del new_regions[1:]  # the origin split H_0: keep its + side
        if limit is not None and share * len(new_regions) > limit:
            raise GuardExceededError("chamber", share * len(new_regions), limit)
        regions = new_regions
    if central and not half:
        regions += [(tuple(-s for s in signs), tuple(-x for x in w[:-1]) + w[-1:])
                    for signs, w in regions]
    return regions


def _restriction(rows: list, H: Sequence[int], dim: int):
    """The arrangement the integer rows cut on the hyperplane of the row H.

    H's first pivot column col is cleared from each row by one integer
    combination that keeps the row's sign on H, then dropped, and the row
    made primitive.  Returns the restricted rows, pairwise non-proportional,
    and per source row (j, o): o times restricted row j has the source
    row's sign on H, or j is None and the row is parallel to H, of constant
    sign o.  Also H's primitive row b with a positive pivot, and col.
    """
    basis: list[tuple[int, list[int]]] = []
    _extend_basis(basis, list(H), dim)
    col, b = basis[0]
    restricted, index, source = [], {}, []
    for K in rows:
        r = _reduce_row(K, basis)
        del r[col]
        g = gcd(*r)
        r = tuple(v // g for v in r)
        if not any(r[:-1]):
            source.append((None, r[-1]))
            continue
        if r not in index:
            index[r] = len(restricted), 1
            index[tuple(-v for v in r)] = len(restricted), -1
            restricted.append(r)
        source.append(index[r])
    return restricted, source, b, col


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
    clearing a later pivot never refills an earlier one.  Every pivot is
    positive, so where the basis rows vanish the result is a positive
    multiple of the row: it keeps the row's sign there."""
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
    (the normal); column n is the constant.  The row is stored primitive and
    with a positive pivot.  Returns False, leaving the basis unchanged, when
    the row has no pivot among the first n columns.
    """
    col = next((j for j in range(n) if row[j]), None)
    if col is None:
        return False
    g = gcd(*row) if row[col] > 0 else -gcd(*row)
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


def _walls(A: Arrangement, ci: int) -> tuple[int, ...]:
    """The walls of chamber ci, in index order: the hyperplanes whose sign
    flip is a chamber too.  They are the chamber's facets (a segment from C
    to the flipped chamber crosses no other hyperplane), so the closed
    chamber is cut out by their inequalities alone.  Cached per chamber
    index; the chambers are enumerated already."""
    walls = A._cache.setdefault("walls", {})
    found = walls.get(ci)
    if found is None:
        signs = A._cache["chambers"][ci].signs
        index = A._cache["chamber_index"]
        found = walls[ci] = tuple(i for i, s in enumerate(signs)
                                  if signs[:i] + (-s,) + signs[i + 1:] in index)
    return found


def face_of(A: Arrangement, chamber: Union[Chamber, int], h: int) -> frozenset[int]:
    """The zeros of the face (closure of the chamber) intersect (hyperplane h):
    every hyperplane vanishing identically on it, h included.

    The closed chamber is cut out by its walls (its facet inequalities), so
    every test sees only the walls: a wall i is a zero iff {H_h = 0, the
    walls weakened, sign_i H_i strict} is infeasible.  The face's affine
    hull is the intersection of H_h and the zero walls, so the zeros are
    their closure: every hyperplane whose row reduces to zero against the
    elimination basis of those rows.  The tests run on H_h through the
    reduced rows: each wall row is reduced against H_h's once, which clears
    H_h's pivot column and keeps the row's sign on H_h, so feasible_strict
    decides inequalities only.  Raises EmptyFaceError when the closed
    chamber misses H_h (possible only for non-central arrangements).

    Exact shortcuts spare most feasibility tests:
      * the face is a facet (zeros {h}) iff h is a wall;
      * on a central arrangement the origin lies in every closed face, so it
        serves as the base point and the face is never empty;
      * a wall whose row reduces to zero against the basis of the zeros
        found so far contains the face, so it is a zero without a test;
      * a wall strict at the running sum of the base point and the feasible
        tests' witnesses, as homogeneous vectors, is not a zero: that sum is
        a positive combination of points of the face, so a point of the face
        too, and a wall strict at one of the points is strict at it.
    """
    ci = chamber_index(A, chamber)
    if not (0 <= h < len(A.hyperplanes)):
        raise GeometryError(f"hyperplane index {h} out of range")
    walls = _walls(A, ci)
    if h in walls:
        return frozenset([h])
    signs = A._cache["chambers"][ci].signs
    dim = A.dimension
    rows = A.rows

    basis: list[tuple[int, list[int]]] = []
    _extend_basis(basis, rows[h][0], dim)
    sides = [_reduce_row(rows[i][signs[i] < 0], basis) for i in walls]
    weak = [(side, ">=") for side in sides]
    # the sum of the base point and the witnesses found so far
    acc = (0,) * dim + (1,) if A.central else feasible_strict(weak, dim)
    if acc is None:
        raise EmptyFaceError(f"chamber {ci} closure does not meet hyperplane {h}")
    for side in sides:
        if sum(map(mul, side, acc)) > 0:
            continue
        row = _reduce_row(side, basis)
        if not any(row):
            continue  # a zero already, in the closure below
        wi = feasible_strict(weak + [(side, ">")], dim)
        if wi is None:
            _extend_basis(basis, row, dim)
        else:
            acc = tuple(map(add, acc, wi))
    return frozenset(i for i, (row, _) in enumerate(rows)
                     if not any(_reduce_row(row, basis)))


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
                table[(ci, h)] = face_of(A, ci, h)
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
    return edges


def factored_determinant_general(A: Arrangement) -> FactoredProduct:
    """Factored determinant prod_E (1 - a(E)^2)^{l(E)} over the relevant
    edges with their geometric multiplicities."""
    return FactoredProduct(tuple((e.weight_monomial, e.multiplicity)
                                 for e in relevant_edges(A)))


__all__ = [
    "Arrangement", "Chamber", "Edge", "Hyperplane",
    "DuplicateHyperplaneError", "EmptyFaceError", "EmptyIntersectionError",
    "GeometryError", "GuardExceededError", "InternalConsistencyError",
    "InvalidHyperplaneError",
    "DEFAULT_MAX_CHAMBERS", "DEFAULT_MAX_HYPERPLANES",
    "canonical_edge", "chamber_index", "enumerate_chambers", "face_of",
    "factored_determinant_general", "feasible_strict", "multiplicity",
    "relevant_edges",
]
