"""The Varchenko matrix over a prime field and its brute-force determinant.

This is the ground-truth side of every verification: chambers index the rows
and columns, the (C1, C2) entry is the product of the weights of the
hyperplanes separating C1 from C2, and the determinant is computed by
Gaussian elimination in the field.  Nothing here knows about factorizations.

Sign vectors are packed into bitmasks, so a pair's separating set is one
xor.  _product multiplies the weights of a separating set's hyperplanes, for
every entry that is not walked from another row (see below).

Elimination stores each row as a single big integer with fixed-width
slots.  A row operation row_r += (p - f) * row_pivot then becomes one scalar
multiply and one add of big integers, which CPython executes in C at machine
speed.  _slot_bytes sizes the slots so that none overflows into its neighbor
during a full elimination.  Slots grow unreduced; each pivot row is reduced
mod p once, in all its slots at once, by a Barrett reduction on the packed
integer (_reducer), with no per-slot division.  Its constants are cut to the
row's own length, so a row that ends early costs only its own slots.  The
symmetric kernel then finds the pivot row's nonzero slots from one packed
flag int, read one byte a slot by itertools.compress, and visits those
alone: on A:6, 15,261 nonzero multipliers among 259,560 slots.

Two kernels share that layout.  The row-pivoting kernel (_det_pivoting)
takes packed full rows of any square matrix; det_mod packs its entries for
it.  The symmetric kernel (_det_symmetric) eliminates without row swaps on
packed upper rows, about half the digit work of full rows.
varchenko_det_mod, the brute-force determinant of the verifiers, is its one
caller.  It never builds the matrix M: it takes the chambers in gallery
order (by walls crossed from the first), which leaves more of the
elimination multipliers zero, and hands the kernel packed upper rows.  A
diagonal pivot 0 mod p sends it to the row-pivoting kernel, on M's full rows
walked from their gallery parents (_walked_rows, below) at every size.

Below _CONGRUENCE_MIN chambers the upper rows are M's own, joined from a
memo of slot bytes per separating set (_SlotBytes).  From it on, they are
those of a congruent matrix N = T M T^T, T lower triangular, whose rows
come from codimension-2 stars.  Nothing of the factorization is used.

A descent wall of chamber c separates it from the first chamber, has a
weight nonzero mod p, and flipping it gives a chamber.  Two non-parallel
descent walls meet in a codimension-2 flat; with F the r hyperplanes
through it, the star of c is the set of chambers that agree with c off F.
A star is used only when it is complete, with all 2r regions of F's rank-2
localization.  Then c's region is the antipode of the first chamber's, and
every other member is nearer the first chamber, so T stays lower
triangular.  The largest complete star is taken.  Without one, the star is
{parent, c} across the lowest descent wall, F that one hyperplane; without
a descent wall c is a root, with row e_c.  T[c][x] = t[x's region] on the
star, where M_F t = e_top for the 2r x 2r Varchenko matrix M_F of F's
regions and top c's region: one small solve per flat and trial.  A
singular M_F, or t 0 at top, makes c a root too, for that trial only.  The
one-parent rule is the 2-chamber star, t = (-w, 1) / (1 - w^2).

Everything but the solves and the rows themselves depends on the
arrangement, the chambers and which weights are 0 mod p alone: the
parents, stars and flats, the slot width, and the slot masks of the walk.
That plan (_Plan) is kept in the arrangement's cache, keyed by the zero
set, so the trials of one check make it once.

With far(x) the hyperplanes separating x from the first chamber and F_d
the flat of column d's star (empty for a root):

  * (T M)[c][d] is M[c][d] where d lies on c's side of every hyperplane of
    F, else 0, since the members' rows agree off F and sum to M_F t = e_top
    on it;
  * V = M T^T has V[x][d] = M[x][d] where F_d lies in far(x), else 0, with
    no column scaling;
  * so N[c] is the sum over the star of T[c][x] V[x], on columns from c on.

In a column whose flat F_d meets no hyperplane of F, the members' sum is
M[c][d] on c's side of F and 0 elsewhere.  So only the columns whose flat
meets F take other members' rows, and the star's bottom member (on the
first chamber's side of all of F) adds nothing.  N's leading k x k minor
is M's times the square of T's first k diagonal entries, so the kernel
meets a zero pivot on N exactly where it would on M, and det M is det N
over the square of T's diagonal product.

A row of M is walked from its parent's, each slot times w on the parent's
side of the wall and w^-1 on the other, by Shoup's multiplication, which
leaves every slot below 2p without a packed reduction; a chamber without a
parent packs its row from _product, one product per column.  With every
weight nonzero mod p, as in the verifiers' trials, that is the first chamber
alone, so this path builds no memo.  A count row per chamber, walked
alongside, marks the columns whose flat is not on its far side.  Every row
is dropped after its last use, so the walk holds the rows of two or three
gallery levels at once.  The elimination on N takes about half the nonzero
multipliers it takes with 2-chamber stars alone (T[c] = e_c - w e_parent up
to scale): A:6 15,261 against 31,299, B:4 7,264 against 13,415, D:4 1,592
against 3,241.

_CONGRUENCE_MIN sits at the measured crossover.  On seeded random
arrangements, each timed on both paths, the star rows took 1.26x the time
of M's rows at 64-127 chambers, 1.07x at 128-191, 0.88x at 192-255 and
0.67-0.82x from 256 to 2,047; on the reflection arrangements 1.11x for A:5
(120 chambers), 0.82x for D:4 (192), 0.53x for B:4 (384) and 0.46x for A:6
(720).  The matrices of at most 8 hyperplanes in 4 dimensions have at most
163 chambers, so they stay on M.
"""

from __future__ import annotations

from itertools import compress, repeat
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .exactalg import FactoredProduct, MissingVariableError, PrimeField
from .geometry import Arrangement, Chamber, EmptyIntersectionError, canonical_edge


class MatrixError(ValueError):
    pass


def _weights_and_masks(A: Arrangement, chambers: Sequence[Chamber],
                       assignment: Mapping[str, int],
                       p: int) -> tuple[list[int], list[int]]:
    """The assigned weight of each hyperplane mod p, and each chamber's
    negative signs as a bitmask, so that a pair's separating set is one xor."""
    weights = []
    for h in A.hyperplanes:
        if h.weight not in assignment:
            raise MissingVariableError(h.weight)
        weights.append(assignment[h.weight] % p)
    masks = []
    for c in chambers:
        if len(c.signs) != len(weights):
            raise MatrixError("chamber sign vector does not match the arrangement")
        masks.append(sum(1 << i for i, s in enumerate(c.signs) if s < 0))
    return weights, masks


def _product(weights: Sequence[int], mask: int, p: int) -> int:
    """The product mod p of the weights of the hyperplanes in the mask."""
    x = 1
    while mask:
        x = x * weights[(mask & -mask).bit_length() - 1] % p
        mask &= mask - 1
    return x


class _SlotBytes(dict):
    """Separating-set mask -> _product of the mask, as one little-endian slot
    of wbytes bytes.  Misses go through __missing__, so the memo holds no
    reference to itself and is freed with its last user."""

    def __init__(self, weights: Sequence[int], p: int, wbytes: int):
        super().__init__()
        self.weights = weights
        self.p = p
        self.wbytes = wbytes

    def __missing__(self, mask: int) -> bytes:
        value = self[mask] = _product(self.weights, mask, self.p).to_bytes(self.wbytes, "little")
        return value


def _joined_rows(slots: _SlotBytes, masks: Sequence[int]) -> list[int]:
    """Row i of the matrix from column i on, as one packed int joined from
    the memoized slot bytes."""
    return [int.from_bytes(b"".join(map(slots.__getitem__, map(mi.__xor__, masks[i:]))),
                           "little")
            for i, mi in enumerate(masks)]


def varchenko_matrix_eval(A: Arrangement, chambers: Sequence[Chamber],
                          assignment: Mapping[str, int],
                          field: PrimeField) -> list[list[int]]:
    """The rows of the matrix: entry (i, j) is the product of the assigned
    weights of the hyperplanes separating chamber i from chamber j, reduced
    in the field, so the matrix is symmetric with unit diagonal."""
    p = field.p
    weights, masks = _weights_and_masks(A, chambers, assignment, p)
    rows = [[1] * len(masks) for _ in masks]
    for i, mi in enumerate(masks):
        for j in range(i + 1, len(masks)):
            rows[i][j] = rows[j][i] = _product(weights, mi ^ masks[j], p)
    return rows


# ---------------------------------------------------------------------------
# determinants mod p
# ---------------------------------------------------------------------------


def _pack(slots: Iterable[int], wbytes: int) -> int:
    """The slots, each below 2^(8 * wbytes), as one int, the first in the
    lowest wbytes bytes.  It runs slot by slot in C, through map, with no
    Python frame per slot."""
    return int.from_bytes(
        b"".join(map(int.to_bytes, slots, repeat(wbytes), repeat("little"))), "little")


def _slot_bytes(n: int, p: int, s: int = 1) -> int:
    """Width of a packed slot in whole bytes, for an n x n matrix mod p
    whose slots start below s * p^2.

    M's rows start reduced, below p^2 with s = 1.  A row of _congruent_rows
    starts at most one product per member of its star, a coefficient below
    p times a walked entry below 2p, so its s is twice the largest star.
    Each elimination step adds (p - f) * t <= (p - 1)^2 to a slot (f and t
    are reduced and f is nonzero), at most n times.  So a slot stays below
    (n + s) * p^2 <= 2^(2 * bitlen(p) + bitlen(n + s - 1)) <= 2^(W - 2),
    with W = 8 * wbytes bits a slot: it never carries into its neighbor,
    and its top bit stays clear, which _reducer needs (as it needs
    2p < 2^(W - 1))."""
    return (2 * p.bit_length() + (n + s - 1).bit_length() + 2 + 7) // 8


def _reducer(n: int, wbytes: int, p: int) -> tuple[Callable[[int], int],
                                                    Callable[[int], Iterable[int]]]:
    """reduce, nonzero for packed rows of at most n slots of W = 8 * wbytes
    bits: reduce(row) is the row with every slot reduced mod p at once, and
    nonzero(row) the indices of a reduced row's nonzero slots, lowest first.

    reduce is a Barrett reduction within the register, with no per-slot
    division.  It needs every slot below 2^(W - 1) and 2p < 2^(W - 1), which
    _slot_bytes guarantees.  With mu = floor(2^(W - 1) / p),
    q = floor(x * mu / 2^(W - 1)) is floor(x / p) or one less, so x - q * p
    lies in [0, 2p); adding 2^(W - 1) - p then sets a slot's top bit exactly
    where p is still to be subtracted.  Even and odd slots are multiplied by
    mu apart, each against an empty neighbor, so no product reaches the next
    slot.  A reduced slot x < p plus 2^(W - 1) - 1 sets its top bit, with no
    carry, exactly where x is nonzero; nonzero reads those bits one byte a
    slot and picks their indices with itertools.compress, in C.

    Both repeat one constant slot over the row, and any window of such a
    constant is that constant, so each cuts them to the row's own slot
    count, from its bit length: a row ending at its last nonzero column
    costs its own length, not n's."""
    wbits = 8 * wbytes
    w1 = wbits - 1
    top = n * wbits
    mu = (1 << w1) // p
    ones = int.from_bytes((1).to_bytes(wbytes, "little") * n, "little")
    even = int.from_bytes((b"\xff" * wbytes + bytes(wbytes)) * ((n + 1) // 2), "little")
    bias = ((1 << w1) - p) * ones
    fill = ((1 << w1) - 1) * ones

    def reduce(row: int) -> int:
        cut = top - (row.bit_length() + w1) // wbits * wbits
        q_even = ((row & even) * mu >> w1) & even
        q_odd = (((row >> wbits) & even) * mu >> w1) & even
        r = row - (q_even | q_odd << wbits) * p
        return r - (((r + (bias >> cut)) >> w1) & (ones >> cut)) * p

    def nonzero(row: int) -> Iterable[int]:
        size = (row.bit_length() + w1) // wbits
        cut = top - size * wbits
        flags = ((row + (fill >> cut)) >> w1) & (ones >> cut)
        return compress(range(size), flags.to_bytes(size * wbytes, "little")[::wbytes])

    return reduce, nonzero


def _det_symmetric(upper: list[int], wbytes: int, p: int) -> int | None:
    """Determinant mod p of a symmetric matrix given by its packed upper rows,
    by elimination without row swaps, as in LDL^T; None as soon as a
    diagonal pivot is 0 mod p.  Consumes `upper`.

    Row i holds columns i..n-1 in slots of wbytes bytes, with column i in the
    lowest slot.  Without swaps every Schur complement stays symmetric, so
    the rows keep that shape: at pivot k the multiplier of row i is the
    pivot row's entry in column i, and row i's update is the pivot row from
    column i on, which is the packed row shifted right: O(n - i) digits.
    Only the pivot row's nonzero slots are visited, as nonzero finds them."""
    n = len(upper)
    wbits = 8 * wbytes
    mask = (1 << wbits) - 1
    reduce, nonzero = _reducer(n, wbytes, p)
    det = 1
    for k in range(n):
        row = reduce(upper[k])
        upper[k] = 0
        pv = row & mask
        if not pv:
            return None
        det = det * pv % p
        neg = p - pow(pv, -1, p)
        cols = nonzero(row)
        next(cols)
        for j in cols:
            t = row >> j * wbits
            upper[k + j] += (t & mask) * neg % p * t
    return det


def _det_pivoting(packed: list[int], wbytes: int, p: int) -> int:
    """Determinant mod p of the square matrix given by its packed full rows,
    slots below p (or below 2p at a slot width sized for s >= 2), by
    elimination with nonzero-pivot search.  Consumes `packed`."""
    n = len(packed)
    wbits = 8 * wbytes
    mask = (1 << wbits) - 1
    reduce, _ = _reducer(n, wbytes, p)
    det = 1
    for k in range(n):
        piv_at = None
        for idx, row in enumerate(packed):
            pv = (row & mask) % p
            if pv:
                piv_at = idx
                break
        if piv_at is None:
            return 0
        if piv_at % 2:
            det = -det
        piv_row = packed.pop(piv_at)
        det = det * pv % p
        inv = pow(pv, -1, p)
        # reduce the pivot row mod p and drop its leading slot
        tail = reduce(piv_row) >> wbits
        for idx, row in enumerate(packed):
            f = (row & mask) % p
            row >>= wbits
            if f:
                f = f * inv % p
                row += (p - f) * tail
            packed[idx] = row
    return det % p


def det_mod(entries: Sequence[Sequence[int]], p: int) -> int:
    """Determinant of a square integer matrix mod the prime p; 0 when
    singular (legitimate at special evaluation points)."""
    n = len(entries)
    for row in entries:
        if len(row) != n:
            raise MatrixError("matrix is not square")
    wbytes = _slot_bytes(n, p)
    return _det_pivoting([_pack([x % p for x in row], wbytes) for row in entries],
                         wbytes, p)


# From this many chambers on, varchenko_det_mod eliminates N = T M T^T.
_CONGRUENCE_MIN = 192


def _bits(mask: int) -> Iterable[int]:
    """The set bits of mask, lowest first, each as a mask of its own."""
    while mask:
        bit = mask & -mask
        yield bit
        mask ^= bit


def _local_inverse_row(weights: Sequence[int], regions: Sequence[int], top: int,
                       p: int) -> dict[int, int] | None:
    """Row `top` of the inverse of the local Varchenko matrix of the regions,
    each given by the mask of the hyperplanes separating it from one fixed
    region, as region -> entry; None when the matrix is singular mod p or
    the row is 0 at `top`."""
    k = len(regions)
    # [M | e_top], M symmetric with unit diagonal
    aug = [[1] * k + [int(q == top)] for q in regions]
    for i, q in enumerate(regions):
        for j in range(i + 1, k):
            aug[i][j] = aug[j][i] = _product(weights, q ^ regions[j], p)
    # elimination to an upper triangle U t = b, without division
    for i in range(k):
        piv = next((j for j in range(i, k) if aug[j][i]), None)
        if piv is None:
            return None
        aug[i], aug[piv] = aug[piv], aug[i]
        prow = aug[i]
        d = prow[i]
        for j in range(i + 1, k):
            f = aug[j][i]
            if f:
                aug[j] = [(d * x - f * y) % p for x, y in zip(aug[j], prow)]
    # back substitution, with the pivots inverted by one pow: the inverse of
    # U_ii is the product of the others over the product of all
    before = [1]
    for i in range(k):
        before.append(before[-1] * aug[i][i] % p)
    after = pow(before[k], -1, p)
    t = [0] * k
    for i in reversed(range(k)):
        row = aug[i]
        t[i] = (row[k] - sum(row[j] * t[j] for j in range(i + 1, k))) * after * before[i] % p
        after = after * row[i] % p
    # M is symmetric, so the solution t of M t = e_top is its inverse's row
    entries = dict(zip(regions, t))
    return entries if entries[top] else None


_StarRows = list[tuple[tuple[int, ...], tuple[int, ...], int]]
_Layout = tuple[list[int], list[int], list[int], int]


class _Plan(NamedTuple):
    """What the star path takes from an arrangement, its chambers' masks in
    gallery order and the set of its hyperplanes whose weight is 0 mod p,
    and nothing of the weights' values: each chamber's parent and star (see
    _stars), the regions of each flat, the slot width, near (see _crossing)
    and the layout of the stars (see _layout)."""
    masks: list[int]
    parent: list[int]
    stars: _StarRows
    regions: dict[int, list[int]]
    wbytes: int
    near: list[int]
    layout: _Layout


def _plan(A: Arrangement, masks: list[int], weights: Sequence[int], p: int) -> _Plan:
    """The plan of the masks, in gallery order from masks[0], under these
    weights mod p.  It is kept in A's cache, keyed by the weights' zero set
    and p's bit length (which with the masks fixes the slot width), so the
    other trials of a check reuse it; one made for other masks is replaced."""
    zero = sum(1 << h for h, w in enumerate(weights) if not w)
    key = zero, p.bit_length()
    plans = A._cache.setdefault("plans", {})
    plan = plans.get(key)
    if plan is None or plan.masks != masks:
        parent, stars, regions = _stars(A, masks, zero)
        wbytes = _slot_bytes(len(masks), p, 2 * max(len(s) for s, _, _ in stars))
        base = masks[0]
        empty, full = bytes(wbytes), b"\xff" * wbytes
        near = [int.from_bytes(b"".join(empty if (m ^ base) >> h & 1 else full for m in masks),
                               "little")
                for h in range(len(weights))]
        plan = plans[key] = _Plan(masks, parent, stars, regions, wbytes, near,
                                  _layout(parent, stars, masks, len(weights), wbytes))
    return plan


def _stars(A: Arrangement, masks: Sequence[int], zero: int
           ) -> tuple[list[int], _StarRows, dict[int, list[int]]]:
    """The parent of each chamber of the masks, in gallery order from
    masks[0]; its star as (members, each member's region, flat); and the
    regions of each flat, as _local_inverse_row takes them.

    A descent wall of c separates it from masks[0], is not in `zero` (whose
    weights are 0 mod p), and flipping it gives a chamber.  The parent is
    the chamber across the lowest, -1 without one.  The star is the largest
    complete one about the flat of two non-parallel descent walls, else
    {parent, c} about the lowest.  A flat is the mask of its hyperplanes, a
    region the mask of those among them that separate it from masks[0].  A
    chamber without a descent wall is a root: ((c,), (0,), 0).

    The flat of a pair is its canonical_edge, 0 for a parallel pair.  The
    flats of pairs, and the sign patterns of each flat's regions once a
    complete star showed them, depend on A alone, so they are kept in A's
    cache for every zero set."""
    n = len(masks)
    base = masks[0]
    index = {m: i for i, m in enumerate(masks)}
    # (b1, b2) -> flat mask; flat -> the sign masks of its regions on it
    flats, regions = A._cache.setdefault("flats", ({}, {}))
    local: dict[int, list[int]] = {}
    parent = [-1] * n
    stars: _StarRows = [((c,), (0,), 0) for c in range(n)]
    for c in range(1, n):
        mc = masks[c]
        descent = [bit for bit in _bits((mc ^ base) & ~zero) if mc ^ bit in index]
        if not descent:
            continue
        parent[c] = index[mc ^ descent[0]]
        candidates = set()
        for i, b1 in enumerate(descent):
            for b2 in descent[i + 1:]:
                flat = flats.get((b1, b2))
                if flat is None:
                    try:
                        edge = canonical_edge(A, (b1.bit_length() - 1, b2.bit_length() - 1))
                        flat = sum(1 << h for h in edge.containing)
                    except EmptyIntersectionError:
                        flat = 0
                    flats[b1, b2] = flat
                if flat:
                    candidates.add(flat)
        for flat in sorted(candidates, key=lambda f: (-f.bit_count(), f)):
            if flat in regions:
                star = [index.get(mc ^ (mc & flat) ^ q) for q in regions[flat]]
                if None not in star:
                    break
            else:
                # the chambers that agree with c off the flat, reached by
                # flipping its hyperplanes one at a time
                star, todo = [c], [mc]
                while todo:
                    m = todo.pop()
                    for bit in _bits(flat):
                        x = index.get(m ^ bit)
                        if x is not None and x not in star:
                            star.append(x)
                            todo.append(m ^ bit)
                # r hyperplanes through a codimension-2 flat cut 2r regions
                if len(star) == 2 * flat.bit_count():
                    regions[flat] = [masks[x] & flat for x in star]
                    break
        else:
            flat = descent[0]
            star = [parent[c], c]
        if flat not in local:
            local[flat] = ([q ^ (base & flat) for q in regions[flat]] if flat in regions
                           else [0, flat])
        star.sort()
        stars[c] = (tuple(star), tuple((masks[x] ^ base) & flat for x in star), flat)
    return parent, stars, local


def _star_rows(plan: _Plan, weights: Sequence[int], p: int
               ) -> tuple[_StarRows, _Layout]:
    """The rows of T under these weights, as (star, coefficients, flat) per
    chamber, and their layout.  The coefficients are the star's local
    inverse row, one small solve per flat.  A local matrix singular mod p,
    or 0 at its top, makes the chambers of its flat roots, ((c,), (1,), 0),
    for these weights only, and the layout is then made again."""
    inverse = {flat: _local_inverse_row(weights, far, flat, p)
               for flat, far in plan.regions.items()}
    inverse[0] = {0: 1}
    stars: _StarRows = []
    for c, (star, members, flat) in enumerate(plan.stars):
        t = inverse[flat]
        stars.append(((c,), (1,), 0) if t is None
                     else (star, tuple(map(t.__getitem__, members)), flat))
    if None in inverse.values():
        return stars, _layout(plan.parent, stars, plan.masks, len(weights), plan.wbytes)
    return stars, plan.layout


def _layout(parent: Sequence[int], stars: _StarRows, masks: Sequence[int], count: int,
            wbytes: int) -> _Layout:
    """last, last_child, through, count0 for the rows of T: the last chamber
    that reads each row of M, and the last child of each; per hyperplane h
    of the count, a 1 in the slots of the columns whose flat holds h; and
    masks[0]'s count row (see _congruent_rows)."""
    n = len(masks)
    base = masks[0]
    last = list(range(n))
    last_child = [-1] * n
    for c, (star, _, flat) in enumerate(stars):
        for x in star:
            # the bottom of a star, on masks[0]'s side of all its flat,
            # adds nothing to the row
            if (masks[x] ^ base) & flat:
                last[x] = c
    for c, pc in enumerate(parent):
        if pc >= 0:
            last[pc] = max(last[pc], c)
            last_child[pc] = c
    one, zero = (1).to_bytes(wbytes, "little"), bytes(wbytes)
    through = [int.from_bytes(b"".join(one if flat >> h & 1 else zero for _, _, flat in stars),
                              "little")
               for h in range(count)]
    # Column d of a chamber's count row holds 2^(W - 1) - 1 plus the number
    # of hyperplanes of d's flat on masks[0]'s side of the chamber: its top
    # bit is set exactly where d's flat is not on the chamber's far side.
    count0 = ((1 << 8 * wbytes - 1) - 1) * int.from_bytes(one * n, "little") + sum(through)
    return last, last_child, through, count0


def _crossing(plan: _Plan, weights: Sequence[int], p: int) -> Callable[[int, int, int], int]:
    """cross(row, h, first): the row of M from column `first` on of the
    chamber across h from the row's, which lies on masks[0]'s side of h;
    the plan's near[h] is the slot mask over all columns on that side.

    cross multiplies each slot by w on that side and by w^-1 on the other,
    by Shoup's product by a fixed w mod p: with w' = floor(w 2^k / p) and
    a < 2p <= 2^k, q = floor(a w' / 2^k) leaves a w - q p in [0, 2p).  So the
    row it returns holds slots below 2p, as it may take them, with no packed
    reduction."""
    wbytes, near = plan.wbytes, plan.near
    wbits = 8 * wbytes
    k = p.bit_length() + 1
    # a bitwise and keeps its shorter operand's length, so one mask of every
    # slot's low bits serves rows from any column on
    low = int.from_bytes(((1 << (wbits - k)) - 1).to_bytes(wbytes, "little") * len(plan.masks),
                         "little")
    shoup = [(w, (w << k) // p, wi, (wi << k) // p)
             for w, wi in ((w, pow(w, -1, p) if w else 0) for w in weights)]

    def cross(row: int, h: int, first: int) -> int:
        w, ws, wi, wis = shoup[h]
        mn = row & (near[h] >> first * wbits)
        mf = row ^ mn
        return w * mn + wi * mf - (((ws * mn + wis * mf) >> k) & low) * p

    return cross


def _walked_rows(plan: _Plan, weights: Sequence[int], p: int) -> list[int]:
    """M's full rows, slots below 2p, for the plan's masks: each crossed
    from its parent's row, or packed from _product without a parent."""
    cross = _crossing(plan, weights, p)
    masks = plan.masks
    rows: list[int] = []
    for c, pc in enumerate(plan.parent):
        if pc < 0:
            rows.append(_pack([_product(weights, masks[c] ^ m, p) for m in masks], plan.wbytes))
        else:
            rows.append(cross(rows[pc], (masks[c] ^ masks[pc]).bit_length() - 1, 0))
    return rows


def _congruent_rows(plan: _Plan, stars: _StarRows, layout: _Layout,
                    weights: Sequence[int], p: int) -> list[int]:
    """Packed upper rows of N = T M T^T, for the matrix M of the plan's
    masks and the rows of T and their layout that _star_rows gives.  A slot
    starts below 2 s p^2, s the largest star.

    Row c of N is built by the rules of the module docstring.  Row x of M
    is walked from its parent's, or packed from _product without one, and
    dropped after its last use."""
    masks, parent, near, wbytes = plan.masks, plan.parent, plan.near, plan.wbytes
    last, last_child, through, count0 = layout
    n = len(masks)
    wbits = 8 * wbytes
    w1 = wbits - 1
    base = masks[0]
    cross = _crossing(plan, weights, p)
    ones = int.from_bytes((1).to_bytes(wbytes, "little") * n, "little")
    # A kept row is (its first column, the row from there on); a use at row c
    # keeps it from column c on only, since no later use needs less.
    walked: list[tuple[int, int] | None] = [None] * n
    counts: list[tuple[int, int] | None] = [None] * n

    def tail(kept: list, x: int, c: int) -> int:
        first, row = kept[x]
        if first < c:
            row >>= (c - first) * wbits
            kept[x] = c, row
        return row

    rows = []
    for c in range(n):
        shift = c * wbits
        pc = parent[c]
        if pc < 0:
            mc = _pack([_product(weights, masks[c] ^ m, p) for m in masks[c:]], wbytes)
            count = count0 - sum(through[bit.bit_length() - 1]
                                 for bit in _bits(masks[c] ^ base)) >> shift
        else:
            h = (masks[c] ^ masks[pc]).bit_length() - 1
            mc = cross(tail(walked, pc, c), h, c)
            count = tail(counts, pc, c) - (through[h] >> shift)
            if last_child[pc] == c:
                counts[pc] = None
        walked[c] = c, mc
        if last_child[c] >= 0:
            counts[c] = c, count
        star, coeffs, flat = stars[c]
        # slot masks of the columns whose flat meets c's, and of the columns
        # on masks[0]'s side of some hyperplane of c's flat
        share = side = 0
        lifted = {}
        for bit in _bits(flat):
            h = bit.bit_length() - 1
            share |= lifted.setdefault(bit, through[h] >> shift)
            side |= near[h] >> shift
        share = (share << wbits) - share
        nc = (mc ^ (mc & (side | share))) + coeffs[-1] * (mc & share)
        for x, t in zip(star[:-1], coeffs):
            lost = flat & ~(masks[x] ^ base)
            if lost != flat:
                drop = 0
                for bit in _bits(lost):
                    drop |= lifted[bit]
                nc += t * (tail(walked, x, c) & (share ^ ((drop << wbits) - drop)))
        for x in (pc, *star):
            if x >= 0 and last[x] == c:
                walked[x] = None
        # an and allocates its shorter operand's length, so the row ends at
        # its last column whose flat is on c's far side
        keep = (~count >> w1) & (ones >> shift)
        rows.append(nc & ((keep << wbits) - keep))
    return rows


def varchenko_det_mod(A: Arrangement, chambers: Sequence[Chamber],
                      assignment: Mapping[str, int], field: PrimeField) -> int:
    """det_mod(varchenko_matrix_eval(A, chambers, assignment, field), p),
    built straight into the packed upper rows of the symmetric kernel.

    The chambers are taken in gallery order, by the number of walls crossed
    from chambers[0], which leaves more of the elimination multipliers zero
    than the given order; a simultaneous permutation of rows and columns
    keeps the determinant.  From _CONGRUENCE_MIN chambers on, the kernel
    eliminates the congruent matrix N = T M T^T (_congruent_rows), whose
    leading principal minors are M's times nonzero squares.  A zero diagonal
    pivot falls back to the row-pivoting kernel on M's full rows in the same
    order, walked from their gallery parents at every size."""
    p = field.p
    weights, masks = _weights_and_masks(A, chambers, assignment, p)
    base = masks[0] if masks else 0
    masks.sort(key=lambda m: (m ^ base).bit_count())
    n = len(masks)
    scale = 1
    if n >= _CONGRUENCE_MIN:
        plan = _plan(A, masks, weights, p)
        stars, layout = _star_rows(plan, weights, p)
        wbytes = plan.wbytes
        upper = _congruent_rows(plan, stars, layout, weights, p)
        # det N is det M times the square of T's diagonal product
        for _, coeffs, _ in stars:
            scale = scale * coeffs[-1] % p
    else:
        wbytes = _slot_bytes(n, p)
        upper = _joined_rows(_SlotBytes(weights, p, wbytes), masks)
    det = _det_symmetric(upper, wbytes, p)
    if det is None:
        plan = _plan(A, masks, weights, p)
        return _det_pivoting(_walked_rows(plan, weights, p), plan.wbytes, p)
    return det * pow(scale, -2, p) % p


def degree_bound(f: FactoredProduct) -> int:
    """Total degree of the expanded product: sum of 2 * exponent * degree(m).

    Used for the per-trial Schwartz-Zippel failure bound (degree / field
    size)."""
    return sum(2 * e * mono.degree for mono, e in f.factors)


__all__ = ["MatrixError", "degree_bound", "det_mod", "varchenko_det_mod",
           "varchenko_matrix_eval"]
