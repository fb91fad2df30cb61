"""The Varchenko matrix over a prime field and its brute-force determinant.

This is the ground-truth side of every verification: chambers index the rows
and columns, the (C1, C2) entry is the product of the weights of the
hyperplanes separating C1 from C2, and the determinant is computed by
Gaussian elimination in the field.  Nothing here knows about factorizations.

Matrix entries are memoized per separating set (sign vectors are packed into
bitmasks, so a pair's separating set is one xor), and each new product takes
one multiply per chunk of 8 hyperplanes, from a table of the chunk's 256
subproducts.

Elimination stores each row as a single big integer with fixed-width
slots.  A row operation row_r += (p - f) * row_pivot then becomes one scalar
multiply and one add of big integers, which CPython executes in C at machine
speed.  _slot_bytes sizes the slots so that none overflows into its neighbor
during a full elimination.  Slots grow unreduced; each pivot row is reduced
mod p once, in all its slots at once, by a Barrett reduction on the packed
integer (_reducer), with no per-slot division.

Two kernels share that layout.  The row-pivoting kernel (_det_pivoting)
takes packed full rows of any square matrix; det_mod packs its entries for
it.  The symmetric kernel (_det_symmetric) eliminates without row swaps on
packed upper rows, about half the digit work of full rows.
varchenko_det_mod, the brute-force determinant of the verifiers, is its one
caller.  It never builds the matrix M: it takes the chambers in gallery
order (by walls crossed from the first), which leaves more of the
elimination multipliers zero, and hands the kernel packed upper rows.  A
diagonal pivot 0 mod p sends it to the row-pivoting kernel, on M's full rows
joined from the memoized slot bytes.

Below _CONGRUENCE_MIN chambers the upper rows are M's own, joined from the
slot memo.  From it on, they are those of the congruent matrix N = T M T^T.
Each chamber c but the first gets a parent: a neighbor one wall h closer to
the first chamber, where h's weight w is nonzero mod p; a chamber without
one is a root.  T is unit lower triangular with T[c][parent(c)] = -w.  Its
leading blocks have determinant 1 and N's leading k x k block is T_k M_k
T_k^T, so N has M's determinant and every leading principal minor of M: the
kernel meets the same pivots on N as on M, and refuses N exactly when it
would refuse M.  Nothing of the factorization is used.  N is sparser under
elimination, by about half of the slot updates (B:4 2.13M -> 0.89M, D:4
301k -> 118k).  Its rows come from a walk of the rows of M and V = M T^T
from the parent's, with one packed reduction per walked row:

  * M[c] is M[parent]'s row with the slots on the parent's side of h times
    w and the others times w^-1;
  * V[c] follows the same rule in every column d whose own wall is not h;
    in the columns whose wall is h it is (1 - w^2) M[c], that is
    (w^-1 - w) M[parent];
  * N[c] = V[c] - w V[parent].

A root's rows of M and V come from the definition.  A walked row is dropped
after its last child, so the walk holds few rows at once, and no slot memo
but the roots'.  The walk costs about as much as joining M from the memo,
and on small matrices the elimination it saves does not pay for it.
_CONGRUENCE_MIN sits at the measured crossover: on seeded random
arrangements the congruent path took 1.5x the time below 16 chambers, 1.2x
at 16-63, 1.03x at 128-191, 0.99x at 192-255 and 0.89-0.96x from 256 to
2,047; on the reflection arrangements, 0.92x for A:5 (120 chambers), 0.81x
for D:4 (192), 0.67x for B:4 (384) and 0.61x for A:6 (720).  The matrices of
at most 8 hyperplanes in 4 dimensions have at most 163 chambers, so they
stay on M.
"""

from __future__ import annotations

from itertools import repeat
from operator import itemgetter
from struct import iter_unpack
from typing import Callable, Iterable, Mapping, Sequence

from .exactalg import FactoredProduct, MissingVariableError, PrimeField
from .geometry import Arrangement, Chamber


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


class _SlotBytes(dict):
    """Separating-set mask -> product of its hyperplanes' weights mod p, as
    one little-endian slot of wbytes bytes.

    A miss costs one multiply per chunk of 8 hyperplanes, read from a table
    of the chunk's 256 subproducts.  Misses go through __missing__, so the
    memo holds no reference to itself and is freed with its last user."""

    def __init__(self, weights: Sequence[int], p: int, wbytes: int):
        super().__init__()
        self.p = p
        self.wbytes = wbytes
        self.tables = []
        for k in range(0, len(weights), 8):
            table = [1]
            for w in weights[k:k + 8]:
                table += [x * w % p for x in table]
            self.tables.append(table)

    def __missing__(self, mask: int) -> bytes:
        p = self.p
        acc = 1
        m = mask
        for table in self.tables:
            acc = acc * table[m & 255] % p
            m >>= 8
        value = self[mask] = acc.to_bytes(self.wbytes, "little")
        return value


def _joined_rows(weights: Sequence[int], masks: Sequence[int], p: int,
                 wbytes: int, upper: bool) -> list[int]:
    """Row i of the matrix as one packed int, joined from the memoized slot
    bytes: columns i..n-1 if upper, else all n.  The memo dies on return."""
    slots = _SlotBytes(weights, p, wbytes)
    return [int.from_bytes(b"".join(map(slots.__getitem__,
                                        map(mi.__xor__, masks[i:] if upper else masks))),
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
    n = len(masks)
    wbytes = _slot_bytes(n, p)
    return [_unpack(row, n, wbytes)
            for row in _joined_rows(weights, masks, p, wbytes, upper=False)]


# ---------------------------------------------------------------------------
# determinants mod p
# ---------------------------------------------------------------------------


def _pack(slots: Iterable[int], wbytes: int) -> int:
    """The slots as one int, the first in the lowest wbytes bytes.  Like
    _unpack, it runs slot by slot in C, through map, with no Python frame
    per slot."""
    return int.from_bytes(
        b"".join(map(int.to_bytes, slots, repeat(wbytes), repeat("little"))), "little")


def _unpack(row: int, count: int, wbytes: int) -> list[int]:
    """The count slots of row."""
    data = row.to_bytes(count * wbytes, "little")
    chunks = map(itemgetter(0), iter_unpack(f"{wbytes}s", data))
    return list(map(int.from_bytes, chunks, repeat("little")))


def _slot_bytes(n: int, p: int) -> int:
    """Width of a packed slot in whole bytes, for an n x n matrix mod p.

    A slot starts below p^2: M's rows start reduced, and a row
    V[c] + (p - w) V[parent] of _congruent_rows starts at most
    p - 1 + (p - 1)^2 (its walk's own rows hold at most one product of two
    reduced numbers in a slot before their reduction).  Each elimination step
    adds (p - f) * t <= (p - 1)^2 to it (f and t are reduced and f is
    nonzero), at most n times.  So a slot stays below
    p^2 + n * (p - 1)^2 < (n + 1) * p^2 <= 2^(2 * bitlen(p) + bitlen(n))
    <= 2^(W - 2), with W = 8 * wbytes bits a slot: it never carries into its
    neighbor, and its top bit stays clear, which _reducer needs (as it needs
    2p < 2^(W - 1))."""
    return (2 * p.bit_length() + n.bit_length() + 2 + 7) // 8


def _reducer(n: int, wbytes: int, p: int) -> Callable[[int, int], int]:
    """reduce(row, first): row, whose slots start at slot `first` of rows of
    n slots of W = 8 * wbytes bits, with every slot reduced mod p at once.

    A Barrett reduction within the register, with no per-slot division.  It
    needs every slot below 2^(W - 1) and 2p < 2^(W - 1), which _slot_bytes
    guarantees.  With mu = floor(2^(W - 1) / p), q = floor(x * mu / 2^(W - 1))
    is floor(x / p) or one less, so x - q * p lies in [0, 2p); adding
    2^(W - 1) - p then sets a slot's top bit exactly where p is still to be
    subtracted.  Even and odd slots are multiplied by mu apart, each against
    an empty neighbor, so no product reaches the next slot."""
    wbits = 8 * wbytes
    w1 = wbits - 1
    mu = (1 << w1) // p
    ones = int.from_bytes((1).to_bytes(wbytes, "little") * n, "little")
    even = int.from_bytes((b"\xff" * wbytes + bytes(wbytes)) * ((n + 1) // 2), "little")
    bias = int.from_bytes(((1 << w1) - p).to_bytes(wbytes, "little") * n, "little")

    def reduce(row: int, first: int) -> int:
        q_even = ((row & even) * mu >> w1) & even
        q_odd = (((row >> wbits) & even) * mu >> w1) & even
        r = row - (q_even | q_odd << wbits) * p
        shift = first * wbits
        return r - (((r + (bias >> shift)) >> w1) & (ones >> shift)) * p

    return reduce


def _det_symmetric(upper: list[int], wbytes: int, p: int) -> int | None:
    """Determinant mod p of a symmetric matrix given by its packed upper rows,
    by elimination without row swaps, as in LDL^T; None as soon as a
    diagonal pivot is 0 mod p.  Consumes `upper`.

    Row i holds columns i..n-1, reduced mod p, in slots of wbytes bytes
    with column i in the lowest slot.  Without swaps every Schur complement
    stays symmetric, so the rows keep that shape: at pivot k the multiplier
    of row i is the pivot row's entry in column i, and row i's update is the
    pivot row's tail from column i on, which is the packed tail shifted
    right: O(n - i) digits."""
    n = len(upper)
    wbits = 8 * wbytes
    reduce = _reducer(n, wbytes, p)
    # a reduced slot is read from its low bytes alone, the smallest struct
    # integer that holds p (PrimeField keeps p below 2^63); the rest is padding
    size, code = next((s, c) for s, c in ((1, "B"), (2, "H"), (4, "I"), (8, "Q"))
                      if p < 1 << 8 * s)
    fmt = f"<{code}{wbytes - size}x"
    det = 1
    for k in range(n):
        row = reduce(upper[k], k)
        upper[k] = 0
        slots = map(itemgetter(0), iter_unpack(fmt, row.to_bytes((n - k) * wbytes, "little")))
        pv = next(slots)
        if not pv:
            return None
        det = det * pv % p
        inv = pow(pv, -1, p)
        tail = row >> wbits
        for j, f in enumerate(slots):
            if f:
                upper[k + 1 + j] += (p - f * inv % p) * (tail >> j * wbits)
    return det


def _det_pivoting(packed: list[int], wbytes: int, p: int) -> int:
    """Determinant mod p of the square matrix given by its packed full rows,
    slots below p, by elimination with nonzero-pivot search.  Consumes
    `packed`."""
    n = len(packed)
    wbits = 8 * wbytes
    mask = (1 << wbits) - 1
    reduce = _reducer(n, wbytes, p)
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
        tail = reduce(piv_row, k) >> wbits
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


def _congruent_rows(weights: Sequence[int], masks: Sequence[int], p: int,
                    wbytes: int) -> list[int]:
    """Packed upper rows of N = T M T^T, for the matrix M of the masks in
    gallery order from masks[0], slots below p^2.

    Chamber c's parent is a neighbor one wall h closer to masks[0], with
    weight w nonzero mod p, and row c of T is e_c - w e_parent; a chamber
    without one is a root, with row e_c.  The rows of M and V = M T^T are
    walked from the parent's by the rules of the module docstring, reduced
    together once, and dropped after their last child."""
    n = len(masks)
    wbits = 8 * wbytes
    base = masks[0]
    index = {m: i for i, m in enumerate(masks)}
    parent = [-1] * n
    wall = [-1] * n
    for c in range(1, n):
        far = masks[c] ^ base
        while far:
            bit = far & -far
            h = bit.bit_length() - 1
            if weights[h] and (masks[c] ^ bit) in index:
                parent[c] = index[masks[c] ^ bit]
                wall[c] = h
                break
            far ^= bit
    last_child = [-1] * n
    for c, pc in enumerate(parent):
        if pc >= 0:
            last_child[pc] = c
    # per hyperplane h, slot masks over all n columns: the columns on
    # masks[0]'s side of h, and the columns whose own wall is h
    ones, zero = b"\xff" * wbytes, bytes(wbytes)
    near, crossed = [], []
    for h in range(len(weights)):
        bit = 1 << h
        near.append(int.from_bytes(b"".join(zero if (m ^ base) & bit else ones for m in masks),
                                   "little"))
        crossed.append(int.from_bytes(b"".join(ones if wh == h else zero for wh in wall),
                                      "little"))
    roots = int.from_bytes(b"".join(ones if pc < 0 else zero for pc in parent), "little")
    # a walked row keeps M[c] and V[c], columns c..n-1 each, side by side in
    # one int, V above M, so that one reduction serves both
    reduce = _reducer(2 * n, wbytes, p)
    memo = None
    walked: list[int | None] = [None] * n
    rows = []
    for c in range(n):
        shift = c * wbits
        width = (n - c) * wbits
        pc = parent[c]
        if pc < 0:
            if memo is None:
                memo = _SlotBytes(weights, p, wbytes)
            mc = int.from_bytes(b"".join(map(memo.__getitem__, map(masks[c].__xor__, masks[c:]))),
                                "little")
            # column d of wall h: M[c][d] - w M[c][parent(d)] is (1 - w^2) M[c][d]
            # with c on d's side of h, else 0
            vc = mc & (roots >> shift)
            far = masks[c] ^ base
            while far:
                bit = far & -far
                h = bit.bit_length() - 1
                vc += (1 - weights[h] ** 2) % p * (mc & (crossed[h] >> shift))
                far ^= bit
            row = reduce(mc | vc << width, 2 * c)
            nc = row >> width
        else:
            h = wall[c]
            w = weights[h]
            wi = pow(w, -1, p)
            step = (c - pc) * wbits
            prow = walked[pc]
            mp = (prow >> step) & ((1 << width) - 1)
            vp = prow >> (width + 2 * step)
            nh = near[h] >> shift
            mn = mp & nh
            vn = vp & nh
            # the parent is on masks[0]'s side of h, where V[parent] is 0 in the
            # columns of wall h, so vp ^ vn is its far side without them
            mc = w * mn + wi * (mp ^ mn)
            vc = w * vn + wi * (vp ^ vn) + (wi - w) % p * (mp & (crossed[h] >> shift))
            row = reduce(mc | vc << width, 2 * c)
            nc = (row >> width) + (p - w) * vp
            if last_child[pc] == c:
                walked[pc] = None
        if last_child[c] >= 0:
            walked[c] = row
        rows.append(nc)
    return rows


def varchenko_det_mod(A: Arrangement, chambers: Sequence[Chamber],
                      assignment: Mapping[str, int], field: PrimeField) -> int:
    """det_mod(varchenko_matrix_eval(A, chambers, assignment, field), p),
    built straight into the packed upper rows of the symmetric kernel.

    The chambers are taken in gallery order, by the number of walls crossed
    from chambers[0], which leaves more of the elimination multipliers zero
    than the given order; a simultaneous permutation of rows and columns
    keeps the determinant.  From _CONGRUENCE_MIN chambers on, the kernel
    eliminates the congruent matrix N = T M T^T (_congruent_rows), which
    has M's determinant and leading principal minors.  A zero diagonal pivot
    falls back to the row-pivoting kernel on M's full rows, joined in the
    same order."""
    p = field.p
    weights, masks = _weights_and_masks(A, chambers, assignment, p)
    base = masks[0] if masks else 0
    masks.sort(key=lambda m: (m ^ base).bit_count())
    wbytes = _slot_bytes(len(masks), p)
    if len(masks) >= _CONGRUENCE_MIN:
        upper = _congruent_rows(weights, masks, p, wbytes)
    else:
        upper = _joined_rows(weights, masks, p, wbytes, upper=True)
    det = _det_symmetric(upper, wbytes, p)
    if det is None:
        det = _det_pivoting(_joined_rows(weights, masks, p, wbytes, upper=False), wbytes, p)
    return det


def degree_bound(f: FactoredProduct) -> int:
    """Total degree of the expanded product: sum of 2 * exponent * degree(m).

    Used for the per-trial Schwartz-Zippel failure bound (degree / field
    size)."""
    return sum(2 * e * mono.degree for mono, e in f.factors)


__all__ = ["MatrixError", "degree_bound", "det_mod", "varchenko_det_mod",
           "varchenko_matrix_eval"]
