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
caller: it never builds the matrix, but joins the memoized slot bytes
straight into the packed upper rows, with the chambers in gallery order (by
walls crossed from the first), which leaves more of the elimination
multipliers zero.  A diagonal pivot 0 mod p sends it to the row-pivoting
kernel, on full rows joined the same way.
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

    In both kernels a slot starts at most p - 1, and each elimination step
    adds (p - f) * t <= (p - 1)^2 to it (f and t are reduced and f is
    nonzero), at most n times.  So a slot stays at most
    p - 1 + n * (p - 1)^2 < 2^(2 * bitlen(p) + bitlen(n)) <= 2^(W - 2), with
    W = 8 * wbytes bits a slot: it never carries into its neighbor, and its
    top bit stays clear, which _reducer needs (as it needs 2p < 2^(W - 1))."""
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


def varchenko_det_mod(A: Arrangement, chambers: Sequence[Chamber],
                      assignment: Mapping[str, int], field: PrimeField) -> int:
    """det_mod(varchenko_matrix_eval(A, chambers, assignment, field), p),
    built straight into the packed upper rows of the symmetric kernel.

    The chambers are taken in gallery order, by the number of walls crossed
    from chambers[0], which leaves more of the elimination multipliers zero
    than the given order; a simultaneous permutation of rows and columns
    keeps the determinant.  A zero diagonal pivot falls back to the
    row-pivoting kernel on the full rows, joined in the same order."""
    p = field.p
    weights, masks = _weights_and_masks(A, chambers, assignment, p)
    base = masks[0] if masks else 0
    masks.sort(key=lambda m: (m ^ base).bit_count())
    wbytes = _slot_bytes(len(masks), p)
    det = _det_symmetric(_joined_rows(weights, masks, p, wbytes, upper=True), wbytes, p)
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
