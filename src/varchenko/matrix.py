"""The Varchenko matrix over a prime field and its brute-force determinant.

This is the ground-truth side of every verification: chambers index the rows
and columns, the (C1, C2) entry is the product of the weights of the
hyperplanes separating C1 from C2, and the determinant is computed by
Gaussian elimination in the field.  Nothing here knows about factorizations.

Matrix entries are memoized per separating set (sign vectors are packed into
bitmasks, so a pair's separating set is one xor), which makes the build cheap
even for several hundred chambers.

Elimination stores each row as a single big integer with fixed-width
slots.  A row operation row_r += (p - f) * row_pivot then becomes one scalar
multiply and one add of big integers, which CPython executes in C at machine
speed.  Values are only reduced mod p when read; _slot_bytes sizes the slots
so that none overflows into its neighbor during a full elimination.

Two kernels share that layout.  The Varchenko matrix is symmetric, so
det_mod first eliminates it without row swaps on packed upper rows
(_det_symmetric), about half the digit work of full rows.  The row-pivoting
kernel (_det_pivoting) takes a matrix that is not symmetric, or one with a
diagonal pivot 0 mod p, from its original entries.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .exactalg import FactoredProduct, MissingVariableError, PrimeField
from .geometry import Arrangement, Chamber


class MatrixError(ValueError):
    pass


def varchenko_matrix_eval(A: Arrangement, chambers: Sequence[Chamber],
                          assignment: Mapping[str, int],
                          field: PrimeField) -> list[list[int]]:
    """The rows of the matrix: entry (i, j) is the product of the assigned
    weights of the hyperplanes separating chamber i from chamber j, reduced
    in the field, so the matrix is symmetric with unit diagonal."""
    p = field.p
    weights = []
    for h in A.hyperplanes:
        if h.weight not in assignment:
            raise MissingVariableError(h.weight)
        weights.append(assignment[h.weight] % p)
    masks = []
    for c in chambers:
        if len(c.signs) != len(A.hyperplanes):
            raise MatrixError("chamber sign vector does not match the arrangement")
        masks.append(sum(1 << i for i, s in enumerate(c.signs) if s < 0))

    memo = {0: 1}

    def product_for(mask: int) -> int:
        hit = memo.get(mask)
        if hit is not None:
            return hit
        acc = 1
        m = mask
        while m:
            low = m & -m
            acc = acc * weights[low.bit_length() - 1] % p
            m ^= low
        memo[mask] = acc
        return acc

    n = len(chambers)
    rows = [[1] * n for _ in range(n)]
    for i in range(n):
        mi = masks[i]
        row = rows[i]
        for j in range(i + 1, n):
            v = product_for(mi ^ masks[j])
            row[j] = v
            rows[j][i] = v
    return rows


# ---------------------------------------------------------------------------
# determinants mod p
# ---------------------------------------------------------------------------


def _pack(slots: Sequence[int], wbytes: int) -> int:
    return int.from_bytes(
        b"".join(s.to_bytes(wbytes, "little") for s in slots), "little")


def _unpack(row: int, count: int, wbytes: int, p: int) -> list[int]:
    data = row.to_bytes(count * wbytes, "little")
    return [int.from_bytes(data[k * wbytes:(k + 1) * wbytes], "little") % p
            for k in range(count)]


def _slot_bytes(n: int, p: int) -> int:
    """Width of a packed slot in whole bytes, for an n x n matrix mod p.

    In both kernels a slot starts at most p - 1, and each elimination step
    adds (p - f) * t <= (p - 1)^2 to it (f and t are reduced and f is
    nonzero), at most n times.  So a slot stays at most
    p - 1 + n * (p - 1)^2 < 2^(2 * bitlen(p) + bitlen(n) + 1) and never
    carries into its neighbor."""
    return (2 * p.bit_length() + n.bit_length() + 2 + 7) // 8


def _det_symmetric(entries: Sequence[Sequence[int]], p: int) -> int | None:
    """Determinant of a symmetric matrix mod p by elimination without row
    swaps, as in LDL^T; None as soon as a diagonal pivot is 0 mod p.

    Without swaps every Schur complement stays symmetric, so row i keeps only
    its upper part, columns i..n-1, packed with column i in the lowest slot.
    At pivot k the multiplier of row i is the pivot row's entry in column i,
    and row i's update is the pivot row's tail from column i on, which is
    the packed tail shifted right: O(n - i) digits."""
    n = len(entries)
    wbytes = _slot_bytes(n, p)
    wbits = 8 * wbytes
    upper = [_pack([x % p for x in row[i:]], wbytes) for i, row in enumerate(entries)]
    det = 1
    for k in range(n):
        slots = _unpack(upper[k], n - k, wbytes, p)
        upper[k] = 0
        pv = slots[0]
        if not pv:
            return None
        det = det * pv % p
        inv = pow(pv, -1, p)
        tail = _pack(slots[1:], wbytes)
        for j, f in enumerate(slots[1:]):
            if f:
                upper[k + 1 + j] += (p - f * inv % p) * (tail >> j * wbits)
    return det


def _det_pivoting(entries: Sequence[Sequence[int]], p: int) -> int:
    """Determinant of any square matrix mod p by elimination with
    nonzero-pivot search over full packed rows."""
    n = len(entries)
    wbytes = _slot_bytes(n, p)
    wbits = 8 * wbytes
    mask = (1 << wbits) - 1
    packed = [_pack([x % p for x in row], wbytes) for row in entries]
    det = 1
    for _ in range(n):
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
        tail = _pack(_unpack(piv_row, len(packed) + 1, wbytes, p)[1:], wbytes)
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
    singular (legitimate at special evaluation points).

    A symmetric matrix, such as every Varchenko matrix, is eliminated by the
    symmetric kernel at about half the work.  When one of its diagonal
    pivots is 0 mod p (rare at a large prime), and for any other matrix, the
    row-pivoting kernel computes the determinant from the original entries."""
    n = len(entries)
    for row in entries:
        if len(row) != n:
            raise MatrixError("matrix is not square")
    # column i equals row i for every i, compared one pair at a time
    if all(map(tuple.__eq__, zip(*entries), map(tuple, entries))):
        det = _det_symmetric(entries, p)
        if det is not None:
            return det
    return _det_pivoting(entries, p)


def degree_bound(f: FactoredProduct) -> int:
    """Total degree of the expanded product: sum of 2 * exponent * degree(m).

    Used for the per-trial Schwartz-Zippel failure bound (degree / field
    size)."""
    return sum(2 * e * mono.degree for mono, e in f.factors)


__all__ = ["MatrixError", "degree_bound", "det_mod", "varchenko_matrix_eval"]
