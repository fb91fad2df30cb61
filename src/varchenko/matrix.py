"""The Varchenko matrix over a prime field and its brute-force determinant.

This is the ground-truth side of every verification: chambers index the rows
and columns, the (C1, C2) entry is the product of the weights of the
hyperplanes separating C1 from C2, and the determinant is computed by plain
Gaussian elimination in the field.  Nothing here knows about factorizations.

Matrix entries are memoized per separating set (sign vectors are packed into
bitmasks, so a pair's separating set is one xor), which makes the build cheap
even for several hundred chambers.

Elimination stores each row as a single big integer with fixed-width
slots.  A row operation row_r += (p - f) * row_pivot then becomes one scalar
multiply and one add of big integers, which CPython executes in C at machine
speed.  Slots are wide enough that a slot never overflows into its neighbor
during a full elimination (slot values stay below p + n*p^2), and values are
only reduced mod p when read.  The same kernel runs at every size: below
n = 6 it costs a few microseconds more than textbook row-by-row elimination,
and from n = 6 up it is as fast or faster.
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


def det_mod(entries: Sequence[Sequence[int]], p: int) -> int:
    """Determinant of a square integer matrix mod the prime p, by Gaussian
    elimination with nonzero-pivot search; 0 when singular (legitimate at
    special evaluation points)."""
    n = len(entries)
    for row in entries:
        if len(row) != n:
            raise MatrixError("matrix is not square")
    # A slot holds at most p - 1 + n * (p - 1)^2, so 2*63 + bit_length(n) + 1
    # bits always suffice; round up to whole bytes.
    wbits = 2 * p.bit_length() + n.bit_length() + 2
    wbytes = (wbits + 7) // 8
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
        inv = pow(pv, p - 2, p)
        # reduce the pivot row mod p and drop its leading slot
        count = len(packed) + 1
        data = piv_row.to_bytes(count * wbytes, "little")
        tail = _pack(
            [int.from_bytes(data[k * wbytes:(k + 1) * wbytes], "little") % p
             for k in range(1, count)], wbytes)
        for idx, row in enumerate(packed):
            f = (row & mask) % p
            row >>= wbits
            if f:
                f = f * inv % p
                row += (p - f) * tail
            packed[idx] = row
    return det % p


def degree_bound(f: FactoredProduct) -> int:
    """Total degree of the expanded product: sum of 2 * exponent * degree(m).

    Used for the per-trial Schwartz-Zippel failure bound (degree / field
    size)."""
    return sum(2 * e * mono.degree for mono, e in f.factors)


__all__ = ["MatrixError", "degree_bound", "det_mod", "varchenko_matrix_eval"]
