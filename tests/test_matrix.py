import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varchenko import matrix
from varchenko.closedform import formula_A, formula_B
from varchenko.exactalg import (DEFAULT_PRIME, MissingVariableError,
                                PrimeField, factored_eval)
from varchenko.families import FamilyKind, build_family
from varchenko.geometry import Arrangement, Hyperplane, enumerate_chambers
from varchenko.harness import trial_assignment
from varchenko.matrix import (MatrixError, degree_bound, det_mod,
                              varchenko_det_mod, varchenko_matrix_eval)

from arrangement_strategies import small_arrangements

F = PrimeField(DEFAULT_PRIME)


def separating_set(c1, c2):
    """Hyperplane indices on which two chambers' sign vectors differ."""
    assert len(c1.signs) == len(c2.signs)
    return frozenset(i for i, (a, b) in enumerate(zip(c1.signs, c2.signs)) if a != b)


def _unpack(row, count, wbytes):
    """The count slots of a packed row, the first in its lowest wbytes bytes."""
    data = row.to_bytes(count * wbytes, "little")
    return [int.from_bytes(data[i:i + wbytes], "little") for i in range(0, len(data), wbytes)]


def _det_simple(rows, p):
    """Textbook row-by-row elimination mod p: the reference for det_mod."""
    n = len(rows)
    det = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c] % p), None)
        if piv is None:
            return 0
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        pv = rows[c][c] % p
        det = det * pv % p
        inv = pow(pv, p - 2, p)
        prow = rows[c]
        for r in range(c + 1, n):
            f = rows[r][c] % p
            if f:
                f = f * inv % p
                row = rows[r]
                rows[r] = row[:c] + [(x - f * y) % p for x, y in zip(row[c:], prow[c:])]
    return det % p


def kind(s):
    return build_family(FamilyKind.parse(s))


def braid3_chamber(A, order):
    """Chamber of the 3-coordinate braid where coordinates decrease in the
    given order, e.g. (1,2,3) means x1 > x2 > x3."""
    for c in enumerate_chambers(A):
        w = c.witness
        if all(w[order[k] - 1] > w[order[k + 1] - 1] for k in range(2)):
            return c
    raise AssertionError


# ---------------------------------------------------------------------------
# separating sets
# ---------------------------------------------------------------------------


def test_adjacent_transposition_crosses_one_wall():
    A = kind("A:3")
    c1, c2 = braid3_chamber(A, (1, 2, 3)), braid3_chamber(A, (2, 1, 3))
    assert separating_set(c1, c2) == frozenset({0})


def test_self_separation_empty():
    A = kind("A:3")
    c = braid3_chamber(A, (1, 2, 3))
    assert separating_set(c, c) == frozenset()


def test_full_reversal_crosses_every_wall():
    A = kind("A:3")
    c1, c2 = braid3_chamber(A, (1, 2, 3)), braid3_chamber(A, (3, 2, 1))
    assert separating_set(c1, c2) == frozenset({0, 1, 2})


def test_separating_set_length_mismatch():
    # a chamber of B:2 has 4 signs, so its separating set against an A:3
    # chamber (3 signs) is undefined and the matrix build must refuse it
    A, B = kind("A:3"), kind("B:2")
    assignment = {w: 2 for w in A.weight_names()}
    for build in (varchenko_matrix_eval, varchenko_det_mod):
        with pytest.raises(MatrixError):
            build(A, [enumerate_chambers(A)[0], enumerate_chambers(B)[0]], assignment, F)


@given(st.data())
@settings(max_examples=40)
def test_separating_set_symmetric_difference_identity(data):
    ch = enumerate_chambers(kind("B:3"))
    i, j, k = (data.draw(st.integers(0, len(ch) - 1)) for _ in range(3))
    s12 = separating_set(ch[i], ch[j])
    s23 = separating_set(ch[j], ch[k])
    s13 = separating_set(ch[i], ch[k])
    assert s13 == s12 ^ s23
    assert s12 == separating_set(ch[j], ch[i])


def test_antipodal_invariance_of_entries():
    A = kind("D:3")
    ch = enumerate_chambers(A)
    index = {c.signs: n for n, c in enumerate(ch)}
    M = varchenko_matrix_eval(A, ch, {w: 7 + i for i, w in enumerate(A.weight_names())}, F)
    for i in range(0, len(ch), 5):
        for j in range(0, len(ch), 7):
            ai = index[tuple(-s for s in ch[i].signs)]
            aj = index[tuple(-s for s in ch[j].signs)]
            assert M[i][j] == M[ai][aj]


# ---------------------------------------------------------------------------
# matrix build
# ---------------------------------------------------------------------------


def test_single_wall_matrix():
    A = kind("A:2")
    ch = enumerate_chambers(A)
    M = varchenko_matrix_eval(A, ch, {"q_{1,2}": 77}, F)
    assert M == [[1, 77], [77, 1]]


def test_zero_weights_give_identity_matrix():
    A = kind("B:2")
    ch = enumerate_chambers(A)
    M = varchenko_matrix_eval(A, ch, {w: 0 for w in A.weight_names()}, F)
    for i, row in enumerate(M):
        assert all(v == (1 if i == j else 0) for j, v in enumerate(row))


def test_matrix_symmetric_with_unit_diagonal():
    # every entry is the product of the weights over the separating set; B:3
    # (9 hyperplanes) and the 20 points on a line have masks of more than 8 bits
    p = F.p
    line = Arrangement(1, [Hyperplane.make((1,), b, f"w{b}") for b in range(20)])
    for A in (kind("I2:5"), kind("B:3"), line):
        ch = enumerate_chambers(A)
        n = len(ch)
        names = A.weight_names()
        for assignment in [{w: 3 + i for i, w in enumerate(names)},
                           trial_assignment(names, 0, 0, p), *_zero_weight_assignments(A, p)]:
            M = varchenko_matrix_eval(A, ch, assignment, F)
            assert all(M[i][i] == 1 for i in range(n))
            assert all(M[i][j] == M[j][i] for i in range(n) for j in range(n))
            for i in range(n):
                for j in range(n):
                    expect = 1
                    for h in separating_set(ch[i], ch[j]):
                        expect = expect * assignment[A.hyperplanes[h].weight] % p
                    assert M[i][j] == expect


def test_d2_matrix_is_tensor_product():
    # sign-vector coordinates factor: entry(st, uv) = a^[s!=u] * b^[t!=v]
    A = kind("D:2")
    ch = enumerate_chambers(A)
    a, b = 5, 9
    M = varchenko_matrix_eval(A, ch, {"q_{1,2}": a, "q_{-1,2}": b}, F)
    pos = {c.signs: i for i, c in enumerate(ch)}
    for s in (1, -1):
        for t in (1, -1):
            for u in (1, -1):
                for v in (1, -1):
                    expect = (a if s != u else 1) * (b if t != v else 1)
                    assert M[pos[(s, t)]][pos[(u, v)]] == expect


def test_matrix_missing_weight():
    A = kind("A:3")
    for build in (varchenko_matrix_eval, varchenko_det_mod):
        with pytest.raises(MissingVariableError):
            build(A, enumerate_chambers(A), {"q_{1,2}": 1}, F)


# ---------------------------------------------------------------------------
# determinants
# ---------------------------------------------------------------------------


def test_det_identity():
    assert det_mod([[1, 0], [0, 1]], 97) == 1
    assert det_mod([], 97) == 1


def test_det_single_wall_closed_form():
    A = kind("A:2")
    ch = enumerate_chambers(A)
    w = 123456789
    M = varchenko_matrix_eval(A, ch, {"q_{1,2}": w}, F)
    assert det_mod(M, F.p) == (1 - w * w) % F.p


def test_det_braid3_matches_closed_form_at_random_points():
    A = kind("A:3")
    ch = enumerate_chambers(A)
    f = formula_A(3)
    for salt in range(5):
        assignment = trial_assignment(A.weight_names(), 0, salt, F.p)
        M = varchenko_matrix_eval(A, ch, assignment, F)
        assert det_mod(M, F.p) == factored_eval(f, assignment, F)


def test_det_singular_matrix_is_zero():
    assert det_mod([[1, 2], [2, 4]], 10007) == 0
    assert det_mod([[5, 0], [5, 0]], 10007) == 0


def test_det_not_square():
    with pytest.raises(MatrixError):
        det_mod([[1, 2, 3], [4, 5, 6]], 97)


@given(st.integers(1, 7), st.sampled_from([10007, 2**31 - 1, DEFAULT_PRIME]), st.data())
@settings(max_examples=60)
def test_packed_det_agrees_with_simple(n, p, data):
    rows = [[data.draw(st.integers(0, p - 1)) for _ in range(n)] for _ in range(n)]
    assert det_mod(rows, p) == _det_simple([row[:] for row in rows], p)


def test_packed_det_on_structured_matrix():
    # a structured matrix wider than the random ones above
    n = 60
    p = DEFAULT_PRIME
    rows = [[(i * n + j + 1) ** 2 % p for j in range(n)] for i in range(n)]
    for i in range(n):
        rows[i][i] = 1
    assert det_mod(rows, p) == _det_simple([r[:] for r in rows], p)


def _symmetric(upper_entries, n):
    rows = [[0] * n for _ in range(n)]
    it = iter(upper_entries)
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = next(it)
    return rows


def _symmetric_kernel(rows, p):
    """_det_symmetric on the rows packed into upper rows."""
    wbytes = matrix._slot_bytes(len(rows), p)
    upper = [matrix._pack([x % p for x in row[i:]], wbytes) for i, row in enumerate(rows)]
    return matrix._det_symmetric(upper, wbytes, p)


@pytest.mark.parametrize("p", [2, 3, 7, 10007, 2**61 - 1, 2**63 - 25])
@pytest.mark.parametrize("n", [1, 2, 7, 8, 720])
def test_packed_reduction_at_the_slot_bound(p, n):
    # every slot at the documented maximum, then random slots up to the
    # reducer's own limit 2^(W - 1), reduced whole and from a later slot.
    # The reducer cuts its constants to the row's bit length, so rows also
    # end in zero slots, down to a zero row, or hold multiples of p; the
    # nonzero scan must find exactly the slots that do not reduce to 0
    wbytes = matrix._slot_bytes(n, p)
    top = 1 << (8 * wbytes - 1)
    most = p - 1 + (n + 1) * (p - 1) ** 2
    assert most < top // 2
    rng = random.Random(p * 1000 + n)
    reduce, nonzero = matrix._reducer(n, wbytes, p)
    some = [rng.randrange(top) for _ in range(n)]
    for slots in ([most] * n, some,
                  [rng.choice((0, p * rng.randrange(top // p), x)) for x in some],
                  [some[0] | 1] + [0] * (n - 1),
                  some[:n // 2] + [0] * (n - n // 2)):
        for first in {0, n // 2, n - 1}:
            row = matrix._pack(slots[first:], wbytes)
            reduced = reduce(row)
            got = _unpack(reduced, n - first, wbytes)
            assert got == [x % p for x in slots[first:]]
            assert list(nonzero(reduced)) == [j for j, x in enumerate(slots[first:]) if x % p]


def test_slot_width_holds_the_congruent_rows():
    # a congruent row starts a slot at up to p - 1 + (p - 1)^2, not p - 1;
    # n elimination steps later it must still stay below 2^(W - 2), half of
    # the reducer's limit 2^(W - 1)
    for p in (2, 3, 5, 7, 251, 257, 65521, 65537, 2**31 - 1, 2**32 + 15,
              2**61 - 1, 2**63 - 25):
        for n in range(1, 6001):
            top = 1 << (8 * matrix._slot_bytes(n, p) - 1)
            assert p - 1 + (p - 1) ** 2 + n * (p - 1) ** 2 < top // 2
        # a star row starts a slot at one product of a coefficient below p and
        # a walked entry below 2p per member; I2:m has stars of 2m chambers
        for star in (*range(1, 17), 24, 32, 64):
            for n in range(1, 6001, 13):
                top = 1 << (8 * matrix._slot_bytes(n, p, 2 * star) - 1)
                assert star * (p - 1) * (2 * p - 1) + n * (p - 1) ** 2 < top // 2


@given(st.integers(1, 8), st.sampled_from([2, 3, 5, 7, 13, 10007, DEFAULT_PRIME, 2**63 - 25]),
       st.data())
@settings(max_examples=150)
def test_symmetric_det_agrees_with_simple(n, p, data):
    # from dense to mostly zeros, so that zero diagonal pivots occur and the
    # symmetric kernel refuses a share of the examples
    zeros = data.draw(st.integers(0, 2))
    entry = st.one_of([st.just(0)] * zeros + [st.integers(-p, 2 * p)])
    rows = _symmetric(data.draw(st.lists(entry, min_size=n * (n + 1) // 2,
                                         max_size=n * (n + 1) // 2)), n)
    expect = _det_simple([row[:] for row in rows], p)
    assert det_mod(rows, p) == expect
    assert _symmetric_kernel(rows, p) in (None, expect)


@pytest.mark.parametrize("p", [5, 7, 13, 10007, DEFAULT_PRIME])
def test_symmetric_det_zero_first_pivot(p):
    # nonsingular with a zero first pivot, which the symmetric kernel refuses
    # and the row-pivoting kernel computes
    rows = [[0, 1], [1, 0]]
    assert _symmetric_kernel(rows, p) is None
    assert det_mod(rows, p) == p - 1
    assert det_mod([[1, 1], [1, 1]], p) == 0


def test_det_tuple_rows_equal_list_rows():
    symmetric = [[2, 3, 0], [3, 0, 5], [0, 5, 7]]
    general = [[2, 3, 0], [1, 0, 5], [4, 5, 7]]
    for rows in (symmetric, general):
        for p in (7, DEFAULT_PRIME):
            assert det_mod(tuple(tuple(r) for r in rows), p) == det_mod(rows, p)
            assert det_mod(rows, p) == _det_simple([r[:] for r in rows], p)


def test_varchenko_matrices_take_the_symmetric_kernel(monkeypatch):
    def refuse(packed, wbytes, p):
        raise AssertionError("row-pivoting kernel called on a Varchenko matrix")

    monkeypatch.setattr(matrix, "_det_pivoting", refuse)
    A = kind("B:3")
    ch = enumerate_chambers(A)
    f = formula_B(3)
    # the threshold as shipped, then forced down so B:3 takes the congruent rows
    for n0 in (matrix._CONGRUENCE_MIN, 1):
        monkeypatch.setattr(matrix, "_CONGRUENCE_MIN", n0)
        for trial in range(3):
            assignment = trial_assignment(A.weight_names(), 0, trial, F.p)
            assert varchenko_det_mod(A, ch, assignment, F) == factored_eval(f, assignment, F)


@pytest.mark.parametrize("sel", ["A:2", "A:3", "A:4", "A:5", "B:2", "B:3", "B:4",
                                 "D:3", "D:4", "I2:5", "I2:8"])
def test_varchenko_det_mod_equals_det_mod_of_the_matrix(sel):
    A = kind(sel)
    ch = enumerate_chambers(A)
    for trial in range(2):
        assignment = trial_assignment(A.weight_names(), 0, trial, F.p)
        M = varchenko_matrix_eval(A, ch, assignment, F)
        assert varchenko_det_mod(A, ch, assignment, F) == det_mod(M, F.p)


@given(small_arrangements(max_dim=4),
       st.sampled_from([2, 3, 7, 10007, DEFAULT_PRIME, 2**63 - 25]), st.integers(0, 2**32))
@settings(max_examples=80, deadline=None)
def test_varchenko_det_mod_matches_on_random_arrangements(A, p, seed):
    # affine, parallel and central; at p = 2, 3 and 7 zero pivots and zero
    # determinants are common
    field = PrimeField(p)
    ch = enumerate_chambers(A)
    assignment = trial_assignment(A.weight_names(), seed, 0, p)
    expect = _det_simple(varchenko_matrix_eval(A, ch, assignment, field), p)
    for n0 in (matrix._CONGRUENCE_MIN, 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(matrix, "_CONGRUENCE_MIN", n0)
            assert varchenko_det_mod(A, ch, assignment, field) == expect


def test_varchenko_det_mod_zero_pivot_falls_back(monkeypatch):
    # A:3 at p = 7, trial 0: a diagonal pivot vanishes in gallery order, yet
    # the determinant is 2, so only the row-pivoting fallback can compute it.
    # The congruent rows have M's leading minors times nonzero squares, so
    # they must meet the same zero pivot and fall back once too.  On both
    # paths the fallback's full rows are M's rows walked from their gallery
    # parents, walked once per call.
    calls, walked = [], []
    pivoting, walking = matrix._det_pivoting, matrix._walked_rows

    def counting(packed, wbytes, p):
        calls.append((len(packed), any(packed is rows for rows in walked)))
        return pivoting(packed, wbytes, p)

    def walked_rows(plan, weights, p):
        walked.append(walking(plan, weights, p))
        return walked[-1]

    monkeypatch.setattr(matrix, "_det_pivoting", counting)
    monkeypatch.setattr(matrix, "_walked_rows", walked_rows)
    A, field = kind("A:3"), PrimeField(7)
    ch = enumerate_chambers(A)
    assignment = trial_assignment(A.weight_names(), 0, 0, field.p)
    expect = _det_simple(varchenko_matrix_eval(A, ch, assignment, field), field.p)
    for n0 in (matrix._CONGRUENCE_MIN, 1):
        monkeypatch.setattr(matrix, "_CONGRUENCE_MIN", n0)
        calls.clear()
        walked.clear()
        det = varchenko_det_mod(A, ch, assignment, field)
        assert calls == [(6, True)]
        assert len(walked) == 1
        assert det == expect == 2


def _zero_weight_assignments(A, p):
    """A trial draw with its first weight 0 and its last p (0 mod p), the
    draw with every other weight 0, and all weights 0."""
    names = A.weight_names()
    drawn = trial_assignment(names, 0, 0, p)
    return [{**drawn, names[0]: 0, names[-1]: p},
            {**drawn, **dict.fromkeys(names[::2], 0)},
            dict.fromkeys(names, 0)]


@pytest.mark.parametrize("sel", ["A:4", "B:3", "D:3", "I2:5"])
@pytest.mark.parametrize("p", [7, DEFAULT_PRIME])
def test_varchenko_det_mod_with_zero_weights(sel, p, monkeypatch):
    # a weight 0 mod p has no inverse, so the walk of the congruent rows
    # does not cross its hyperplane and the chambers behind it become roots;
    # with all weights 0 every chamber is one and the matrix is the identity
    A, field = kind(sel), PrimeField(p)
    ch = enumerate_chambers(A)
    for n0 in (matrix._CONGRUENCE_MIN, 1):
        monkeypatch.setattr(matrix, "_CONGRUENCE_MIN", n0)
        for assignment in _zero_weight_assignments(A, p):
            M = varchenko_matrix_eval(A, ch, assignment, field)
            assert varchenko_det_mod(A, ch, assignment, field) == _det_simple(M, p)


def _affine_with_parallels():
    """Seven lines in the plane, in three parallel classes and one more
    direction, so that some pairs of walls have no flat."""
    lines = [((1, 0), 0), ((1, 0), 1), ((1, 0), 2), ((0, 1), 0), ((0, 1), 1),
             ((1, 1), 1), ((1, -1), 0)]
    return Arrangement(2, [Hyperplane.make(a, b, f"w{i}") for i, (a, b) in enumerate(lines)])


def _congruent_upper(A, ch, assignment, p):
    """The stars, slot width and packed upper rows of N = T M T^T that
    varchenko_det_mod builds for these chambers, already in gallery order."""
    weights, masks = matrix._weights_and_masks(A, ch, assignment, p)
    plan = matrix._plan(A, masks, weights, p)
    stars, layout = matrix._star_rows(plan, weights, p)
    return stars, plan.wbytes, matrix._congruent_rows(plan, stars, layout, weights, p)


def _gallery_chambers(A):
    first, *rest = enumerate_chambers(A)
    return [first, *sorted(rest, key=lambda c: len(separating_set(c, first)))]


@pytest.mark.parametrize("sel", ["A:4", "B:3", "I2:6", "affine"])
@pytest.mark.parametrize("p", [7, 10007, DEFAULT_PRIME])
def test_congruent_rows_keep_every_leading_minor(sel, p):
    # N = T M T^T with T lower triangular: N's leading k x k block is
    # T_k M_k T_k^T, so its minor is M's times the square of T's first k
    # diagonal entries, and the symmetric kernel meets a zero pivot on N
    # exactly where it meets one on M.  Chambers already in gallery order, so
    # M's rows are in N's order.
    A, field = (_affine_with_parallels() if sel == "affine" else kind(sel)), PrimeField(p)
    ch = _gallery_chambers(A)
    names = A.weight_names()
    drawn = trial_assignment(names, 0, 0, p)
    # weights +-1 make every local matrix singular, so every chamber a root
    signs = {name: (-1) ** i for i, name in enumerate(names)}
    for assignment in [drawn, signs, *_zero_weight_assignments(A, p)]:
        M = varchenko_matrix_eval(A, ch, assignment, field)
        stars, wbytes, rows = _congruent_upper(A, ch, assignment, p)
        if assignment is signs:
            assert all(len(star) == 1 for star, _, _ in stars)
        if assignment is drawn and sel == "I2:6":
            assert max(len(star) for star, _, _ in stars) == 12
        n = len(ch)
        s = max(len(star) for star, _, _ in stars)
        upper = [_unpack(row, n - i, wbytes) for i, row in enumerate(rows)]
        assert all(x < 2 * s * p * p for row in upper for x in row)
        N = _symmetric([x % p for row in upper for x in row], n)
        scale = 1
        for k in range(1, n + 1):
            star, coeffs, _ = stars[k - 1]
            assert star[-1] == k - 1
            scale = scale * coeffs[-1] ** 2 % p
            assert (_det_simple([row[:k] for row in N[:k]], p)
                    == _det_simple([row[:k] for row in M[:k]], p) * scale % p)


@pytest.mark.parametrize("sel,primes", [("A:4", (7, 10007, DEFAULT_PRIME)),
                                        ("B:3", (7, 10007, DEFAULT_PRIME)),
                                        ("I2:6", (7, 10007, DEFAULT_PRIME)),
                                        ("B:4", (7, 10007))])
def test_star_plan_is_kept_per_zero_set(sel, primes, monkeypatch):
    # one arrangement through trials whose zero-weight sets differ: the plan
    # of the stars is made once per zero set and holds nothing of the
    # weights' values; B:4 takes the star path at the shipped threshold
    if sel != "B:4":
        monkeypatch.setattr(matrix, "_CONGRUENCE_MIN", 1)
    family = kind(sel)
    for p in primes:
        A = Arrangement(family.dimension, list(family.hyperplanes))
        field = PrimeField(p)
        ch = enumerate_chambers(A)
        names = A.weight_names()
        first, second = (trial_assignment(names, 0, trial, p) for trial in range(2))
        signs = {name: (-1) ** i for i, name in enumerate(names)}
        dets = []
        for assignment in (first, {**second, names[1]: p}, signs, second):
            M = varchenko_matrix_eval(A, ch, assignment, field)
            dets.append(varchenko_det_mod(A, ch, assignment, field))
            assert dets[-1] == _det_simple(M, p)
        # other chambers replace the plan: a principal minor, then M again
        sub = ch[1:]
        assert (varchenko_det_mod(A, sub, first, field)
                == det_mod(varchenko_matrix_eval(A, sub, first, field), p))
        assert varchenko_det_mod(A, ch, first, field) == dets[0]
        plans = A._cache["plans"]
        assert sorted(zero for zero, _ in plans) == [0, 2]
        kept = plans[0, p.bit_length()]
        # weights +-1 make every local matrix singular, so every chamber a
        # root for that trial only
        weights, _ = matrix._weights_and_masks(A, ch, signs, p)
        assert all(len(star) == 1 for star, _, _ in matrix._star_rows(kept, weights, p)[0])
        assert any(len(star) > 1 for star, _, _ in kept.stars)
        # made afresh from the second draw, the plan equals the first draw's
        del A._cache["plans"]
        varchenko_det_mod(A, ch, second, field)
        assert A._cache["plans"] == {(0, p.bit_length()): kept}


def test_star_rows_halve_the_elimination_work():
    # nonzero multipliers of the symmetric kernel on B:4, trial 0: 13,415 on
    # the congruence with one parent per chamber, 7,264 on the star rows
    A, p = kind("B:4"), DEFAULT_PRIME
    ch = _gallery_chambers(A)
    _, wbytes, upper = _congruent_upper(A, ch, trial_assignment(A.weight_names(), 0, 0, p), p)
    n, wbits = len(upper), 8 * wbytes
    reduce, _ = matrix._reducer(n, wbytes, p)
    multipliers = 0
    for k in range(n):
        row = reduce(upper[k])
        pivot, *rest = _unpack(row, n - k, wbytes)
        inv = pow(pivot, -1, p)
        for j, f in enumerate(rest):
            if f:
                multipliers += 1
                upper[k + 1 + j] += (p - f * inv % p) * (row >> (j + 1) * wbits)
    assert multipliers <= 9000


# ---------------------------------------------------------------------------
# degree bound
# ---------------------------------------------------------------------------


def test_degree_bound_values():
    from varchenko.exactalg import FactoredProduct, Monomial
    single = FactoredProduct(((Monomial.from_vars(["q_{1,2}"]), 1),))
    assert degree_bound(single) == 2
    assert degree_bound(formula_A(3)) == 18
    assert degree_bound(FactoredProduct(())) == 0
