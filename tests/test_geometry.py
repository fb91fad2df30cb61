import random
from fractions import Fraction
from math import lcm
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varchenko import geometry
from varchenko.closedform import formula_I2
from varchenko.exactalg import Monomial
from varchenko.families import FamilyKind, build_family
from varchenko.feasibility import feasible_strict
from varchenko.geometry import (Arrangement, EmptyFaceError,
                                EmptyIntersectionError, GeometryError,
                                GuardExceededError, Hyperplane,
                                InternalConsistencyError,
                                InvalidHyperplaneError, canonical_edge,
                                enumerate_chambers, face_of,
                                factored_determinant_general, multiplicity,
                                relevant_edges)

from arrangement_strategies import line_key, small_arrangements


def braid3():
    # fresh instance per call: arrangement caches are identity-keyed
    return Arrangement(3, [
        Hyperplane.make([1, -1, 0], 0, "q_{1,2}"),
        Hyperplane.make([1, 0, -1], 0, "q_{1,3}"),
        Hyperplane.make([0, 1, -1], 0, "q_{2,3}"),
    ])


def kind(s):
    return build_family(FamilyKind.parse(s))


# ---------------------------------------------------------------------------
# construction validation
# ---------------------------------------------------------------------------


def test_zero_normal_rejected():
    with pytest.raises(GeometryError):
        Hyperplane.make([0, 0], 0, "w")
    # built directly, the row (0, 0, -1) of 0 = 1
    with pytest.raises(InvalidHyperplaneError) as exc:
        Arrangement(2, [Hyperplane.make([1, 0], 0, "a"),
                        Hyperplane((Fraction(0), Fraction(0)), Fraction(1), "b")])
    assert exc.value.index == 1


def test_proportional_hyperplanes_rejected():
    with pytest.raises(GeometryError):
        Arrangement(2, [Hyperplane.make([1, -1], 0, "a"),
                        Hyperplane.make([-2, 2], 0, "b")])
    half = Hyperplane.make([Fraction(1, 2)], Fraction(1, 3), "a")
    for normal, offset in (([3], 2), ([-3], -2)):
        with pytest.raises(GeometryError):
            Arrangement(1, [half, Hyperplane.make(normal, offset, "b")])


def test_duplicate_weights_rejected():
    with pytest.raises(GeometryError):
        Arrangement(2, [Hyperplane.make([1, 0], 0, "a"),
                        Hyperplane.make([0, 1], 0, "a")])


def test_dimension_mismatch_rejected():
    with pytest.raises(GeometryError):
        Arrangement(3, [Hyperplane.make([1, 0], 0, "a")])


@pytest.mark.parametrize("normal,offset", [([True, 0], 0), ([1, 0], False)])
def test_bool_coordinate_rejected(normal, offset):
    with pytest.raises(GeometryError):
        Hyperplane.make(normal, offset, "a")
    # built directly; -False is the int 0, so the offset itself is checked
    with pytest.raises(InvalidHyperplaneError) as exc:
        Arrangement(2, [Hyperplane(tuple(normal), offset, "a")])
    assert exc.value.index == 0


def test_bad_weight_rejected():
    with pytest.raises(ValueError):
        Hyperplane.make([1, 0], 0, "1bad")
    with pytest.raises(InvalidHyperplaneError) as exc:
        Arrangement(2, [Hyperplane.make([1, 0], 0, "a"), Hyperplane((0, 1), 0, "1bad")])
    assert exc.value.index == 1


def test_rational_affine_hyperplane_has_primitive_integer_rows():
    # x_1 / 2 = 1 / 3 is 3 x_1 - 2 = 0; the parallel 3 x_1 = -2 is no duplicate
    A = Arrangement(1, [Hyperplane.make([Fraction(1, 2)], Fraction(1, 3), "a"),
                        Hyperplane.make([3], -2, "b")])
    assert A.rows == (((3, -2), (-3, 2)), ((3, 2), (-3, -2)))
    assert not A.central


def test_central_flag():
    assert kind("B:3").central


# ---------------------------------------------------------------------------
# chamber enumeration
# ---------------------------------------------------------------------------


def test_braid3_has_six_chambers():
    assert len(enumerate_chambers(braid3())) == 6


def test_i2_3_has_six_chambers():
    assert len(enumerate_chambers(kind("I2:3"))) == 6


def test_d2_has_four_chambers():
    assert len(enumerate_chambers(kind("D:2"))) == 4


def test_chambers_sorted_and_distinct():
    ch = enumerate_chambers(braid3())
    keys = [tuple(0 if s > 0 else 1 for s in c.signs) for c in ch]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_witness_reproduces_signs():
    for sel in ("A:3", "B:2", "D:3", "I2:5"):
        A = kind(sel)
        for c in enumerate_chambers(A):
            for s, h in zip(c.signs, A.hyperplanes):
                v = h.value_at(c.witness)
                assert v != 0 and (v > 0) == (s > 0)


def test_central_chambers_come_in_antipodal_pairs():
    for sel in ("A:3", "B:2", "D:3"):
        signs = {c.signs for c in enumerate_chambers(kind(sel))}
        for s in signs:
            assert tuple(-x for x in s) in signs


def test_hyperplane_guard():
    A = Arrangement(2, [Hyperplane.make([1, k], 0, f"w{k}") for k in range(5)])
    with pytest.raises(GuardExceededError):
        enumerate_chambers(A, max_hyperplanes=4)
    # the chambers cached under the default guard must not lift a smaller one
    assert len(enumerate_chambers(A)) == 10
    with pytest.raises(GuardExceededError, match="reached 5, limit 4"):
        enumerate_chambers(A, max_hyperplanes=4)


def test_chamber_guard_carries_count():
    A = Arrangement(2, [Hyperplane.make([1, k], 0, f"w{k}") for k in range(3)])
    with pytest.raises(GuardExceededError) as exc:
        enumerate_chambers(A, max_chambers=3)
    assert exc.value.count > 3


def test_affine_arrangement_chambers():
    # two parallel lines and a crossing one: 6 regions
    A = Arrangement(2, [
        Hyperplane.make([1, 0], 0, "a"),
        Hyperplane.make([1, 0], 1, "b"),
        Hyperplane.make([0, 1], 0, "c"),
    ])
    assert len(enumerate_chambers(A)) == 6


# ---------------------------------------------------------------------------
# canonical_edge
# ---------------------------------------------------------------------------


def test_edge_closure_in_braid3():
    e = canonical_edge(braid3(), {0, 1})
    assert e.containing == frozenset({0, 1, 2})
    assert e.dim == 1
    assert e.weight_monomial == Monomial.from_vars(["q_{1,2}", "q_{1,3}", "q_{2,3}"])
    assert e.multiplicity == 0


def test_single_hyperplane_edge():
    e = canonical_edge(braid3(), {0})
    assert e.containing == frozenset({0})
    assert e.dim == 2


def test_b2_cross_pair_forces_origin():
    B2 = kind("B:2")
    e = canonical_edge(B2, {0, 1})  # x1=x2 and x1=-x2
    assert e.containing == frozenset(range(4))
    assert e.dim == 0


def test_empty_subset_rejected():
    with pytest.raises(GeometryError):
        canonical_edge(braid3(), set())


def test_empty_intersection_error():
    A = Arrangement(2, [Hyperplane.make([1, 0], 0, "a"),
                        Hyperplane.make([1, 0], 1, "b")])
    with pytest.raises(EmptyIntersectionError):
        canonical_edge(A, {0, 1})


# ---------------------------------------------------------------------------
# faces
# ---------------------------------------------------------------------------


def test_face_wall_of_braid_chamber():
    A = braid3()
    ch = enumerate_chambers(A)
    c = ch[0]  # signs (+,+,+): x1 > x2 > x3
    assert c.signs == (1, 1, 1)
    assert face_of(A, c, 0) == frozenset({0})


def test_face_interval_collapse():
    A = braid3()
    c = enumerate_chambers(A)[0]
    # x1 = x3 forces x1 = x2 = x3 inside the closure
    assert face_of(A, c, 1) == frozenset({0, 1, 2})


def test_face_d2_ray():
    D2 = kind("D:2")
    chamber = next(c for c in enumerate_chambers(D2)
                   if c.signs == (1, 1))  # x1 > |x2|
    assert face_of(D2, chamber, 0) == frozenset({0})


def test_face_rejects_chamber_index_out_of_range():
    A = braid3()
    assert face_of(A, 5, 0) == face_of(A, enumerate_chambers(A)[5], 0)
    for bad in (-1, 6, 99):
        with pytest.raises(GeometryError, match="chamber index"):
            face_of(A, bad, 0)


def test_face_zeros_are_closed():
    # every hyperplane containing the edge a face spans vanishes on the face
    for sel in ("A:3", "B:2", "D:3", "I2:4"):
        A = kind(sel)
        for ci in range(len(enumerate_chambers(A))):
            for h in range(len(A.hyperplanes)):
                zeros = face_of(A, ci, h)
                assert canonical_edge(A, zeros).containing == zeros


def _cleared(values):
    """Rationals times the lcm of their denominators: an integer form for
    feasible_strict, scaled independently of the geometry's primitive rows."""
    den = lcm(*(Fraction(v).denominator for v in values))
    return tuple(int(v * den) for v in values)


def _face_of_lp(A, chamber, h):
    """The face scan by feasibility tests alone: the reference that
    geometry.face_of and its shortcuts are checked against.

    Returns the zeros of closure(chamber) meet H_h, or None when the closed
    chamber misses H_h.  i is a zero iff {H_h = 0, the chamber's inequalities
    weakened, sign_i H_i > 0} is infeasible.
    """
    def side(i, rel):
        hp = A.hyperplanes[i]
        s = chamber.signs[i]
        return _cleared(tuple(s * a for a in hp.normal) + (-s * hp.offset,)), rel

    hp = A.hyperplanes[h]
    eq = _cleared(hp.normal + (-hp.offset,))
    # H_h = 0 as two opposite weak inequalities
    weak = [(eq, ">="), (tuple(-v for v in eq), ">=")]
    weak += [side(i, ">=") for i in range(len(A.hyperplanes)) if i != h]
    if feasible_strict(weak, A.dimension) is None:
        return None
    return frozenset([h] + [i for i in range(len(A.hyperplanes))
                            if i != h and feasible_strict(
                                weak + [side(i, ">")], A.dimension) is None])


def _check_face_scan_against_reference(A):
    table = geometry._face_edge_table(A)
    for ci, c in enumerate(enumerate_chambers(A)):
        for h in range(len(A.hyperplanes)):
            zeros = _face_of_lp(A, c, h)
            assert table[(ci, h)] == zeros
            if zeros is None:
                with pytest.raises(EmptyFaceError):
                    face_of(A, ci, h)
            else:
                assert face_of(A, ci, h) == zeros


@pytest.mark.parametrize("sel", ["A:3", "B:2", "D:3", "I2:4"])
def test_face_scan_matches_lp_reference_on_families(sel):
    _check_face_scan_against_reference(kind(sel))


@given(small_arrangements())
@settings(max_examples=100, deadline=None)
def test_face_scan_matches_lp_reference_on_random_arrangements(A):
    _check_face_scan_against_reference(A)


@given(small_arrangements(max_dim=4))
@settings(max_examples=40, deadline=None)
def test_face_scan_matches_lp_reference_up_to_dimension_4(A):
    _check_face_scan_against_reference(A)


def _counting(calls):
    """feasible_strict, recording in `calls` the size of each system."""
    def counting(system, dim):
        calls.append(len(system))
        return feasible_strict(system, dim)
    return counting


# Rows summed over a face scan's systems.  Systems of every other chamber
# row, not the walls alone, summed 24,192 (D:4), 9,000 (A:5), 2,592 (B:3)
# and 384 (I2:8).
_FACE_SCAN_ROW_LIMITS = {"D:4": 10080, "A:5": 4500, "B:3": 1152, "I2:8": 144}


@pytest.mark.parametrize("sel,limit", [("D:4", 2016), ("A:5", 900), ("B:3", 288),
                                       ("I2:8", 48)])
def test_face_scan_feasibility_call_budget(sel, limit, monkeypatch):
    # the all-LP scan made 12,096 (D:4) and 4,920 (A:5) calls
    A = kind(sel)
    enumerate_chambers(A)
    calls = []
    monkeypatch.setattr(geometry, "feasible_strict", _counting(calls))
    geometry._face_edge_table(A)
    assert len(calls) <= limit
    assert sum(calls) <= _FACE_SCAN_ROW_LIMITS[sel]


def test_face_pairing_check_catches_even_count_corruption():
    # Move two facets at pivot 0 that are not reflections of each other to
    # the closed edge {0, 1, 2}: every per-edge count stays even, but each
    # moved chamber's reflection keeps the old face.
    A = braid3()
    chambers = enumerate_chambers(A)
    table = geometry._face_edge_table(A)
    facets = [ci for ci in range(len(chambers)) if table[(ci, 0)] == frozenset({0})]
    a = facets[0]
    mirror = (-chambers[a].signs[0],) + chambers[a].signs[1:]
    b = next(ci for ci in facets[1:] if chambers[ci].signs != mirror)
    table[(a, 0)] = table[(b, 0)] = frozenset({0, 1, 2})
    with pytest.raises(InternalConsistencyError):
        relevant_edges(A)


def _enumerate_chambers_lp(A):
    """Chamber enumeration with one feasibility test per candidate sign, on
    rows built from each hyperplane's normal and offset and Fraction
    witnesses: the reference geometry.enumerate_chambers is checked
    against.  A region's witness decides the side it lies on for free; every
    other candidate sign of a region costs one test.

    Returns the sign vectors in enumerate_chambers order.
    """
    def side(hp, s):
        return _cleared(tuple(s * a for a in hp.normal) + (-s * hp.offset,)), ">"

    regions = [((), (Fraction(0),) * A.dimension, [])]
    for hp in A.hyperplanes:
        split = []
        for signs, witness, rows in regions:
            v = hp.value_at(witness)
            s = 1 if v > 0 else -1 if v < 0 else 0
            for cand in ((s, -s) if s else (1, -1)):
                cand_rows = rows + [side(hp, cand)]
                if cand == s:
                    split.append((signs + (cand,), witness, cand_rows))
                    continue
                w = feasible_strict(cand_rows, A.dimension)
                if w is not None:
                    *xs, x0 = w
                    split.append((signs + (cand,), tuple(Fraction(x, x0) for x in xs),
                                  cand_rows))
        regions = split
    signs = sorted((r[0] for r in regions), key=lambda sv: tuple(0 if s > 0 else 1 for s in sv))
    return signs


def _check_enumeration_against_reference(A):
    ref_signs = _enumerate_chambers_lp(A)
    calls = []
    with mock.patch.object(geometry, "feasible_strict", _counting(calls)):
        chambers = enumerate_chambers(A)
    assert [c.signs for c in chambers] == ref_signs
    for c in chambers:
        for s, hp in zip(c.signs, A.hyperplanes):
            assert s * hp.value_at(c.witness) > 0
    # deletion-restriction enumerates without a feasibility test
    assert calls == []


@given(small_arrangements(max_dim=4))
@settings(max_examples=150, deadline=None)
def test_enumeration_matches_lp_reference_on_random_arrangements(A):
    _check_enumeration_against_reference(A)


def _seeded_arrangement(rng, shape):
    """A random integer arrangement of dimension 1-6 with up to 8
    hyperplanes, coefficients in [-3, 3], of the given shape:
      generic   normals and offsets drawn freely (central or not);
      lineality normals vanish on a random set of coordinates, so the
                arrangement is not essential;
      pencil    three or more hyperplanes through one codimension-2 flat,
                so restrictions to them coincide, plus free ones;
      parallel  families of hyperplanes sharing a normal.
    """
    dim = rng.randint(2 if shape == "pencil" else 1, 6)
    central = rng.random() < 0.4
    free = list(range(dim))
    if shape == "lineality" and dim > 1:
        free = rng.sample(free, rng.randint(1, dim - 1))

    def row():
        while True:
            n = [rng.randint(-3, 3) if j in free else 0 for j in range(dim)]
            if any(n):
                return n + [0 if central else rng.randint(-3, 3)]

    rows = []
    if shape == "pencil":
        P, Q = row(), row()
        for a, b in rng.sample([(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2)],
                               rng.randint(3, 5)):
            rows.append([a * x + b * y for x, y in zip(P, Q)])
    for _ in range(rng.randint(1, 8)):
        n = row()
        rows.append(n)
        if shape == "parallel":
            rows += [n[:-1] + [rng.randint(-3, 3)] for _ in range(rng.randint(1, 2))]
    hyps, keys = [], set()
    for r in rows:
        if len(hyps) == 8:
            break
        if not any(r[:-1]):
            continue
        h = Hyperplane.make(r[:-1], -r[-1], f"w{len(hyps)}")
        if line_key(h) not in keys:
            keys.add(line_key(h))
            hyps.append(h)
    return Arrangement(dim, hyps)


@pytest.mark.parametrize("shape", ["generic", "lineality", "pencil", "parallel"])
def test_enumeration_matches_lp_reference_on_seeded_arrangements(shape):
    rng = random.Random(f"enumeration-{shape}")
    for _ in range(40):
        _check_enumeration_against_reference(_seeded_arrangement(rng, shape))


@pytest.mark.parametrize("sel,fm_budget", [("A:5", 135), ("A:6", 1059), ("B:4", 756),
                                           ("D:4", 268)])
def test_enumeration_feasibility_call_budget(sel, fm_budget, monkeypatch):
    # Fourier-Motzkin enumeration was held to fm_budget feasibility tests
    # (one test per candidate sign made 2,898 on A:6 and 1,984 on B:4);
    # deletion-restriction makes none.  A fresh instance, because the
    # family's chambers may be cached already.
    family = kind(sel)
    A = Arrangement(family.dimension, family.hyperplanes)
    calls = []
    monkeypatch.setattr(geometry, "feasible_strict", _counting(calls))
    enumerate_chambers(A)
    assert calls == []


def test_restriction_marks_parallel_rows_with_a_constant_sign():
    # on x = 0: x - 1 is -1 and x + 2 is +2 everywhere; y is a hyperplane
    restricted, source, b, col = geometry._restriction(
        [(1, 0, -1), (1, 0, 2), (0, 1, 0)], (1, 0, 0), 2)
    assert (b, col) == ([1, 0, 0], 0)
    assert restricted == [(1, 0)]
    assert source == [(None, -1), (None, 1), (0, 1)]


def test_restriction_merges_coincident_rows_with_their_orientation():
    # on x = 1, given as -x + 1 = 0: y - x, 2y - x - 1 and x - y restrict to
    # y - 1 = 0, the last with the opposite sign; x + y restricts to y + 1
    restricted, source, b, col = geometry._restriction(
        [(-1, 1, 0), (-1, 2, -1), (1, -1, 0), (1, 1, 0)], (-1, 0, 1), 2)
    assert (b, col) == ([1, 0, -1], 0)
    assert restricted == [(1, -1), (1, 1)]
    assert source == [(0, 1), (0, 1), (0, -1), (1, 1)]


def _guard_parity_subject(sel):
    if sel == "affine":
        return Arrangement(2, [Hyperplane.make(n, c, w) for n, c, w in (
            ([1, 0], 0, "a"), ([1, 0], 1, "b"), ([0, 1], 0, "c"),
            ([1, 1], 2, "d"), ([1, -1], 0, "e"), ([0, 1], -1, "f"))])
    family = kind(sel)
    return Arrangement(family.dimension, family.hyperplanes)


@pytest.mark.parametrize("sel", ["A:5", "B:4", "affine"])
def test_chamber_guard_count_is_the_first_prefix_over_the_limit(sel):
    # every region of the first k hyperplanes contains a chamber of A, so the
    # reference's sign vectors cut to length k count that prefix's regions
    A = _guard_parity_subject(sel)
    ref_signs = _enumerate_chambers_lp(A)
    prefix_counts = [len({s[:k] for s in ref_signs}) for k in range(1, len(A.hyperplanes) + 1)]
    for limit in sorted({1, 2, 3, 5, 10, 50, 100, len(ref_signs) - 1}):
        if limit >= len(ref_signs):
            continue
        count = next(c for c in prefix_counts if c > limit)
        with pytest.raises(GuardExceededError) as exc:
            enumerate_chambers(_guard_parity_subject(sel), max_chambers=limit)
        assert (exc.value.count, exc.value.limit) == (count, limit)
        assert str(exc.value) == f"chamber guard exceeded: reached {count}, limit {limit}"
    assert len(enumerate_chambers(A, max_chambers=len(ref_signs))) == len(ref_signs)


@given(small_arrangements(max_dim=4, shapes=("central",)))
@settings(max_examples=100, deadline=None)
def test_central_chambers_mirror_with_negated_witnesses(A):
    chambers = enumerate_chambers(A)
    index = {c.signs: c for c in chambers}
    for c in chambers:
        mirror = index[tuple(-s for s in c.signs)]
        assert mirror.witness == tuple(-x for x in c.witness)


def test_empty_face_signal_for_affine_arrangement():
    A = Arrangement(1, [Hyperplane.make([1], 0, "a"),
                        Hyperplane.make([1], 1, "b")])
    ch = enumerate_chambers(A)  # x<0, 0<x<1, x>1
    left = next(c for c in ch if c.signs == (-1, -1))
    with pytest.raises(EmptyFaceError):
        face_of(A, left, 1)  # closure of x<0 misses x=1


# ---------------------------------------------------------------------------
# relevant edges and multiplicities
# ---------------------------------------------------------------------------


def test_braid3_relevant_edges():
    edges = relevant_edges(braid3())
    keys = {e.containing for e in edges}
    assert keys == {frozenset({0}), frozenset({1}), frozenset({2}), frozenset({0, 1, 2})}
    mults = {frozenset(e.containing): e.multiplicity for e in edges}
    assert mults[frozenset({0})] == 2
    assert mults[frozenset({0, 1, 2})] == 1


def test_braid5_disjoint_pair_edge_not_relevant():
    A5 = kind("A:5")
    idx = {h.weight: i for i, h in enumerate(A5.hyperplanes)}
    pair = frozenset({idx["q_{1,2}"], idx["q_{4,5}"]})
    e = canonical_edge(A5, pair)
    assert e.containing == pair
    assert all(edge.containing != pair for edge in relevant_edges(A5))
    assert multiplicity(A5, e) == 0
    assert multiplicity(A5, e, pivot=idx["q_{4,5}"]) == 0


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_i2_relevant_edges_and_multiplicities(m):
    A = kind(f"I2:{m}")
    edges = relevant_edges(A)
    assert len(edges) == m + 1
    origin = next(e for e in edges if e.dim == 0)
    assert origin.multiplicity == m - 2
    assert origin.containing == frozenset(range(m))
    for e in edges:
        if e.dim == 1:
            assert e.multiplicity == 2


def test_d3_zero_pair_edge_multiplicity_zero_via_either_pivot():
    D3 = kind("D:3")
    e = canonical_edge(D3, {0, 1})  # x1 = x2 = 0
    assert e.dim == 1
    for pivot in sorted(e.containing):
        assert multiplicity(D3, e, pivot) == 0


def test_multiplicity_rejects_pivot_outside_edge():
    A = braid3()
    e = canonical_edge(A, {0})
    with pytest.raises(GeometryError):
        multiplicity(A, e, pivot=1)


def test_pivot_independence():
    for sel in ("A:3", "A:4", "B:2", "B:3", "D:3", "I2:5"):
        A = kind(sel)
        for e in relevant_edges(A):
            values = {multiplicity(A, e, pivot) for pivot in e.containing}
            assert values == {e.multiplicity}


def test_partition_identity():
    # for each pivot hyperplane the generated-edge map is total on chambers
    # and the per-edge chamber counts (2 * multiplicity) sum to #chambers
    for sel in ("A:2", "A:3", "A:4", "B:2", "B:3", "D:2", "D:3",
                "I2:3", "I2:4", "I2:5", "I2:6"):
        A = kind(sel)
        n_chambers = len(enumerate_chambers(A))
        for pivot in range(len(A.hyperplanes)):
            seen = {}
            for ci in range(n_chambers):
                z = face_of(A, ci, pivot)
                seen[z] = seen.get(z, 0) + 1
            assert sum(seen.values()) == n_chambers
            for z, count in seen.items():
                assert count % 2 == 0
                assert count // 2 == multiplicity(A, canonical_edge(A, z), pivot)


def _check_chamber_free_identities(A):
    """For central A with N chambers and m hyperplanes: det M has degree N
    in each weight a_H, and the factored form has degree 2 l(E) in a_H for
    each relevant edge E on H, so (i) sum_{E on H} l(E) = N/2 for every H,
    and, summed over H, (ii) sum_E l(E) |A_E| = N m / 2."""
    n_chambers = len(enumerate_chambers(A))
    edges = relevant_edges(A)
    m = len(A.hyperplanes)
    for H in range(m):
        assert 2 * sum(e.multiplicity for e in edges if H in e.containing) == n_chambers
    assert 2 * sum(e.multiplicity * len(e.containing) for e in edges) == n_chambers * m


def _cone(A):
    """The cone over A: x . n = c becomes (n, -c) . (x, t) = 0 in one
    dimension more, and t = 0 is added."""
    hyps = [Hyperplane.make(h.normal + (-h.offset,), 0, h.weight) for h in A.hyperplanes]
    hyps.append(Hyperplane.make((0,) * A.dimension + (1,), 0, f"w{len(hyps)}"))
    return Arrangement(A.dimension + 1, hyps)


@pytest.mark.parametrize("sel", ["A:3", "A:4", "A:5", "B:3", "B:4", "D:4", "I2:7"])
def test_chamber_free_identities_on_families(sel):
    _check_chamber_free_identities(kind(sel))


@given(st.one_of(small_arrangements(max_dim=4, shapes=("central",)),
                 small_arrangements(shapes=("affine", "parallel")).map(_cone)))
@settings(max_examples=60, deadline=None)
def test_chamber_free_identities_on_random_central_arrangements_and_cones(A):
    assert A.central
    _check_chamber_free_identities(A)


# ---------------------------------------------------------------------------
# factored determinant
# ---------------------------------------------------------------------------


small_normals = st.lists(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2)),
    min_size=2, max_size=4).map(
    lambda raw: [v for v in raw if any(v)])


@given(small_normals)
@settings(max_examples=25, deadline=None)
def test_pivot_independence_on_random_central_arrangements(normals):
    hyps, seen = [], set()
    for k, normal in enumerate(normals):
        h = Hyperplane.make(list(normal), 0, f"w{k}")
        if line_key(h) in seen:
            continue
        seen.add(line_key(h))
        hyps.append(h)
    if len(hyps) < 2:
        return
    A = Arrangement(3, hyps)
    n_chambers = len(enumerate_chambers(A))
    for e in relevant_edges(A):
        assert {multiplicity(A, e, pivot) for pivot in e.containing} == {e.multiplicity}
    for pivot in range(len(hyps)):
        counts = {}
        for ci in range(n_chambers):
            z = face_of(A, ci, pivot)
            counts[z] = counts.get(z, 0) + 1
        assert sum(counts.values()) == n_chambers
        assert all(c % 2 == 0 for c in counts.values())


def test_factored_det_single_hyperplane():
    A = Arrangement(2, [Hyperplane.make([1, -1], 0, "q_{1,2}")])
    f = factored_determinant_general(A)
    assert f.factors == ((Monomial.from_vars(["q_{1,2}"]), 1),)


def test_factored_det_d2_is_tensor_square():
    f = factored_determinant_general(kind("D:2"))
    assert f.factors == (
        (Monomial.from_vars(["q_{-1,2}"]), 2),
        (Monomial.from_vars(["q_{1,2}"]), 2),
    )


@pytest.mark.parametrize("m", [2, 3, 5, 8])
def test_factored_det_i2_matches_display(m):
    assert factored_determinant_general(kind(f"I2:{m}")) == formula_I2(m)
