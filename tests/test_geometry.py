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
                                InternalConsistencyError, canonical_edge,
                                enumerate_chambers, face_of,
                                factored_determinant_general, multiplicity,
                                relevant_edges)


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
    f = face_of(A, c, 0)
    assert f.zeros == frozenset({0})


def test_face_interval_collapse():
    A = braid3()
    c = enumerate_chambers(A)[0]
    f = face_of(A, c, 1)  # x1 = x3 forces x1 = x2 = x3 inside the closure
    assert f.zeros == frozenset({0, 1, 2})


def test_face_d2_ray():
    D2 = kind("D:2")
    chamber = next(c for c in enumerate_chambers(D2)
                   if c.signs == (1, 1))  # x1 > |x2|
    f = face_of(D2, chamber, 0)
    assert f.zeros == frozenset({0})
    w = f.relint_witness
    assert D2.hyperplanes[0].value_at(w) == 0
    assert D2.hyperplanes[1].value_at(w) > 0


def test_face_rejects_chamber_index_out_of_range():
    A = braid3()
    assert face_of(A, 5, 0).chamber_index == 5
    for bad in (-1, 6, 99):
        with pytest.raises(GeometryError, match="chamber index"):
            face_of(A, bad, 0)


def test_face_witness_exactly_realizes_zeros():
    # witness lies on every zero hyperplane and strictly off every other;
    # with closure of the zeros set this pins dim(face) = dim(edge)
    for sel in ("A:3", "B:2", "D:3", "I2:4"):
        A = kind(sel)
        for ci, c in enumerate(enumerate_chambers(A)):
            for h in range(len(A.hyperplanes)):
                f = face_of(A, ci, h)
                for i, hp in enumerate(A.hyperplanes):
                    v = hp.value_at(f.relint_witness)
                    if i in f.zeros:
                        assert v == 0
                    else:
                        assert c.signs[i] * v > 0
                e = canonical_edge(A, f.zeros)
                assert e.containing == f.zeros


def _line_key(h):
    """(normal, offset) divided by the first nonzero normal entry: the same
    tuple for proportional equations, so one key per affine set."""
    first = next(a for a in h.normal if a)
    return tuple(v / first for v in (*h.normal, h.offset))


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
    eq = (_cleared(hp.normal + (-hp.offset,)), "=")
    weak = [side(i, ">=") for i in range(len(A.hyperplanes)) if i != h]
    if feasible_strict([eq] + weak, A.dimension) is None:
        return None
    return frozenset([h] + [i for i in range(len(A.hyperplanes))
                            if i != h and feasible_strict(
                                [eq] + weak + [side(i, ">")], A.dimension) is None])


def _check_face_scan_against_reference(A):
    table = geometry._face_edge_table(A)
    for ci, c in enumerate(enumerate_chambers(A)):
        for h in range(len(A.hyperplanes)):
            zeros = _face_of_lp(A, c, h)
            assert table[(ci, h)] == zeros
            if zeros is None:
                with pytest.raises(EmptyFaceError):
                    face_of(A, ci, h)
                continue
            f = face_of(A, ci, h)
            assert f.zeros == zeros
            for i, hp in enumerate(A.hyperplanes):
                v = hp.value_at(f.relint_witness)
                assert v == 0 if i in zeros else c.signs[i] * v > 0


@pytest.mark.parametrize("sel", ["A:3", "B:2", "D:3", "I2:4"])
def test_face_scan_matches_lp_reference_on_families(sel):
    _check_face_scan_against_reference(kind(sel))


@st.composite
def small_arrangements(draw, max_dim=3):
    """Integer arrangements in dimension 1-max_dim: central, affine, or
    affine with a parallel partner drawn for some hyperplanes."""
    dim = draw(st.integers(1, max_dim))
    shape = draw(st.sampled_from(["central", "affine", "parallel"]))
    coef = st.integers(-2, 2)
    normals = draw(st.lists(st.tuples(*[coef] * dim).filter(any), min_size=1, max_size=4))
    hyps, keys = [], set()
    for normal in normals:
        offsets = [0] if shape == "central" else [draw(coef)]
        if shape == "parallel" and draw(st.booleans()):
            offsets.append(draw(coef))
        for offset in offsets:
            h = Hyperplane.make(list(normal), offset, f"w{len(hyps)}")
            if _line_key(h) not in keys:
                keys.add(_line_key(h))
                hyps.append(h)
    return Arrangement(dim, hyps)


@given(small_arrangements())
@settings(max_examples=100, deadline=None)
def test_face_scan_matches_lp_reference_on_random_arrangements(A):
    _check_face_scan_against_reference(A)


def _counting(calls):
    """feasible_strict, recording in `calls` the size of each system."""
    def counting(system, dim):
        calls.append(len(system))
        return feasible_strict(system, dim)
    return counting


@pytest.mark.parametrize("sel,limit", [("D:4", 2016), ("A:5", 900)])
def test_face_scan_feasibility_call_budget(sel, limit, monkeypatch):
    # the all-LP scan made 12,096 (D:4) and 4,920 (A:5) calls
    A = kind(sel)
    enumerate_chambers(A)
    calls = []
    monkeypatch.setattr(geometry, "feasible_strict", _counting(calls))
    geometry._face_edge_table(A)
    assert len(calls) <= limit


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

    Returns the sign vectors in enumerate_chambers order and the number of
    feasibility tests.
    """
    def side(hp, s):
        return _cleared(tuple(s * a for a in hp.normal) + (-s * hp.offset,)), ">"

    regions = [((), (Fraction(0),) * A.dimension, [])]
    tests = 0
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
                tests += 1
                w = feasible_strict(cand_rows, A.dimension)
                if w is not None:
                    nums, den = w
                    split.append((signs + (cand,), tuple(Fraction(x, den) for x in nums),
                                  cand_rows))
        regions = split
    signs = sorted((r[0] for r in regions), key=lambda sv: tuple(0 if s > 0 else 1 for s in sv))
    return signs, tests


@given(small_arrangements(max_dim=4))
@settings(max_examples=150, deadline=None)
def test_enumeration_matches_lp_reference_on_random_arrangements(A):
    ref_signs, ref_tests = _enumerate_chambers_lp(A)
    calls = []
    with mock.patch.object(geometry, "feasible_strict", _counting(calls)):
        chambers = enumerate_chambers(A)
    assert [c.signs for c in chambers] == ref_signs
    for c in chambers:
        for s, hp in zip(c.signs, A.hyperplanes):
            assert s * hp.value_at(c.witness) > 0
    # Both enumerators split the same regions, and a split whose witness lies
    # on the new hyperplane costs the reference two tests and this one none.
    # Enumeration starts at the origin, so a first hyperplane through it is
    # such a split.
    if A.hyperplanes[0].offset == 0:
        assert len(calls) < ref_tests
    else:
        assert len(calls) <= ref_tests


@pytest.mark.parametrize("sel,limit", [("A:6", 2118), ("B:4", 1512)])
def test_enumeration_feasibility_call_budget(sel, limit, monkeypatch):
    # one test per candidate sign made 2,898 (A:6) and 1,984 (B:4) calls; a
    # fresh instance, because the family's chambers may be cached already
    family = kind(sel)
    A = Arrangement(family.dimension, family.hyperplanes)
    calls = []
    monkeypatch.setattr(geometry, "feasible_strict", _counting(calls))
    enumerate_chambers(A)
    # enumeration must keep calling the traced name, or its counters go dark
    assert 0 < len(calls) <= limit


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
                z = face_of(A, ci, pivot).zeros
                seen[z] = seen.get(z, 0) + 1
            assert sum(seen.values()) == n_chambers
            for z, count in seen.items():
                assert count % 2 == 0
                assert count // 2 == multiplicity(A, canonical_edge(A, z), pivot)


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
        if _line_key(h) in seen:
            continue
        seen.add(_line_key(h))
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
            z = face_of(A, ci, pivot).zeros
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
