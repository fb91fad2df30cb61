from math import comb, factorial

import pytest

from varchenko.closedform import printed_edges, signed_pair_weight, signed_subsets
from varchenko.exactalg import Monomial
from varchenko.families import (FamilyError, FamilyKind, build_family,
                                chambers_combinatorial)
from varchenko.geometry import (canonical_edge, enumerate_chambers, multiplicity,
                                relevant_edges)


def kind(s):
    return FamilyKind.parse(s)


def hyperplanes_of(A, e):
    """Indices in A of the hyperplanes whose weights make up the printed
    edge's monomial."""
    index_of = {name: i for i, name in enumerate(A.weight_names())}
    return frozenset(index_of[name] for name in e.monomial.variables())


# ---------------------------------------------------------------------------
# selectors and construction
# ---------------------------------------------------------------------------


def test_selector_grammar():
    k = kind("I2:7")
    assert (k.letter, k.param) == ("I2", 7)
    assert str(k) == "I2:7"
    for bad in ("E:3", "A", "A:x", "A:1", "B:-2", "A:3:4"):
        with pytest.raises(FamilyError):
            kind(bad)


def test_build_counts():
    assert len(build_family(kind("A:3")).hyperplanes) == 3
    assert build_family(kind("A:3")).dimension == 3
    assert len(build_family(kind("B:3")).hyperplanes) == 2 * comb(3, 2) + 3
    assert len(build_family(kind("D:4")).hyperplanes) == 2 * comb(4, 2)
    assert len(build_family(kind("I2:7")).hyperplanes) == 7


def test_b2_weight_order():
    assert build_family(kind("B:2")).weight_names() == (
        "q_{1,2}", "q_{-1,2}", "q_{1}", "q_{2}")


def test_i2_4_equals_b2_as_line_sets():
    lines_i2 = {h.primitive_key() for h in build_family(kind("I2:4")).hyperplanes}
    lines_b2 = {h.primitive_key() for h in build_family(kind("B:2")).hyperplanes}
    assert lines_i2 == lines_b2


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8, 9])
def test_i2_normals_in_strictly_increasing_angle_order(m):
    hyps = build_family(kind(f"I2:{m}")).hyperplanes
    normals = [h.normal for h in hyps]
    for x, y in normals:
        assert y > 0 or (y == 0 and x > 0)  # upper half plane, angle in [0, pi)
    for i in range(len(normals)):
        for j in range(i + 1, len(normals)):
            (a, b), (c, d) = normals[i], normals[j]
            assert a * d - b * c > 0  # cross product: angle(j) > angle(i)


# ---------------------------------------------------------------------------
# combinatorial chambers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("sel,count", [
    ("A:2", 2), ("A:3", 6), ("A:4", 24),
    ("B:2", 8), ("B:3", 48),
    ("D:2", 4), ("D:3", 24),
])
def test_chamber_counts(sel, count):
    k = kind(sel)
    n = k.param
    expect = {"A": factorial(n), "B": 2**n * factorial(n),
              "D": 2**(n - 1) * factorial(n)}[k.letter]
    assert expect == count
    assert len(chambers_combinatorial(k)) == count


@pytest.mark.parametrize("sel", ["A:2", "A:3", "A:4", "B:2", "B:3", "D:2", "D:3"])
def test_combinatorial_matches_geometric(sel):
    k = kind(sel)
    comb_ch = chambers_combinatorial(k)
    geo_ch = enumerate_chambers(build_family(k))
    assert len(comb_ch) == len(geo_ch)
    assert {c.signs for c in comb_ch} == {c.signs for c in geo_ch}


def test_combinatorial_witnesses_are_integral():
    for c in chambers_combinatorial(kind("B:3")):
        assert all(x.denominator == 1 for x in c.witness)


def test_combinatorial_rejects_i2():
    with pytest.raises(FamilyError):
        chambers_combinatorial(kind("I2:5"))


# ---------------------------------------------------------------------------
# signed subsets
# ---------------------------------------------------------------------------


def test_signed_subsets_of_rank_three():
    got = set(signed_subsets(3))
    expect = {
        (1,), (2,), (3,),
        (1, 2), (-1, 2), (1, 3), (-1, 3), (2, 3), (-2, 3),
        (1, 2, 3), (-1, 2, 3), (-1, -2, 3), (1, -2, 3),
    }
    assert got == expect
    assert len(list(signed_subsets(3))) == 13


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_signed_subset_counts(n):
    for k in range(1, n + 1):
        assert sum(1 for s in signed_subsets(n) if len(s) == k) == comb(n, k) * 2**(k - 1)
    assert all(s[-1] > 0 and [abs(e) for e in s] == sorted({abs(e) for e in s})
               for s in signed_subsets(n))


def test_signed_pair_weight():
    assert signed_pair_weight(1, 2) == "q_{1,2}"
    assert signed_pair_weight(-1, 2) == "q_{-1,2}"
    assert signed_pair_weight(-2, -3) == "q_{2,3}"
    assert signed_pair_weight(3, -1) == "q_{-1,3}"
    with pytest.raises(FamilyError):
        signed_pair_weight(2, -2)


# ---------------------------------------------------------------------------
# printed edges
# ---------------------------------------------------------------------------


def test_braid_descriptors_rank_three():
    es = printed_edges(kind("A:3"))
    assert [(e.variant, e.entries) for e in es] == [
        ("equal", (1, 2)), ("equal", (1, 3)), ("equal", (2, 3)),
        ("equal", (1, 2, 3)),
    ]


def test_b2_descriptor_count_matches_geometry():
    k = kind("B:2")
    A = build_family(k)
    es = printed_edges(k)
    assert len(es) == 5  # 2 signed pairs + 3 zero sets
    geo = relevant_edges(A)
    assert len(geo) == 5
    assert {hyperplanes_of(A, e) for e in es} == {g.containing for g in geo}


def test_zero_set_weight_monomial():
    e = next(e for e in printed_edges(kind("B:2"))
             if e.variant == "zero_set" and e.entries == (1, 2))
    assert e.monomial == Monomial.from_vars(["q_{1}", "q_{2}", "q_{1,2}", "q_{-1,2}"])


@pytest.mark.parametrize("sel", ["A:2", "A:3", "A:4", "B:2", "B:3", "B:4",
                                 "D:2", "D:3", "D:4"])
def test_descriptor_weights_match_geometric_edges(sel):
    A = build_family(kind(sel))
    for e in printed_edges(kind(sel)):
        hset = hyperplanes_of(A, e)
        g = canonical_edge(A, hset)
        assert g.containing == hset  # printed hyperplane sets are closed
        assert g.weight_monomial == e.monomial


@pytest.mark.parametrize("sel", ["A:2", "A:3", "A:4", "B:2", "B:3"])
def test_descriptors_enumerate_relevant_edges_for_a_and_b(sel):
    A = build_family(kind(sel))
    geo = {g.containing for g in relevant_edges(A)}
    assert {hyperplanes_of(A, e) for e in printed_edges(kind(sel))} == geo


@pytest.mark.parametrize("sel", ["D:2", "D:3"])
def test_d_descriptors_cover_relevant_edges(sel):
    # the D zero sets of size < n have geometric multiplicity 0, so the
    # printed edges are a strict superset of the relevant edges
    A = build_family(kind(sel))
    geo = {g.containing for g in relevant_edges(A)}
    assert geo <= {hyperplanes_of(A, e) for e in printed_edges(kind(sel))}


# ---------------------------------------------------------------------------
# printed multiplicities
# ---------------------------------------------------------------------------


def test_printed_multiplicity_braid():
    e = next(e for e in printed_edges(kind("A:4")) if e.entries == (1, 2))
    assert e.exponent == factorial(0) * factorial(3)


def test_printed_multiplicity_b_origin_matches_i2_4():
    e = next(e for e in printed_edges(kind("B:2"))
             if e.variant == "zero_set" and e.entries == (1, 2))
    assert e.exponent == 2  # equals the I2(4) origin exponent


def test_printed_multiplicity_d_differs_from_engine():
    k = kind("D:3")
    e = next(e for e in printed_edges(k)
             if e.variant == "signed_equal" and e.entries == (1, 2, 3))
    assert e.exponent == 1  # printed value
    A = build_family(k)
    assert multiplicity(A, canonical_edge(A, hyperplanes_of(A, e))) == 2  # engine ground truth


def test_binomial_identity_ties_braid_exponent_to_single_variable_form():
    for n in range(2, 13):
        for i in range(2, n + 1):
            lhs = comb(n, i) * factorial(i - 2) * factorial(n - i + 1)
            assert lhs * (i * i - i) == factorial(n) * (n - i + 1)
