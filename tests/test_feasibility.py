from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varchenko.feasibility import DimensionMismatchError, feasible_strict


def check_witness(system, dim, witness):
    """witness is (x, x0), the homogeneous point x / x0 in lowest terms."""
    assert witness is not None
    *xs, x0 = witness
    assert len(xs) == dim and x0 >= 1 and gcd(*witness) == 1
    for form, rel in system:
        value = sum(a * Fraction(x, x0) for a, x in zip(form, xs)) + form[-1]
        assert value > 0 if rel == ">" else value >= 0


def equation(form):
    """form = 0 as the two opposite weak inequalities feasible_strict takes."""
    return [(tuple(form), ">="), (tuple(-v for v in form), ">=")]


def test_contradiction_infeasible():
    assert feasible_strict([((1, 0), ">"), ((-1, 0), ">")], 1) is None


def test_single_strict_feasible():
    system = [((1, 0), ">")]
    check_witness(system, 1, feasible_strict(system, 1))


def test_braid_all_plus_chamber_feasible():
    # x1 > x2 > x3 as the sign-(+,+,+) system of the three difference hyperplanes
    system = [((1, -1, 0, 0), ">"), ((1, 0, -1, 0), ">"), ((0, 1, -1, 0), ">")]
    w = feasible_strict(system, 3)
    check_witness(system, 3, w)
    x1, x2, x3, _ = w
    assert x1 > x2 > x3


def test_weak_boundary_point():
    system = [((1, 0), ">="), ((-1, 0), ">=")]
    w = feasible_strict(system, 1)
    assert w == (0, 1)


def test_strict_against_weak_infeasible():
    assert feasible_strict([((1, 0), ">"), ((-1, 0), ">=")], 1) is None


def test_equalities_substitute():
    system = equation((1, 0, -1)) + equation((0, 1, -2)) + [((1, 1, -3), ">=")]
    w = feasible_strict(system, 2)
    assert w == (1, 2, 1)


def test_equality_conflict():
    assert feasible_strict(equation((1, -1)) + equation((1, -2)), 1) is None


def test_equality_with_strict_violation():
    assert feasible_strict(equation((1, -1)) + [((-1, 0), ">")], 1) is None


@pytest.mark.parametrize("system,witness", [
    # 0 < x < 1 and 0 < 3y < x: the midpoints x = 1/2, y = 1/12
    ([((1, 0, 0), ">"), ((-1, 0, 1), ">"), ((0, 1, 0), ">"), ((1, -3, 0), ">")],
     (6, 1, 12)),
    # x > y with x otherwise free, 0 < y < 1: y = 1/2, x = y + 1
    ([((1, -1, 0), ">"), ((0, 1, 0), ">"), ((0, -1, 1), ">")], (3, 1, 2)),
    # x < y with x otherwise free, 0 < y < 1: y = 1/2, x = y - 1
    ([((-1, 1, 0), ">"), ((0, 1, 0), ">"), ((0, -1, 1), ">")], (-1, 1, 2)),
])
def test_witness_over_common_denominator(system, witness):
    # the midpoint of two bounds, lower bound + 1, upper bound - 1
    w = feasible_strict(system, 2)
    check_witness(system, 2, w)
    assert w == witness


@pytest.mark.parametrize("entry", [Fraction(1, 2), Fraction(2), 0.5, 1.0, True, False])
def test_non_integer_coefficients_rejected(entry):
    with pytest.raises(ValueError):
        feasible_strict([((entry, 1), ">")], 1)
    with pytest.raises(ValueError):
        feasible_strict([((1, entry), ">=")], 1)


def test_unbounded_direction():
    system = [((1, -1, 0), ">"), ((0, 1, -5), ">")]
    check_witness(system, 2, feasible_strict(system, 2))


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        feasible_strict([((1, 0, 0), ">")], 1)


def test_bad_relation():
    # equations are not taken: pass form = 0 as form >= 0 and -form >= 0
    for rel in ("<", "="):
        with pytest.raises(ValueError):
            feasible_strict([((1, 0), rel)], 1)


def test_constant_rows():
    assert feasible_strict([((0, 0, 1), ">")], 2) is not None
    assert feasible_strict([((0, 0, -1), ">=")], 2) is None
    assert feasible_strict([((0, 0, 0), ">")], 2) is None
    assert feasible_strict([((0, 0, 0), ">=")], 2) is not None


points = st.lists(st.fractions(min_value=-5, max_value=5), min_size=2, max_size=4)


@given(points,
       st.lists(st.tuples(
           st.lists(st.integers(-4, 4), min_size=2, max_size=4),
           st.sampled_from([">", ">=", "="])), min_size=1, max_size=8),
       st.data())
@settings(max_examples=150)
def test_systems_built_around_a_point_are_feasible(center, raw, data):
    """Soundness and completeness on constructed-feasible systems: take a
    random point, keep each random form on the side the point satisfies; an
    equation through the point enters as two opposite weak inequalities."""
    dim = len(center)
    system = []
    for coefs, rel in raw:
        coefs = (coefs + [0] * dim)[:dim]
        value = sum(Fraction(a) * x for a, x in zip(coefs, center))
        if rel == "=":
            system += equation(tuple(a * value.denominator for a in coefs)
                               + (-value.numerator,))
            continue
        if value == 0:
            form = tuple(coefs) + (0,)
            rel = ">="
        else:
            sign = 1 if value > 0 else -1
            form = tuple(sign * a for a in coefs) + (0,)
        system.append((form, rel))
    w = feasible_strict(system, dim)
    check_witness(system, dim, w)


@given(st.integers(2, 4), st.data())
@settings(max_examples=60)
def test_infeasible_by_strict_contradiction(dim, data):
    coefs = data.draw(st.lists(st.integers(-4, 4), min_size=dim, max_size=dim)
                      .filter(lambda c: any(c)))
    extra = data.draw(st.lists(st.tuples(
        st.lists(st.integers(-3, 3), min_size=dim, max_size=dim),
        st.sampled_from([">", ">="])), max_size=4))
    system = [(tuple(coefs) + (0,), ">"), (tuple(-a for a in coefs) + (0,), ">=")]
    system += [(tuple(c) + (0,), rel) for c, rel in extra]
    assert feasible_strict(system, dim) is None
