"""The package's record types: equal by value, immutable, and the four whose
constructors canonicalize or validate do so also under keyword arguments."""

from fractions import Fraction

import pytest

from varchenko import closedform, exactalg, families, geometry, harness
from varchenko.closedform import PrintedEdge
from varchenko.exactalg import ExactAlgError, FactoredProduct, Monomial
from varchenko.families import FamilyError, FamilyKind, build_family
from varchenko.geometry import Chamber, Edge, Hyperplane
from varchenko.harness import DetSource, FactoredDiff, Trial, VerificationReport

_A = Monomial.from_vars("a")
_AB = Monomial.from_vars("ab")
_BRAID = build_family(FamilyKind("A", 3))

# one factory per record type, with its first field; each call builds an
# equal, separate instance
RECORDS = [
    (lambda: Hyperplane.make((1, Fraction(1, 2)), 0, "a"), "normal"),
    (lambda: Chamber((1, -1), (Fraction(1), Fraction(-1, 3))), "signs"),
    (lambda: Edge(frozenset({0, 1}), 0, _AB, 1), "containing"),
    (lambda: PrintedEdge("equal", (1, 2), _AB, 2), "variant"),
    (lambda: FactoredDiff(((_A, 1, 2),)), "entries"),
    (lambda: Trial("0123456789abcdef", 3, 3, True), "assignment_digest"),
    (lambda: VerificationReport("s", "formula", "geometric", 7, 0,
                                (Trial("0123456789abcdef", 3, 3, True),), 4, "PASS",
                                FactoredDiff(())), "subject"),
    (lambda: Monomial((("b", 1), ("a", 2))), "powers"),
    (lambda: FactoredProduct(((_AB, 1), (_A, 2))), "factors"),
    (lambda: FamilyKind("B", 3), "letter"),
    (lambda: DetSource("x", factored=FactoredProduct(((_A, 1),))), "label"),
]


@pytest.mark.parametrize("make,field", RECORDS,
                         ids=[type(make()).__name__ for make, _ in RECORDS])
def test_records_are_immutable_values(make, field):
    a, b = make(), make()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert repr(a).startswith(f"{type(a).__name__}({field}=")
    for attr in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(a, attr, None)
    assert a == b


def test_records_cover_every_record_type_of_the_package():
    defined = {obj for module in (closedform, exactalg, families, geometry, harness)
               for obj in vars(module).values()
               if isinstance(obj, type) and issubclass(obj, tuple)
               and obj.__module__ == module.__name__}
    assert defined == {type(make()) for make, _ in RECORDS}


def test_monomial_keyword_construction_canonicalizes():
    m = Monomial(powers=(("b", 1), ("a", 2), ("b", 1), ("c", 0)))
    assert m.powers == (("a", 2), ("b", 2))
    assert m == Monomial((("a", 2), ("b", 2)))
    assert Monomial().powers == () and Monomial(powers=()) == Monomial()
    assert str(Monomial()) == "1"
    with pytest.raises(ExactAlgError):
        Monomial(powers=(("a", -1),))
    with pytest.raises(ExactAlgError):
        Monomial(powers=(("a", True),))
    with pytest.raises(ExactAlgError):
        Monomial(powers=(("q_{2,1}", 1),))


def test_factored_product_keyword_construction_canonicalizes():
    f = FactoredProduct(factors=((_AB, 1), (_A, 2), (_AB, 1), (Monomial.from_vars("c"), 0)))
    assert f.factors == ((_A, 2), (_AB, 2))
    assert f == FactoredProduct(((_A, 2), (_AB, 2)))
    assert FactoredProduct().factors == () and FactoredProduct(factors=()) == FactoredProduct()
    with pytest.raises(ExactAlgError):
        FactoredProduct(factors=((_A, -1),))
    with pytest.raises(ExactAlgError):
        FactoredProduct(factors=((_A, 1.0),))


def test_family_kind_keyword_construction_validates():
    assert FamilyKind(letter="A", param=3) == FamilyKind("A", 3)
    assert str(FamilyKind(letter="I2", param=5)) == "I2:5"
    with pytest.raises(FamilyError):
        FamilyKind(letter="E", param=3)
    with pytest.raises(FamilyError):
        FamilyKind(letter="A", param=1)


def test_det_source_keyword_construction_validates():
    f = FactoredProduct(((_A, 1),))
    assert DetSource("x", factored=f).factored == f
    assert DetSource(label="x", arrangement=_BRAID).arrangement is _BRAID
    with pytest.raises(ValueError):
        DetSource("x")
    with pytest.raises(ValueError):
        DetSource("x", factored=f, arrangement=_BRAID)
