import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varchenko import exactalg
from varchenko.exactalg import (_MR_BASES, DEFAULT_PRIME, BadVariableNameError,
                                ExactAlgError, FactoredProduct, MissingVariableError,
                                Monomial, NotPrimeError, PrimeField,
                                factored_eval, factored_specialize_all,
                                is_prime, pair_var, single_var, validate_var)
from varchenko.harness import trial_assignment

F = PrimeField(DEFAULT_PRIME)

VARS = ["q_{1,2}", "q_{1,3}", "q_{2,3}", "q_{-1,2}", "q_{1}", "q_{2}"]


def mono(*names):
    return Monomial.from_vars(names)


monomials = st.dictionaries(st.sampled_from(VARS), st.integers(1, 4), max_size=4).map(
    Monomial.from_dict)
factor_lists = st.lists(st.tuples(monomials, st.integers(0, 5)), max_size=5)
factored_products = factor_lists.map(lambda fs: FactoredProduct(tuple(fs)))


# ---------------------------------------------------------------------------
# variable names
# ---------------------------------------------------------------------------


def test_var_constructors_round_trip():
    assert pair_var(1, 2) == "q_{1,2}"
    assert pair_var(1, 2, negated=True) == "q_{-1,2}"
    assert single_var(3) == "q_{3}"
    for name in VARS:
        assert validate_var(name) == name


def test_var_grammar_rejects_bad_names():
    for bad in ["q_{2,1}", "q_{0,1}", "q_{1,1}", "q_{0}", "q_{-1}", "q{1,2}",
                "1abc", "a b", ""]:
        with pytest.raises(BadVariableNameError):
            validate_var(bad)


def test_user_identifiers_allowed():
    assert validate_var("w0") == "w0"
    assert validate_var("_weight") == "_weight"


# ---------------------------------------------------------------------------
# prime field
# ---------------------------------------------------------------------------


def test_primality_check():
    assert is_prime(2) and is_prime(DEFAULT_PRIME) and is_prime(10**9 + 7)
    assert not is_prime(1) and not is_prime(4) and not is_prime(2**61 + 1)
    # 10009 - 1 = 2^3 * 1251 and 65537 - 1 = 2^16, so each base squares
    # its way to n - 1; 3215031751 fools the bases 2-7 and
    # 3825123056546413051 the bases 2-31, so a later base must reject them
    assert is_prime(10009) and is_prime(65537)
    assert not is_prime(41 * 43)
    assert not is_prime(3215031751) and not is_prime(3825123056546413051)
    for bad in (4, 1, 0, -7, 1 << 63, 1763):
        with pytest.raises(NotPrimeError):
            PrimeField(bad)


def test_prime_field_tests_every_modulus_but_the_default(monkeypatch):
    with pytest.raises(NotPrimeError):
        PrimeField(2**61 + 1)

    def refuse(n):
        raise AssertionError(f"is_prime({n})")

    monkeypatch.setattr(exactalg, "is_prime", refuse)
    assert PrimeField(DEFAULT_PRIME).p == DEFAULT_PRIME
    with pytest.raises(AssertionError, match=r"is_prime\(7\)"):
        PrimeField(7)


def _is_prime_12_bases(n):
    """Reference: Miller-Rabin on the prime bases 2-37, exact below
    psi_12 = 318665857834031151167461, the least strong pseudoprime to all."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for p in bases:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n):
    factors, p = set(), 2
    while p * p <= n:
        while n % p == 0:
            factors.add(p)
            n //= p
        p += 1
    return factors | ({n} if n > 1 else set())


def test_is_prime_matches_the_12_base_reference():
    # the seven bases skip a base that n divides, so the primes dividing a
    # base (73 divides 28178) are the cases a missing reduction gets wrong
    divisors = set().union(*(_prime_factors(a) for a in _MR_BASES))
    assert 73 in divisors
    rng = random.Random(20141106)
    odd = [rng.randrange(1, 1 << 62) | 1 for _ in range(20000)]
    for n in [*range(-2, 200000), *odd, 561, 41041, 3215031751,
              3825123056546413051, *divisors]:
        assert is_prime(n) == _is_prime_12_bases(n), n


@given(st.fractions(), st.fractions(), st.fractions())
def test_rational_field_axioms(a, b, c):
    # Fraction is the package's Rational: exact, canonical, unbounded.
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a


def test_fraction_canonical_form():
    x = Fraction(6, -4)
    assert x.denominator > 0
    assert (abs(x.numerator), x.denominator) == (3, 2)


# ---------------------------------------------------------------------------
# factored products
# ---------------------------------------------------------------------------


def test_canonicalize_merges_equal_monomials():
    f = FactoredProduct(((mono("q_{1,2}"), 1), (mono("q_{1,2}"), 1)))
    assert f.factors == ((mono("q_{1,2}"), 2),)


def test_canonicalize_sorts():
    f = FactoredProduct(((mono("q_{1,3}"), 2), (mono("q_{1,2}"), 2)))
    assert f.factors == ((mono("q_{1,2}"), 2), (mono("q_{1,3}"), 2))


def test_canonicalize_drops_zero_exponents():
    f = FactoredProduct(((mono("q_{1,2}"), 0),))
    assert f.factors == ()


@given(factored_products)
def test_canonicalize_idempotent(f):
    again = FactoredProduct(f.factors)
    assert again == f and again.factors == f.factors


@given(factor_lists, st.data())
def test_reordered_or_split_factor_lists_build_equal_products(fs, data):
    split = []
    for m, e in fs:
        k = data.draw(st.integers(0, e))
        split += [(m, k), (m, e - k)]
    g = FactoredProduct(tuple(data.draw(st.permutations(split))))
    f = FactoredProduct(tuple(fs))
    assert f == g and hash(f) == hash(g)


@given(factor_lists, st.integers(0, 10**6))
@settings(max_examples=30)
def test_canonicalize_preserves_eval(fs, salt):
    f = FactoredProduct(tuple(fs))
    names = {name for m, _ in fs for name in m.variables()} | set(VARS)
    for k in range(20):
        assignment = trial_assignment(names, salt, k, F.p)
        raw = 1
        for m, e in fs:
            v = m.eval(assignment, F)
            raw = raw * pow(1 - v * v, e, F.p) % F.p
        assert factored_eval(f, assignment, F) == raw


@pytest.mark.parametrize("bad", [2.5, 2.0, "3", True, -1])
def test_factor_exponent_must_be_nonnegative_int(bad):
    with pytest.raises(ExactAlgError):
        FactoredProduct(((mono("q_{1,2}"), bad),))


@pytest.mark.parametrize("bad", [2.5, "3", True])
def test_json_exponent_not_coerced(bad):
    obj = {"factors": [{"monomial": [["q_{1,2}", 1]], "exponent": bad}]}
    with pytest.raises(ExactAlgError):
        FactoredProduct.from_json_obj(obj)


@pytest.mark.parametrize("bad", [1.5, "2", True, -1])
def test_monomial_power_must_be_nonnegative_int(bad):
    with pytest.raises(ExactAlgError):
        Monomial.from_dict({"q_{1}": bad})
    with pytest.raises(ExactAlgError):
        Monomial((("q", bad),))


def test_monomial_canonical_on_construction():
    assert Monomial((("b", 1), ("a", 1))) == Monomial.from_vars(["a", "b"])
    assert Monomial((("a", 1), ("b", 2), ("a", 1), ("c", 0))) == Monomial.from_dict(
        {"a": 2, "b": 2})
    with pytest.raises(ExactAlgError):
        Monomial((("1bad", 1),))


def test_eval_zero_weights_give_one():
    f = FactoredProduct(((mono("q_{1,2}"), 1),))
    assert factored_eval(f, {"q_{1,2}": 0}, F) == 1


def test_eval_weight_one_gives_zero():
    f = FactoredProduct(((mono("q_{1,2}"), 1),))
    assert factored_eval(f, {"q_{1,2}": 1}, F) == 0


def test_eval_rank_two_braid_formula_at_equal_weights():
    # prod over pair subsets (1-q^2)^2 times (1-q^6): direct expansion oracle.
    f = FactoredProduct((
        (mono("q_{1,2}"), 2), (mono("q_{1,3}"), 2), (mono("q_{2,3}"), 2),
        (mono("q_{1,2}", "q_{1,3}", "q_{2,3}"), 1),
    ))
    for r in (2, 3, 1234567, DEFAULT_PRIME - 2):
        expect = pow(1 - r * r, 6, F.p) * (1 - pow(r, 6, F.p)) % F.p
        got = factored_eval(f, {v: r for v in ("q_{1,2}", "q_{1,3}", "q_{2,3}")}, F)
        assert got == expect


def test_eval_missing_variable_names_first_uncovered():
    f = FactoredProduct(((mono("q_{1,2}", "q_{1,3}"), 1),))
    with pytest.raises(MissingVariableError) as exc:
        factored_eval(f, {"q_{1,2}": 5}, F)
    assert exc.value.name == "q_{1,3}"


@given(factored_products, st.integers(0, 10**6))
@settings(max_examples=30)
def test_eval_depends_only_on_support(f, salt):
    support = set(f.variables())
    a1 = trial_assignment(support, salt, 0, F.p)
    a2 = dict(a1)
    a2["unused_extra"] = 12345
    assert factored_eval(f, a1, F) == factored_eval(f, a2, F)


def test_specialize_degree_collapse():
    f = FactoredProduct(((mono("q_{1,2}", "q_{1,3}", "q_{2,3}"), 1),))
    assert factored_specialize_all(f, "q").factors == ((Monomial((("q", 3),)), 1),)


def test_specialize_empty():
    assert factored_specialize_all(FactoredProduct(()), "q").factors == ()


@given(factored_products, st.integers(1, DEFAULT_PRIME - 1))
@settings(max_examples=30)
def test_specialize_then_eval_equals_constant_assignment(f, r):
    spec = factored_specialize_all(f, "q")
    lhs = factored_eval(spec, {"q": r}, F)
    rhs = factored_eval(f, {n: r for n in f.variables()}, F)
    assert lhs == rhs


def test_factored_json_round_trip():
    f = FactoredProduct(((mono("q_{1,2}", "q_{1,3}"), 2), (mono("q_{1}"), 1)))
    assert FactoredProduct.from_json_obj(f.to_json_obj()) == f
