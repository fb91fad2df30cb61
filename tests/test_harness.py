import pytest

from varchenko.closedform import formula_A, formula_D, formula_I2
from varchenko.exactalg import DEFAULT_PRIME, NotPrimeError
from varchenko.families import FamilyKind, build_family
from varchenko.geometry import factored_determinant_general
from varchenko.harness import (SOURCES, DetSource, ParseError, bruteforce_source,
                               compare_factored, draw_nonzero,
                               parse_arrangement_file, source,
                               trial_assignment, trial_stream, verify_identity)


def kind(s):
    return build_family(FamilyKind.parse(s))


# ---------------------------------------------------------------------------
# random streams
# ---------------------------------------------------------------------------


def test_trial_streams_are_reproducible():
    a = [trial_stream(7, 3).next64() for _ in range(4)]
    b = [trial_stream(7, 3).next64() for _ in range(4)]
    assert a == b


def test_trial_streams_differ_between_trials():
    xs = [trial_stream(0, t).next64() for t in range(6)]
    assert len(set(xs)) == 6


def test_draw_nonzero_range():
    rng = trial_stream(1, 0)
    for _ in range(200):
        v = draw_nonzero(rng, DEFAULT_PRIME)
        assert 1 <= v <= DEFAULT_PRIME - 1
    rng = trial_stream(1, 1)
    seen = {draw_nonzero(rng, 5) for _ in range(100)}
    assert seen == {1, 2, 3, 4}


# ---------------------------------------------------------------------------
# compare_factored
# ---------------------------------------------------------------------------


def test_compare_factored_reflexive():
    f = formula_A(4)
    assert compare_factored(f, f).is_empty()


def test_compare_factored_braid_formula_vs_geometry_empty():
    assert compare_factored(formula_A(3), factored_determinant_general(kind("A:3"))).is_empty()


def test_compare_factored_d3_includes_pair_exponent_mismatch():
    diff = compare_factored(formula_D(3), factored_determinant_general(kind("D:3")))
    assert not diff.is_empty()
    by_mono = {str(m): (a, b) for m, a, b in diff.entries}
    assert by_mono["q_{1,2}"] == (4, 6)


# ---------------------------------------------------------------------------
# verify_identity
# ---------------------------------------------------------------------------


def test_verify_source_against_itself_passes():
    src = DetSource("formula", factored=formula_A(4))
    report = verify_identity(src, src, trials=3, subject="A:4")
    assert report.verdict == "PASS"
    assert all(t.equal for t in report.trials)


def test_verify_geometric_vs_bruteforce_braid4():
    A = kind("A:4")
    report = verify_identity(
        DetSource("geometric", factored=factored_determinant_general(A)),
        bruteforce_source(A), trials=5, subject="A:4")
    assert report.verdict == "PASS"
    assert len(report.trials) == 5


def test_verify_printed_d2_formula_fails_with_witness():
    report = verify_identity(
        DetSource("formula", factored=formula_D(2)),
        bruteforce_source(kind("D:2")), trials=3, subject="D:2")
    assert report.verdict == "FAIL"
    witness_trials = [t for t in report.trials if not t.equal]
    assert witness_trials  # at least one witness point recorded
    assert all(t.lhs_value != t.rhs_value for t in witness_trials)


def test_verify_i2_6_formula_passes():
    report = verify_identity(
        DetSource("formula", factored=formula_I2(6)),
        bruteforce_source(kind("I2:6")), trials=5, subject="I2:6")
    assert report.verdict == "PASS"


def test_verify_reports_are_byte_identical_across_runs():
    def run():
        return verify_identity(
            DetSource("formula", factored=formula_I2(5)),
            bruteforce_source(kind("I2:5")),
            trials=4, seed=11, subject="I2:5").to_json()
    assert run() == run()


def test_verify_seed_changes_assignments():
    src = DetSource("formula", factored=formula_A(3))
    r0 = verify_identity(src, src, trials=2, seed=0)
    r1 = verify_identity(src, src, trials=2, seed=1)
    assert [t.assignment_digest for t in r0.trials] != \
           [t.assignment_digest for t in r1.trials]


def test_report_fields_and_error_bound():
    A = kind("A:3")
    f = factored_determinant_general(A)
    report = verify_identity(DetSource("geometric", factored=f),
                             bruteforce_source(A), trials=5, subject="A:3")
    assert report.degree_bound == 18
    note = report.error_bound_note()
    assert note["per_trial"] == f"18/{DEFAULT_PRIME}"
    assert note["all_trials"] == f"(18/{DEFAULT_PRIME})^5"
    assert note["decimal"].startswith("<= 1e-")
    assert report.factored_diff is None  # one side is not factored
    obj = report.to_json_obj()
    assert obj["verdict"] == "PASS" and obj["trial_count"] == 5


def test_factored_diff_attached_when_both_sides_factored():
    report = verify_identity(
        DetSource("formula", factored=formula_D(2)),
        DetSource("geometric", factored=factored_determinant_general(kind("D:2"))),
        trials=2, subject="D:2")
    assert report.verdict == "FAIL"
    assert report.factored_diff is not None and not report.factored_diff.is_empty()


def test_trial_assignment_draws_in_sorted_name_order():
    rng = trial_stream(4, 2)
    expect = {name: draw_nonzero(rng, 101) for name in ("a", "b", "c")}
    assert trial_assignment(("c", "a", "b"), 4, 2, 101) == expect


def test_source_by_name():
    A = kind("A:3")
    k = FamilyKind.parse("A:3")
    made = {name: source(name, A, k) for name in SOURCES}
    assert [s.label for s in made.values()] == list(SOURCES)
    assert made["formula"].factored == formula_A(3)
    assert made["geometric"].factored == factored_determinant_general(A)
    assert made["bruteforce"].arrangement is A
    assert all(s.variables() == A.weight_names() for s in made.values())


def test_source_rejects_unknown_name_and_formula_without_kind():
    A = kind("A:3")
    with pytest.raises(ValueError, match="unknown source"):
        source("matrix", A)
    with pytest.raises(ValueError, match="needs a family kind"):
        source("formula", A)


def test_verify_rejects_bad_parameters():
    src = DetSource("formula", factored=formula_A(3))
    with pytest.raises(ValueError):
        verify_identity(src, src, trials=0)
    with pytest.raises(NotPrimeError):
        verify_identity(src, src, trials=1, prime=10)


# ---------------------------------------------------------------------------
# arrangement files
# ---------------------------------------------------------------------------

GOOD = """\
# the rank-two braid arrangement
dim 3
hyperplane 1 -1 0 0 q_{1,2}
hyperplane 1 0 -1 0 q_{1,3}
hyperplane 0 1 -1 0 q_{2,3}
"""


def test_parse_round_trip():
    A = parse_arrangement_file(GOOD)
    assert A.dimension == 3
    assert A.weight_names() == ("q_{1,2}", "q_{1,3}", "q_{2,3}")


def test_parse_accepts_fractions():
    A = parse_arrangement_file("dim 2\nhyperplane 1/2 -1/3 0 w\n")
    assert A.hyperplanes[0].normal[0].numerator == 1


def test_parse_dimension_error_carries_line():
    with pytest.raises(ParseError) as exc:
        parse_arrangement_file("dim 2\nhyperplane 1 0 0 0 w\n")
    assert exc.value.line == 2


def test_parse_duplicate_hyperplane():
    text = "dim 2\n# comment\nhyperplane 1 -1 0 a\nhyperplane -2 2 0 b\n"
    with pytest.raises(ParseError) as exc:
        parse_arrangement_file(text)
    assert "duplicates the affine set of line 3" in str(exc.value)
    assert exc.value.line == 4


def test_parse_duplicate_weight():
    text = "dim 2\nhyperplane 1 0 0 a\n\nhyperplane 0 1 0 a\n"
    with pytest.raises(ParseError) as exc:
        parse_arrangement_file(text)
    assert "duplicates the weight 'a' of line 2" in str(exc.value)
    assert exc.value.line == 4


def test_parse_non_decimal_dim_carries_line():
    # "²" passes str.isdigit() but int() rejects it
    with pytest.raises(ParseError) as exc:
        parse_arrangement_file("dim \u00b2\nhyperplane 1 0 0 w\n")
    assert exc.value.line == 1


def test_parse_bad_rational():
    with pytest.raises(ParseError):
        parse_arrangement_file("dim 2\nhyperplane 1.5 0 0 w\n")
    with pytest.raises(ParseError):
        parse_arrangement_file("dim 2\nhyperplane 1/0 0 0 w\n")


def test_parse_structure_errors():
    with pytest.raises(ParseError):
        parse_arrangement_file("hyperplane 1 0 w\n")  # dim must come first
    with pytest.raises(ParseError):
        parse_arrangement_file("dim 0\n")
    with pytest.raises(ParseError):
        parse_arrangement_file("dim 2\nwall 1 0 0 w\n")
    with pytest.raises(ParseError):
        parse_arrangement_file("")
    with pytest.raises(ParseError):
        parse_arrangement_file("dim 2\n")


def test_parsed_arrangement_feeds_the_engine():
    A = parse_arrangement_file(GOOD)
    from varchenko.geometry import enumerate_chambers
    assert len(enumerate_chambers(A)) == 6


def test_master_identity_on_affine_arrangement():
    # the factorization theorem is not restricted to central arrangements
    text = """\
dim 2
hyperplane 1 0 0 a
hyperplane 1 0 1 b
hyperplane 0 1 0 c
hyperplane 1 1 2 d
"""
    A = parse_arrangement_file(text)
    report = verify_identity(
        DetSource("geometric", factored=factored_determinant_general(A)),
        bruteforce_source(A), trials=5, subject="affine")
    assert report.verdict == "PASS"
