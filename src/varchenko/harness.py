"""Verification engine: randomized identity trials, diffs, reports, file input.

Two representations of a determinant are compared by evaluating both at
random points of a large prime field (Schwartz-Zippel): a disagreement at any
point falsifies the identity outright, while agreement at k independent
points bounds the probability of a false PASS by (degree bound / p)^k.  When
both sides are factored products their factor lists, canonical by
construction, are also diffed exactly, which is a complete equality check on
its own.

Randomness is a hand-rolled splitmix64 generator, not the stdlib Mersenne
Twister, so that reports are reproducible byte for byte across Python
versions forever.  Each trial gets an independent stream derived from
(seed, trial index).
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .closedform import formula
from .exactalg import (DEFAULT_PRIME, FactoredProduct, Monomial, PrimeField,
                       _mono_sort_key, factored_eval)
from .families import FamilyKind
from .geometry import (Arrangement, DuplicateHyperplaneError, Hyperplane,
                       enumerate_chambers, factored_determinant_general)
from .matrix import degree_bound, det_mod, varchenko_matrix_eval

DEFAULT_TRIALS = 5
DEFAULT_SEED = 0

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z = (z + _GOLDEN) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


class SplitMix64:
    """Deterministic 64-bit generator (splitmix64)."""

    __slots__ = ("state",)

    def __init__(self, state: int):
        self.state = state & _M64

    def next64(self) -> int:
        z = self.state
        self.state = (z + _GOLDEN) & _M64
        return _mix64(z)


def trial_stream(seed: int, trial: int) -> SplitMix64:
    """Independent generator for one trial; nonlinear in both arguments so
    streams of nearby trials do not overlap as shifted sequences."""
    return SplitMix64(_mix64(seed & _M64)
                      ^ _mix64((trial * 0xA24BAED4963EE407 + 0x9FB21C651E98DF25) & _M64))


def draw_nonzero(rng: SplitMix64, p: int) -> int:
    """Uniform draw from [1, p-1] by rejection (no modulo bias)."""
    span = p - 1
    limit = ((1 << 64) // span) * span
    while True:
        x = rng.next64()
        if x < limit:
            return 1 + x % span


def trial_assignment(names, seed: int, trial: int, p: int) -> dict[str, int]:
    """The evaluation point of one trial: a uniform nonzero value mod p per
    weight name, drawn in sorted name order from the stream of (seed, trial)."""
    rng = trial_stream(seed, trial)
    return {name: draw_nonzero(rng, p) for name in sorted(names)}


# ---------------------------------------------------------------------------
# determinant sources
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DetSource:
    """One side of an identity: either a factored product or a brute-force
    matrix determinant over an arrangement."""

    label: str
    factored: Optional[FactoredProduct] = None
    arrangement: Optional[Arrangement] = None

    def __post_init__(self):
        if (self.factored is None) == (self.arrangement is None):
            raise ValueError("a source is either factored or an arrangement")

    def variables(self) -> tuple[str, ...]:
        if self.factored is not None:
            return self.factored.variables()
        return self.arrangement.weight_names()

    def value_at(self, assignment: dict[str, int], field: PrimeField) -> int:
        if self.factored is not None:
            return factored_eval(self.factored, assignment, field)
        A = self.arrangement
        rows = varchenko_matrix_eval(A, enumerate_chambers(A), assignment, field)
        return det_mod(rows, field.p)


def bruteforce_source(A: Arrangement) -> DetSource:
    return DetSource("bruteforce", arrangement=A)


SOURCES = ("formula", "geometric", "bruteforce")


def source(name: str, A: Arrangement, kind: Optional[FamilyKind] = None) -> DetSource:
    """The source `name` (one of SOURCES) for the arrangement A: the printed
    closed form of the family `kind`, the geometric factorization of A, or
    the brute-force matrix determinant of A."""
    if name == "formula":
        if kind is None:
            raise ValueError("the formula source needs a family kind")
        return DetSource(name, factored=formula(kind))
    if name == "geometric":
        return DetSource(name, factored=factored_determinant_general(A))
    if name == "bruteforce":
        return bruteforce_source(A)
    raise ValueError(f"unknown source {name!r} (expected one of {', '.join(SOURCES)})")


# ---------------------------------------------------------------------------
# factored diff
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FactoredDiff:
    """Exponent disagreements between two factored products.
    Empty iff the products are equal."""

    entries: tuple[tuple[Monomial, int, int], ...]

    def is_empty(self) -> bool:
        return not self.entries

    def to_json_obj(self) -> list:
        return [{"monomial": str(m), "lhs": a, "rhs": b} for m, a, b in self.entries]


def compare_factored(lhs: FactoredProduct, rhs: FactoredProduct) -> FactoredDiff:
    """Every monomial whose exponents differ between the two products, which
    are canonical by construction (a missing factor counts as exponent 0)."""
    le = dict(lhs.factors)
    re_ = dict(rhs.factors)
    entries = []
    for mono in sorted(set(le) | set(re_), key=_mono_sort_key):
        a, b = le.get(mono, 0), re_.get(mono, 0)
        if a != b:
            entries.append((mono, a, b))
    return FactoredDiff(tuple(entries))


# ---------------------------------------------------------------------------
# verification reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Trial:
    assignment_digest: str
    lhs_value: int
    rhs_value: int
    equal: bool


@dataclass(frozen=True)
class VerificationReport:
    subject: str
    lhs: str
    rhs: str
    prime: int
    seed: int
    trials: tuple[Trial, ...]
    degree_bound: Optional[int]
    verdict: str
    factored_diff: Optional[FactoredDiff]

    def passed(self) -> bool:
        return self.verdict == "PASS"

    def error_bound_note(self) -> Optional[dict]:
        """Probability that all trials pass although the identity is false:
        at most (degree bound / prime)^trials, stated exactly plus as a
        decimal upper bound (integer arithmetic only)."""
        if self.degree_bound is None:
            return None
        b, p, k = self.degree_bound, self.prime, len(self.trials)
        note = {"per_trial": f"{b}/{p}", "all_trials": f"({b}/{p})^{k}"}
        if b == 0:
            note["decimal"] = "0"
        elif b >= p:
            note["decimal"] = "1"
        else:
            e = 0
            while (b ** k) * (10 ** (e + 1)) <= p ** k:
                e += 1
            note["decimal"] = f"<= 1e-{e}"
        return note

    def to_json_obj(self) -> dict:
        return {
            "subject": self.subject,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "prime": str(self.prime),
            "seed": self.seed,
            "trial_count": len(self.trials),
            "trials": [
                {"assignment": t.assignment_digest,
                 "lhs_value": str(t.lhs_value),
                 "rhs_value": str(t.rhs_value),
                 "equal": t.equal}
                for t in self.trials
            ],
            "degree_bound": self.degree_bound,
            "error_bound": self.error_bound_note(),
            "factored_diff": (None if self.factored_diff is None
                              else self.factored_diff.to_json_obj()),
            "verdict": self.verdict,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2) + "\n"


def _assignment_digest(assignment: dict[str, int]) -> str:
    text = ";".join(f"{k}={assignment[k]}" for k in sorted(assignment))
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


def verify_identity(lhs: DetSource, rhs: DetSource, trials: int = DEFAULT_TRIALS,
                    prime: int = DEFAULT_PRIME, seed: int = DEFAULT_SEED,
                    subject: str = "") -> VerificationReport:
    """Evaluate both sides at `trials` random points of GF(prime).

    Deterministic given (prime, seed): trial t evaluates both sides at
    trial_assignment(weight names of both sides, seed, t, prime).
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    field = PrimeField(prime)
    names = {*lhs.variables(), *rhs.variables()}
    results = []
    for t in range(trials):
        assignment = trial_assignment(names, seed, t, field.p)
        lv = lhs.value_at(assignment, field)
        rv = rhs.value_at(assignment, field)
        results.append(Trial(_assignment_digest(assignment), lv, rv, lv == rv))
    bounds = [degree_bound(s.factored) for s in (lhs, rhs) if s.factored is not None]
    diff = (compare_factored(lhs.factored, rhs.factored)
            if lhs.factored is not None and rhs.factored is not None else None)
    return VerificationReport(
        subject=subject,
        lhs=lhs.label,
        rhs=rhs.label,
        prime=field.p,
        seed=seed,
        trials=tuple(results),
        degree_bound=max(bounds) if bounds else None,
        verdict="PASS" if all(t.equal for t in results) else "FAIL",
        factored_diff=diff,
    )


# ---------------------------------------------------------------------------
# arrangement text format
# ---------------------------------------------------------------------------


class ParseError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def _parse_rational(token: str, line: int) -> Fraction:
    if not _RATIONAL_RE.match(token):
        raise ParseError(line, f"bad rational {token!r} (use a or a/b)")
    try:
        return Fraction(token)
    except ZeroDivisionError:
        raise ParseError(line, f"zero denominator in {token!r}") from None


def parse_arrangement_file(text: str) -> Arrangement:
    """Arrangement text format:

        # comment
        dim 3
        hyperplane 1 -1 0 0 q_{1,2}    # dim coefficients, offset, weight

    Raises ParseError with a line number on malformed input, duplicate
    hyperplanes (proportional coefficient rows) or duplicate weights.
    """
    dim: Optional[int] = None
    hyperplanes: list[Hyperplane] = []
    linenos: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0].strip()
        if not content:
            continue
        parts = content.split()
        if parts[0] == "dim":
            if dim is not None:
                raise ParseError(lineno, "duplicate dim directive")
            if len(parts) != 2 or not parts[1].isdecimal() or int(parts[1]) < 1:
                raise ParseError(lineno, "expected 'dim N' with positive N")
            dim = int(parts[1])
        elif parts[0] == "hyperplane":
            if dim is None:
                raise ParseError(lineno, "dim must come before hyperplanes")
            if len(parts) != dim + 3:
                raise ParseError(
                    lineno, f"expected {dim} coefficients, offset and weight "
                            f"({dim + 3} tokens), got {len(parts)}")
            coeffs = [_parse_rational(tok, lineno) for tok in parts[1:dim + 1]]
            offset = _parse_rational(parts[dim + 1], lineno)
            try:
                h = Hyperplane.make(coeffs, offset, parts[dim + 2])
            except ValueError as exc:
                raise ParseError(lineno, str(exc)) from None
            hyperplanes.append(h)
            linenos.append(lineno)
        else:
            raise ParseError(lineno, f"unknown directive {parts[0]!r}")
    if dim is None:
        raise ParseError(0, "missing dim directive")
    if not hyperplanes:
        raise ParseError(0, "no hyperplanes given")
    try:
        return Arrangement(dim, hyperplanes)
    except DuplicateHyperplaneError as exc:
        raise ParseError(linenos[exc.index],
                         f"hyperplane duplicates the {exc.what} of line "
                         f"{linenos[exc.other]}") from None


__all__ = [
    "DEFAULT_SEED", "DEFAULT_TRIALS", "DetSource", "FactoredDiff",
    "ParseError", "SOURCES", "SplitMix64", "Trial", "VerificationReport",
    "bruteforce_source", "compare_factored", "draw_nonzero",
    "parse_arrangement_file", "source", "trial_assignment", "trial_stream",
    "verify_identity",
]
