"""The benchmark's workloads: the CLI calls each one makes, the inputs they
read and the checks on their outputs.

An op is one call of ``varchenko.cli.main(argv)``.  A pass runs every op of
the workload once, in a closed loop on one thread: each op starts when the
previous one has returned.

  factor         ``det --mode factored`` on A:5, D:4, B:3 and I2:8.  Stresses
                 the face scan (Fourier-Motzkin calls from ``face_of``); the
                 matrix layer is never called.
  bruteforce     ``verify --lhs formula --rhs bruteforce`` on A:6 and B:4.
                 Stresses chamber enumeration, the matrix build and
                 ``det_mod``; the face scan is never called.
  random-verify  ``verify --file F --lhs geometric --rhs bruteforce`` on 150
                 seeded random integer arrangements.  Many small ops on
                 affine, parallel and non-generic inputs: the same layers
                 as above at small sizes, plus file parsing and per-op
                 overhead.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import gcd
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent

WORKLOADS = ("factor", "bruteforce", "random-verify")

FACTOR_KINDS = ("A:5", "D:4", "B:3", "I2:8")
BRUTEFORCE_KINDS = ("A:6", "B:4")
BRUTEFORCE_TRIALS = 3
RANDOM_COUNT = 150
RANDOM_TRIALS = 2
COEFF = 3            # coefficients and offsets are drawn from [-COEFF, COEFF]
PARALLEL_P = 0.25    # chance that an affine hyperplane copies an earlier normal


@dataclass
class Op:
    label: str
    argv: list[str]
    # Filled in by attach_checks, outside the timed region.
    expect_json: Optional[dict] = None     # exact stdout JSON of `det`
    expect_diff: Optional[list] = None     # compare_factored(formula, stdout)
    expect_pass: bool = False              # `verify` exits 0 with PASS


def _primitive(coeffs: list[int]) -> tuple[int, ...]:
    g = 0
    for c in coeffs:
        g = gcd(g, c)
    key = [c // g for c in coeffs]
    first = next(c for c in key if c)
    return tuple(-c for c in key) if first < 0 else tuple(key)


def random_arrangement(rng: random.Random, dim: int, m: int,
                       central: bool) -> list[tuple[list[int], int]]:
    """m pairwise distinct integer hyperplanes (normal, offset) in Q^dim.

    Affine arrangements copy an earlier normal with probability PARALLEL_P,
    which makes parallel families and closed chambers that miss a
    hyperplane.  Small coefficients make concurrencies beyond general
    position common.
    """
    hyps: list[tuple[list[int], int]] = []
    seen: set[tuple[int, ...]] = set()
    while len(hyps) < m:
        if hyps and not central and rng.random() < PARALLEL_P:
            normal = list(rng.choice(hyps)[0])
        else:
            normal = [rng.randint(-COEFF, COEFF) for _ in range(dim)]
            if not any(normal):
                continue
        offset = 0 if central else rng.randint(-COEFF, COEFF)
        key = _primitive(normal + [offset])
        if key not in seen:
            seen.add(key)
            hyps.append((normal, offset))
    return hyps


def arrangement_text(dim: int, hyps: list[tuple[list[int], int]]) -> str:
    lines = [f"dim {dim}"]
    for k, (normal, offset) in enumerate(hyps, start=1):
        lines.append("hyperplane " + " ".join(map(str, normal)) + f" {offset} w{k}")
    return "\n".join(lines) + "\n"


# Hyperplanes beyond the dimension, one entry per slot: 1 to 4, with the
# smaller counts more often so that a pass is many small ops rather than a
# few large ones (chambers, and with them the work, grow steeply with it).
_EXTRA_HYPERPLANES = (1, 1, 1, 1, 2, 2, 2, 3, 3, 4)


def _random_cell(i: int) -> tuple[int, int, bool]:
    """Dimension, hyperplane count and centrality of arrangement i.

    Fixed by the index, not drawn, so that every seed gets the same mix of
    sizes and only the coefficients vary; this keeps the work per pass close
    across seeds.  In dimension 1 every central arrangement is a single
    point, so dimension 1 is always affine.
    """
    dim = 1 + i % 4
    slots = len(_EXTRA_HYPERPLANES)
    m = dim + _EXTRA_HYPERPLANES[(i // 4) % slots]
    central = dim > 1 and (i // (4 * slots)) % 2 == 1
    return dim, m, central


def make_ops(name: str, seed: int, workdir: Path) -> tuple[list[Op], dict[Path, str]]:
    """The ops of one pass, in run order, and the input files they read
    (path under workdir: text), which the caller writes."""
    rng = random.Random(seed)
    if name == "factor":
        kinds = list(FACTOR_KINDS)
        rng.shuffle(kinds)
        return [Op(f"det {k}", ["det", "--kind", k, "--mode", "factored"])
                for k in kinds], {}
    if name == "bruteforce":
        kinds = list(BRUTEFORCE_KINDS)
        rng.shuffle(kinds)
        return [Op(f"verify {k}",
                   ["verify", "--kind", k, "--lhs", "formula", "--rhs", "bruteforce",
                    "--trials", str(BRUTEFORCE_TRIALS), "--seed", str(seed)])
                for k in kinds], {}
    if name == "random-verify":
        ops, files = [], {}
        for i in range(RANDOM_COUNT):
            dim, m, central = _random_cell(i)
            path = workdir / f"arrangement{i:03d}.txt"
            files[path] = arrangement_text(dim, random_arrangement(rng, dim, m, central))
            ops.append(Op(f"verify {path.name} (dim {dim}, {m} hyperplanes, "
                          f"{'central' if central else 'affine'})",
                          ["verify", "--file", str(path), "--lhs", "geometric",
                           "--rhs", "bruteforce", "--trials", str(RANDOM_TRIALS),
                           "--seed", str(seed)]))
        return ops, files
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def attach_checks(ops: list[Op], corrupt: bool = False) -> None:
    """Set the expected output of every op from sources independent of the
    code path the op runs.

    factor: the printed closed forms are exact for A, B and I2, so the output
    must equal them; the printed D form is wrong, so the D:4 output must
    differ from it by exactly the diff recorded in d4_diff.json.
    verify ops: the identity holds for every real arrangement, so any FAIL is
    an engine bug.  With corrupt=True one exponent of the A:5 expectation is
    changed, for the self-test that shows the check bites.
    """
    from varchenko.closedform import formula_A, formula_B, formula_I2
    from varchenko.families import FamilyKind

    exact = {"A": formula_A, "B": formula_B, "I2": formula_I2}
    d4_diff = json.loads((HERE / "d4_diff.json").read_text())["diff"]
    for op in ops:
        if op.argv[0] == "verify":
            op.expect_pass = True
            continue
        kind = FamilyKind.parse(op.argv[op.argv.index("--kind") + 1])
        if kind.letter == "D":
            op.expect_diff = d4_diff
            continue
        op.expect_json = exact[kind.letter](kind.param).to_json_obj()
        if corrupt and kind.letter == "A":
            op.expect_json["factors"][0]["exponent"] += 1


def check(op: Op, rc, stdout: str) -> Optional[str]:
    """None when the op's output is right, else the reason it is not."""
    if rc != 0:
        return f"exit status {rc!r}"
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"stdout is not JSON: {exc}"
    if not isinstance(out, dict):
        return "stdout is not a JSON object"
    if op.expect_pass:
        return None if out.get("verdict") == "PASS" else f"verdict {out.get('verdict')!r}"
    if op.expect_json is not None:
        return None if out == op.expect_json else "factored determinant differs from the closed form"
    from varchenko.closedform import formula_D
    from varchenko.exactalg import FactoredProduct
    from varchenko.harness import compare_factored

    try:
        diff = compare_factored(formula_D(4), FactoredProduct.from_json_obj(out))
    except (KeyError, TypeError, ValueError) as exc:
        return f"stdout is not a factored determinant: {exc!r}"
    if diff.to_json_obj() != op.expect_diff:
        return "diff against the printed D formula differs from the recorded one"
    return None
