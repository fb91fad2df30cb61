#!/usr/bin/env python3
"""Build the repository validation report.

Runs every family-level verification at desk scale and records the outcomes,
including the cases where the printed closed forms disagree with ground
truth.  Writes reports/validation.json (machine readable, byte-reproducible
for a fixed command line) and reports/validation.md (summary table).  Wall
times go to stdout only, so they do not break reproducibility.

Usage:
    python scripts/run_validation.py [--trials 5] [--seed 0] [--prime P]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from varchenko.closedform import formula_A, zagier
from varchenko.exactalg import DEFAULT_PRIME, factored_specialize_all
from varchenko.families import FamilyKind, build_family, chambers_combinatorial
from varchenko.geometry import enumerate_chambers
from varchenko.harness import compare_factored, source, verify_identity

MASTER_SUBJECTS = ["A:2", "A:3", "A:4", "A:5", "A:6", "B:2", "B:3",
                   "D:2", "D:3", "D:4",
                   "I2:2", "I2:3", "I2:4", "I2:5", "I2:6", "I2:7", "I2:8"]

def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


def master_identity(trials, prime, seed):
    rows = []
    for sel in MASTER_SUBJECTS:
        kind = FamilyKind.parse(sel)
        A = build_family(kind)
        geo, t_geo = timed(source, "geometric", A)
        report, t_ver = timed(
            verify_identity, geo, source("bruteforce", A), trials=trials,
            prime=prime, seed=seed, subject=sel)
        rows.append({
            "subject": sel,
            "chambers": len(enumerate_chambers(A)),
            "verdict": report.verdict,
            "degree_bound": report.degree_bound,
            "error_bound": report.error_bound_note(),
        })
        print(f"  master identity {sel:5s}: {report.verdict} "
              f"(factor {t_geo:.2f}s, verify {t_ver:.2f}s)")
    return rows


def formula_adjudication(selectors, trials, prime, seed):
    """Closed form vs brute force, plus the exact diff against the geometric
    factorization (empty iff the printed formula is exactly right)."""
    rows = []
    for sel in selectors:
        kind = FamilyKind.parse(sel)
        A = build_family(kind)
        printed = source("formula", A, kind)
        report = verify_identity(
            printed, source("bruteforce", A),
            trials=trials, prime=prime, seed=seed, subject=sel)
        diff = compare_factored(printed.factored, source("geometric", A).factored)
        rows.append({
            "subject": sel,
            "verdict": report.verdict,
            "diff_vs_geometric": diff.to_json_obj(),
            "diff_entry_count": len(diff.entries),
        })
        print(f"  closed form     {sel:5s}: {report.verdict}"
              f" ({len(diff.entries)} diff entries)")
    return rows


def count_checks():
    rows = []
    for sel in ("A:2", "A:3", "A:4", "B:2", "B:3", "B:4", "D:2", "D:3", "D:4"):
        kind = FamilyKind.parse(sel)
        geometric = len(enumerate_chambers(build_family(kind)))
        combinatorial = len(chambers_combinatorial(kind))
        rows.append({"subject": sel, "geometric": geometric,
                     "combinatorial": combinatorial,
                     "equal": geometric == combinatorial})
    for m in range(2, 9):
        count = len(enumerate_chambers(build_family(FamilyKind("I2", m))))
        rows.append({"subject": f"I2:{m}", "geometric": count,
                     "combinatorial": 2 * m, "equal": count == 2 * m})
    return rows


def zagier_section():
    spec_ok = all(
        factored_specialize_all(formula_A(n), "q") == zagier(n)
        for n in range(2, 9))
    table = [{"monomial": str(m), "exponent": str(e)} for m, e in zagier(24).factors]
    return {"specialization_matches_n_2_to_8": spec_ok, "zagier_24": table}


def determinism_check(trials, prime, seed):
    def run():
        kind = FamilyKind("B", 3)
        A = build_family(kind)
        return verify_identity(
            source("formula", A, kind), source("bruteforce", A),
            trials=trials, prime=prime, seed=seed, subject="B:3").to_json()
    first, second = run(), run()
    digest = hashlib.sha256(first.encode()).hexdigest()
    return {"byte_identical": first == second, "report_sha256": digest}


def build_report(trials, prime, seed):
    print("master identity (geometric factored vs brute force):")
    master = master_identity(trials, prime, seed)
    print("closed forms (formula vs brute force, diff vs geometric):")
    braid = formula_adjudication(["A:2", "A:3", "A:4", "A:5", "A:6"],
                                 trials, prime, seed)
    hyperoct = formula_adjudication(["B:2", "B:3", "B:4"], trials, prime, seed)
    demihyperoct = formula_adjudication(["D:2", "D:3", "D:4"], trials, prime, seed)
    dihedral = formula_adjudication([f"I2:{m}" for m in range(2, 9)],
                                    trials, prime, seed)
    report = {
        "parameters": {"prime": str(prime), "seed": seed, "trials": trials},
        "master_identity": master,
        "braid_formula": braid,
        "hyperoctahedral_formula": hyperoct,
        "demihyperoctahedral_formula": demihyperoct,
        "dihedral_formula": dihedral,
        "chamber_counts": count_checks(),
        "single_variable": zagier_section(),
        "determinism": determinism_check(trials, prime, seed),
    }
    return report


def to_markdown(report) -> str:
    lines = ["# Validation report", ""]
    p = report["parameters"]
    lines.append(f"Prime {p['prime']}, seed {p['seed']}, {p['trials']} trials "
                 f"per identity.")
    lines.append("")
    lines.append("## Master identity: geometric factored form vs brute force")
    lines.append("")
    lines.append("| subject | chambers | verdict |")
    lines.append("|---|---|---|")
    for row in report["master_identity"]:
        lines.append(f"| {row['subject']} | {row['chambers']} | {row['verdict']} |")
    lines.append("")
    lines.append("## Closed forms vs ground truth")
    lines.append("")
    lines.append("| subject | verdict | diff entries vs geometric |")
    lines.append("|---|---|---|")
    for key in ("braid_formula", "hyperoctahedral_formula",
                "demihyperoctahedral_formula", "dihedral_formula"):
        for row in report[key]:
            lines.append(f"| {row['subject']} | {row['verdict']} "
                         f"| {row['diff_entry_count']} |")
    lines.append("")
    lines.append("A FAIL row means the printed closed form is falsified at a "
                 "random field point; its exact factorwise diff against the "
                 "geometric factorization is in validation.json.")
    lines.append("")
    det = report["determinism"]
    lines.append(f"Reports byte-identical across runs: {det['byte_identical']} "
                 f"(sha256 {det['report_sha256'][:16]}).")
    lines.append("")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--prime", type=int, default=DEFAULT_PRIME)
    parser.add_argument("--out-dir", default=str(
        Path(__file__).resolve().parent.parent / "reports"))
    args = parser.parse_args(argv)

    report, seconds = timed(build_report, args.trials, args.prime, args.seed)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "validation.json").write_text(json.dumps(report, indent=2) + "\n")
    (out / "validation.md").write_text(to_markdown(report))
    print(f"wrote {out / 'validation.json'} and {out / 'validation.md'} "
          f"in {seconds:.1f}s")
    failing = [row["subject"]
               for key in ("master_identity",)
               for row in report[key] if row["verdict"] != "PASS"]
    if failing:
        print(f"master identity FAILED for: {failing}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
