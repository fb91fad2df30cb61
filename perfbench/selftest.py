"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json names the same workloads and metrics, with the
same units, as run.py prints, and that the output check bites: one factor
pass with one exponent of the A:5 expectation changed must report the A:5
op as failed, and only that op.  Exits 0 when both hold.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def check_manifest() -> list[str]:
    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in manifest["workloads"]] != list(workloads.WORKLOADS):
        problems.append("workload names differ from workloads.WORKLOADS")
    for key, units in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in manifest[key]}
        if listed != units:
            problems.append(f"{key} differs from run.py: "
                            f"{sorted(set(listed.items()) ^ set(units.items()))}")
    return problems


def check_gate() -> list[str]:
    result = run.run_workload("factor", seed=0, seconds=0, trace=False, corrupt=True)
    failures = result["failures"]
    frac = result["meta"]["failed_ops_frac"]
    if result["result"]["correct"] or frac <= 0:
        return [f"corrupted expectation passed (failed_ops_frac={frac})"]
    if not all(line.startswith("det A:5: ") for line in failures):
        return [f"unexpected failing ops: {failures}"]
    print(f"gate: failed_ops_frac={frac} with the A:5 expectation corrupted")
    return []


def main() -> int:
    problems = check_manifest() + check_gate()
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
