"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced, prints every metric
with its unit, and fails unless each invocation is correct and reports
exactly the metrics BENCHMARK.json names.
"""

from __future__ import annotations

import sys

import run
import workloads


def main() -> int:
    spec = run.load_spec()
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    names = [w["name"] for w in spec["workloads"]]
    problems = []
    if sorted(names) != sorted(workloads.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} != {sorted(workloads.WORKLOADS)}")
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            report = run.Invocation(name, seed=1, trace=bool(trace), tiny=True).measure(0)
            run.print_report(report)
            got = {k: m["unit"] for k, m in report["metrics"].items()}
            if got != declared[trace]:
                missing = sorted(set(declared[trace]) - set(got))
                problems.append(f"{name} trace {trace}: metrics missing or mislabelled {missing}")
            if not report["correct"]:
                problems.append(f"{name} trace {trace}: {report['failures']}")
    for problem in problems:
        print("SELF-TEST FAILED:", problem)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
