"""Fast self-check of the benchmark at reduced size (about a minute).

Usage, from the repository root:  python3 bench/selfcheck.py

For every workload in bench/workloads.py (the ones BENCHMARK.json declares
and ``figures``), shrunk (fewer paths, a coarser grid, fewer figures), it
makes one untraced and one traced run and asserts that

* every metric BENCHMARK.json names is emitted, with its unit, and no other;
* every correctness check passed;
* every self time is >= 0;
* the top-level spans sum to no more than the traced wall time.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import sys

import run as bench

# self times are differences of float sums; allow their rounding
SELF_TIME_SLACK_S = 1e-9


def expected_metrics(spec, key):
    return {m["name"]: m["unit"] for m in spec[key]}


def check_workload(name, spec):
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result, _, tr = bench.run(name, seed=1, seconds=0, trace=trace, small=True, setup_samples=1)
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        want = expected_metrics(spec, key)
        if got != want:
            missing = sorted(set(want) - set(got))
            extra = sorted(set(got) - set(want))
            units = sorted(k for k in set(got) & set(want) if got[k] != want[k])
            problems.append(f"{key}: missing {missing}, unnamed {extra}, unit mismatch {units}")
        if not result["correct"] or result["failed"]:
            problems.append(f"trace={trace}: {result['failed']} of {result['attempted']} checks failed")
        if trace:
            negative = [
                k for k, v in result["metrics"].items()
                if k.endswith("self_s") and v["value"] < -SELF_TIME_SLACK_S
            ]
            if negative:
                problems.append(f"negative self times: {negative}")
            top = tr.top_level_s()
            wall = result["metrics"]["trace.wall_s"]["value"]
            if top > wall:
                problems.append(f"top-level spans {top:.6f}s exceed traced wall {wall:.6f}s")
            if not tr.spans:
                problems.append("no spans recorded")
    return problems


def main():
    from workloads import WORKLOADS

    with open(bench.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    declared = [w["name"] for w in spec["workloads"]]
    unknown = sorted(set(declared) - set(WORKLOADS))
    if unknown:
        print(f"FAIL workloads: BENCHMARK.json names unknown workloads {unknown}")
        return 1
    status = 0
    for name in WORKLOADS:
        problems = check_workload(name, spec)
        for p in problems:
            print(f"FAIL {name}: {p}")
        if not problems:
            print(f"ok   {name}")
        status |= bool(problems)
    return status


if __name__ == "__main__":
    sys.exit(main())
