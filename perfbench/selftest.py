"""Smoke self-test of the benchmark on tiny inputs (n <= 6).

Run from the repository root:

    python3 perfbench/selftest.py

Every workload's invocations run once with their inputs cut to six points,
in both trace modes.  The test checks that the checks pass, that each mode
emits exactly the metrics BENCHMARK.json names, with its units, and that a
tampered reference digest is counted as a failure.  Exit status 0 on
success, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import run

TINY_N = 6
RECORD_SEED, RUN_SEED = 1, 5   # different seeds: digests must survive translation


def tiny(workload: run.Workload) -> run.Workload:
    invocations = tuple(dataclasses.replace(inv, n=TINY_N) for inv in workload.invocations)
    return dataclasses.replace(workload, invocations=invocations)


def units(entries: list[dict]) -> dict[str, str]:
    return {e["name"]: e["unit"] for e in entries}


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            problems.append(what)

    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "workload names")
    expect(units(spec["end_to_end"]) == run.END_TO_END, "end-to-end metric names and units")
    expect(units(spec["per_layer"]) == run.PER_LAYER_UNITS, "per-layer metric names and units")

    sys.path.insert(0, str(run.SRC))
    for name, workload in run.WORKLOADS.items():
        small = tiny(workload)
        reference = run.record_reference({name: small}, RECORD_SEED)
        for trace, wanted in ((False, run.END_TO_END), (True, run.PER_LAYER_UNITS)):
            result = run.measure(small, RUN_SEED, 0, trace, reference, log=lambda *a: None)
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{name} trace={int(trace)}: all {result['attempted']} invocations pass")
            expect(emitted == wanted, f"{name} trace={int(trace)}: every metric with its unit")
        label = small.invocations[0].label
        tampered = reference | {label: reference[label] | {"sha256": "0" * 64}}
        result = run.measure(small, RUN_SEED, 0, False, tampered, log=lambda *a: None)
        expect(result["failed"] > 0 and not result["correct"],
               f"{name}: tampered digest gives fail_frac "
               f"{result['failed']}/{result['attempted']} > 0")
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
