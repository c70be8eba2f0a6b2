"""Run the test suite against a fixed list of semantic mutants of the sources.

    python3 tools/mutate.py

Each mutant in ``MUTANTS`` is a name, a file, an exact source line that must
occur once in that file (compared without its indentation) and the line that
replaces it.  For each mutant the script copies ``src/``, ``tests/``,
``perfbench/`` and ``pyproject.toml`` into a temporary directory, applies the
mutant there and runs ``python -m pytest -x -q -p no:cacheprovider`` in it.
It cannot run in the checkout: ``pyproject.toml`` puts ``src`` on pytest's
path, which would import the unmutated sources.  The test file named after
the mutated module runs first, then the rest in name order, so most mutants
fail within seconds; a survivor runs the whole suite.  ``tests/test_mutants.py``
is left out: it checks this list against the unmutated sources.

Mutants run one after another.  A mutant is killed when the suite fails.
The results (killed or survived, the first failing test and the seconds
taken, per mutant) are written to ``MUTANTS.json`` at the root of the
repository.  A survivor needs a test, or a reason that it is equivalent in
its ``equivalent`` field; the exit status is 1 when one survives without.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
PYTEST = ("-m", "pytest", "-x", "-q", "-p", "no:cacheprovider")
VERIFY = "src/planegraphs/verify.py"
ENUMERATION = "src/planegraphs/enumeration.py"
SYNC_TEST = "test_mutants.py"  # checks this list against the sources; not run on a mutant


class Mutant(NamedTuple):
    name: str
    file: str
    line: str  # occurs once in `file`, compared without its indentation
    replacement: str
    equivalent: str | None = None  # why the suite cannot tell it apart, for a survivor


MUTANTS = [
    Mutant(
        "compare_margin_reversed", VERIFY,
        "return _verdict(claim, pointset, ok, Fraction(lhs - rhs), witness, details or values)",
        "return _verdict(claim, pointset, ok, Fraction(rhs - lhs), witness, details or values)",
    ),
    Mutant(
        "compare_witness_names_swapped", VERIFY,
        "witness = {name: str(value) for name, value in values.items()}",
        "witness = dict(zip(names, (str(rhs), str(lhs))))",
    ),
    Mutant(
        "compare_details_as_strings", VERIFY,
        "return _verdict(claim, pointset, ok, Fraction(lhs - rhs), witness, details or values)",
        "return _verdict(claim, pointset, ok, Fraction(lhs - rhs), witness, details or witness)",
    ),
    Mutant(
        "sweep_keeps_largest_margin", VERIFY,
        "if margin is None or step_margin < margin:",
        "if margin is None or step_margin > margin:",
    ),
    Mutant(
        "sweep_keeps_last_witness", VERIFY,
        "if witness is None:",
        "if step_witness is not None:",
    ),
    Mutant(
        "v0_upper_non_strict", VERIFY,
        '"v0_upper", _descriptor(ps), bound > vhat0 if _paper_hypotheses(ps) else None,',
        '"v0_upper", _descriptor(ps), bound >= vhat0 if _paper_hypotheses(ps) else None,',
    ),
    Mutant(
        "previous_lower_strict_as_non_strict", VERIFY,
        "claim, desc, None if n <= degree else (value > bound if strict else value >= bound),",
        "claim, desc, None if n <= degree else (value >= bound if strict else value >= bound),",
    ),
    Mutant(
        "growth_consequence_strict", VERIFY,
        '"zero_ving_growth_consequence", desc, total_zero >= n_min_drop, total_zero,',
        '"zero_ving_growth_consequence", desc, total_zero > n_min_drop, total_zero,',
    ),
    Mutant(
        "charge_cap_exponent_off_by_one", VERIFY,
        "return sum(count << (top - d) for d, count in enumerate(rec.histogram))",
        "return sum(count << (top + 1 - d) for d, count in enumerate(rec.histogram))",
    ),
    Mutant(
        "central_binomial_margin_at_one", VERIFY,
        "margin = Fraction(rhs - lhs, rhs) if i == i_max else None",
        "margin = Fraction(rhs - lhs, rhs) if i == 1 else None",
    ),
    Mutant(
        "robbins_lower_side_12m", VERIFY,
        "lower_hi = log_interval(2 * m * pi_hi)[1] / 2 + m * ln_hi - m + Fraction(1, 12 * m + 1)",
        "lower_hi = log_interval(2 * m * pi_hi)[1] / 2 + m * ln_hi - m + Fraction(1, 12 * m)",
    ),
    Mutant(
        "charge_argmax_drops_its_witness", VERIFY,
        'yield None, {"i": i, "error": str(exc)}',
        "yield None, None",
    ),
    Mutant(
        "digit_one_bit_narrower", ENUMERATION,
        "self.digit_bits = self.m + 1",
        "self.digit_bits = self.m",
    ),
    Mutant(
        "lone_segment_without_shift", ENUMERATION,
        "result[p] = (result[p] >> 1) * x1",
        "result[p] = result[p] * x1",
    ),
    Mutant(
        "empty_product_drops_pg", ENUMERATION,
        "result = [1] * (self.ps.n + 1)",
        "result = [1] * self.ps.n",
    ),
    Mutant(
        "pivot_break_only_at_zero", ENUMERATION,
        "if c <= 1:  # only 0 beats 1, and then the one branch dies too",
        "if c < 1:",
        "the break only ends the pivot search early: any pivot u gives a "
        "complete branching, so the triangulations are the same, found more slowly",
    ),
    Mutant(
        "split_frontier_never_grows", ENUMERATION,
        "frontier |= grow",
        "pass",
    ),
    Mutant(
        "sweep_later_endpoint_nearest_first", ENUMERATION,
        "return lambda k: (spans[k][0], -spans[k][1])",
        "return lambda k: (spans[k][0], spans[k][1])",
    ),
    Mutant(
        "crossing_side_test_one_sided", "src/planegraphs/crossings.py",
        "rest = right & (ccw_i[p] ^ ccw_j[p])",
        "rest = right & ccw_i[p]",
    ),
    Mutant(
        "triangulations_ascending", ENUMERATION,
        'found.sort(key=lambda edges: format(edges, f"0{m}b")[::-1], reverse=True)',
        'found.sort(key=lambda edges: format(edges, f"0{m}b")[::-1], reverse=False)',
    ),
    Mutant(
        "lp_multiplier_one_seventh", "src/planegraphs/charging.py",
        "y9, y1 = Fraction(2, 7), Fraction(3, 7)",
        "y9, y1 = Fraction(1, 7), Fraction(3, 7)",
    ),
    Mutant(
        "pi_hi_below_pi", "src/planegraphs/certified.py",
        "PI_HI = Fraction(3141592653589794, 10**15)",
        "PI_HI = Fraction(3141592653589793, 10**15)",
    ),
    Mutant(
        "triangular_hull_at_least_three", "src/planegraphs/geometry.py",
        "return len(convex_hull(ps)) == 3",
        "return len(convex_hull(ps)) >= 3",
    ),
]


def mutated(source: str, mutant: Mutant) -> str:
    """`source` with the mutant's one line replaced, its indentation kept."""
    lines = source.splitlines(keepends=True)
    hits = [k for k, line in enumerate(lines) if line.strip() == mutant.line]
    if len(hits) != 1:
        raise ValueError(f"{mutant.name}: the line occurs {len(hits)} times in {mutant.file}")
    line = lines[hits[0]]
    lines[hits[0]] = line[: len(line) - len(line.lstrip())] + mutant.replacement + "\n"
    return "".join(lines)


def suite_order(tests: Path, mutant: Mutant) -> list[str]:
    """Every test file but the sync test, the one named after the mutated
    module first."""
    first = f"test_{Path(mutant.file).stem}.py"
    names = sorted(p.name for p in tests.glob("test_*.py") if p.name != SYNC_TEST)
    return [f"tests/{name}" for name in sorted(names, key=lambda name: name != first)]


def run(mutant: Mutant) -> dict:
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        work = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, work / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, work / name)
        target = work / mutant.file
        target.write_text(mutated(target.read_text(), mutant))
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, *PYTEST, *suite_order(work / "tests", mutant)],
            cwd=work, capture_output=True, text=True,
            env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
        )
        seconds = time.monotonic() - start
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)
    if proc.returncode not in (0, 1) and failed is None:
        raise RuntimeError(f"{mutant.name}: pytest exited {proc.returncode}\n{proc.stdout}")
    return {
        **mutant._asdict(),
        "status": "survived" if proc.returncode == 0 else "killed",
        "first_failure": failed.group(1) if failed else None,
        "seconds": round(seconds, 1),
    }


def main() -> int:
    start = time.monotonic()
    results = []
    for mutant in MUTANTS:
        r = run(mutant)
        results.append(r)
        print(f"{r['status']:8s} {r['seconds']:6.1f}s  {r['name']}  {r['first_failure'] or ''}")
    payload = {"command": " ".join(("python", *PYTEST)), "mutants": results}
    (ROOT / "MUTANTS.json").write_text(json.dumps(payload, indent=2) + "\n")
    print(f"{len(results)} mutants in {time.monotonic() - start:.0f}s")
    return int(any(r["status"] == "survived" and not r["equivalent"] for r in results))


if __name__ == "__main__":
    sys.exit(main())
