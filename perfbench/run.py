"""Benchmark of the planegraphs command line.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record      # rewrite perfbench/reference.json

Each workload is a fixed list of CLI invocations.  A pass runs them one
after another as fresh ``python -m planegraphs.cli`` processes with the
default ``--workers 1``: a closed loop with a single client.  Passes repeat
while another fits in ``--seconds``.

End-to-end metrics (``--trace 0``):

* ``wall_s``: median over passes of the pass time, the sum of its
  invocations' wall times;
* ``setup_s``: median over five repeats of the summed time of
  ``planegraphs validate`` on every input of the workload (interpreter
  start, imports, parsing, the general-position check);
* ``peak_rss_mib``: median over passes of the largest peak RSS of one
  invocation, each read from its own rusage.

All times, per-layer ones too, are reference-speed seconds: each child's
wall time scaled by the speed that `calibrate()` measures around it (see
`Runner`).  The log lines before the result show the raw figures, and
``failed / attempted`` of the result is the failure fraction.

The seed translates every input point set by one seeded offset.  Cost
depends only on the order type and labelling of a point set, and
translation changes neither, so every seed costs the same while each seed
feeds the program different bytes.  (Drawing fresh random sets per seed
moves the triangulation count of a 12-point set between 10k and 41k, far
more than any regression bound.)

Every report is checked: exit status, the report's own identities, the
sha256 of its stdout against ``reference.json`` (with the input's own
sha256 masked, which is the only seed-dependent part of a report), and
agreement with the first pass.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes (see ``tracer.py``)
and reports per-layer self times and counts.  The last line of stdout is
one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
TRACER = HERE / "tracer.py"

BASE_SEED = 1          # gen_triangular_hull_random seeds start here
MAX_N = "21"           # cap passed to every counting invocation
SETUP_REPEATS = 5      # set-up is measured this many times; the median is reported
OFFSET = 1 << 19       # translations stay well inside the |x|, |y| <= 2^20 limit
CALIBRATION_REF_S = 0.03   # calibrate() time at the reference speed that times are reported at


@dataclass(frozen=True)
class Invocation:
    """One CLI call: `planegraphs <subcommand> <input> <extra...>`."""

    subcommand: str
    kind: str
    n: int
    base_seed: int | None = None
    extra: tuple[str, ...] = ()

    @property
    def input_name(self) -> str:
        seed = "" if self.base_seed is None else f", {self.base_seed}"
        return f"{self.kind}({self.n}{seed})"

    @property
    def label(self) -> str:
        return f"{self.subcommand} {self.input_name}"


@dataclass(frozen=True)
class Workload:
    invocations: tuple[Invocation, ...]
    # Standalone layer probes run once per traced run, on the inputs of the
    # invocations at these positions.
    probes: dict[str, tuple[int, ...]] = field(default_factory=dict)


def _random(n: int, seed: int, subcommand: str, *extra: str) -> Invocation:
    return Invocation(subcommand, "triangular_hull_random", n, seed, extra)


WORKLOADS = {
    "count_convex": Workload((
        Invocation("count", "convex_chain", 20, extra=("--max-n", MAX_N)),
        Invocation("count", "convex_chain", 21, extra=("--max-n", MAX_N)),
        _random(16, BASE_SEED, "count", "--max-n", MAX_N),
    )),
    "degrees_random": Workload(
        tuple(_random(13, BASE_SEED + i, "degrees", "--max-n", MAX_N) for i in range(3))
        + (_random(14, BASE_SEED, "degrees", "--max-n", MAX_N),),
        probes={"degrees_pool2": (0, 1, 2, 3)},
    ),
    "triangulations_random": Workload(
        tuple(_random(12, BASE_SEED + i, "triangulations") for i in range(3)),
    ),
    "audit_exhaustive": Workload(
        (Invocation("charge-audit", "cap_with_apex", 7), _random(7, BASE_SEED, "verify")),
        probes={"dfs_noop": (0,)},
    ),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}

CLAIMS = (
    "v0_upper", "vi_upper", "previous_lower", "visibility", "triangulation_degrees",
    "charge_cap", "zero_ving", "harmonic", "stirling", "central_binomial", "charge_argmax",
)

# Per-layer metric -> (unit, how it is read from one traced pass).  "self"
# and "total" read summed span self / inclusive seconds, "count" a counter.
PER_LAYER = {
    "geometry.load_pts_s": ("s", "self", "geometry.load_pts"),
    "crossings.build_s": ("s", "self", "crossings.build"),
    "crossings.segments": ("count", "count", "crossings.segments"),
    "crossings.crossing_pairs": ("count", "count", "crossings.crossing_pairs"),
    "enumeration.count_s": ("s", "self", "enumeration.count"),
    "enumeration.memo_entries": ("count", "count", "enumeration.memo_entries"),
    "enumeration.degrees_s": ("s", "self", "enumeration.degrees"),
    "enumeration.degree_queries": ("count", "count", "enumeration.degree_queries"),
    "enumeration.scan_s": ("s", "self", "enumeration.scan"),
    "enumeration.triangulations_s": ("s", "self", "enumeration.triangulations"),
    "enumeration.triangulations": ("count", "count", "enumeration.triangulations"),
    "charging.charge_audit_s": ("s", "self", "charging.charge_audit"),
    "charging.family_census_s": ("s", "self", "charging.family_census"),
    "verify.self_s": ("s", "self", "verify"),
    **{f"verify.{c}_s": ("s", "total", f"verify.{c}") for c in CLAIMS},
    "certified.self_s": ("s", "self", "certified"),
    "certified.log_interval_calls": ("count", "count", "certified.log_interval_calls"),
    "reports.dumps_s": ("s", "self", "reports.dumps"),
    "reports.bytes": ("B", "count", "reports.bytes"),
    "cli.self_s": ("s", "self", "cli"),
}
# Metrics computed once per traced run from the probes and both kinds of pass.
DERIVED = {
    "enumeration.dfs_noop_s": "s",
    "enumeration.graphs_scanned": "count",
    "enumeration.graphs_per_s": "1/s",
    "enumeration.degrees_pool2_s": "s",
    "charging.visitor_s": "s",
    "trace.overhead_frac": "1",
}
PER_LAYER_UNITS = {name: spec[0] for name, spec in PER_LAYER.items()} | DERIVED


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Input:
    path: Path
    n: int
    sha256: str        # of the .pts bytes, as the report's `input_sha256`


def make_inputs(workload: Workload, seed: int, workdir: Path) -> dict[str, Input]:
    """Write each distinct input, translated by the seed's offset."""
    from planegraphs.constructions import ConstructionSpec
    from planegraphs.geometry import PointSet

    rng = random.Random(seed)
    dx, dy = rng.randrange(-OFFSET, OFFSET), rng.randrange(-OFFSET, OFFSET)
    inputs = {}
    for inv in workload.invocations:
        if inv.input_name in inputs:
            continue
        base = ConstructionSpec(inv.kind, inv.n, inv.base_seed).build()
        ps = PointSet.from_coords([(x + dx, y + dy) for x, y in base.coords()])
        path = workdir / f"{inv.kind}_{inv.n}_{inv.base_seed}.pts"
        path.write_text(ps.to_pts())
        inputs[inv.input_name] = Input(path, ps.n, ps.sha256())
    return inputs


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


@dataclass
class Proc:
    wall_s: float      # as measured
    speed: float       # reference-speed seconds per measured second around this child
    rss_mib: float
    status: int
    stdout: bytes

    @property
    def ref_s(self) -> float:
        return self.wall_s * self.speed


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: a gauge of the machine's speed now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    return time.perf_counter() - t0


class Runner:
    """Spawns one child at a time and takes its rusage with `os.wait4`.

    On a host shared with other jobs, CPU speed drifts by 15-30% within
    minutes, and the median of one run cannot average that out.  So `calibrate()` is timed
    before and after each child, and the child's `speed` is the reference
    calibration time over the mean of the two.  A program change cannot
    move the calibration loop, so reference-speed seconds keep every
    regression while dropping most of the drift.
    """

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.last_calibration: float | None = None
        self.env = dict(os.environ)
        self.env.pop("PLANEGRAPH_MAX_N", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def spawn(self, argv: list[str]) -> Proc:
        before = self.last_calibration or calibrate()
        t0 = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, *argv], cwd=self.workdir, env=self.env,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        with child.stdout:
            out = child.stdout.read()
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - t0
        child.returncode = os.waitstatus_to_exitcode(status)
        self.last_calibration = after = calibrate()
        speed = 2 * CALIBRATION_REF_S / (before + after)
        return Proc(wall, speed, usage.ru_maxrss / 1024, child.returncode, out)

    def cli(self, inv: Invocation, inp: Input, trace_out: Path | None = None) -> Proc:
        args = [inv.subcommand, str(inp.path), *inv.extra]
        if trace_out is None:
            return self.spawn(["-m", "planegraphs.cli", *args])
        return self.spawn([str(TRACER), str(trace_out), "cli", *args])


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def canonical_digest(stdout: bytes, input_sha256: str) -> str:
    """sha256 of a report with the input's own hash masked out."""
    masked = stdout.replace(input_sha256.encode(), b"<input>")
    masked = masked.replace(f"sha256={input_sha256[:12]}".encode(), b"sha256=<input>")
    return hashlib.sha256(masked).hexdigest()


def identities_hold(inv: Invocation, proc: Proc, n: int) -> bool:
    """The identities each report must satisfy, whatever the input."""
    if proc.status != 0:
        return False
    text = proc.stdout.decode(errors="replace")
    if inv.subcommand == "count":
        return text.strip().isdigit()
    try:
        return _report_identities(inv.subcommand, json.loads(text), n)
    except (ValueError, KeyError, TypeError):
        return False


def _report_identities(subcommand: str, report: dict, n: int) -> bool:
    if subcommand == "degrees":
        return sum(map(int, report["ving_counts"])) == n * int(report["pg"])
    if subcommand == "triangulations":
        return int(report["count"]) == len(report["records"])
    if subcommand == "charge-audit":
        charge = report["total_charge"]
        return int(charge["num"]) == int(report["zero_ving_count"]) << charge["exp"]
    if subcommand == "verify":
        return all(r["status"] != "violated" for r in report["reports"])
    raise KeyError(subcommand)


class Checker:
    """Counts attempted and failed invocations against the reference digests."""

    def __init__(self, reference: dict, inputs: dict[str, Input]):
        self.reference = reference
        self.inputs = inputs
        self.first: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, inv: Invocation, proc: Proc, problems: list[str] | None = None) -> None:
        inp = self.inputs[inv.input_name]
        digest = canonical_digest(proc.stdout, inp.sha256)
        expected = self.reference.get(inv.label)
        problems = list(problems or [])
        if not identities_hold(inv, proc, inp.n):
            problems.append(f"exit {proc.status} or identities violated")
        if expected is not None and (proc.status, digest) != (expected["status"], expected["sha256"]):
            problems.append("differs from reference")
        if self.first.setdefault(inv.label, digest) != digest:
            problems.append("differs from first pass")
        self.record(inv.label, problems)

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.notes.append(f"FAIL {label}: {'; '.join(problems)}")


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def measure_setup(runner: Runner, inputs: dict[str, Input], checker: Checker) -> list[list[Proc]]:
    """`validate` every input, SETUP_REPEATS times; one list of processes per repeat.

    An untimed first call writes the bytecode cache, which users pay once.
    """
    runner.spawn(["-m", "planegraphs.cli", "validate", str(next(iter(inputs.values())).path)])
    repeats = []
    for _ in range(SETUP_REPEATS):
        procs = []
        for name, inp in inputs.items():
            proc = runner.spawn(["-m", "planegraphs.cli", "validate", str(inp.path)])
            ok = proc.status == 0 and proc.stdout.startswith(b"ok:")
            checker.record(f"validate {name}", [] if ok else [f"exit {proc.status}"])
            procs.append(proc)
        repeats.append(procs)
    return repeats


def median_total(groups: list[list[Proc]], attr: str) -> float:
    """Median over groups (passes, set-up repeats) of the group's summed `attr`."""
    return statistics.median(sum(getattr(p, attr) for p in group) for group in groups)


def untraced_pass(runner, workload, inputs, checker) -> list[Proc]:
    procs = []
    for inv in workload.invocations:
        proc = runner.cli(inv, inputs[inv.input_name])
        checker.check(inv, proc)
        procs.append(proc)
    return procs


def traced_pass(runner, workload, inputs, checker) -> tuple[float, dict[str, float]]:
    """Run each invocation under the tracer; return pass time and layer sums.

    Span times are scaled by the child's `speed`, like every other time.
    """
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    counts: dict[str, float] = {}
    wall = 0.0
    for inv in workload.invocations:
        out = runner.workdir / "trace.json"
        out.unlink(missing_ok=True)
        proc = runner.cli(inv, inputs[inv.input_name], trace_out=out)
        wall += proc.ref_s
        if not out.exists():
            checker.check(inv, proc, ["no trace written"])
            continue
        trace = json.loads(out.read_text())
        problems = []
        spans = sum(trace["self_s"].values())
        if abs(spans - trace["total_s"]["cli"]) > 1e-6 * max(1.0, spans):
            problems.append("span self times do not sum to cli.main")
        if trace["memo_entries_at_start"] != 0:
            problems.append("memo not empty at start (warm run)")
        checker.check(inv, proc, problems)
        trace["counts"]["enumeration.memo_entries"] = trace["memo_entries"]
        for name, seconds in trace["self_s"].items():
            key = "verify" if name.startswith("verify.") else name
            self_s[key] = self_s.get(key, 0.0) + seconds * proc.speed
        for name, seconds in trace["total_s"].items():
            total_s[name] = total_s.get(name, 0.0) + seconds * proc.speed
        for name, value in trace["counts"].items():
            counts[name] = counts.get(name, 0) + value
    tables = {"self": self_s, "total": total_s, "count": counts}
    layers = {name: tables[kind].get(key, 0) for name, (_, kind, key) in PER_LAYER.items()}
    return wall, layers


def run_probes(runner, workload, inputs, checker) -> dict[str, float]:
    out = runner.workdir / "probe.json"
    metrics = {name: 0.0 for name in DERIVED}
    for probe, positions in workload.probes.items():
        paths = [str(inputs[workload.invocations[i].input_name].path) for i in positions]
        args = [MAX_N] + paths if probe == "degrees_pool2" else paths
        proc = runner.spawn([str(TRACER), str(out), probe, *args])
        checker.record(f"probe {probe}", [] if proc.status == 0 else [f"exit {proc.status}"])
        if proc.status != 0:
            continue
        result = json.loads(out.read_text())
        seconds = result["seconds"] * proc.speed
        if probe == "dfs_noop":
            metrics["enumeration.dfs_noop_s"] = seconds
            metrics["enumeration.graphs_scanned"] = result["graphs"]
            metrics["enumeration.graphs_per_s"] = result["graphs"] / seconds
        else:
            metrics["enumeration.degrees_pool2_s"] = seconds
    return metrics


def until(seconds: float, step) -> list:
    """Call `step` at least once, and again while another call fits in `seconds`."""
    results, durations = [], []
    t0 = time.perf_counter()
    while True:
        t1 = time.perf_counter()
        results.append(step())
        now = time.perf_counter()
        durations.append(now - t1)
        if now - t0 + statistics.median(durations) > seconds:
            return results


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            reference: dict, log=print) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        inputs = make_inputs(workload, seed, workdir)
        runner = Runner(workdir)
        checker = Checker(reference, inputs)
        if not trace:
            setup = measure_setup(runner, inputs, checker)
            passes = until(seconds, lambda: untraced_pass(runner, workload, inputs, checker))
            metrics = {
                "wall_s": median_total(passes, "ref_s"),
                "setup_s": median_total(setup, "ref_s"),
                "peak_rss_mib": statistics.median(max(p.rss_mib for p in procs) for procs in passes),
            }
            speeds = [p.speed for procs in setup + passes for p in procs]
            log(f"{len(passes)} passes; measured: pass {median_total(passes, 'wall_s'):.4f} s, "
                f"setup {median_total(setup, 'wall_s'):.4f} s; speed median {statistics.median(speeds):.3f}, "
                f"range {min(speeds):.3f}-{max(speeds):.3f}")
            for i, inv in enumerate(workload.invocations):
                log(f"  {inv.label}: median {statistics.median(p[i].wall_s for p in passes):.3f} s, "
                    f"peak {max(p[i].rss_mib for p in passes):.1f} MiB")
            units = END_TO_END
        else:
            def both():
                untraced = sum(p.ref_s for p in untraced_pass(runner, workload, inputs, checker))
                return untraced, traced_pass(runner, workload, inputs, checker)

            pairs = until(seconds, both)
            metrics = {
                name: statistics.median(layers[name] for _, (_, layers) in pairs)
                for name in PER_LAYER
            }
            metrics |= run_probes(runner, workload, inputs, checker)
            if metrics["enumeration.dfs_noop_s"]:
                metrics["charging.visitor_s"] = (
                    metrics["charging.charge_audit_s"] - metrics["enumeration.dfs_noop_s"]
                )
            untraced = statistics.median(u for u, _ in pairs)
            traced = statistics.median(wall for _, (wall, _) in pairs)
            metrics["trace.overhead_frac"] = traced / untraced - 1
            log(f"{len(pairs)} untraced/traced pass pairs; untraced {untraced:.3f} s, traced {traced:.3f} s")
            units = PER_LAYER_UNITS
    for note in checker.notes:
        log(note)
    log(f"fail_frac {checker.failed}/{checker.attempted} = {checker.failed / checker.attempted:.4f}")
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def record_reference(workloads: dict[str, Workload], seed: int) -> dict:
    """Run every invocation once and return its exit status and digest."""
    reference = {}
    for workload in workloads.values():
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
            inputs = make_inputs(workload, seed, Path(tmp))
            runner = Runner(Path(tmp))
            for inv in workload.invocations:
                inp = inputs[inv.input_name]
                proc = runner.cli(inv, inp)
                if not identities_hold(inv, proc, inp.n):
                    raise RuntimeError(f"{inv.label}: exit {proc.status} or identities violated")
                digest = canonical_digest(proc.stdout, inp.sha256)
                reference[inv.label] = {"status": proc.status, "sha256": digest}
    return reference


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=BASE_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite reference.json")
    args = parser.parse_args()
    if not (SRC / "planegraphs" / "cli.py").is_file():
        print(f"error: no planegraphs sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record:
        REFERENCE.write_text(json.dumps(record_reference(WORKLOADS, args.seed), indent=2, sort_keys=True) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    reference = json.loads(REFERENCE.read_text())
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), reference)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
