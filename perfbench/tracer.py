"""Traced child process: one planegraphs CLI invocation, or one layer probe.

Usage (with ``src`` on PYTHONPATH):

    python3 perfbench/tracer.py OUT.json cli <planegraphs arguments...>
    python3 perfbench/tracer.py OUT.json dfs_noop <pts>
    python3 perfbench/tracer.py OUT.json degrees_pool2 <max_n> <pts>...

The ``cli`` mode wraps the public entry points of every planegraphs module
(patched on the module objects, in every namespace that imported them; no
per-graph visitor and no ``_Workspace`` method is wrapped), runs
``planegraphs.cli.main`` on a cold process, and writes per-span self times,
inclusive times and work counters to OUT.json.  The report
itself goes to stdout exactly as the untraced CLI writes it.

Self time of a span is its duration minus the durations of the spans it
called, so the self times of one invocation sum to the wall time of
``cli.main``.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from collections import Counter, defaultdict

from planegraphs import certified, charging, cli, crossings, enumeration, geometry, reports, verify


class Tracer:
    """Span stack with per-name self/inclusive time accumulators."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._child_s: list[float] = []

    def wrap(self, name, fn, on_result=None):
        clock = time.perf_counter
        stack = self._child_s

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self.self_s[name] += dt - stack.pop()
                self.total_s[name] += dt
                if stack:
                    stack[-1] += dt
            if on_result is not None:
                on_result(result, *args)
            return result

        return wrapper

    def patch(self, module, attr, name, on_result=None) -> None:
        """Replace `module.attr` in every planegraphs namespace that holds it."""
        original = getattr(module, attr)
        wrapped = self.wrap(name, original, on_result)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").partition(".")[0] != "planegraphs":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def _cold_start() -> int:
    """Empty the value-keyed caches; return the memo entries still reachable."""
    crossings.structures.cache_clear()
    enumeration._workspace.cache_clear()
    return _memo_entries()


def _memo_entries() -> int:
    return sum(
        len(obj.memo) for obj in gc.get_objects() if isinstance(obj, enumeration._Workspace)
    )


def install(tracer: Tracer) -> None:
    structures = crossings.structures

    def on_structures(result, ps):
        # Count only builds, not cache hits: a hit leaves `misses` unchanged.
        misses = structures.cache_info().misses
        if misses != tracer.counts["crossings.builds"]:
            tracer.counts["crossings.builds"] = misses
            table, cross = result
            tracer.counts["crossings.segments"] += table.m
            tracer.counts["crossings.crossing_pairs"] += cross.total_crossing_pairs

    def on_degrees(result, ps, *rest):
        tracer.counts["enumeration.degree_queries"] += ps.n << (ps.n - 1)

    def on_triangulations(result, *args):
        tracer.counts["enumeration.triangulations"] += result.count

    def on_log_interval(result, *args):
        tracer.counts["certified.log_interval_calls"] += 1

    def on_dumps(result, *args):
        tracer.counts["reports.bytes"] += len(result)  # reports are ASCII

    tracer.patch(cli, "main", "cli")
    tracer.patch(geometry, "load_pts", "geometry.load_pts")
    tracer.patch(crossings, "structures", "crossings.build", on_structures)
    tracer.patch(enumeration, "count_plane_graphs", "enumeration.count")
    tracer.patch(enumeration, "expected_degree_vector", "enumeration.degrees", on_degrees)
    tracer.patch(enumeration, "enumerate_plane_graphs", "enumeration.scan")
    tracer.patch(
        enumeration, "enumerate_triangulations", "enumeration.triangulations", on_triangulations
    )
    tracer.patch(charging, "charge_audit", "charging.charge_audit")
    tracer.patch(charging, "family_census", "charging.family_census")
    for attr in ("pi_interval", "ln2_interval", "harmonic_interval", "certify_strictly_below"):
        tracer.patch(certified, attr, "certified")
    tracer.patch(certified, "log_interval", "certified", on_log_interval)
    tracer.patch(reports, "dumps_json", "reports.dumps", on_dumps)
    tracer.patch(reports, "dumps_csv", "reports.dumps", on_dumps)
    for registry in (verify.POINTSET_CLAIMS, verify.ANALYTIC_CLAIMS):
        for claim, fn in registry.items():
            registry[claim] = tracer.wrap(f"verify.{claim}", fn)


def run_cli(*argv: str) -> dict:
    memo_at_start = _cold_start()
    tracer = Tracer()
    install(tracer)
    status = cli.main(list(argv))
    sys.stdout.flush()
    return {
        "status": status,
        "memo_entries_at_start": memo_at_start,
        "memo_entries": _memo_entries(),
        "self_s": dict(tracer.self_s),
        "total_s": dict(tracer.total_s),
        "counts": dict(tracer.counts),
    }


def run_dfs_noop(path: str) -> dict:
    ps = geometry.load_pts(path)
    _cold_start()
    enumeration.workspace(ps)  # build crossings outside the timed scan
    t0 = time.perf_counter()
    scanned = enumeration.enumerate_plane_graphs(ps, lambda g: None, max_n=ps.n)
    return {"seconds": time.perf_counter() - t0, "graphs": scanned}


def run_degrees_pool2(max_n: str, *paths: str) -> dict:
    point_sets = [geometry.load_pts(p) for p in paths]
    _cold_start()
    t0 = time.perf_counter()
    for ps in point_sets:
        enumeration.expected_degree_vector(ps, max_n=int(max_n), workers=2)
    return {"seconds": time.perf_counter() - t0}


MODES = {"cli": run_cli, "dfs_noop": run_dfs_noop, "degrees_pool2": run_degrees_pool2}


if __name__ == "__main__":
    out_path, mode, *rest = sys.argv[1:]
    result = MODES[mode](*rest)
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    sys.exit(result.get("status", 0))
