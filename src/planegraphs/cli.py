"""Batch command-line front end.

Subcommands: validate, count, degrees, triangulations, charge-audit, verify,
gen, construction-report.  Exit status 0 on success, 1 when an applicable
verified claim is violated, 2 on usage or validation errors, on paths that
cannot be read or written, and on inputs too large to finish (recursion
depth or memory exhausted).  Reports are byte-identical across runs.

The point-count cap is a property of the input, and this module alone
knows it: `--max-n`, else $PLANEGRAPH_MAX_N, else ``DEFAULT_MAX_N``;
`--force` lifts it.  It is checked once, right after the input is read (the
.pts file, or `construction-report`'s n_max) and before any work starts, so
the same n gets the same refusal whatever `--claims` selects, and a refused
run writes nothing to stdout.  The library functions take no cap.
`--workers` is on `degrees` alone; it must be at least 1 and starts
nothing, since every degree row comes from one serial pass, so the report
does not depend on it.  `--format` is on every report command but
`verify`, which writes JSON alone; `count` always prints pg on stdout, and
`--format` shapes its `--out` report.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .constructions import ConstructionSpec, fn_ratio_table, v0_trend_table
from .charging import charge_audit
from .enumeration import (
    EnumerationLimitError,
    count_plane_graphs,
    enumerate_triangulations,
    expected_degree_vector,
)
from .geometry import GeneralPositionError, PointSet, load_pts
from .reports import dumps_csv, dumps_json, envelope
from .verify import ALL_CLAIMS, run_claims, verify_product_law

DEFAULT_MAX_N = 12
ENV_MAX_N = "PLANEGRAPH_MAX_N"


def _check_cap(args: argparse.Namespace, n: int) -> None:
    """Refuse n points above the cap: `--max-n`, else $PLANEGRAPH_MAX_N, else
    ``DEFAULT_MAX_N``.  `--force` lifts it."""
    cap = args.max_n
    if cap is None:
        env = os.environ.get(ENV_MAX_N)
        try:
            cap = int(env) if env else DEFAULT_MAX_N
        except ValueError:
            raise ValueError(f"{ENV_MAX_N} must be an integer, got {env!r}") from None
    if n > cap and not args.force:
        raise EnumerationLimitError(f"n={n} exceeds the cap of {cap}")


def _load(args: argparse.Namespace) -> PointSet:
    """The input point set, refused if it exceeds the cap."""
    ps = load_pts(args.pts)
    _check_cap(args, ps.n)
    return ps


def _add_common(parser: argparse.ArgumentParser, formats: bool = True) -> None:
    parser.add_argument("pts", help="point-set file in .pts format")
    if formats:
        parser.add_argument("--format", choices=("json", "csv"), default="json", dest="fmt")
    parser.add_argument("--out", type=Path, default=None, help="write the report here instead of stdout")
    parser.add_argument("--max-n", type=int, default=None, help="override the point-count cap")
    parser.add_argument("--force", action="store_true", help="proceed past the cap")


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text)


def cmd_validate(args) -> int:
    try:
        ps = load_pts(args.pts)
    except GeneralPositionError as exc:
        for kind, labels in exc.violations:
            print(f"violation: {kind} {labels}")
        return 2
    print(f"ok: {ps.n} points in general position")
    return 0


def cmd_count(args) -> int:
    ps = _load(args)
    pg = count_plane_graphs(ps)
    print(pg)
    if args.out is not None:
        if args.fmt == "json":
            payload = envelope("count", ps) | {"n": ps.n, "pg": str(pg)}
            _emit(dumps_json(payload), args.out)
        else:
            _emit(dumps_csv("count", ps, ["n", "pg"], [[ps.n, pg]]), args.out)
    return 0


def cmd_degrees(args) -> int:
    ps = _load(args)
    dv = expected_degree_vector(ps, workers=args.workers)
    if args.fmt == "json":
        payload = envelope("degrees", ps) | {
            "n": ps.n,
            "pg": str(dv.pg),
            "ving_counts": [str(v) for v in dv.ving_counts],
            "vhat": list(dv.vhat),
        }
        _emit(dumps_json(payload), args.out)
    else:
        rows = [
            [i, dv.ving_counts[i], dv.vhat[i].numerator, dv.vhat[i].denominator]
            for i in range(ps.n)
        ]
        _emit(
            dumps_csv("degrees", ps, ["i", "ving_count", "vhat_numerator", "vhat_denominator"], rows),
            args.out,
        )
    return 0


def cmd_triangulations(args) -> int:
    ps = _load(args)
    stats = enumerate_triangulations(ps)
    if args.fmt == "json":
        payload = envelope("triangulations", ps) | {
            "count": str(stats.count),
            "records": [
                {
                    "graph": f"{r.edges:x}",
                    "v3": r.v3,
                    "v4": r.v4,
                    "histogram": list(r.histogram),
                }
                for r in stats.records
            ],
        }
        _emit(dumps_json(payload), args.out)
    else:
        rows = [
            [f"{r.edges:x}", r.v3, r.v4, " ".join(map(str, r.histogram))]
            for r in stats.records
        ]
        _emit(dumps_csv("triangulations", ps, ["graph", "v3", "v4", "histogram"], rows), args.out)
    return 0


def cmd_charge_audit(args) -> int:
    ps = _load(args)
    audit = charge_audit(ps)
    if args.fmt == "json":
        payload = envelope("charge-audit", ps) | {
            "pg": str(audit["pg"]),
            "zero_ving_count": str(audit["zero_ving_count"]),
            "total_charge": {
                "num": str(audit["total_charge_numerator"]),
                "exp": audit["total_charge_exponent"],
            },
            "per_graph_charges": audit["per_graph_charges"],
            "family_census": audit["family_census"],
        }
        _emit(dumps_json(payload), args.out)
    else:
        rows = [
            [row["point"], row["visibility_j"], row["multiplicity"]]
            for row in audit["family_census"]
        ]
        _emit(
            dumps_csv("charge-audit", ps, ["point", "visibility_j", "multiplicity"], rows),
            args.out,
        )
    return 0


def cmd_verify(args) -> int:
    ps = _load(args)
    claims = args.claims.split(",") if args.claims else None
    reports = run_claims(ps, claims)
    payload = envelope("verify", ps) | {"reports": [vars(r) for r in reports]}
    _emit(dumps_json(payload), args.out)
    return 1 if any(r.status == "violated" for r in reports) else 0


def cmd_gen(args) -> int:
    spec = ConstructionSpec(kind=args.kind, n=args.n, seed=args.seed)
    _emit(spec.build().to_pts(), args.out)
    return 0


def cmd_construction_report(args) -> int:
    n_max = args.n_max
    if n_max < 3:
        raise ValueError(f"n_max must be at least 3, got {n_max}")
    _check_cap(args, n_max)
    ratio_rows = fn_ratio_table(n_max)
    trend_rows = v0_trend_table(n_max)
    product = [verify_product_law(n) for n in range(4, n_max + 1)]
    if args.fmt == "json":
        payload = envelope("construction-report", None) | {
            "fn_ratio": [
                {**row, "exact": str(row["exact"])} for row in ratio_rows
            ],
            "v0_trend": trend_rows,
            "product_law": [
                {"n": 4 + i, "status": r.status} for i, r in enumerate(product)
            ],
        }
        _emit(dumps_json(payload), args.out)
    else:
        rows = []
        for row in ratio_rows:
            rows.append(
                ["fn_ratio", row["m"], row["exact"], repr(row["ratio"]),
                 "" if row["growth_factor"] is None else repr(row["growth_factor"]), ""]
            )
        for row in trend_rows:
            rows.append(
                ["v0_trend", row["n"], row["vhat0"],
                 repr(row["scaled_23.31"]), repr(row["scaled_23.314"]),
                 repr(row["scaled_23.32"])]
            )
        _emit(
            dumps_csv(
                "construction-report", None,
                ["table", "size", "value", "x1", "x2", "x3"], rows,
            ),
            args.out,
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planegraphs",
        description="Exact enumeration, statistics and claim verification "
        "for plane graphs on small integer point sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a .pts file for general position")
    p.add_argument("pts")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("count", help="print pg(P), the number of plane graphs")
    _add_common(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("degrees", help="exact expected-degree statistics")
    _add_common(p)
    p.add_argument(
        "--workers", type=int, default=1, help="starts nothing: one serial pass (default 1)"
    )
    p.set_defaults(func=cmd_degrees)

    p = sub.add_parser("triangulations", help="enumerate maximal plane graphs")
    _add_common(p)
    p.set_defaults(func=cmd_triangulations)

    p = sub.add_parser("charge-audit", help="per-graph charges and family census")
    _add_common(p)
    p.set_defaults(func=cmd_charge_audit)

    p = sub.add_parser("verify", help="run claim verifiers against a point set")
    _add_common(p, formats=False)
    p.add_argument(
        "--claims",
        default=None,
        help="comma-separated subset of: " + ", ".join(ALL_CLAIMS),
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="generate a construction and write .pts")
    p.add_argument("kind", choices=("convex_chain", "cap_with_apex", "triangular_hull_random"))
    p.add_argument("n", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", type=Path, default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("construction-report", help="asymptotics ratio and trend tables")
    p.add_argument("n_max", type=int)
    p.add_argument("--format", choices=("json", "csv"), default="csv", dest="fmt")
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_construction_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EnumerationLimitError as exc:
        print(f"error: {exc} (use --force or --max-n to override)", file=sys.stderr)
        return 2
    except OSError as exc:  # a missing, unreadable or unwritable path
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RecursionError, MemoryError) as exc:
        # Huge inputs past the cap (--force) can exhaust the memory, or the
        # recursion limit of the counting DP, the one code that recurses.
        print(f"error: input too large ({type(exc).__name__}: {exc})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
