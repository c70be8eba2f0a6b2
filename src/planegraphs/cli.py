"""Batch command-line front end.

Subcommands: validate, count, degrees, triangulations, charge-audit, verify,
gen, construction-report.  Exit status 0 on success, 1 when an applicable
verified claim is violated, 2 on usage or validation errors, on paths that
cannot be read or written, and on inputs too large to finish (memory
exhausted), 3 when an internal self-check fails with a
:class:`~planegraphs.geometry.SelfCheckError` (a fault of the program, named
on stderr); any other error propagates.  Reports are byte-identical across runs.

The point-count cap is a property of the input, and this module alone
knows it: `--max-n`, ``DEFAULT_MAX_N`` unless given.  It is checked once, on
the count that the .pts file declares on its first line (or on
`construction-report`'s n_max), before the general-position pass or any
other work, so the same n gets the same refusal whatever `--claims` selects,
and a refused run writes nothing to stdout.  `validate` takes no cap, and
the library functions take none.
`--format` is on every report command but `verify`, which writes JSON
alone; `count` always prints pg on stdout, and `--format` shapes its
`--out` report.

One writer, ``_report``, writes every report: a command states its JSON
fields and its CSV table once each, and only the form `--format` asks for
is built.  ``_report`` is the one place that loads ``reports``, so `count`
without `--out` never loads it.

A run imports only what its command reaches: each command imports the
modules it runs, so `validate` loads the geometry alone, and `count`,
`degrees` and `triangulations` never load the verifiers, the charging audit
or the constructions.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .geometry import GeneralPositionError, PointSet, SelfCheckError, load_pts

DEFAULT_MAX_N = 12

# The claim names of `verify.ALL_CLAIMS`, in its order, for `verify --help`
# without importing the verifiers; a test holds the two equal.
CLAIM_NAMES = (
    "v0_upper", "vi_upper", "previous_lower", "visibility", "triangulation_degrees",
    "charge_cap", "zero_ving", "harmonic", "stirling", "central_binomial", "charge_argmax",
)


def _check_cap(args: argparse.Namespace, n: int) -> None:
    if n > args.max_n:
        raise ValueError(f"n={n} exceeds the cap of {args.max_n} (use --max-n to raise it)")


def _load(args: argparse.Namespace) -> PointSet:
    """The input point set, read once and refused on its declared count if
    that exceeds the cap."""
    return load_pts(args.pts, lambda n: _check_cap(args, n))


def _add_common(parser: argparse.ArgumentParser, fmt: str | None) -> None:
    """`--format` with default `fmt` (none if `fmt` is None), `--out` and `--max-n`."""
    if fmt is not None:
        parser.add_argument("--format", choices=("json", "csv"), default=fmt, dest="fmt")
    parser.add_argument("--out", type=Path, default=None, help="write the report here instead of stdout")
    parser.add_argument(
        "--max-n", type=int, default=DEFAULT_MAX_N,
        help="refuse inputs of more points (default %(default)s)",
    )


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text)


def _report(args, subcommand: str, ps: PointSet | None, body, table) -> None:
    """Write `subcommand`'s report on `ps` in the form that `args.fmt` asks
    for: JSON, the envelope merged with the fields that `body()` returns, or
    CSV, the `(header, rows)` that `table()` returns.  Only that form is
    built."""
    from .reports import dumps_csv, dumps_json, envelope

    if args.fmt == "json":
        _emit(dumps_json(envelope(subcommand, ps) | body()), args.out)
    else:
        _emit(dumps_csv(subcommand, ps, *table()), args.out)


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
    from .enumeration import count_plane_graphs

    ps = _load(args)
    pg = count_plane_graphs(ps)
    if args.out is not None:  # written first: a failed write leaves stdout empty
        _report(
            args, "count", ps,
            lambda: {"n": ps.n, "pg": str(pg)},
            lambda: (["n", "pg"], [[ps.n, pg]]),
        )
    print(pg)
    return 0


def cmd_degrees(args) -> int:
    from .enumeration import expected_degree_vector

    ps = _load(args)
    dv = expected_degree_vector(ps)
    _report(
        args, "degrees", ps,
        lambda: {
            "n": ps.n,
            "pg": str(dv.pg),
            "ving_counts": [str(v) for v in dv.ving_counts],
            "vhat": list(dv.vhat),
        },
        lambda: (
            ["i", "ving_count", "vhat_numerator", "vhat_denominator"],
            [
                [i, dv.ving_counts[i], dv.vhat[i].numerator, dv.vhat[i].denominator]
                for i in range(ps.n)
            ],
        ),
    )
    return 0


def cmd_triangulations(args) -> int:
    from .enumeration import enumerate_triangulations

    ps = _load(args)
    stats = enumerate_triangulations(ps)
    _report(
        args, "triangulations", ps,
        lambda: {
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
        },
        lambda: (
            ["graph", "v3", "v4", "histogram"],
            [
                [f"{r.edges:x}", r.v3, r.v4, " ".join(map(str, r.histogram))]
                for r in stats.records
            ],
        ),
    )
    return 0


def cmd_charge_audit(args) -> int:
    from .charging import charge_audit

    ps = _load(args)
    audit = charge_audit(ps)
    columns = ["point", "visibility_j", "multiplicity"]
    _report(
        args, "charge-audit", ps,
        lambda: audit,
        lambda: (columns, [[row[c] for c in columns] for row in audit["family_census"]]),
    )
    return 0


def cmd_verify(args) -> int:
    from .verify import VIOLATED, run_claims

    ps = _load(args)
    claims = args.claims.split(",") if args.claims is not None else None
    reports = run_claims(ps, claims)
    _report(args, "verify", ps, lambda: {"reports": [r._asdict() for r in reports]}, None)
    return 1 if any(r.status == VIOLATED for r in reports) else 0


def cmd_gen(args) -> int:
    from .constructions import ConstructionSpec

    spec = ConstructionSpec(kind=args.kind, n=args.n, seed=args.seed)
    _emit(spec.build().to_pts(), args.out)
    return 0


def cmd_construction_report(args) -> int:
    from .constructions import fn_ratio_table, v0_trend_table

    n_max = args.n_max
    if n_max < 3:
        raise ValueError(f"n_max must be at least 3, got {n_max}")
    _check_cap(args, n_max)
    ratio_rows = fn_ratio_table(n_max)
    trend_rows = v0_trend_table(n_max)

    def body() -> dict:
        from .verify import verify_product_law

        return {
            "fn_ratio": [
                {**row, "exact": str(row["exact"])} for row in ratio_rows
            ],
            "v0_trend": trend_rows,
            "product_law": [
                {"n": n, "status": verify_product_law(n).status} for n in range(4, n_max + 1)
            ],
        }

    def table() -> tuple[list[str], list[list]]:
        rows = [
            ["fn_ratio", row["m"], row["exact"], repr(row["ratio"]),
             "" if row["growth_factor"] is None else repr(row["growth_factor"]), ""]
            for row in ratio_rows
        ]
        rows += [
            ["v0_trend", row["n"], row["vhat0"],
             repr(row["scaled_23.31"]), repr(row["scaled_23.314"]),
             repr(row["scaled_23.32"])]
            for row in trend_rows
        ]
        return ["table", "size", "value", "x1", "x2", "x3"], rows

    _report(args, "construction-report", None, body, table)
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

    for name, func, fmt, text in (
        ("count", cmd_count, "json", "print pg(P), the number of plane graphs"),
        ("degrees", cmd_degrees, "json", "exact expected-degree statistics"),
        ("triangulations", cmd_triangulations, "json", "enumerate maximal plane graphs"),
        ("charge-audit", cmd_charge_audit, "json", "per-graph charges and family census"),
        ("verify", cmd_verify, None, "run claim verifiers against a point set"),  # JSON alone
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("pts", help="point-set file in .pts format")
        _add_common(p, fmt)
        p.set_defaults(func=func, fmt="json")  # verify, without --format, writes JSON
        if name == "verify":
            p.add_argument(
                "--claims",
                default=None,
                help="comma-separated subset of: " + ", ".join(CLAIM_NAMES),
            )

    p = sub.add_parser("gen", help="generate a construction and write .pts")
    p.add_argument("kind", choices=("convex_chain", "cap_with_apex", "triangular_hull_random"))
    p.add_argument("n", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", type=Path, default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("construction-report", help="asymptotics ratio and trend tables")
    p.add_argument("n_max", type=int)
    _add_common(p, "csv")
    p.set_defaults(func=cmd_construction_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # Huge inputs under a raised --max-n can exhaust the memory.  This
    # handler comes first and allocates nothing; the message is written
    # after it, once the traceback, and the frames with a half-built report
    # that it holds, are freed.
    except MemoryError:
        too_large = "error: input too large (MemoryError: out of memory)\n"
    except (OSError, ValueError) as exc:  # bad input, a refused cap, or a path that fails
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SelfCheckError as exc:
        print(f"error: self-check failed: {exc}", file=sys.stderr)  # a fault of the program
        return 3
    sys.stderr.write(too_large)
    return 2


if __name__ == "__main__":
    sys.exit(main())
