import hashlib
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import planegraphs
from planegraphs import (
    cli, enumeration, gen_cap_with_apex, gen_convex_chain, gen_triangular_hull_random, geometry,
    save_pts, verify,
)
from planegraphs.cli import build_parser, main

from conftest import convex_count_recurrence, frames_below


@pytest.fixture
def tri_file(tmp_path, triangle):
    path = tmp_path / "tri.pts"
    save_pts(triangle, path)
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


def _child_env() -> dict[str, str]:
    """The environment of a child interpreter that imports the same package
    as this process, installed or not."""
    src = str(Path(planegraphs.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return os.environ | {"PYTHONPATH": path}


class TestValidate:
    def test_ok(self, tri_file, capsys):
        assert run_cli("validate", tri_file) == 0
        assert "ok: 3 points" in capsys.readouterr().out

    def test_collinear_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.pts"
        path.write_text("3\n0 0\n1 1\n2 2\n")
        assert run_cli("validate", path) == 2
        assert "collinear" in capsys.readouterr().out

    def test_missing_file(self, tmp_path, capsys):
        assert run_cli("validate", tmp_path / "nope.pts") == 2

    def test_malformed(self, tmp_path, capsys):
        path = tmp_path / "bad.pts"
        path.write_text("2\n0 0\n")
        assert run_cli("count", path) == 2
        assert "error" in capsys.readouterr().err

    def test_takes_no_cap(self, tmp_path, capsys):
        # perfbench/run.py times `validate` with no flag on its inputs of up
        # to 21 points, past the default cap of the report commands
        pts = tmp_path / "chain21.pts"
        save_pts(gen_convex_chain(21), pts)
        assert run_cli("validate", pts) == 0
        assert capsys.readouterr().out == "ok: 21 points in general position\n"
        with pytest.raises(SystemExit) as exc:
            run_cli("validate", pts, "--max-n", 5)
        assert exc.value.code == 2


class TestCount:
    def test_triangle_prints_8(self, tri_file, capsys):
        assert run_cli("count", tri_file) == 0
        assert capsys.readouterr().out.strip() == "8"

    def test_cap_exceeded(self, tri_file, capsys):
        assert run_cli("count", tri_file, "--max-n", "2") == 2
        assert "exceeds the cap" in capsys.readouterr().err

    def test_json_report(self, tri_file, tmp_path, capsys):
        out = tmp_path / "count.json"
        assert run_cli("count", tri_file, "--out", out) == 0
        payload = json.loads(out.read_text())
        assert payload["pg"] == "8"
        assert payload["tool"] == "planegraphs"
        assert payload["input_sha256"]
        assert "segment_indexing" in payload


class TestDegrees:
    def test_csv_rows(self, tri_file, capsys):
        assert run_cli("degrees", tri_file, "--format", "csv") == 0
        out = capsys.readouterr().out
        body = [ln for ln in out.splitlines() if not ln.startswith("#")]
        assert body[0] == "i,ving_count,vhat_numerator,vhat_denominator"
        assert body[1:] == ["0,6,3,4", "1,12,3,2", "2,6,3,4"]

    def test_json(self, tri_file, capsys):
        assert run_cli("degrees", tri_file) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pg"] == "8"
        assert payload["vhat"][1] == {"num": "3", "den": "2"}


class TestTriangulationsAndAudit:
    def test_triangulations_json(self, tri_file, capsys):
        assert run_cli("triangulations", tri_file) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == "1"
        assert payload["records"][0]["graph"] == "7"

    def test_charge_audit_csv(self, tri_file, capsys):
        assert run_cli("charge-audit", tri_file, "--format", "csv") == 0
        body = [
            ln for ln in capsys.readouterr().out.splitlines() if not ln.startswith("#")
        ]
        assert body[0] == "point,visibility_j,multiplicity"
        assert body[1:] == ["0,2,2", "1,2,2", "2,2,2"]

    def test_charge_audit_json(self, tri_file, capsys):
        assert run_cli("charge-audit", tri_file) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["zero_ving_count"] == "6"
        assert len(payload["per_graph_charges"]) == 8


class TestVerify:
    def test_good_set_exits_zero(self, tmp_path, capsys):
        pts = tmp_path / "ca5.pts"
        save_pts(gen_cap_with_apex(5), pts)
        assert run_cli("verify", pts, "--claims", "v0_upper,previous_lower") == 0
        payload = json.loads(capsys.readouterr().out)
        statuses = {r["claim"]: r["status"] for r in payload["reports"]}
        assert statuses["v0_upper"] == "holds"

    def test_unknown_claim(self, tri_file, capsys):
        assert run_cli("verify", tri_file, "--claims", "bogus") == 2

    @pytest.mark.parametrize("claims", ["v0_upper,", ",", ""])
    def test_empty_claim_is_named(self, tri_file, capsys, claims):
        assert run_cli("verify", tri_file, "--claims", claims) == 2
        assert "error: unknown claims: ''\n" in capsys.readouterr().err

    def test_repeated_claim_runs_once(self, tri_file, capsys):
        outputs = []
        for claims in ("harmonic", "harmonic,harmonic"):
            assert run_cli("verify", tri_file, "--claims", claims) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert len(json.loads(outputs[0])["reports"]) == 2

    @pytest.mark.parametrize("claims", ["stirling", "triangulation_degrees"])
    def test_cap_is_checked_when_the_input_is_read(self, claims, tmp_path, capsys):
        # Neither claim counts anything on convex_chain(13): stirling is
        # analytic and the triangulation lemmas need a triangular hull.  The
        # cap still refuses the input, as it does for every other claim.
        pts = tmp_path / "chain13.pts"
        assert run_cli("gen", "convex_chain", 13, "-o", pts) == 0
        assert run_cli("verify", pts, "--claims", claims) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "exceeds the cap" in captured.err
        assert run_cli("verify", pts, "--claims", claims, "--max-n", 13) == 0
        assert json.loads(capsys.readouterr().out)["reports"]

    # Whole-report digests of every report that `dumps_json` writes, and of
    # the charge-audit and triangulations CSV: any change to a byte of a report shows here.  For
    # `verify`, cap_with_apex 6 asserts every claim and convex_chain 5 takes
    # the not-applicable paths.  `gen_args` of None runs without an input.
    @pytest.mark.parametrize(
        "gen_args, argv, code, sha256",
        [
            (("cap_with_apex", 6), ("verify",), 0,
             "ee4a26126def4975e4e1879bb5695ac34a3e94f9e5af672fe0483ffb39dd9504"),
            (("convex_chain", 5), ("verify",), 0,
             "5fd8970ddb4514cd7affb70e4640a252862d3ef21b56220f9225bfe5884193f1"),
            (("triangular_hull_random", 7, "--seed", 1), ("verify",), 0,
             "9af8678b9769f2692992c955fec4a3de1f87598de3fba545c5e8d52be302177f"),
            (("cap_with_apex", 6), ("charge-audit",), 0,
             "d287679a157d37859398d8d16dc61cd3267dcba8423327d25ceaf0fda22a2743"),
            (("triangular_hull_random", 7, "--seed", 1), ("charge-audit",), 0,
             "61affa7e96122c818b7723d1cdf08f43810d4bd00e17bdb23138106c58e20939"),
            (("cap_with_apex", 6), ("charge-audit", "--format", "csv"), 0,
             "0bcc1d3efc4151991c86da936d9a8089c22b05ff9f4d229ba7398145dc4cf29a"),
            (("triangular_hull_random", 8, "--seed", 1), ("triangulations",), 0,
             "606dee9028dc30eaadbe02a9f23db28de6b9d89201c0076d87959fe89ced71c0"),
            (("triangular_hull_random", 8, "--seed", 1),
             ("triangulations", "--format", "csv"), 0,
             "33b1bb2fbd3ff5d81b1d56053925be3ab5367b3da4bb32059928f5a642119f8c"),
            (("triangular_hull_random", 9, "--seed", 1), ("degrees",), 0,
             "b2337f46b24718ac0b1061de8e5d729f8e222805176b44cb9e79c756188d72ad"),
            (("triangular_hull_random", 14, "--seed", 1), ("degrees", "--max-n", 14), 0,
             "21fa6b946f147da1324872498cbd5dd9f090ac7b77d6274bbb5abb2831d58ad9"),
            (None, ("construction-report", 7, "--format", "json"), 0,
             "82b7b1d19a6e06d3e31e1fcc8b8976f7807fde2459c31ad4c7b9b28c3071c8a5"),
            (None, ("construction-report", 7), 0,
             "f0c4902f3f8600f6e85d9ecdee03ae5e9d07f7078b5bb590d7c15796e798d167"),
            (("triangular_hull_random", 9, "--seed", 1), ("degrees", "--format", "csv"), 0,
             "0a62b10baa8cd237b4d8c1f304076395787742286fa71aa5503a42112810b0cd"),
        ],
        ids=["cap_apex6", "convex5", "random7_seed1", "audit_cap_apex6_json",
             "audit_random7_seed1_json", "audit_cap_apex6_csv", "triangulations_random8_seed1",
             "triangulations_random8_seed1_csv", "degrees_random9_seed1", "degrees_random14_seed1",
             "construction_report7_json", "construction_report7_csv",
             "degrees_random9_seed1_csv"],
    )
    def test_report_bytes_pinned(self, gen_args, argv, code, sha256, tmp_path, capsys):
        if gen_args is None:
            assert run_cli(*argv) == code
        else:
            pts = tmp_path / "in.pts"
            assert run_cli("gen", *gen_args, "-o", pts) == 0
            assert run_cli(argv[0], pts, *argv[1:]) == code
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == sha256

    @pytest.mark.parametrize(
        "fmt, sha256",
        [("json", "250d1780367be86f34d23aa7c6983f3c9c6999c3a26e645687d8114a66b77093"),
         ("csv", "af88c5b910feb597954722af1ce32168d42b2767444e7185b9acf02600d1a11c")],
    )
    def test_count_out_bytes_pinned(self, fmt, sha256, tmp_path, capsys):
        pts, out = tmp_path / "in.pts", tmp_path / f"count.{fmt}"
        assert run_cli("gen", "triangular_hull_random", 9, "--seed", 1, "-o", pts) == 0
        assert run_cli("count", pts, "--format", fmt, "--out", out) == 0
        assert capsys.readouterr().out == "59113472\n"
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


class TestEmptyPointSet:
    @pytest.fixture
    def empty_file(self, tmp_path):
        path = tmp_path / "empty.pts"
        path.write_text("0\n")
        return path

    def test_verify_reports_every_claim(self, empty_file, tmp_path, capsys):
        # A prior lower bound c n > 0 applies only where a degree it counts
        # can occur (n above the smallest one), so on 0, 1 and 2 points the
        # others are not applicable; every claim holds or is not applicable.
        one, two = tmp_path / "one.pts", tmp_path / "two.pts"
        one.write_text("1\n0 0\n")
        two.write_text("2\n0 0\n1 3\n")
        applicable = [set(), {"prior_v0_lower"}, {"prior_v0_lower", "prior_v1_lower"}]
        for n, path in enumerate((empty_file, one, two)):
            assert run_cli("verify", path) == 0, n
            reports = json.loads(capsys.readouterr().out)["reports"]
            statuses = {r["claim"]: r["status"] for r in reports}
            assert "violated" not in statuses.values(), n
            prior = {c: s for c, s in statuses.items() if c.startswith("prior_")}
            assert len(prior) == 4
            assert {c for c, s in prior.items() if s == "holds"} == applicable[n]
            assert {c for c, s in prior.items() if s == "not-applicable"} == (
                set(prior) - applicable[n]
            )
            assert statuses["v0_upper"] == statuses["graph_charge_cap"] == "not-applicable"
            assert statuses["zero_ving_identity"] == "holds"
            assert statuses["zero_ving_growth_consequence"] == "holds"

    def test_charge_audit(self, empty_file, capsys):
        assert run_cli("charge-audit", empty_file) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pg"] == "1"
        assert payload["zero_ving_count"] == "0"
        assert payload["total_charge"] == {"num": "0", "exp": 0}
        assert payload["per_graph_charges"] == [{"graph": "0", "num": "0", "exp": 0}]
        assert payload["family_census"] == []


def test_count_and_triangulations_run_under_a_low_recursion_limit(tmp_path, capsys):
    # Neither the counting kernel nor the triangulation walk recurses: both
    # keep their own stacks, so on convex_chain(12) both finish under a
    # limit 21 frames above the test.  The recursive kernel needed 22.
    pts = tmp_path / "chain12.pts"
    save_pts(gen_convex_chain(12), pts)
    enumeration._workspace.cache_clear()  # no memo from an earlier test
    for command in ("count", "triangulations"):
        build_parser().parse_args([command, str(pts)])  # compile argparse's regexes
    limit = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(frames_below() + 21)
        count_status = run_cli("count", pts)
        count_io = capsys.readouterr()
        tri_status = run_cli("triangulations", pts)
    finally:
        sys.setrecursionlimit(limit)
    assert count_status == 0
    assert count_io.out == f"{convex_count_recurrence(12)[12]}\n"
    assert tri_status == 0
    assert json.loads(capsys.readouterr().out)["count"] == "16796"  # Catalan(10)


@pytest.mark.parametrize(
    "command, make, mib, runs, finishes",
    [
        ("charge-audit", lambda: gen_triangular_hull_random(8, seed=1), 300, 3, False),
        ("charge-audit", lambda: gen_triangular_hull_random(8, seed=1), 1000, 1, False),
        ("degrees", lambda: gen_triangular_hull_random(20, seed=1), 30, 1, False),
        ("degrees", lambda: gen_triangular_hull_random(20, seed=1), 50, 1, True),
        ("count", lambda: gen_triangular_hull_random(22, seed=1), 22, 1, False),
    ],
    ids=["300", "1000", "degrees-random20-30", "degrees-random20-50", "count-random22-22"],
)
def test_out_of_memory_is_a_clean_error(command, make, mib, runs, finishes, tmp_path):
    # charge-audit on random 8 builds a multi-MB report; under an address-space
    # limit on the child alone it runs out in the scan or in the JSON writer,
    # a place that moves from run to run, and must still exit 2, not 1, with
    # one stderr line: the suspended walk is closed before the handler, not
    # finalized after it while the memory is still short.  The counting
    # kernel and the degree pass keep their own stacks, so they too run out
    # in a MemoryError, not in a frame allocation that fails without one.
    # The degree pass frees each component's polynomials at their last
    # use, so random 20 finishes in 50 MiB.
    pts = tmp_path / "input.pts"
    save_pts(make(), pts)
    argv = [sys.executable, "-m", "planegraphs.cli", command, str(pts), "--max-n", "99"]
    limit = mib << 20
    for _ in range(runs):
        proc = subprocess.run(
            argv,
            capture_output=True,
            text=True,
            env=_child_env(),
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        if finishes:
            assert proc.returncode == 0, proc.stderr[-2000:]
            assert proc.stdout == subprocess.run(
                argv, capture_output=True, text=True, env=_child_env(), check=True
            ).stdout
            continue
        assert proc.returncode == 2, proc.stderr[-2000:]
        assert proc.stdout == ""
        assert proc.stderr == "error: input too large (MemoryError: out of memory)\n"


@pytest.mark.parametrize("command", ["count", "degrees", "triangulations", "charge-audit", "verify"])
def test_cap_is_checked_on_the_count_line(command, tmp_path, capsys, monkeypatch):
    # the declared count is refused before the O(n^3) general-position pass,
    # and before the coordinate lines are counted: a file that declares 13
    # points and holds 3 gets the cap error, not the line-count one
    pts = tmp_path / "chain13.pts"
    save_pts(gen_convex_chain(13), pts)
    short = tmp_path / "short13.pts"
    short.write_text("13\n0 0\n4 0\n0 4\n")
    calls = []
    real = geometry._orientations
    monkeypatch.setattr(geometry, "_orientations", lambda p: calls.append(len(p)) or real(p))
    for path in (pts, short):
        assert run_cli(command, path) == 2, path
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: n=13 exceeds the cap of 12 (use --max-n to raise it)\n"
    assert calls == []


def test_directory_is_a_usage_error(tri_file, tmp_path, capsys):
    # a path that cannot be read or written exits 2, which `verify` does
    # not use for a violated claim, with one error line
    for argv in (("verify", tmp_path), ("count", tmp_path),
                 ("degrees", tri_file, "--out", tmp_path), ("count", tri_file, "--out", tmp_path)):
        assert run_cli(*argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert "Traceback" not in captured.err, argv
        errors = captured.err.splitlines()
        assert len(errors) == 1 and errors[0].startswith("error: "), argv


_OUT_REPORTS = [
    ("degrees",), ("degrees", "--format", "csv"),
    ("triangulations",), ("triangulations", "--format", "csv"),
    ("charge-audit",), ("charge-audit", "--format", "csv"),
    ("verify",),
]


@pytest.mark.parametrize(
    "gen_args, argv",
    [
        (gen_args, argv)
        for gen_args in (("cap_with_apex", 6), ("triangular_hull_random", 7, "--seed", 1))
        for argv in _OUT_REPORTS
    ]
    + [(None, ("construction-report", 6)), (None, ("construction-report", 6, "--format", "json"))],
    ids=lambda v: "-".join(map(str, v)) if v else "no-input",
)
def test_out_writes_the_stdout_bytes(gen_args, argv, tmp_path, capsys):
    # the same report goes to --out as to stdout, and an --out run leaves
    # stdout empty
    if gen_args is None:
        args = list(argv)
    else:
        pts = tmp_path / "in.pts"
        assert run_cli("gen", *gen_args, "-o", pts) == 0
        args = [argv[0], pts, *argv[1:]]
    assert run_cli(*args) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / "report"
    assert run_cli(*args, "--out", out) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == stdout.encode()


class TestGen:
    def test_gen_count_pipeline(self, tmp_path, capsys):
        pts = tmp_path / "chain5.pts"
        assert run_cli("gen", "convex_chain", 5, "-o", pts) == 0
        assert run_cli("count", pts) == 0
        assert capsys.readouterr().out.strip() == "352"

    def test_gen_to_stdout(self, capsys):
        assert run_cli("gen", "convex_chain", 3) == 0
        assert capsys.readouterr().out == "3\n1 -1\n2 -4\n3 -9\n"

    def test_gen_random_seeded(self, tmp_path):
        a, b = tmp_path / "a.pts", tmp_path / "b.pts"
        assert run_cli("gen", "triangular_hull_random", 6, "--seed", 4, "-o", a) == 0
        assert run_cli("gen", "triangular_hull_random", 6, "--seed", 4, "-o", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_gen_random_refuses_more_points_than_its_grid_holds(self, tmp_path):
        # no three points share a row of the grid, and its last interior row
        # holds one candidate, so 3 + 2 * (4096 - 3) + 1 fit; past that the
        # rejection sampling would never end, hence the timeout
        for n in (8191, 8192):
            out = tmp_path / f"big{n}.pts"
            proc = subprocess.run(
                [sys.executable, "-m", "planegraphs.cli", "gen", "triangular_hull_random",
                 str(n), "-o", str(out)],
                capture_output=True,
                text=True,
                env=_child_env(),
                timeout=10,
            )
            assert proc.returncode == 2
            assert proc.stdout == ""
            assert proc.stderr == (
                f"error: triangular_hull_random fits at most 8190 points, got {n}\n"
            )
            assert not out.exists()


class TestConstructionReport:
    def test_csv(self, capsys):
        assert run_cli("construction-report", "6") == 0
        out = capsys.readouterr().out
        assert "fn_ratio" in out and "v0_trend" in out

    def test_json(self, capsys):
        assert run_cli("construction-report", "5", "--format", "json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["product_law"] == [
            {"n": 4, "status": "holds"}, {"n": 5, "status": "holds"}
        ]

    def test_product_law_runs_only_for_json(self, capsys, monkeypatch):
        # The CSV report has no product_law table, so it checks no law.
        calls = []
        real = verify.verify_product_law
        monkeypatch.setattr(verify, "verify_product_law", lambda n: calls.append(n) or real(n))
        assert run_cli("construction-report", "6") == 0
        assert calls == []
        assert run_cli("construction-report", "6", "--format", "json") == 0
        assert calls == [4, 5, 6]

    def test_cap_exceeded(self, capsys):
        assert run_cli("construction-report", "7", "--max-n", "6") == 2
        assert "exceeds the cap" in capsys.readouterr().err

    @pytest.mark.parametrize("n_max", ["-2", "0", "1", "2"])
    def test_rejects_sizes_below_three(self, n_max, capsys):
        assert run_cli("construction-report", n_max) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: n_max must be at least 3, got {n_max}\n"


def test_console_script_entry_point(tmp_path):
    pts = tmp_path / "tri.pts"
    save_pts(gen_convex_chain(3), pts)
    proc = subprocess.run(
        [sys.executable, "-m", "planegraphs.cli", "count", str(pts)],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "8"


# Runs that compare against no irrational bound must not pay to import
# mpmath, and no run loads the process-pool machinery: every degree row
# comes from one serial pass.
_IMPORT_PROBE = """
import json, sys
from planegraphs.cli import main
HEAVY = ("mpmath", "concurrent.futures", "multiprocessing")
def loaded():
    return [m for m in HEAVY if m in sys.modules]
pts = sys.argv[1]
codes = [main([command, pts]) for command in
         ("validate", "count", "degrees", "triangulations", "charge-audit")]
light = loaded()
codes.append(main(["verify", pts, "--claims", "stirling"]))
print(json.dumps({"codes": codes, "light": light, "verify": loaded()}),
      file=sys.stderr)
"""


def test_light_commands_do_not_import_mpmath_or_pools(tmp_path):
    pts = tmp_path / "ca5.pts"
    save_pts(gen_cap_with_apex(5), pts)
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(pts)],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stderr.splitlines()[-1])
    assert result["codes"] == [0] * 6
    assert result["light"] == []
    assert "mpmath" in result["verify"]


def _importtime_modules(*argv: str) -> set[str]:
    """Modules a fresh ``python -X importtime <argv>`` imports, read from its stderr."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *argv],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return {
        line.rpartition("|")[2].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    }


# What no command below may import, unless the bare interpreter already does;
# `fractions` (with `decimal` and `numbers`) only where a Fraction is built.
_NOT_IMPORTED = {"planegraphs.verify", "planegraphs.charging", "planegraphs.certified", "dataclasses"}
_NO_FRACTION = {"validate", "count", "gen", "verify"}


@pytest.mark.parametrize(
    "argv",
    [["validate"], ["count"], ["degrees"], ["triangulations"],
     ["gen", "convex_chain", "5"], ["verify", "--help"]],
    ids=lambda argv: " ".join(argv),
)
def test_commands_import_only_what_they_run(argv, tmp_path):
    pts = tmp_path / "ca5.pts"
    save_pts(gen_cap_with_apex(5), pts)
    if len(argv) == 1:
        argv = [*argv, str(pts)]
    bare = _importtime_modules("-c", "pass")
    loaded = _importtime_modules("-m", "planegraphs.cli", *argv)
    assert "planegraphs.geometry" in loaded  # the probe sees the package
    forbidden = _NOT_IMPORTED | ({"fractions"} if argv[0] in _NO_FRACTION else set())
    assert (forbidden - bare) & loaded == set()
    assert ("planegraphs.constructions" in loaded) == (argv[0] == "gen")


def test_package_names_resolve_on_first_use():
    loaded = _importtime_modules("-c", "import planegraphs")
    assert {m for m in loaded if m.startswith("planegraphs.")} == set()
    for name in planegraphs.__all__:
        value = getattr(planegraphs, name)
        home = sys.modules[f"planegraphs.{planegraphs._HOME[name]}"]
        assert value is getattr(home, name)
    assert planegraphs.certified is sys.modules["planegraphs.certified"]
    assert not hasattr(planegraphs, "no_such_name")


def test_verify_still_imports_the_verifiers(tmp_path):
    pts = tmp_path / "ca5.pts"
    save_pts(gen_cap_with_apex(5), pts)
    loaded = _importtime_modules("-m", "planegraphs.cli", "verify", str(pts), "--claims", "v0_upper")
    assert "planegraphs.verify" in loaded


def test_verify_run_loads_no_dataclasses(tmp_path):
    # a report is a NamedTuple: no run pays for dataclasses, inspect and ast
    pts = tmp_path / "ca5.pts"
    save_pts(gen_cap_with_apex(5), pts)
    loaded = _importtime_modules("-m", "planegraphs.cli", "verify", str(pts))
    assert "planegraphs.verify" in loaded
    assert "dataclasses" not in loaded - _importtime_modules("-c", "pass")


def test_verify_help_names_every_claim(capsys):
    # the parser spells the claims without importing the verifiers; its copy
    # of the names must be verify.ALL_CLAIMS, in order
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["verify", "--help"])
    assert exc.value.code == 0
    help_text = " ".join(capsys.readouterr().out.split())
    listed = help_text.partition("comma-separated subset of: ")[2]
    assert [name.strip() for name in listed.split(",")] == verify.ALL_CLAIMS


@pytest.mark.parametrize(
    "argv",
    [["count"], ["degrees"], ["triangulations"], ["charge-audit"],
     ["verify", "--claims", "v0_upper"]],
    ids=lambda argv: argv[0],
)
def test_input_is_read_once(argv, tri_file, capsys, monkeypatch):
    # the cap is checked on the same text that the point set is parsed from
    reads = []
    real = Path.read_text
    monkeypatch.setattr(Path, "read_text", lambda self, *a, **k: reads.append(self) or real(self, *a, **k))
    command, *extra = argv
    assert run_cli(command, tri_file, *extra) == 0
    assert reads == [tri_file]


@pytest.mark.parametrize("flag", [["--workers", "2"], ["--force"]], ids=["workers", "force"])
@pytest.mark.parametrize(
    "argv",
    [["count", "x.pts"], ["degrees", "x.pts"], ["triangulations", "x.pts"],
     ["charge-audit", "x.pts"], ["verify", "x.pts"], ["construction-report", "5"]],
    ids=lambda argv: argv[0],
)
def test_report_commands_refuse_workers_and_force(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([*argv, *flag])
    assert exc.value.code == 2


def test_format_not_on_verify(tri_file, tmp_path, capsys):
    # verify writes JSON alone, so asking it for another format is a usage
    # error that writes no report
    out = tmp_path / "report.csv"
    with pytest.raises(SystemExit) as exc:
        run_cli("verify", tri_file, "--format", "csv", "--out", out)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    assert not out.exists()
    parser = build_parser()
    for command in ("count", "degrees", "triangulations", "charge-audit"):
        assert parser.parse_args([command, "x.pts", "--format", "csv"]).fmt == "csv"
