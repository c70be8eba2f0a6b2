"""A failed self-check is a fault of the program, not a refuted claim.

Each internal consistency check is fed a corrupted input: a flipped digit
in a packed degree row, a miscounted pg, zero-ving count or degree row, an
LP objective with the wrong weight, a census that names a visibility no
root has, an enclosure of pi too wide to decide, a crossing table in
which every segment crosses itself, and a verifier that reports
"violated" without a witness.  The command line then exits 3, prints
nothing on stdout, and names the failed check on stderr; exit 1 stays
reserved for a violated claim.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

import planegraphs.charging as charging_mod
import planegraphs.verify as verify_mod
from planegraphs import (
    SelfCheckError,
    enumeration,
    expected_degree_vector,
    gen_cap_with_apex,
    gen_triangular_hull_random,
    save_pts,
)
from planegraphs.cli import main

from conftest import family_members


@pytest.fixture(autouse=True)
def fresh_workspaces():
    """No cached degree vector in, no corrupted one out."""
    enumeration._workspace.cache_clear()
    yield
    enumeration._workspace.cache_clear()


def run_failing(capsys, tmp_path, ps, *argv) -> str:
    """Run the CLI on `ps`, expect exit 3 with empty stdout, return stderr."""
    path = tmp_path / "in.pts"
    save_pts(ps, path)
    assert main([argv[0], str(path), *argv[1:]]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: self-check failed: ")
    return err


def test_degree_row_partition(monkeypatch, capsys, tmp_path):
    ps = gen_cap_with_apex(6)
    ws = enumeration.workspace(ps)
    polys = ws.degree_polynomials()
    polys[2] ^= 1 << (3 * ws.digit_bits)
    monkeypatch.setattr(enumeration._Workspace, "degree_polynomials", lambda ws: polys)
    enumeration._workspace.cache_clear()
    err = run_failing(capsys, tmp_path, ps, "degrees")
    assert "per-point degree counts must partition the census" in err


def _tamper_degrees(monkeypatch, **fields):
    real = expected_degree_vector

    def tampered(ps):
        dv = real(ps)
        return dv._replace(**{k: f(dv) for k, f in fields.items()})

    monkeypatch.setattr(charging_mod, "expected_degree_vector", tampered)


def test_charge_audit_pg(monkeypatch, capsys, tmp_path):
    _tamper_degrees(monkeypatch, pg=lambda dv: dv.pg + 1)
    err = run_failing(capsys, tmp_path, gen_cap_with_apex(5), "charge-audit")
    assert "the scan and the counting DP disagree on pg" in err


def test_charge_audit_conservation(monkeypatch, capsys, tmp_path):
    _tamper_degrees(
        monkeypatch, ving_counts=lambda dv: (dv.ving_counts[0] + 1,) + dv.ving_counts[1:]
    )
    err = run_failing(capsys, tmp_path, gen_cap_with_apex(5), "charge-audit")
    assert "charge conservation failed" in err


def test_charge_audit_family_sizes(monkeypatch, capsys, tmp_path):
    # the census of a row sums its 2^j family sizes to sum(row), so one more
    # isolated graph at point 1 breaks that point's sum and no other check
    _tamper_degrees(
        monkeypatch,
        per_point=lambda dv: tuple(
            (row[0] + (p == 1),) + row[1:] for p, row in enumerate(dv.per_point)
        ),
    )
    err = run_failing(capsys, tmp_path, gen_cap_with_apex(5), "charge-audit")
    assert "family sizes of point 1 do not sum to pg" in err


def test_charge_cap_optimum(monkeypatch, capsys, tmp_path):
    # the objective v3/8 + v4/16 + (n - v3 - v4)/32 read with 31 for 32
    real = Fraction
    monkeypatch.setattr(
        charging_mod, "Fraction", lambda a, b=1: real(a, 31 if b == 32 else b)
    )
    ps = gen_triangular_hull_random(6, seed=1)
    err = run_failing(capsys, tmp_path, ps, "verify", "--claims", "charge_cap")
    assert "charge cap optimum mismatch at n=6" in err


def test_visibility_witness(monkeypatch, capsys, tmp_path):
    # a census that claims a family of visibility 2, which the lemma forbids,
    # sends the witness search after a root that does not exist
    census = verify_mod.census_from_degree_row
    monkeypatch.setattr(verify_mod, "census_from_degree_row", lambda row: {2: 1} | census(row))
    ps = gen_triangular_hull_random(6, seed=1)
    err = run_failing(capsys, tmp_path, ps, "verify", "--claims", "visibility")
    assert "point 0 has no family root of visibility 2" in err


def test_pi_enclosure(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(verify_mod, "PI_LO", Fraction(0))
    monkeypatch.setattr(verify_mod, "PI_HI", Fraction(100))
    err = run_failing(capsys, tmp_path, gen_cap_with_apex(6), "verify", "--claims", "vi_upper")
    assert "pi enclosure too coarse at i=1" in err


def test_violated_without_witness(monkeypatch, capsys, tmp_path):
    # a verdict of "violated" that names no witness is a fault of the
    # verifier, not a refuted claim and not a usage error
    monkeypatch.setattr(
        verify_mod, "verify_v0_upper", lambda ps: verify_mod._verdict("v0_upper", "x", False)
    )
    ps = gen_triangular_hull_random(6, seed=1)
    err = run_failing(capsys, tmp_path, ps, "verify", "--claims", "v0_upper")
    assert err == "error: self-check failed: violated claim v0_upper carries no witness\n"


def test_family_member_crossing(monkeypatch):
    # `family_members` is a test helper in conftest, which no command
    # reaches, so it is called directly: with every segment crossing itself,
    # the first member with an edge at the point fails the check.
    ps = gen_cap_with_apex(5)
    real = enumeration._Workspace.blocked
    monkeypatch.setattr(
        enumeration._Workspace, "blocked", lambda ws, edges: real(ws, edges) | edges
    )
    with pytest.raises(SelfCheckError, match="family member has a crossing pair"):
        family_members(ps, 0, 0)
