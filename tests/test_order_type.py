"""Order-type invariance: the reports depend only on the orientation of each
triple of points.

A reflection (-x, y) and a shear (x + y, y) keep every crossing, so every
report byte must stay the same once the input's own hash is masked.  A
relabelling keeps the counts and the degree statistics byte for byte, and
each claim's status and margin.
"""

from __future__ import annotations

import json
import random

import pytest

from planegraphs import PointSet, gen_cap_with_apex, gen_triangular_hull_random
from planegraphs.cli import main

INPUTS = {
    "cap_with_apex_7": lambda: gen_cap_with_apex(7),
    "random_7_seed_1": lambda: gen_triangular_hull_random(7, seed=1),
    "random_8_seed_2": lambda: gen_triangular_hull_random(8, seed=2),
}
# charge-audit writes one row per plane graph: about 14 MB at n = 7, and
# about 280 MB (3.5 GB resident) on the 8-point input, so it runs at n = 7.
COMMANDS = {
    "cap_with_apex_7": ("count", "degrees", "triangulations", "charge-audit", "verify"),
    "random_7_seed_1": ("count", "degrees", "triangulations", "charge-audit", "verify"),
    "random_8_seed_2": ("count", "degrees", "triangulations", "verify"),
}
MAPS = {
    "reflection": lambda x, y: (-x, y),
    "shear": lambda x, y: (x + y, y),
}


def report(tmp_path, command: str, ps: PointSet) -> str:
    """`command`'s JSON report on `ps`, with the input's own hash masked."""
    pts, out = tmp_path / "in.pts", tmp_path / "out.json"
    pts.write_text(ps.to_pts())
    assert main([command, str(pts), "--out", str(out)]) == 0
    sha = ps.sha256()
    return out.read_text().replace(sha, "0" * 64).replace(sha[:12], "0" * 12)


@pytest.mark.parametrize(
    "name, command", [(name, command) for name in INPUTS for command in COMMANDS[name]]
)
def test_reflection_and_shear_keep_every_byte(tmp_path, capsys, name, command):
    ps = INPUTS[name]()
    expected = report(tmp_path, command, ps)
    for f in MAPS.values():
        image = PointSet.from_coords(f(x, y) for x, y in ps.coords())
        assert report(tmp_path, command, image) == expected
    capsys.readouterr()


@pytest.mark.parametrize("name", INPUTS)
def test_relabelling_keeps_counts_degrees_and_verdicts(tmp_path, capsys, name):
    ps = INPUTS[name]()
    order = list(range(ps.n))
    random.Random(ps.n).shuffle(order)
    relabelled = PointSet.from_coords(ps.coords()[i] for i in order)
    assert ps.coords() != relabelled.coords()
    for command in ("count", "degrees"):
        assert report(tmp_path, command, relabelled) == report(tmp_path, command, ps)

    def verdicts(target):
        reports = json.loads(report(tmp_path, "verify", target))["reports"]
        return [(r["claim"], r["status"], r["margin"]) for r in reports]

    assert verdicts(relabelled) == verdicts(ps)
    capsys.readouterr()
