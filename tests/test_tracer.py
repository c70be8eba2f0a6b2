"""Smoke test of ``perfbench/tracer.py``, the benchmark's traced child.

The tracer patches and calls planegraphs functions by name, and its
``dfs_noop`` probe hands ``enumerate_plane_graphs`` a visitor, so a change
to one of those names or signatures shows here, not only in a full
benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import planegraphs
from planegraphs import gen_cap_with_apex, save_pts

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Run one tracer mode on cap_with_apex(6), which must exit 0; return
    the JSON it writes."""
    tmp = tmp_path_factory.mktemp("tracer")
    pts = tmp / "cap6.pts"
    save_pts(gen_cap_with_apex(6), pts)
    src = str(Path(planegraphs.__file__).resolve().parents[1])
    env = os.environ | {
        "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    }

    def run(mode: str, *args: str) -> dict:
        out = tmp / f"{mode}.json"
        proc = subprocess.run(
            [sys.executable, str(TRACER), str(out), mode, *args, str(pts)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(out.read_text())

    return run


def test_dfs_noop_scans_every_graph(traced):
    assert traced("dfs_noop")["graphs"] == 11264


def test_degrees_pool2(traced):
    assert traced("degrees_pool2", "12")["seconds"] > 0


def test_cli_verify_counts_triangulations(traced):
    result = traced("cli", "verify")
    assert result["status"] == 0
    assert result["counts"]["enumeration.triangulations"] > 0
