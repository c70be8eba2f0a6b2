"""The benchmark's inputs, pinned.

``perfbench/run.py`` builds every input through ``ConstructionSpec``,
``PointSet.from_coords``, ``coords()``, ``to_pts`` and ``sha256``, then
checks each report against ``perfbench/reference.json`` with the input's
sha256 masked.  A change to those calls that moved input bytes but kept
their order type would pass that check; these digests catch it in
milliseconds, where ``perfbench/selftest.py`` takes half a minute.  The
untranslated builds are pinned in ``test_constructions.py``.

The benchmark also refuses a report whose digest differs from the
reference; the last test runs its invocations in-process, so such a change
fails here first.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from planegraphs import load_pts
from planegraphs.cli import main

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


@pytest.fixture(scope="module")
def run():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


# (input name, n, sha256 of the .pts bytes) for every input at seed 1.
PINNED = {
    "count_convex": [
        ("convex_chain(20)", 20,
         "a6c6c7109624dcd5ebecf7ef048a30d9823d72cce9ff3e5cb549a8ffd38a8162"),
        ("convex_chain(21)", 21,
         "fbdb478c026c7946799d93319f9d4ae91f8c854ddb8f82ddac7859b4fbed792a"),
        ("triangular_hull_random(16, 1)", 16,
         "a030f574b6a4d3ff7eb8001d558bac9e3d3642fbd42a0106deb4612fb658f94d"),
    ],
    "degrees_random": [
        ("triangular_hull_random(13, 1)", 13,
         "71d6849af0485d405ea6312e29f3c939b5df3c1a2fc0d269f77c34703a59e0b8"),
        ("triangular_hull_random(13, 2)", 13,
         "278c341d0626d2f7c9e31c41f3476ca0d7318dc1208e5008b3489d9001135496"),
        ("triangular_hull_random(13, 3)", 13,
         "ee88fb3439b36747598c8e491e4dc3b7ddd4c780adadc9fa3f0bb42db79749bf"),
        ("triangular_hull_random(14, 1)", 14,
         "0851151a9f32a91421f95f4687a83d704ac39b77a375f3e643cfe321067bd6e5"),
    ],
    "triangulations_random": [
        ("triangular_hull_random(12, 1)", 12,
         "4c20a826bcc38c3410cc284a64ef43ef431142afe651073923b1c65706118e0b"),
        ("triangular_hull_random(12, 2)", 12,
         "b863b18d5ce96042afa44c1eb7f73d36a5284f51cebdae7fab6d9b0e0b914613"),
        ("triangular_hull_random(12, 3)", 12,
         "9295e0da5668f1ef1d46dff7bf622681e2a75796bd63d1a78ab7dc22703f64e9"),
    ],
    "audit_exhaustive": [
        ("cap_with_apex(7)", 7,
         "2bc57fc187423f289233f0541708f5ff8d839961b1b5348234faa22c93bc5da9"),
        ("triangular_hull_random(7, 1)", 7,
         "3f26c656284623eb75d822b940e0dea53313a111dee240caaa2a15e5cf777c3c"),
    ],
}


def test_every_workload_is_pinned(run):
    assert sorted(run.WORKLOADS) == sorted(PINNED)


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_inputs_pinned(run, workload, tmp_path):
    inputs = run.make_inputs(run.WORKLOADS[workload], 1, tmp_path)
    assert [(name, inp.n, inp.sha256) for name, inp in inputs.items()] == PINNED[workload]
    for inp in inputs.values():  # the file holds the bytes the digest names
        assert load_pts(inp.path).sha256() == inp.sha256


def test_reports_match_the_reference(run, tmp_path, capsys, monkeypatch):
    # (status, masked sha256) of every invocation at seed 1, as the
    # benchmark's output check reads them from the CLI's stdout
    monkeypatch.delenv("PLANEGRAPH_MAX_N", raising=False)
    reference = json.loads((RUN.parent / "reference.json").read_text())
    reports = {}
    for name, workload in run.WORKLOADS.items():
        (tmp_path / name).mkdir()
        inputs = run.make_inputs(workload, run.BASE_SEED, tmp_path / name)
        for inv in workload.invocations:
            inp = inputs[inv.input_name]
            status = main([inv.subcommand, str(inp.path), *inv.extra])
            stdout = capsys.readouterr().out.encode()
            digest = run.canonical_digest(stdout, inp.sha256)
            reports[inv.label] = {"status": status, "sha256": digest}
    assert len(reports) == 12
    assert reports == reference
