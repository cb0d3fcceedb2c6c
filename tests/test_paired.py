"""tools/paired.py: the one-process differential of two source trees."""

import importlib.util
import itertools
import subprocess
import sys
from pathlib import Path

import tagselect

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "paired.py"


def test_a_tree_paired_with_itself_answers_alike():
    src = str(Path(tagselect.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, str(TOOL), "--parent", src, "--change", src,
         "--seeds", "1", "--ops", "300"],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    assert "seed 1 warm: 300 requests, 0 answer mismatches" in out.stdout
    assert "grown differs from the parent's on 0 of 1000 items" in out.stdout


def test_the_stream_is_item_requests_own(monkeypatch):
    # The tool mirrors the benchmark's constants rather than importing its
    # harness; this pins the mirror to the benchmark's stream.
    spec = importlib.util.spec_from_file_location("paired", TOOL)
    paired = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(paired)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from workloads import ItemRequests

    for seed in (1, 2):
        workload = ItemRequests(ROOT, seed, 1)
        workload.pool = range(paired.POOL)
        expected = [
            (op.cls, *op.key) for op in itertools.islice(workload.ops(), 5000)
        ]
        assert paired.requests(seed, 5000) == expected
