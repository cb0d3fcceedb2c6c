"""tools/paired.py: the one-process differential of two source trees."""

import importlib.util
import itertools
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tagselect

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "paired.py"
SRC = str(Path(tagselect.__file__).parents[1])


def run_tool(*args):
    out = subprocess.run(
        [sys.executable, str(TOOL), "--parent", SRC, "--change", SRC, "--seeds", "1", *args],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    return out.stdout


@pytest.fixture
def paired(monkeypatch):
    """The tool as a module, with perfbench's workloads importable."""
    spec = importlib.util.spec_from_file_location("paired", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    return module


def intervals(stdout):
    """Each printed ratio with its bootstrap interval, as (ratio, low, high)."""
    found = re.findall(r"(?:ic|dc) p\d+ ([\d.]+) \[([\d.]+), ([\d.]+)\]", stdout)
    return [tuple(map(float, values)) for values in found]


def test_a_tree_paired_with_itself_answers_alike():
    out = run_tool("--seeds", "1,2,3", "--ops", "300")
    for seed in (1, 2, 3):
        assert f"seed {seed} warm: 300 requests, 0 answer mismatches" in out
    assert out.count("grown differs from the parent's on 0 of 1000 items") == 3
    found = intervals(out)
    assert len(found) == 12
    assert all(low <= ratio <= high for ratio, low, high in found), found
    # The last line: each ratio's median over the seeds, with its min-max.
    (line,) = [line for line in out.splitlines() if line.startswith("median over seeds")]
    spread = re.findall(r"(?:ic|dc) p\d+ ([\d.]+) \(([\d.]+)-([\d.]+)\)", line)
    assert len(spread) == 4, line
    for median, low, high in spread:
        assert float(low) <= float(median) <= float(high), line


def test_a_tree_paired_with_itself_sweeps_alike():
    out = run_tool("--sweep", "--ops", "4")
    assert "seed 1 sweep: 4 operations, 0 with rows that differ" in out
    found = intervals(out)
    assert len(found) == 2
    assert all(low <= ratio <= high for ratio, low, high in found), found


def test_the_stream_is_item_requests_own(paired):
    # The tool mirrors the benchmark's constants rather than importing its
    # harness; this pins the mirror to the benchmark's stream.
    from workloads import ItemRequests

    for seed in (1, 2):
        workload = ItemRequests(ROOT, seed, 1)
        workload.pool = range(paired.POOL)
        expected = [
            (op.cls, *op.key) for op in itertools.islice(workload.ops(), 5000)
        ]
        assert paired.requests(seed, 5000) == expected


def test_the_sweep_is_oracle_sweeps_own(paired):
    from workloads import DC_FAMILY, IC_FAMILY, OracleSweep

    assert (
        paired.SWEEP_SET_SEED, paired.SWEEP_SIZE, paired.SWEEP_K,
        paired.SWEEP_ALPHAS, paired.SWEEP_BETAS,
    ) == (
        OracleSweep.SET_SEED, OracleSweep.SIZE, OracleSweep.K_VALUES,
        OracleSweep.ALPHAS, OracleSweep.BETAS,
    )
    assert paired.SWEEP_FAMILIES == {
        "ic": tuple(a.name for a in IC_FAMILY), "dc": tuple(a.name for a in DC_FAMILY)
    }
    for seed in (1, 2, 21):
        workload = OracleSweep(ROOT, seed, 1)
        workload.setup()
        assert paired.sweep_instances(tagselect) == workload.pool
        expected = [(op.cls, *op.key) for op in itertools.islice(workload.ops(), 100)]
        assert paired.sweep_ops(seed, 100) == expected
