"""tools/paired.py: the one-process differential of two source trees."""

import importlib.util
import re
import shutil
import subprocess
import sys
from pathlib import Path

import tagselect

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "paired.py"
SRC = Path(tagselect.__file__).parents[1]

_spec = importlib.util.spec_from_file_location("paired", TOOL)
paired = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paired)


def run_tool(*args, parent=SRC, change=SRC):
    return subprocess.run(
        [sys.executable, str(TOOL), "--parent", str(parent), "--change", str(change),
         "--seeds", "1", *args],
        capture_output=True, text=True, timeout=120,
    )


def paired_alike(*args, **sides):
    out = run_tool(*args, **sides)
    assert out.returncode == 0, out.stdout + out.stderr
    return out.stdout


def intervals(stdout):
    """Each printed ratio with its bootstrap interval, as (ratio, low, high)."""
    found = re.findall(r"(?:ic|dc) p\d+ ([\d.]+) \[([\d.]+), ([\d.]+)\]", stdout)
    return [tuple(map(float, values)) for values in found]


def copy_tree(tree: Path, edits=()) -> Path:
    """``tree``, made a copy of the package's source tree, with each
    (module, old, new) of ``edits`` replacing one line's text."""
    shutil.copytree(SRC / "tagselect", tree / "tagselect",
                    ignore=shutil.ignore_patterns("__pycache__"))
    for module, old, new in edits:
        path = tree / "tagselect" / module
        text = path.read_text()
        assert text.count(old) == 1, old
        path.write_text(text.replace(old, new))
    return tree


def package_modules():
    return {
        key: module for key, module in sys.modules.items()
        if key == "tagselect" or key.startswith("tagselect.")
    }


def test_load_restores_the_package_modules():
    before = package_modules()
    paired.load("tagselect_restore_probe", SRC)
    assert package_modules() == before


def test_each_side_runs_its_own_package(tmp_path):
    trees = {"tagselect_side_a": SRC, "tagselect_side_b": copy_tree(tmp_path / "src")}
    for name, src in trees.items():
        workloads = paired.load(name, src)
        assert workloads.ts is sys.modules[name]
        assert Path(workloads.ts.__file__).parent == src / "tagselect"
        for module in ("solvers", "datagen", "bench", "cli"):
            assert getattr(workloads, module) is sys.modules[f"{name}.{module}"]


def test_a_tree_paired_with_itself_answers_alike():
    out = paired_alike("--seeds", "1,2,3", "--ops", "300")
    for seed in (1, 2, 3):
        assert f"seed {seed} item-requests warm: 300 operations, 0 answer mismatches" in out
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


def paired_alike_once(workload, ops):
    out = paired_alike("--workload", workload, "--ops", str(ops))
    assert f"seed 1 {workload} warm: {ops} operations, 0 answer mismatches" in out
    found = intervals(out)
    assert len(found) == 4
    assert all(low <= ratio <= high for ratio, low, high in found), found


def test_a_tree_paired_with_itself_sweeps_alike():
    paired_alike_once("oracle-sweep", 4)


def test_a_tree_paired_with_itself_searches_alike():
    paired_alike_once("exact-scale", 18)


def test_a_changed_answer_is_a_mismatch(tmp_path):
    change = copy_tree(tmp_path / "src", [
        # a-ic reports one more than the coverage it found
        ("solvers.py", "return pos, neg, rel_so_far + best_rel, best_cov",
         "return pos, neg, rel_so_far + best_rel, best_cov + 1"),
        # bnb's leaf value is one more than the coverage it reached
        ("solvers.py", "val = (pos_mask & neg_mask if dc else pos_mask | neg_mask).bit_count()",
         "val = (pos_mask & neg_mask if dc else pos_mask | neg_mask).bit_count() + 1"),
    ])
    for args in (("--ops", "300"), ("--workload", "exact-scale", "--ops", "18")):
        out = run_tool(*args, change=change)
        assert out.returncode == 1, out.stdout + out.stderr
        (line,) = [line for line in out.stdout.splitlines() if line.startswith("seed 1")]
        mismatches = int(re.search(r"(\d+) answer mismatches", line).group(1))
        assert mismatches > 0, line


def test_cli_cold_refuses_a_tree_not_named_src(tmp_path):
    out = run_tool("--workload", "cli-cold", parent=copy_tree(tmp_path / "tree"))
    assert out.returncode == 2
    (error,) = [line for line in out.stderr.splitlines() if "error:" in line]
    assert "src" in error, out.stderr


def test_a_tree_paired_with_itself_runs_processes_alike(tmp_path):
    def repository():
        return {
            path: path.stat().st_mtime_ns for path in ROOT.rglob("*")
            if not {".git", ".pytest_cache", ".hypothesis", "__pycache__"} & set(
                path.relative_to(ROOT).parts
            )
        }

    before = repository()
    parent, change = copy_tree(tmp_path / "a" / "src"), copy_tree(tmp_path / "b" / "src")
    out = paired_alike("--workload", "cli-cold", "--ops", "6", parent=parent, change=change)
    assert "seed 1 cli-cold warm: 6 operations, 0 answer mismatches" in out
    for side in (parent, change):
        assert (side.parent / "perfbench" / ".work" / "cli.rules.jsonl").is_file()
    assert repository() == before
