"""The package's export list, and what its entry points import."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import tagselect


def test_all_names_resolve_and_are_sorted():
    assert [name for name in tagselect.__all__ if not hasattr(tagselect, name)] == []
    assert tagselect.__all__ == sorted(set(tagselect.__all__))


def test_cli_import_leaves_out_bench_and_lp_export():
    # A fresh interpreter, so modules this test session loaded do not count.
    # numpy stays in `import tagselect` for perfbench's numpy probe (ROADMAP item 4).
    code = (
        "import sys, tagselect.cli\n"
        "lazy = ('tagselect.bench', 'tagselect.lp_export', 'concurrent.futures', 'multiprocessing')\n"
        "print(sorted(m for m in lazy if m in sys.modules))\n"
        "print('numpy' in sys.modules)\n"
    )
    path = [str(Path(tagselect.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.splitlines() == ["[]", "True"]


def test_only_datagen_imports_numpy():
    # The solve path stays free of numpy, so that `import tagselect` can
    # leave it out once datagen loads lazily (ROADMAP item 4).
    package = Path(tagselect.__file__).parent
    found = []
    for path in sorted(package.rglob("*.py")):
        if path.name == "datagen.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}: {name}" for name in names if name.split(".")[0] == "numpy"]
    assert found == []


def test_only_coverage_reads_the_one_sided_masks():
    # Which side's stand-in is which one-sided mask is decided by
    # DCGraph.stand_ins alone; every other module reads the pair from it.
    package = Path(tagselect.__file__).parent
    found = [
        f"{path.name}: {node.attr}"
        for path in sorted(package.rglob("*.py"))
        if path.name != "coverage.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in ("only_pos_mask", "only_neg_mask")
    ]
    assert found == []


def test_sample_instance_builds_no_rules():
    # Each item's vocabulary is normalized from the restricted rules' fields;
    # the catalogue's rules were checked once, so a Rule per restricted
    # antecedent, or build_instance's second check, is waste.
    tree = ast.parse((Path(tagselect.__file__).parent / "datagen.py").read_text())
    (function,) = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "sample_instance"
    ]
    found = [
        ast.unparse(node.func)
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1]
        in ("Rule", "build_instance")
    ]
    assert found == []


def test_only_solvers_reads_the_search_order():
    # Branch-and-bound's visiting order and tables are a positional tuple,
    # written by solvers.build_search_order and read by solvers._bnb alone.
    package = Path(tagselect.__file__).parent
    found = [
        f"{path.name}: {node.attr}"
        for path in sorted(package.rglob("*.py"))
        if path.name != "solvers.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "search_order"
    ]
    assert found == []
