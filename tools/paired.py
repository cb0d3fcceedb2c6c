"""Replay a benchmark workload through two tagselect source trees in one process.

This repository's perfbench/workloads.py is loaded once per tree, under its
own module name, with ``tagselect`` bound to that tree's package, so the two
sides share no state and each runs the benchmark's own set-up, operation
stream and ``Workload.timed`` call.  Every operation runs through both
sides in turn, alternating which side runs it first, so that drift in the
machine's speed reaches both sides alike.  The collector runs between
chunks of operations and is paused inside them, so that a collection pause
is charged to neither side.

For each seed it prints the operations whose answers differ, each latency
class's p50 and tail time ratio (the tail the benchmark reports for the
workload), change over parent, with a 95% bootstrap interval, and after a
warm replay of a workload with an item pool the number of items whose
``Instance.grown`` differs from the parent's.  Answers are compared as
follows: a solve by sorted ids, objective, feasibility and the repr of the
relevance total, or the error's type and message; a sweep by every row
field but ``wall_time``; a process by its exit code and its standard output
without the ``time = `` line.  Last it prints each ratio's median over the
seeds and its range, min to max.  A bootstrap interval says how well one
run pins its ratio, not where a second run lands: it resamples that run's
operations, while the machine's drift between runs moves the ratio as well,
so the range over seeds is the spread to cite next to it.  It exits 1 on
any answer mismatch.  Run from the repository root, with ``../parent/src``
a second checkout's source tree:

    python tools/paired.py --parent ../parent/src --seeds 1,2,3 --ops 60000
    python tools/paired.py --parent ../parent/src --seeds 1,2,3 --ops 20000 --cold
    python tools/paired.py --parent ../parent/src --seeds 1,2,3 --workload oracle-sweep
    python tools/paired.py --parent ../parent/src --seeds 1,2,3 --workload exact-scale
    python tools/paired.py --parent ../parent/src --seeds 1,2 --workload cli-cold

Each side's workload root is its tree's parent directory, so cli-cold's
child processes run that tree and its rules file is written under the
root's ``perfbench/.work``.  The first third of the operations is not timed,
so that most timed operations find what earlier ones warmed.  ``--cold``
replays item-requests giving each request a fresh copy of its item
(``dataclasses.replace``), made before the timer starts, and times every
request.  ``--parent src`` against the default ``--change`` is a control: it
pairs a tree with itself.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib
import importlib.util
import itertools
import pkgutil
import statistics
import sys
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WARM_OPS = 60000  # item-requests' default; other workloads replay 10 passes
# Operations between two collections.
CHUNK = 2000
SHOWN_MISMATCHES = 5
SHOWN_CHARS = 300
# Resamples of each 95% bootstrap interval, and their fixed seed.
BOOTSTRAP = 1000
BOOTSTRAP_SEED = 2016


def load(name: str, src: Path):
    """perfbench's workloads module, bound to the package in ``src / "tagselect"``.

    The package is imported as ``name``, each of its modules as
    ``name.<module>``, so that its imports at call time stay in ``src``.
    While workloads.py loads, as ``name_workloads``, ``tagselect`` and its
    modules in ``sys.modules`` are that package's; the entries held before
    are restored afterwards."""
    init = src / "tagselect" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    bound = {"tagselect": package}
    for info in pkgutil.iter_modules(package.__path__):
        bound[f"tagselect.{info.name}"] = importlib.import_module(f"{name}.{info.name}")
    held = {
        key: sys.modules.pop(key)
        for key in list(sys.modules)
        if key == "tagselect" or key.startswith("tagselect.")
    }
    sys.modules.update(bound)
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location(f"{name}_workloads", PERFBENCH / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = workloads
        spec.loader.exec_module(workloads)
    finally:
        sys.path.remove(str(PERFBENCH))
        for key in bound:
            del sys.modules[key]
        sys.modules.update(held)
    return workloads


def answer(result):
    """What of one operation's result both sides must agree on."""
    if isinstance(result, Exception):
        return type(result).__name__, str(result)
    if isinstance(result, tuple):  # a process: exit code, stdout, stderr
        code, out, _ = result
        return code, [line for line in out.splitlines() if not line.startswith("time = ")]
    if isinstance(result, list):  # a sweep's rows
        return [
            tuple(getattr(row, f.name) for f in dataclasses.fields(row) if f.name != "wall_time")
            for row in result
        ]
    sel = result.selection
    return sel.sorted_ids(), sel.objective_value, sel.feasible, repr(sel.rel_total)


def ratios(parent: list[float], change: list[float], qs, seed: int) -> dict:
    """Each quantile q in ``qs``: the ratio of ``change``'s q-quantile to
    ``parent``'s, with a 95% bootstrap interval, as ``q: (ratio, low,
    high)``.  ``parent[j]`` and ``change[j]`` timed the same operation, so
    each resample draws operations, both sides' times together; the
    quantile is the lower order statistic, ``sorted(times)[int(q * (n -
    1))]``."""
    a, b = np.asarray(parent), np.asarray(change)

    def ratio(index):
        return np.quantile(b[index], qs, axis=-1, method="lower") / np.quantile(
            a[index], qs, axis=-1, method="lower"
        )

    point = ratio(np.arange(len(a)))
    rng = np.random.default_rng([BOOTSTRAP_SEED, seed])
    # 100 resamples at a time bounds the index array's memory.
    drawn = np.concatenate(
        [ratio(rng.integers(0, len(a), size=(100, len(a)))) for _ in range(BOOTSTRAP // 100)],
        axis=1,
    )
    low, high = np.quantile(drawn, (0.025, 0.975), axis=1)
    return {q: (point[i], low[i], high[i]) for i, q in enumerate(qs)}


def show(label: str, found: dict) -> str:
    """``found``'s ratios, as :func:`ratios` gives them, keyed by (class,
    quantile)."""
    return label + ", ".join(
        f"{cls} p{round(q * 100)} {r:.3f} [{low:.3f}, {high:.3f}]"
        for (cls, q), (r, low, high) in found.items()
    )


def replay(sides, name: str, seed: int, n: int, cold: bool) -> tuple[int, dict]:
    """Replay seed's first ``n`` operations of workload ``name`` through both
    sides, each a (workloads module, root) pair; return the answer
    mismatches and each (class, quantile)'s time ratio and its interval."""
    runs = [module.WORKLOADS[name](root, seed, 1) for module, root in sides]
    for run in runs:
        run.setup()
    streams = [list(itertools.islice(run.ops(), n)) for run in runs]
    originals = [list(run.pool) for run in runs] if cold else None
    warmup = 0 if cold else n // 3
    times: list[dict] = [{"ic": [], "dc": []} for _ in runs]
    mismatches = 0
    for start in range(0, n, CHUNK):
        gc.collect()
        gc.disable()
        try:
            for j in range(start, min(start + CHUNK, n)):
                answers = [None, None]
                # Operations alternate ic and dc, so the first side switches
                # every two: each class gets each side first equally often.
                first = j // 2 % 2
                for s in (first, 1 - first):
                    op = streams[s][j]
                    if cold:
                        runs[s].pool[op.key[0]] = dataclasses.replace(originals[s][op.key[0]])
                    record = runs[s].timed(op)
                    answers[s] = answer(record.result)
                    if j >= warmup:
                        times[s][op.cls].append(record.seconds)
                if answers[0] != answers[1]:
                    mismatches += 1
                    if mismatches <= SHOWN_MISMATCHES:
                        op = streams[0][j]
                        print(
                            f"  operation {j + 1} ({op.algo}, {op.key}): "
                            f"parent {str(answers[0])[:SHOWN_CHARS]}, "
                            f"change {str(answers[1])[:SHOWN_CHARS]}"
                        )
        finally:
            gc.enable()
    quantiles = (0.5, runs[0].tail_pct / 100)
    found = {
        (cls, q): interval
        for cls in ("ic", "dc")
        for q, interval in ratios(times[0][cls], times[1][cls], quantiles, seed).items()
    }
    mode = "cold" if cold else "warm"
    print(f"seed {seed} {name} {mode}: {n} operations, {mismatches} answer mismatches")
    if not cold and hasattr(runs[0], "pool"):
        old, new = (run.pool for run in runs)
        differ = sum(a.grown != b.grown for a, b in zip(old, new))
        print(f"  grown differs from the parent's on {differ} of {len(old)} items")
    print(show(f"  change/parent over operations {warmup + 1}-{n}: ", found))
    return mismatches, found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--parent", type=Path, required=True, help="source tree holding tagselect/"
    )
    parser.add_argument(
        "--change", type=Path, default=Path(__file__).resolve().parents[1] / "src",
        help="source tree holding tagselect/ (default: this repository's src)",
    )
    parser.add_argument(
        "--seeds", type=lambda text: [int(s) for s in text.split(",")], default=[1, 2, 3],
        help="comma-separated stream seeds (default 1,2,3)",
    )
    parser.add_argument(
        "--workload", default="item-requests",
        help="a workload of perfbench/workloads.py (default item-requests)",
    )
    parser.add_argument(
        "--ops", type=int,
        help=f"operations per seed (default {WARM_OPS} for item-requests, "
        "else 10 passes of the workload's mix)",
    )
    parser.add_argument(
        "--cold", action="store_true", help="item-requests with a fresh item copy per request"
    )
    args = parser.parse_args(argv)
    if args.cold and args.workload != "item-requests":
        parser.error("--cold replays item-requests only")
    if args.ops is not None and args.ops < 2:
        parser.error("--ops must be at least 2, one operation of each class")
    for src in (args.parent, args.change):
        if not (src / "tagselect" / "__init__.py").is_file():
            parser.error(f"no tagselect package under {src}")
        # CliCold's children import <root>/src, and root is the tree's parent.
        if args.workload == "cli-cold" and src.resolve().name != "src":
            parser.error(f"cli-cold's processes import <parent>/src, so {src} must be named src")
    sides = [
        (load(f"tagselect_{side}", src), src.resolve().parent)
        for side, src in (("parent", args.parent), ("change", args.change))
    ]
    known = sides[0][0].WORKLOADS
    if args.workload not in known:
        parser.error(f"--workload must be one of {', '.join(known)}")
    if args.ops is None:
        workload = known[args.workload](sides[0][1], 1, 1)
        args.ops = WARM_OPS if args.workload == "item-requests" else 10 * workload.granularity
    total = 0
    per_seed = []
    for seed in args.seeds:
        mismatches, found = replay(sides, args.workload, seed, args.ops, args.cold)
        total += mismatches
        per_seed.append(found)
    parts = []
    for cls, q in per_seed[0]:
        seen = [r[(cls, q)][0] for r in per_seed]
        parts.append(
            f"{cls} p{round(q * 100)} {statistics.median(seen):.3f}"
            f" ({min(seen):.3f}-{max(seen):.3f})"
        )
    print("median over seeds (min-max): " + ", ".join(parts))
    print(f"answer mismatches in total: {total}")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
