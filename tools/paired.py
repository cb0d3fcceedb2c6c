"""Replay a benchmark workload through two tagselect source trees in one process.

Each tree is loaded under its own module name, so the two share no state,
and each builds its own instances.  Every operation runs through both
packages in turn, alternating which side runs it first, so that drift in
the machine's speed reaches both sides alike.  The collector runs between
chunks of operations and is paused inside them, so that a collection pause
is charged to neither side.

By default it replays item-requests.  For each seed it prints the requests
whose answers differ (sorted ids, objective, feasibility and the repr of
the relevance total, or the error's type and message), each latency
class's p50 and p90 time ratio, change over parent, with a 95% bootstrap
interval, and after a warm replay the number of pool items whose
``Instance.grown`` differs from the parent's.  Last it prints each ratio's
median over the seeds and its range, min to max.  A bootstrap interval
says how well one run pins its ratio, not where a second run lands: it
resamples that run's operations, while the machine's drift between runs
moves the ratio as well, so the range over seeds is the spread to cite
next to it.  It exits 1 on any answer mismatch.  Run from the repository
root, with ``../parent/src`` a second checkout's source tree:

    python tools/paired.py --parent ../parent/src --seeds 1,2,3 --ops 60000
    python tools/paired.py --parent ../parent/src --seeds 1,2,3 --ops 20000 --cold
    python tools/paired.py --parent ../parent/src --seeds 1,2,3 --sweep

A warm replay times the requests after the first third, when most
requests ask for an item that earlier requests warmed.  A cold
replay gives each request a fresh copy of its item
(``dataclasses.replace``) and times every request.  ``--sweep`` replays
oracle-sweep instead: each operation is one ``bench.run_sweep(jobs=1)``
of one solver family over the (k, alpha, beta) grid on one of the
workload's 16 fixed instances, and the rows of the two sides must agree in
every field but ``wall_time``.  ``--parent src`` against the default
``--change`` is a control: it pairs a tree with itself.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib
import importlib.util
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

# The request stream of perfbench/workloads.py's ItemRequests, mirrored.
NUM_ITEMS = 20000
GROUP_PROBS = (0.9, 0.5, 0.3, 0.1)
CATALOGUE_SEED = 1602
POOL = 1000
ZIPF_S = 0.6
ALPHAS = (0.2, 0.4, 0.5, 0.6, 0.8)
BETAS = (0.3, 0.6)
STREAM_CHUNK = 4096

# The operations of perfbench/workloads.py's OracleSweep, mirrored.
SWEEP_SET_SEED = 20160220
SWEEP_SIZE = 16
SWEEP_ATTRS = 24
SWEEP_SIDE = 8
SWEEP_K = (2, 4, 6)
SWEEP_ALPHAS = (0.3, 0.5, 0.7)
SWEEP_BETAS = (0.3, 0.7)
SWEEP_FAMILIES = {"ic": ("E_IC", "BNB_IC", "A_IC"), "dc": ("E_DC", "BNB_DC", "A_DC")}

# Requests between two collections.
CHUNK = 2000
SHOWN_MISMATCHES = 5
QUANTILES = (0.5, 0.9)
# Resamples of each 95% bootstrap interval, and their fixed seed.
BOOTSTRAP = 1000
BOOTSTRAP_SEED = 2016


def load(name: str, src: Path):
    """The package in ``src / "tagselect"``, imported as ``name``."""
    init = src / "tagselect" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def build_pool(ts) -> list:
    """ItemRequests' pool of item instances, built by the package ``ts``."""
    datagen = ts.datagen
    config = datagen.SynthConfig(
        num_items=NUM_ITEMS, group_probs=GROUP_PROBS, seed=CATALOGUE_SEED
    )
    matrix = datagen.gen_matrix(config)
    rules = datagen.extract_rules(matrix)
    pool = []
    for row in np.random.default_rng([CATALOGUE_SEED, 1]).permutation(NUM_ITEMS):
        if len(pool) == POOL:
            break
        try:
            pool.append(datagen.sample_instance(matrix, rules, int(row)))
        except ts.EmptyInstance:
            continue
    return pool


def requests(seed: int, n: int) -> list[tuple]:
    """The first ``n`` requests of ItemRequests' stream for ``seed``, each
    ``(class, item, k, alpha, beta)``."""
    rng = np.random.default_rng([seed, 2])
    weights = 1.0 / np.arange(1, POOL + 1) ** ZIPF_S
    weights /= weights.sum()
    ops: list[tuple] = []
    while len(ops) < n:
        items = rng.choice(POOL, size=STREAM_CHUNK, p=weights)
        ks = rng.integers(2, 9, size=STREAM_CHUNK)
        alphas = rng.integers(0, len(ALPHAS), size=STREAM_CHUNK)
        betas = rng.integers(0, len(BETAS), size=STREAM_CHUNK)
        for j in range(STREAM_CHUNK):
            cls = "ic" if len(ops) % 2 == 0 else "dc"
            ops.append((cls, int(items[j]), int(ks[j]), ALPHAS[alphas[j]], BETAS[betas[j]]))
    return ops[:n]


def answer(result) -> tuple:
    if isinstance(result, Exception):
        return type(result).__name__, str(result)
    sel = result.selection
    return sel.sorted_ids(), sel.objective_value, sel.feasible, repr(sel.rel_total)


def run_chunk(sides, pools, chunk: list[tuple], cold: bool) -> list[tuple[list, list]]:
    """Each side's answers and seconds for the requests of ``chunk``, timed
    as ItemRequests times one: ``make_params`` and the greedy route.  The
    two sides take each request in turn."""
    calls = [(ts.make_params, {"ic": ts.greedy_ic, "dc": ts.greedy_dc}) for ts in sides]
    results: list[list] = [[], []]
    seconds: list[list] = [[], []]
    gc.collect()
    gc.disable()
    try:
        for j, (cls, item, k, alpha, beta) in enumerate(chunk):
            # Requests alternate ic and dc, so the first side switches every
            # two requests: each class gets each side first equally often.
            first = j // 2 % 2
            for s in (first, 1 - first):
                make_params, routes = calls[s]
                instance = pools[s][item]
                if cold:
                    instance = dataclasses.replace(instance)
                t0 = perf_counter()
                try:
                    result = routes[cls](instance, make_params(k, alpha, beta, instance))
                except Exception as exc:  # an error is an answer: type and message
                    result = exc
                seconds[s].append(perf_counter() - t0)
                results[s].append(result)
    finally:
        gc.enable()
    return [([answer(r) for r in results[s]], seconds[s]) for s in (0, 1)]


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


def replay(sides, seed: int, n: int, warmup: int, cold: bool) -> tuple[int, dict]:
    """Replay seed's first ``n`` requests through both sides; return the
    answer mismatches and each (class, quantile)'s time ratio and its
    interval."""
    pools = [build_pool(ts) for ts in sides]
    ops = requests(seed, n)
    mismatches = 0
    times = [{"ic": [], "dc": []} for _ in sides]
    for start in range(0, n, CHUNK):
        chunk = ops[start : start + CHUNK]
        out = run_chunk(sides, pools, chunk, cold)
        (a, _), (b, _) = out
        for j, op in enumerate(chunk):
            if a[j] != b[j]:
                mismatches += 1
                if mismatches <= SHOWN_MISMATCHES:
                    print(f"  request {start + j + 1} {op}: parent {a[j]}, change {b[j]}")
            if start + j >= warmup:
                for s in (0, 1):
                    times[s][op[0]].append(out[s][1][j])
    found = {
        (cls, q): interval
        for cls in ("ic", "dc")
        for q, interval in ratios(times[0][cls], times[1][cls], QUANTILES, seed).items()
    }
    mode = "cold" if cold else "warm"
    print(f"seed {seed} {mode}: {n} requests, {mismatches} answer mismatches")
    if not cold:
        differ = sum(old.grown != new.grown for old, new in zip(*pools))
        print(f"  grown differs from the parent's on {differ} of {len(pools[0])} items")
    print(show(f"  change/parent over requests {warmup + 1}-{n}: ", found))
    return mismatches, found


def sweep_instances(ts) -> list:
    """OracleSweep's fixed instances, built by the package ``ts``."""
    return [
        ts.datagen.random_instance(
            seed=[SWEEP_SET_SEED, i], num_attrs=SWEEP_ATTRS, n_pos=SWEEP_SIDE,
            n_neg=SWEEP_SIDE, item_id=f"sweep-{i:02d}",
        )
        for i in range(SWEEP_SIZE)
    ]


def sweep_ops(seed: int, n: int) -> list[tuple[str, int]]:
    """The first ``n`` operations of OracleSweep's stream for ``seed``, each
    ``(class, instance index)``."""
    start = seed % SWEEP_SIZE
    ops = []
    while len(ops) < n:
        for j in range(SWEEP_SIZE):
            ops += [("ic", (start + j) % SWEEP_SIZE), ("dc", (start + j) % SWEEP_SIZE)]
    return ops[:n]


def sweep(sides, seed: int, n: int) -> tuple[int, dict]:
    """Run seed's first ``n`` oracle-sweep operations through both sides, as
    OracleSweep times one: ``run_sweep`` and ``summarize``.  Return the
    operations whose rows differ and each class's median time ratio and
    its interval."""
    pools = [sweep_instances(ts) for ts in sides]
    # Each package imports its bench module only when a sweep runs.
    benches = [importlib.import_module(f"{ts.__name__}.bench") for ts in sides]
    mismatches = 0
    times: list[dict] = [{"ic": [], "dc": []} for _ in sides]
    for j, (cls, index) in enumerate(sweep_ops(seed, n)):
        rows: list = [None, None]
        gc.collect()
        gc.disable()
        try:
            first = j // 2 % 2
            for s in (first, 1 - first):
                bench = benches[s]
                spec = bench.SweepSpec(
                    algorithms=tuple(sides[s].Algorithm[name] for name in SWEEP_FAMILIES[cls]),
                    k_values=SWEEP_K, alpha_values=SWEEP_ALPHAS, beta_values=SWEEP_BETAS,
                    instances=(pools[s][index],), seed=seed,
                )
                t0 = perf_counter()
                result = bench.run_sweep(spec, jobs=1)
                bench.summarize(result)
                times[s][cls].append(perf_counter() - t0)
                rows[s] = [
                    tuple(getattr(row, f.name) for f in dataclasses.fields(row)
                          if f.name != "wall_time")
                    for row in result
                ]
        finally:
            gc.enable()
        if rows[0] != rows[1]:
            mismatches += 1
            if mismatches <= SHOWN_MISMATCHES:
                print(f"  operation {j + 1} ({cls}, instance {index}): rows differ")
    found = {
        (cls, 0.5): ratios(times[0][cls], times[1][cls], (0.5,), seed)[0.5]
        for cls in ("ic", "dc")
    }
    print(f"seed {seed} sweep: {n} operations, {mismatches} with rows that differ")
    print(show("  change/parent: ", found))
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
        "--ops", type=int,
        help="requests per seed (default 60000), or with --sweep operations (default 320)",
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--cold", action="store_true", help="a fresh item copy per request")
    mode.add_argument("--sweep", action="store_true", help="replay oracle-sweep")
    args = parser.parse_args(argv)
    if args.ops is None:
        args.ops = 2 * SWEEP_SIZE * 10 if args.sweep else 60000
    if args.ops < 2:
        parser.error("--ops must be at least 2, one operation of each class")
    for src in (args.parent, args.change):
        if not (src / "tagselect" / "__init__.py").is_file():
            parser.error(f"no tagselect package under {src}")
    warmup = 0 if args.cold else args.ops // 3
    sides = (load("tagselect_parent", args.parent), load("tagselect_change", args.change))
    total = 0
    per_seed = []
    for seed in args.seeds:
        if args.sweep:
            mismatches, found = sweep(sides, seed, args.ops)
        else:
            mismatches, found = replay(sides, seed, args.ops, warmup, args.cold)
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
