"""tagselect benchmark: one closed-loop client, four workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload item-requests --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics for ``--seconds``
seconds with tracing off.  With ``--trace 1`` it runs a fixed operation list
four times (plain, traced, traced again, plain), prints the per-layer
metrics of the first traced pass, and fails if the second traced pass does
not repeat its counts.  Every answer is checked after the timed section.
The last line of standard output is one JSON object; the lines before it
are for people.  METRICS.md says what each metric means and which layer
should move it.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Set-up runs at least this many times and for at least this long, and
# its median is reported.
SETUP_REPEATS = 7
SETUP_MIN_S = 2.0
CALIBRATION_LOOPS = 1_000_000
PROBE_REPEATS = 3
RSS_SAMPLES = 10

ALGORITHMS = ("e-ic", "bnb-ic", "a-ic", "e-dc", "bnb-dc", "a-dc")
NODE_ALGORITHMS = ("e-ic", "bnb-ic", "e-dc", "bnb-dc")
OUTCOMES = ("ok", "dead_end", "infeasible_quota", "infeasible_relevance", "refused")
SELF_SPANS = tuple(f"solvers.{a}" for a in ALGORITHMS) + ("bench.run_sweep", "cli.main")
CLI_PROBES = ("cli.interpreter_s", "cli.import_s", "cli.import_numpy_s")


def calibrate_ms(loops: int = CALIBRATION_LOOPS) -> float:
    """Time of a fixed pure-Python loop, a measure of the machine's speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(loops):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return (time.perf_counter() - t0) * 1e3


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


# ---------------------------------------------------------------------------
# End-to-end run
# ---------------------------------------------------------------------------


def rss_mb() -> float:
    """Resident set of this process now, from /proc/self/status."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmRSS in /proc/self/status")


def timed_setup(workload) -> float:
    t0 = time.perf_counter()
    workload.setup()
    return time.perf_counter() - t0


def run_measured(workload, lines: list[str]) -> tuple[dict, object]:
    # One set-up precedes the operations.  The repetitions that make
    # setup_s steady come after memory has been read, because memory that
    # earlier set-ups left to the allocator would stay in the resident set.
    setups = [timed_setup(workload)]

    # Memory is sampled while operations run.  cli-cold's program runs in
    # the child processes, whose peak the kernel keeps.
    children = workload.name == "cli-cold"
    rss_every = max(1, workload.rss_ops // RSS_SAMPLES)
    rss = [] if children else [rss_mb()]
    records = []
    start = time.perf_counter()
    for i, op in enumerate(workload.ops(), 1):
        records.append(workload.timed(op))
        if not children and i <= workload.rss_ops and i % rss_every == 0:
            rss.append(rss_mb())
        if i % workload.granularity == 0 and time.perf_counter() - start >= workload.seconds:
            break
    wall = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024 if children else max(rss)
    chk = workload.check(records)
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_MIN_S:
        setups.append(timed_setup(workload))

    busy = sum(r.seconds for r in records)
    if workload.repeats:
        # Each distinct operation counts once, at the median of its
        # repetitions, which filters out shifts in the machine's speed.
        by_op: dict = {}
        for r in records:
            by_op.setdefault(r.op, []).append(r.seconds)
        samples = [(op.cls, statistics.median(v)) for op, v in by_op.items()]
        throughput = len(samples) / sum(s for _, s in samples)
    else:
        samples = [(r.op.cls, r.seconds) for r in records]
        throughput = chk.attempted / busy
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "success_rate": ((chk.attempted - chk.failed) / chk.attempted, "ratio"),
        "ops_per_s": (throughput, "1/s"),
    }
    lines.append(f"setup: {len(setups)} times, {min(setups):.4f} to {max(setups):.4f} s (median reported)")
    lines.append(
        f"{chk.attempted} {workload.unit} in {len(records)} operations, "
        f"{busy:.3f} s busy of {wall:.3f} s; error_rate {chk.failed / chk.attempted:.6f}"
    )
    pct = workload.tail_pct
    for cls in ("ic", "dc"):
        lat = [s * 1e3 for c, s in samples if c == cls]
        tail = percentile(lat, pct)
        metrics[f"{cls}.latency_p50_ms"] = (statistics.median(lat), "ms")
        metrics[f"{cls}.latency_tail_ms"] = (tail, "ms")
        beyond = sum(1 for x in lat if x > tail)
        what = "distinct operations" if workload.repeats else "samples"
        lines.append(f"{cls} latency: {len(lat)} {what}, tail is p{pct} with {beyond} beyond it")
    return metrics, chk


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


def _counts(stats, chk) -> dict:
    out = {f"{name}.calls": s.calls for name, s in stats.items()}
    out.update({f"{name}.nodes": s.nodes for name, s in stats.items()})
    out.update({f"{a}.{o}": n for (a, o), n in chk.outcomes.items()})
    return out


def _numpy_import_s(stderr: str) -> float:
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "numpy":
            return int(parts[1]) / 1e6
    raise RuntimeError("numpy not found in -X importtime output")


def cli_probes(root: Path) -> dict:
    """Interpreter start, a fresh ``import tagselect``, and numpy's share of
    that import, each the median of a few child processes."""
    from workloads import child_env

    def child(*argv):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, *argv], cwd=root, env=child_env(root),
            capture_output=True, text=True, timeout=120, check=True,
        )
        return time.perf_counter() - t0, proc

    import_code = (
        "import time; t = time.perf_counter(); import tagselect; "
        "print(time.perf_counter() - t)"
    )
    probes = {
        "cli.interpreter_s": lambda: child("-c", "pass")[0],
        "cli.import_s": lambda: float(child("-c", import_code)[1].stdout),
        "cli.import_numpy_s": lambda: _numpy_import_s(
            child("-X", "importtime", "-c", "import tagselect")[1].stderr
        ),
    }
    return {
        name: statistics.median(probe() for _ in range(PROBE_REPEATS))
        for name, probe in probes.items()
    }


def run_traced(workload, root: Path, lines: list[str]) -> tuple[dict, object, bool]:
    from tracer import Tracer

    n = workload.trace_ops()
    workload.in_process = True

    def one_pass():
        t0 = time.perf_counter()
        workload.setup()
        records = [workload.timed(op) for op in itertools.islice(workload.ops(), n)]
        return time.perf_counter() - t0, records

    # Passes run plain, traced, traced, plain, so that drift in the
    # machine's speed cancels out of the overhead.
    plain_s, _ = one_pass()
    tracer = Tracer()
    tracer.install()
    try:
        traced_s, records = one_pass()
        first = tracer.stats
        tracer.reset()
        traced_again_s, records_again = one_pass()
        second = tracer.stats
    finally:
        tracer.remove()
    plain_again_s, _ = one_pass()
    lines.append(
        f"passes of {n} operations: plain {plain_s:.3f} s, traced {traced_s:.3f} s, "
        f"traced {traced_again_s:.3f} s, plain {plain_again_s:.3f} s"
    )

    chk = workload.check(records)
    counts, counts_again = _counts(first, chk), _counts(second, workload.check(records_again))
    deterministic = counts == counts_again
    if not deterministic:
        diff = sorted(k for k in counts.keys() | counts_again.keys() if counts.get(k) != counts_again.get(k))
        lines.append(f"FAIL: counts differ between two traced passes with one seed: {diff[:10]}")

    metrics = {}
    for name, s in first.items():
        metrics[f"{name}.calls"] = s.calls
        metrics[f"{name}.total_s"] = s.total_s
    for name in SELF_SPANS:
        metrics[f"{name}.self_s"] = first[name].self_s
    for algo in NODE_ALGORITHMS:
        metrics[f"solvers.{algo}.nodes"] = first[f"solvers.{algo}"].nodes
    for algo in ALGORITHMS:
        for outcome in OUTCOMES:
            metrics[f"solvers.{algo}.{outcome}"] = chk.outcomes[(algo, outcome)]
    ratios = chk.ratios
    metrics["solvers.a-ic.ratio_mean"] = statistics.fmean(ratios["a-ic"]) if ratios["a-ic"] else 0.0
    metrics["solvers.a-dc.ratio_mean"] = statistics.fmean(ratios["a-dc"]) if ratios["a-dc"] else 0.0
    metrics["solvers.a-dc.ratio_over_2"] = sum(1 for r in ratios["a-dc"] if r > 2.0 + 1e-12)
    probes = cli_probes(root) if workload.name == "cli-cold" else dict.fromkeys(CLI_PROBES, 0.0)
    metrics.update(probes)
    metrics["trace.overhead_s"] = (traced_s + traced_again_s - plain_s - plain_again_s) / 2
    return metrics, chk, deterministic


def per_layer_units() -> dict[str, str]:
    """Unit of every per-layer metric, keyed by name, in BENCHMARK.json order."""
    from tracer import SPAN_NAMES

    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.total_s"] = "s"
    units.update({f"{name}.self_s": "s" for name in SELF_SPANS})
    units.update({f"solvers.{a}.nodes": "count" for a in NODE_ALGORITHMS})
    units.update({f"solvers.{a}.{o}": "count" for a in ALGORITHMS for o in OUTCOMES})
    units["solvers.a-ic.ratio_mean"] = "ratio"
    units["solvers.a-dc.ratio_mean"] = "ratio"
    units["solvers.a-dc.ratio_over_2"] = "count"
    units.update(dict.fromkeys(CLI_PROBES, "s"))
    units["trace.overhead_s"] = "s"
    units["machine.calib_start_ms"] = "ms"
    units["machine.calib_end_ms"] = "ms"
    return units


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = Path.cwd()
    src = root / "src"
    if not (src / "tagselect" / "__init__.py").is_file():
        print(f"error: no tagselect sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import tagselect
    from workloads import WORKLOADS

    if Path(tagselect.__file__).resolve().parent != (src / "tagselect").resolve():
        print(f"error: imported tagselect from {tagselect.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    calib_start = calibrate_ms()
    workload = WORKLOADS[args.workload](root, args.seed, args.seconds)
    lines = [f"workload {workload.name}, seed {args.seed}, {args.seconds} s, one closed-loop client"]
    if args.trace:
        values, chk, deterministic = run_traced(workload, root, lines)
        units = per_layer_units()
    else:
        measured, chk = run_measured(workload, lines)
        values = {name: v for name, (v, _) in measured.items()}
        units = {name: u for name, (_, u) in measured.items()}
        deterministic = True
    calib_end = calibrate_ms()
    if args.trace:
        values["machine.calib_start_ms"] = calib_start
        values["machine.calib_end_ms"] = calib_end

    lines.append(f"machine.calib_ms: start {calib_start:.2f}, end {calib_end:.2f} (diagnostic only)")
    for (algo, outcome), count in sorted(chk.outcomes.items()):
        lines.append(f"outcome {algo} {outcome}: {count}")
    for algo, ratios in chk.ratios.items():
        if ratios:
            lines.append(f"{algo} ratio: mean {statistics.fmean(ratios):.6f} over {len(ratios)} points")
    lines.extend(chk.notes)
    lines.extend(f"FAIL: {p}" for p in chk.problems)
    for name, value in values.items():
        lines.append(f"{name:<44} {value!r:>24} {units[name]}")
    print("\n".join(lines))

    correct = chk.failed == 0 and deterministic
    result = {
        "correct": correct,
        "attempted": chk.attempted,
        "failed": chk.failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
