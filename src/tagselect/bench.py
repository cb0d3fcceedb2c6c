"""Experiment harness: runtime curves, empirical approximation ratios, and
coverage-quality sweeps over (k, alpha, beta), emitted as CSV.

Every (algorithm, parameter point, instance, repetition) combination yields
one row.  Rows are computed by an optional worker pool but always written in
canonical sorted order, with '#'-prefixed comment lines echoing the config
and appending per-algorithm aggregates.
"""

from __future__ import annotations

import csv
import io
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .coverage import cov_dc, cov_ic
from .errors import TagSelectError
from .model import Instance, make_params
from .solvers import SOLVERS, Algorithm, SolveReport
from .datagen import random_instance

CSV_FIELDS = (
    "algorithm",
    "k",
    "alpha",
    "beta",
    "instance_id",
    "rep",
    "objective_value",
    "coverage_proportion",
    "rel_total",
    "wall_time",
    "approx_ratio",
    "dead_end",
)

# Where each greedy row's ratio takes its optimum from, in order of
# preference: the coverage maximum for a-ic and the enumerator's theta
# minimum (its primary objective) for a-dc.
_OPTIMUM_SOURCES = {
    Algorithm.A_IC.value: (Algorithm.E_IC.value, Algorithm.BNB_IC.value),
    Algorithm.A_DC.value: (Algorithm.E_DC.value,),
}
_IC_ALGORITHMS = {Algorithm.E_IC, Algorithm.BNB_IC, Algorithm.A_IC}


@dataclass(frozen=True)
class RandomInstanceSpec:
    """Descriptor for a batch of random instances with uniform relevances."""

    count: int
    num_attrs: int = 24
    n_pos: int = 8
    n_neg: int = 8
    cover_min: int = 2
    cover_max: int = 6


@dataclass(frozen=True)
class SweepSpec:
    algorithms: tuple[Algorithm, ...]
    k_values: tuple[int, ...]
    alpha_values: tuple[float, ...]
    beta_values: tuple[float, ...]
    instances: RandomInstanceSpec | tuple[Instance, ...]
    repetitions: int = 1
    seed: int = 0
    # Exact/bnb solvers only run on instances with at most this many tags.
    exact_cap: int = 18

    def __post_init__(self):
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if not self.algorithms:
            raise ValueError("at least one algorithm required")
        if not (self.k_values and self.alpha_values and self.beta_values):
            raise ValueError("at least one (k, alpha, beta) point required")


@dataclass
class BenchRow:
    algorithm: str
    k: int
    alpha: float
    beta: float
    instance_id: str
    rep: int
    objective_value: int
    coverage_proportion: float
    rel_total: float
    wall_time: float
    approx_ratio: float | None
    dead_end: bool

    def to_csv(self) -> list[str]:
        return [
            self.algorithm,
            str(self.k),
            repr(self.alpha),
            repr(self.beta),
            self.instance_id,
            str(self.rep),
            str(self.objective_value),
            repr(self.coverage_proportion),
            repr(self.rel_total),
            repr(self.wall_time),
            "" if self.approx_ratio is None else repr(self.approx_ratio),
            "1" if self.dead_end else "0",
        ]

    @classmethod
    def from_csv(cls, row: Sequence[str]) -> "BenchRow":
        return cls(
            algorithm=row[0],
            k=int(row[1]),
            alpha=float(row[2]),
            beta=float(row[3]),
            instance_id=row[4],
            rep=int(row[5]),
            objective_value=int(row[6]),
            coverage_proportion=float(row[7]),
            rel_total=float(row[8]),
            wall_time=float(row[9]),
            approx_ratio=float(row[10]) if row[10] else None,
            dead_end=row[11] == "1",
        )

    def sort_key(self):
        return (self.algorithm, self.k, self.alpha, self.beta, self.instance_id, self.rep)


def materialize_instances(spec: SweepSpec) -> tuple[Instance, ...]:
    src = spec.instances
    if isinstance(src, RandomInstanceSpec):
        return tuple(
            random_instance(
                seed=[spec.seed, i],
                num_attrs=src.num_attrs,
                n_pos=src.n_pos,
                n_neg=src.n_neg,
                cover_min=src.cover_min,
                cover_max=src.cover_max,
                item_id=f"rand-{spec.seed}-{i:04d}",
            )
            for i in range(src.count)
        )
    return tuple(src)


def _coverage_count(report: SolveReport, instance: Instance) -> int:
    tags = [instance.tags[i] for i in report.selection.tag_ids]
    if report.algorithm in _IC_ALGORITHMS:
        return cov_ic(tags)
    return cov_dc(tags, instance)


def _solve_point(args) -> BenchRow:
    algorithm, instance, k, alpha, beta, rep, exact_cap = args
    row = BenchRow(
        algorithm=algorithm.value, k=k, alpha=alpha, beta=beta,
        instance_id=instance.item_id, rep=rep, objective_value=0,
        coverage_proportion=0.0, rel_total=0.0, wall_time=0.0,
        approx_ratio=None, dead_end=True,
    )
    denom = cov_ic(instance.tags)  # values appearing in any rule
    try:
        params = make_params(k, alpha, beta, instance)
        solver = SOLVERS[algorithm]
        if algorithm in (Algorithm.A_IC, Algorithm.A_DC):
            report = solver(instance, params)
        else:
            report = solver(instance, params, exact_cap=exact_cap)
    except TagSelectError:
        return row
    row.objective_value = report.objective_value
    row.coverage_proportion = _coverage_count(report, instance) / denom if denom else 0.0
    row.rel_total = report.rel_total
    row.wall_time = report.wall_time
    row.dead_end = not report.selection.feasible
    return row


def _ratio(row: BenchRow, opt: int) -> float | None:
    """Greedy value over the optimum, oriented so that 1 is best: coverage
    is maximized, theta minimized.  A zero denominator gives 1 when both are
    zero and None (flagged, not a ratio) otherwise."""
    if row.algorithm == Algorithm.A_IC.value:
        num, den = opt, row.objective_value
    else:
        num, den = row.objective_value, opt
    if den > 0:
        return num / den
    return 1.0 if num == 0 else None


def run_sweep(spec: SweepSpec, jobs: int = 1) -> list[BenchRow]:
    """Execute every sweep point; returns rows in canonical order with
    approximation ratios filled wherever the matching enumerator ran."""
    instances = materialize_instances(spec)
    tasks = []
    for inst in instances:
        schedulable = [
            a
            for a in spec.algorithms
            if a in (Algorithm.A_IC, Algorithm.A_DC) or inst.n <= spec.exact_cap
        ]
        for k in spec.k_values:
            for alpha in spec.alpha_values:
                for beta in spec.beta_values:
                    for rep in range(spec.repetitions):
                        for a in schedulable:
                            tasks.append((a, inst, k, alpha, beta, rep, spec.exact_cap))

    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_solve_point, tasks, chunksize=16))
    else:
        rows = [_solve_point(t) for t in tasks]

    def point(row: BenchRow) -> tuple:
        return (row.k, row.alpha, row.beta, row.instance_id)

    objective = {(r.algorithm, point(r)): r.objective_value for r in rows if not r.dead_end}
    for row in rows:
        if row.dead_end or row.algorithm not in _OPTIMUM_SOURCES:
            continue
        for source in _OPTIMUM_SOURCES[row.algorithm]:
            opt = objective.get((source, point(row)))
            if opt is not None:
                row.approx_ratio = _ratio(row, opt)
                break
    rows.sort(key=BenchRow.sort_key)
    return rows


def assert_bounds(rows: list[BenchRow]) -> None:
    """Hard-check the factor-2 guarantees on every row carrying a ratio."""
    violations = []
    for row in rows:
        if row.approx_ratio is not None and row.approx_ratio > 2.0 + 1e-12:
            violations.append(row)
    if violations:
        worst = max(v.approx_ratio for v in violations)
        raise AssertionError(
            f"{len(violations)} row(s) violate the factor-2 bound (worst {worst:.4f}); "
            f"first: {violations[0]}"
        )


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return math.nan
    ordered = sorted(values)
    idx = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[idx]


def summarize(rows: list[BenchRow]) -> list[str]:
    """Per-algorithm aggregate lines for the CSV footer."""
    out = []
    for alg in sorted({r.algorithm for r in rows}):
        sub = [r for r in rows if r.algorithm == alg]
        walls = [r.wall_time for r in sub if not r.dead_end]
        ratios = [r.approx_ratio for r in sub if r.approx_ratio is not None]
        dead = sum(1 for r in sub if r.dead_end)
        fields = [
            f"algorithm={alg}",
            f"rows={len(sub)}",
            f"mean_wall={sum(walls) / len(walls):.6g}" if walls else "mean_wall=nan",
            f"p95_wall={_percentile(walls, 0.95):.6g}" if walls else "p95_wall=nan",
            f"dead_end_rate={dead / len(sub):.4f}",
        ]
        if ratios:
            fields.append(f"mean_ratio={sum(ratios) / len(ratios):.6g}")
            fields.append(f"max_ratio={max(ratios):.6g}")
            within5 = sum(1 for x in ratios if x <= 1.05) / len(ratios)
            fields.append(f"within_5pct_of_exact={within5:.4f}")
        out.append(" ".join(fields))
    return out


def write_csv(rows: list[BenchRow], spec: SweepSpec, path: str | Path) -> None:
    buf = io.StringIO()
    config = {
        "algorithms": [a.value for a in spec.algorithms],
        "k_values": list(spec.k_values),
        "alpha_values": list(spec.alpha_values),
        "beta_values": list(spec.beta_values),
        "repetitions": spec.repetitions,
        "seed": spec.seed,
        "exact_cap": spec.exact_cap,
    }
    buf.write("# tagselect bench\n")
    buf.write(f"# config: {json.dumps(config, sort_keys=True)}\n")
    buf.write(f"# exact_cap: {spec.exact_cap}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    for row in rows:
        writer.writerow(row.to_csv())
    for line in summarize(rows):
        buf.write(f"# {line}\n")
    Path(path).write_text(buf.getvalue())


def read_csv(path: str | Path) -> list[BenchRow]:
    rows = []
    with open(path, newline="") as fh:
        for record in csv.reader(fh):
            if not record or record[0].startswith("#"):
                continue
            if record[0] == "algorithm":
                continue
            rows.append(BenchRow.from_csv(record))
    return rows
