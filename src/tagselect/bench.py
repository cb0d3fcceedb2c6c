"""Experiment harness: runtime curves, empirical approximation ratios, and
coverage-quality sweeps over (k, alpha, beta), emitted as CSV.

Every (algorithm, parameter point, instance, repetition) combination yields
one row, whose ``outcome`` says how the solve ended.  Rows are computed by
an optional worker pool but always written in canonical sorted order, with
'#'-prefixed comment lines echoing the config and appending per-algorithm
aggregates.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

from .coverage import cov_dc
from .errors import Infeasible, InfeasiblePolarity, InstanceTooLarge
from .model import Instance, make_params, union_mask
from .solvers import SOLVERS, Algorithm, SolveReport
from .datagen import check_random_sizes, random_instance

# How a solve ended: an answer, a greedy dead end, or one of the refusals
# below.  An unreachable relevance bound is raised by the exact routes only.
OUTCOMES = ("ok", "dead_end", "infeasible_quota", "infeasible_relevance", "refused")
_REFUSALS = {
    InfeasiblePolarity: "infeasible_quota",
    Infeasible: "infeasible_relevance",
    InstanceTooLarge: "refused",
}

# Where each greedy row's ratio takes its optimum from, in order of
# preference: the coverage maximum for a-ic and the enumerator's theta
# minimum (its primary objective) for a-dc.
_OPTIMUM_SOURCES = {
    Algorithm.A_IC.value: (Algorithm.E_IC.value, Algorithm.BNB_IC.value),
    Algorithm.A_DC.value: (Algorithm.E_DC.value,),
}


@dataclass(frozen=True)
class RandomInstanceSpec:
    """Descriptor for a batch of random instances with uniform relevances."""

    count: int
    num_attrs: int = 24
    n_pos: int = 8
    n_neg: int = 8

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"instance count must be >= 1, got {self.count}")
        check_random_sizes(self.num_attrs, self.n_pos, self.n_neg)


@dataclass(frozen=True)
class SweepSpec:
    algorithms: tuple[Algorithm, ...]
    k_values: tuple[int, ...]
    alpha_values: tuple[float, ...]
    beta_values: tuple[float, ...]
    instances: RandomInstanceSpec | tuple[Instance, ...]
    repetitions: int = 1
    seed: int = 0
    # The exact and bnb routes refuse instances with more tags than this,
    # which the sweep writes as refused rows.
    exact_cap: int = 18

    def __post_init__(self):
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if not self.algorithms:
            raise ValueError("at least one algorithm required")
        if not (self.k_values and self.alpha_values and self.beta_values):
            raise ValueError("at least one (k, alpha, beta) point required")
        if self.exact_cap < 0:
            raise ValueError(f"exact cap must be >= 0, got {self.exact_cap}")
        # Ratios pair each row with its optimum by instance id.
        if not isinstance(self.instances, RandomInstanceSpec):
            seen: set[str] = set()
            for inst in self.instances:
                if inst.item_id in seen:
                    raise ValueError(f"sweep instance ids must be unique; {inst.item_id!r} repeats")
                seen.add(inst.item_id)


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
    outcome: str  # one of OUTCOMES

    @property
    def dead_end(self) -> bool:
        """True when the row carries no answer: a greedy dead end or a
        refusal, that is every outcome but ``ok``."""
        return self.outcome != "ok"

    def to_csv(self) -> list[str]:
        return ["" if v is None else str(v) for v in (getattr(self, f) for f in CSV_FIELDS)]

    @classmethod
    def from_csv(cls, row: Sequence[str]) -> "BenchRow":
        return cls(*(_PARSE[f.type](cell) for f, cell in zip(fields(cls), row, strict=True)))

    def sort_key(self):
        return (self.algorithm, self.k, self.alpha, self.beta, self.instance_id, self.rep)


# The CSV columns are the BenchRow fields, in order; each cell is parsed by
# its field's annotation.
CSV_FIELDS = tuple(f.name for f in fields(BenchRow))
_PARSE = {
    "str": str,
    "int": int,
    "float": float,
    "float | None": lambda cell: float(cell) if cell else None,
}


def materialize_instances(spec: SweepSpec) -> tuple[Instance, ...]:
    src = spec.instances
    if isinstance(src, RandomInstanceSpec):
        return tuple(
            random_instance(
                seed=[spec.seed, i],
                num_attrs=src.num_attrs,
                n_pos=src.n_pos,
                n_neg=src.n_neg,
                item_id=f"rand-{spec.seed}-{i:04d}",
            )
            for i in range(src.count)
        )
    return tuple(src)


def _coverage_count(report: SolveReport, instance: Instance) -> int:
    """The answer's coverage: its objective value, or ``cov_dc`` of its
    selection where the objective is theta."""
    if report.objective_kind != "theta_dc":
        return report.objective_value
    return cov_dc((instance.tags[i] for i in report.tag_ids), instance)


def _solve_point(args) -> BenchRow:
    algorithm, instance, k, alpha, beta, rep, exact_cap = args
    row = BenchRow(
        algorithm=algorithm.value, k=k, alpha=alpha, beta=beta,
        instance_id=instance.item_id, rep=rep, objective_value=0,
        coverage_proportion=0.0, rel_total=0.0, wall_time=0.0,
        approx_ratio=None, outcome="ok",
    )
    # Values appearing in any rule.
    denom = union_mask(instance.tags).bit_count()
    try:
        params = make_params(k, alpha, beta, instance)
        report = SOLVERS[algorithm](instance, params, exact_cap=exact_cap)
    except tuple(_REFUSALS) as exc:
        row.outcome = _REFUSALS[type(exc)]
        return row
    row.objective_value = report.objective_value
    row.coverage_proportion = _coverage_count(report, instance) / denom if denom else 0.0
    row.rel_total = report.rel_total
    row.wall_time = report.wall_time
    row.outcome = "ok" if report.feasible else "dead_end"
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
    approximation ratios filled wherever the matching enumerator answered.
    ``jobs`` above 1 runs the points on at most that many worker
    processes, and never on more than there are points or CPUs; when that
    comes to one, the points run in this process."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    instances = materialize_instances(spec)
    tasks = []
    for inst in instances:
        for k in spec.k_values:
            for alpha in spec.alpha_values:
                for beta in spec.beta_values:
                    for rep in range(spec.repetitions):
                        for a in spec.algorithms:
                            tasks.append((a, inst, k, alpha, beta, rep, spec.exact_cap))

    # Under fork the pool starts all its workers on the first submit.
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
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
        dead = sum(1 for r in sub if r.outcome == "dead_end")
        fields = [
            f"algorithm={alg}",
            f"rows={len(sub)}",
            f"mean_wall={sum(walls) / len(walls):.6g}" if walls else "mean_wall=nan",
            f"p95_wall={_percentile(walls, 0.95):.6g}",
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
    """Rows of a CSV written by :func:`write_csv`; a header other than
    ``CSV_FIELDS`` (say, from before the ``outcome`` column) is refused."""
    rows = []
    with open(path, newline="") as fh:
        for record in csv.reader(fh):
            if not record or record[0].startswith("#"):
                continue
            if record[0] == "algorithm":
                if tuple(record) != CSV_FIELDS:
                    raise ValueError(
                        f"{path}: columns {','.join(record)}, expected {','.join(CSV_FIELDS)}"
                    )
                continue
            rows.append(BenchRow.from_csv(record))
    return rows
