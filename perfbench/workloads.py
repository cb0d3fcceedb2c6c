"""The four benchmark workloads.

Each workload does its set-up through the package (timed as ``setup_s``),
yields an endless deterministic stream of operations made from the seed,
executes one operation through the package's public functions, and checks
the recorded results afterwards with the independent code in
``reference.py``.  Every operation belongs to one latency class: ``ic``
(independent coverage) or ``dc`` (dependent coverage), so that the two
solver families are never pooled into one latency distribution.

Functions of the package are looked up on their module at call time, so
that spans installed by ``tracer.py`` see every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tagselect as ts
from tagselect import bench, cli, datagen, rules_io, solvers
from tagselect.errors import (
    Infeasible,
    InfeasiblePolarity,
    InstanceTooLarge,
    TagSelectError,
)

from reference import Ref, split

_ERROR_OUTCOMES = (
    (InfeasiblePolarity, "infeasible_quota"),
    (Infeasible, "infeasible_relevance"),
    (InstanceTooLarge, "refused"),
)


def outcome_of(result) -> str | None:
    """Outcome of one solve from its exception type or feasibility flag;
    None for anything that is not a documented outcome."""
    if isinstance(result, BaseException):
        for exc_type, name in _ERROR_OUTCOMES:
            if isinstance(result, exc_type):
                return name
        return None
    return "ok" if result.selection.feasible else "dead_end"


@dataclass(frozen=True)
class Op:
    cls: str  # latency class: "ic" | "dc"
    algo: str  # algorithm, or the solver family of a sweep
    key: tuple


@dataclass
class Record:
    op: Op
    result: object  # the operation's return value, or the exception it raised
    seconds: float


@dataclass
class Checked:
    """What the checks found: attempted/failed in the workload's units."""

    attempted: int = 0
    failed: int = 0
    outcomes: Counter = field(default_factory=Counter)  # (algorithm, outcome)
    problems: list = field(default_factory=list)
    ratios: dict = field(default_factory=lambda: {"a-ic": [], "a-dc": []})
    notes: list = field(default_factory=list)

    def fail(self, what: str, units: int = 1) -> None:
        self.failed += units
        if len(self.problems) < 20:
            self.problems.append(what)


def _seed_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


class Workload:
    name = ""
    unit = "ops"
    tail_pct = 99
    # The measured loop ends only after a multiple of this many operations,
    # so each run holds whole cycles of the workload's mix.
    granularity = 1
    # True when the operation stream cycles through a fixed list, so that
    # each distinct operation is timed several times in a run.
    repeats = False
    # Set for a traced run: spans cannot reach into a child process.
    in_process = False
    # Resident memory is sampled during the first this many operations, a
    # span every run reaches, so that the benchmark's own record of answers,
    # which grows with throughput, stays out of it.
    rss_ops = 0

    def __init__(self, root: Path, seed: int, seconds: int):
        self.root = root
        self.seed = seed
        self.seconds = seconds

    def setup(self) -> None:
        raise NotImplementedError

    def ops(self):
        raise NotImplementedError

    def execute(self, op: Op):
        raise NotImplementedError

    def trace_ops(self) -> int:
        """Fixed operation count of a traced pass (counts must repeat)."""
        raise NotImplementedError

    def timed(self, op: Op) -> Record:
        t0 = time.perf_counter()
        try:
            result = self.execute(op)
        except Exception as exc:  # recorded and counted by the checks, not raised
            result = exc
        return Record(op, result, time.perf_counter() - t0)

    def check(self, records: list[Record]) -> Checked:
        raise NotImplementedError


def _check_report(chk: Checked, ref: Ref, op: Op, report, k, alpha, beta) -> None:
    sel = report.selection
    problems = ref.check(
        sel.tag_ids, k, alpha, beta, sel.objective_kind, report.objective_value, sel.feasible
    )
    if sel.objective_value != report.objective_value:
        problems.append("selection and report objective differ")
    if problems:
        chk.fail(f"{op.algo} {op.key}: {'; '.join(problems)}")


def _check_exception(chk: Checked, ref: Ref, op: Op, exc, k, alpha) -> str | None:
    """Classify a raised exception; unexpected ones count as failures."""
    outcome = outcome_of(exc)
    if outcome is None:
        chk.fail(f"{op.algo} {op.key}: {type(exc).__name__}: {exc}")
    elif outcome == "infeasible_quota" and ref.quota_ok(k, alpha):
        chk.fail(f"{op.algo} {op.key}: quota refused although it fits")
    elif outcome == "infeasible_relevance":
        # With beta <= 1 the top-relevance subset always meets the bound.
        chk.fail(f"{op.algo} {op.key}: relevance reported infeasible")
    return outcome


def _answer(result):
    if isinstance(result, BaseException):
        return (type(result).__name__,)
    sel = result.selection
    return (sel.tag_ids, result.objective_value, sel.feasible)


def _check_solve(chk: Checked, seen: dict, ref: Ref, rec: Record, k, alpha, beta) -> None:
    """Check one solve and count its outcome; a repeated operation must get
    the answer it got the first time, which was checked then."""
    op, result = rec.op, rec.result
    answer = _answer(result)
    first = seen.setdefault(op, answer)
    if first != answer:
        chk.fail(f"{op.algo} {op.key}: repeated operation answered differently")
        return
    if isinstance(result, BaseException):
        outcome = _check_exception(chk, ref, op, result, k, alpha)
    else:
        outcome = outcome_of(result)
        if first is answer:
            _check_report(chk, ref, op, result, k, alpha, beta)
    if outcome is not None:
        chk.outcomes[(op.algo, outcome)] += 1


# ---------------------------------------------------------------------------
# item-requests: the online path on per-item vocabularies
# ---------------------------------------------------------------------------


class ItemRequests(Workload):
    name = "item-requests"
    unit = "requests"
    # p99 of these sub-millisecond requests is set by the heaviest 1% of the
    # seed's item pool and by collector pauses; it spread by 0.2 to 0.3 of
    # its median across runs.  p90 still leaves hundreds of samples beyond.
    tail_pct = 90
    granularity = 2
    rss_ops = 2000

    NUM_ITEMS = 20000
    GROUP_PROBS = (0.9, 0.5, 0.3, 0.1)
    # The catalogue (matrix and rules), the item pool and its popularity
    # order are fixed; the seed picks the request stream.  Catalogue seeds
    # differ by up to 2x in work per request, and pools of 1,000 items by
    # enough to move the p90, which would swamp any change.
    CATALOGUE_SEED = 1602
    # Assumed, not taken from a source: popularity falls as rank ** -0.6
    # over the pool.  Then 62% of the first 2,000 requests, and 89% of
    # 9,000, repeat an item that an earlier request asked for.  A cache
    # gain measured here holds for this assumed traffic only; METRICS.md.
    POOL = 1000
    ZIPF_S = 0.6
    ALPHAS = (0.2, 0.4, 0.5, 0.6, 0.8)
    BETAS = (0.3, 0.6)
    CHUNK = 4096

    def setup(self) -> None:
        config = datagen.SynthConfig(
            num_items=self.NUM_ITEMS, group_probs=self.GROUP_PROBS, seed=self.CATALOGUE_SEED
        )
        matrix = datagen.gen_matrix(config)
        rules = datagen.extract_rules(matrix)
        rows = _seed_rng(self.CATALOGUE_SEED, 1).permutation(self.NUM_ITEMS)
        pool = []
        for row in rows:
            if len(pool) == self.POOL:
                break
            try:
                pool.append(datagen.sample_instance(matrix, rules, int(row)))
            except ts.EmptyInstance:
                continue
        self.pool = pool

    def ops(self):
        rng = _seed_rng(self.seed, 2)
        weights = 1.0 / np.arange(1, len(self.pool) + 1) ** self.ZIPF_S
        weights /= weights.sum()
        i = 0
        while True:
            items = rng.choice(len(weights), size=self.CHUNK, p=weights)
            ks = rng.integers(2, 9, size=self.CHUNK)
            alphas = rng.integers(0, len(self.ALPHAS), size=self.CHUNK)
            betas = rng.integers(0, len(self.BETAS), size=self.CHUNK)
            for j in range(self.CHUNK):
                cls = "ic" if i % 2 == 0 else "dc"
                key = (int(items[j]), int(ks[j]), self.ALPHAS[alphas[j]], self.BETAS[betas[j]])
                yield Op(cls, "a-" + cls, key)
                i += 1

    def execute(self, op: Op):
        item, k, alpha, beta = op.key
        instance = self.pool[item]
        params = ts.make_params(k, alpha, beta, instance)
        solver = ts.greedy_ic if op.cls == "ic" else ts.greedy_dc
        return solver(instance, params)

    def trace_ops(self) -> int:
        return 60 * self.seconds

    def check(self, records: list[Record]) -> Checked:
        chk = Checked()
        refs: dict[int, Ref] = {}
        seen: dict[Op, tuple] = {}
        for rec in records:
            item, k, alpha, beta = rec.op.key
            chk.attempted += 1
            if item not in refs:
                refs[item] = Ref(self.pool[item])
            _check_solve(chk, seen, refs[item], rec, k, alpha, beta)
        for what, distinct in (("request", len(seen)), ("request's item", len(refs))):
            repeats = chk.attempted - distinct
            chk.notes.append(
                f"requests repeating an earlier {what}: {repeats} of "
                f"{chk.attempted} ({repeats / chk.attempted:.1%})"
            )
        sizes = sorted(self.pool[i].n for i in refs)
        if sizes:
            q = [sizes[int(p * (len(sizes) - 1))] for p in (0.1, 0.5, 0.9)]
            chk.notes.append(f"tags per requested item p10/p50/p90: {q[0]}/{q[1]}/{q[2]}")
        return chk


# ---------------------------------------------------------------------------
# oracle-sweep: the research path, enumerators and branch-and-bound
# ---------------------------------------------------------------------------

IC_FAMILY = (solvers.Algorithm.E_IC, solvers.Algorithm.BNB_IC, solvers.Algorithm.A_IC)
DC_FAMILY = (solvers.Algorithm.E_DC, solvers.Algorithm.BNB_DC, solvers.Algorithm.A_DC)


class OracleSweep(Workload):
    name = "oracle-sweep"
    unit = "rows"
    tail_pct = 75
    rss_ops = 20

    # The instance set is fixed, as exact-scale's is: sweep time varies by
    # about two times between random instances of this size.  The seed
    # rotates the order, and a run always ends after a whole pass.
    SET_SEED = 20160220
    SIZE = 16
    K_VALUES = (2, 4, 6)
    ALPHAS = (0.3, 0.5, 0.7)
    BETAS = (0.3, 0.7)

    @property
    def granularity(self) -> int:
        return 2 * self.SIZE

    def setup(self) -> None:
        self.pool = [
            datagen.random_instance(
                seed=[self.SET_SEED, i], num_attrs=24, n_pos=8, n_neg=8,
                item_id=f"sweep-{i:02d}",
            )
            for i in range(self.SIZE)
        ]

    def ops(self):
        start = self.seed % self.SIZE
        order = [(start + j) % self.SIZE for j in range(self.SIZE)]
        while True:
            for index in order:
                yield Op("ic", "ic", (index,))
                yield Op("dc", "dc", (index,))

    def execute(self, op: Op):
        spec = bench.SweepSpec(
            algorithms=IC_FAMILY if op.cls == "ic" else DC_FAMILY,
            k_values=self.K_VALUES,
            alpha_values=self.ALPHAS,
            beta_values=self.BETAS,
            instances=(self.pool[op.key[0]],),
            seed=self.seed,
        )
        rows = bench.run_sweep(spec, jobs=1)
        bench.summarize(rows)
        return rows

    def trace_ops(self) -> int:
        return self.granularity

    def rows_per_op(self) -> int:
        return 3 * len(self.K_VALUES) * len(self.ALPHAS) * len(self.BETAS)

    def check(self, records: list[Record]) -> Checked:
        chk = Checked()
        optima: dict[int, dict] = {}
        expected_rows = self.rows_per_op()
        for rec in records:
            op = rec.op
            (index,) = op.key
            chk.attempted += expected_rows
            if isinstance(rec.result, BaseException):
                chk.fail(f"sweep {op.key}: {type(rec.result).__name__}: {rec.result}", expected_rows)
                continue
            rows = rec.result
            if len(rows) != expected_rows:
                chk.fail(f"sweep {op.key}: {len(rows)} rows, expected {expected_rows}", expected_rows)
                continue
            if index not in optima:
                ref = Ref(self.pool[index])
                optima[index] = ref, {
                    (k, a): ref.optima(k, a, self.BETAS) for k in self.K_VALUES for a in self.ALPHAS
                }
            ref, opt = optima[index]
            for row in rows:
                problem = self._check_row(chk, ref, opt, row)
                if problem:
                    chk.fail(f"{row.algorithm} {index} k={row.k} a={row.alpha} b={row.beta}: {problem}")
        over = sum(1 for r in chk.ratios["a-dc"] if r > 2.0 + 1e-12)
        chk.notes.append(f"a-dc ratios over 2 (known red, not a failure): {over}")
        return chk

    def _check_row(self, chk: Checked, ref: Ref, opt: dict, row) -> str | None:
        """Classify one sweep row and compare it with the reference optima.

        The sweep maps every refusal to its dead_end column, so the outcome
        is derived here from the quotas and the kind of solver."""
        alg = row.algorithm
        greedy = alg in ("a-ic", "a-dc")
        if not ref.quota_ok(row.k, row.alpha):
            chk.outcomes[(alg, "infeasible_quota")] += 1
            return None if row.dead_end else "quota cannot be met but row has an answer"
        if row.dead_end:
            if greedy:
                chk.outcomes[(alg, "dead_end")] += 1
                return None
            chk.outcomes[(alg, "infeasible_relevance")] += 1
            return "exact solver refused a feasible point"
        chk.outcomes[(alg, "ok")] += 1
        k1, k2 = split(row.k, row.alpha)
        need = row.beta * ref.rel_max(k1, k2) - 1e-9
        if row.rel_total < need - 1e-7:
            return f"relevance {row.rel_total} below {need}"
        best_ic, best_theta, best_covdc = opt[(row.k, row.alpha)][row.beta]
        obj = row.objective_value
        expect = {"e-ic": best_ic, "bnb-ic": best_ic, "e-dc": best_theta, "bnb-dc": best_covdc}
        if alg in expect:
            return None if obj == expect[alg] else f"objective {obj}, optimum {expect[alg]}"
        if alg == "a-ic":
            if obj > best_ic:
                return f"greedy {obj} beats optimum {best_ic}"
            ratio = best_ic / obj if obj > 0 else (1.0 if best_ic == 0 else None)
        else:
            if obj < best_theta:
                return f"greedy theta {obj} beats optimum {best_theta}"
            ratio = obj / best_theta if best_theta > 0 else (1.0 if obj == 0 else None)
        if ratio is not None:
            chk.ratios[alg].append(ratio)
        if (ratio is None) != (row.approx_ratio is None) or (
            ratio is not None and abs(ratio - row.approx_ratio) > 1e-12
        ):
            return f"reported ratio {row.approx_ratio}, recomputed {ratio}"
        return None


# ---------------------------------------------------------------------------
# exact-scale: branch-and-bound beyond the enumerator's reach
# ---------------------------------------------------------------------------


class ExactScale(Workload):
    name = "exact-scale"
    unit = "solves"
    tail_pct = 75
    repeats = True
    rss_ops = 18

    # The instance set is fixed so that every run times the same searches;
    # the seed only rotates the order in which they run.
    SET_SEED = 20160219
    SIZE = 9
    K_VALUES = (4, 5, 6)
    ALPHA = 0.5
    BETA = 0.7
    EXACT_CAP = 40
    # Instances checked for optimality against the reference enumerator:
    # the k = 4 ones, which enumerate in well under a second each.
    ENUMERATED = (0, 3, 6)

    @property
    def granularity(self) -> int:
        return 2 * self.SIZE

    def setup(self) -> None:
        self.instances = [
            datagen.random_instance(
                seed=[self.SET_SEED, i], num_attrs=40, n_pos=20, n_neg=20,
                item_id=f"scale-{i}",
            )
            for i in range(self.SIZE)
        ]

    def _k(self, index: int) -> int:
        return self.K_VALUES[index % len(self.K_VALUES)]

    def ops(self):
        start = self.seed % self.SIZE
        order = [(start + j) % self.SIZE for j in range(self.SIZE)]
        while True:
            for index in order:
                yield Op("ic", "bnb-ic", (index,))
                yield Op("dc", "bnb-dc", (index,))

    def execute(self, op: Op):
        (index,) = op.key
        instance = self.instances[index]
        params = ts.make_params(self._k(index), self.ALPHA, self.BETA, instance)
        solver = ts.bnb_ic if op.cls == "ic" else ts.bnb_dc
        return solver(instance, params, exact_cap=self.EXACT_CAP)

    def trace_ops(self) -> int:
        return self.granularity

    def check(self, records: list[Record]) -> Checked:
        chk = Checked()
        refs = {i: Ref(inst) for i, inst in enumerate(self.instances)}
        seen: dict[Op, tuple] = {}
        for rec in records:
            (index,) = rec.op.key
            chk.attempted += 1
            _check_solve(chk, seen, refs[index], rec, self._k(index), self.ALPHA, self.BETA)
        for index in self.ENUMERATED:
            best_ic, _, best_covdc = refs[index].optima(self._k(index), self.ALPHA, (self.BETA,))[self.BETA]
            for cls, algo, best in (("ic", "bnb-ic", best_ic), ("dc", "bnb-dc", best_covdc)):
                answer = seen.get(Op(cls, algo, (index,)))
                # An answer of one element is an exception, already counted.
                if answer is not None and len(answer) == 3 and answer[1] != best:
                    chk.fail(f"{algo} {index}: objective {answer[1]}, enumerated optimum {best}")
        return chk


# ---------------------------------------------------------------------------
# cli-cold: one fresh CLI process per request
# ---------------------------------------------------------------------------


class CliCold(Workload):
    name = "cli-cold"
    unit = "processes"
    tail_pct = 75
    repeats = True

    ITEMS = 20000
    # The rules file is the same in every run, as item-requests' catalogue
    # is; the seed only rotates the (k, alpha) points.
    RULES_SEED = 1602
    POINTS = ((2, 0.5), (4, 0.75), (6, 0.5))
    BETA = 0.5

    @property
    def granularity(self) -> int:
        return 2 * len(self.POINTS)

    def setup(self) -> None:
        work = self.root / "perfbench" / ".work"
        work.mkdir(parents=True, exist_ok=True)
        prefix = work / "cli"
        argv = ["gen", "--items", str(self.ITEMS), "--seed", str(self.RULES_SEED), "--out", str(prefix)]
        code, _, err = _main_in_process(argv)
        if code != 0:
            raise RuntimeError(f"tagselect gen failed ({code}): {err}")
        self.rules = prefix.with_suffix(".rules.jsonl")

    def _argv(self, op: Op) -> list[str]:
        k, alpha = op.key
        return [
            "solve", "--rules", str(self.rules), "--k", str(k), "--alpha", str(alpha),
            "--beta", str(self.BETA), "--algorithm", op.algo,
        ]

    def ops(self):
        start = self.seed % len(self.POINTS)
        points = self.POINTS[start:] + self.POINTS[:start]
        for point in itertools.cycle(points):
            yield Op("ic", "a-ic", point)
            yield Op("dc", "a-dc", point)

    def execute(self, op: Op):
        if self.in_process:
            return _main_in_process(self._argv(op))
        proc = subprocess.run(
            [sys.executable, "-m", "tagselect.cli", *self._argv(op)],
            cwd=self.root, env=child_env(self.root), capture_output=True, text=True,
            timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def trace_ops(self) -> int:
        return 2 * self.granularity * max(1, self.seconds // 3)

    def check(self, records: list[Record]) -> Checked:
        chk = Checked()
        instance = rules_io.load(self.rules).build()
        ref = Ref(instance)
        expected: dict[Op, tuple] = {}
        for rec in records:
            op = rec.op
            chk.attempted += 1
            if isinstance(rec.result, BaseException):
                chk.fail(f"{op.algo} {op.key}: {type(rec.result).__name__}: {rec.result}")
                continue
            if op not in expected:
                expected[op] = self._expected(instance, op)
            outcome, want_code, want_out = expected[op]
            code, out, err = rec.result
            if outcome is None:
                chk.fail(f"{op.algo} {op.key}: in-process solve raised an unexpected error")
                continue
            chk.outcomes[(op.algo, outcome)] += 1
            if code != want_code or _strip_time(out) != _strip_time(want_out):
                chk.fail(f"{op.algo} {op.key}: exit {code} / output differs from in-process solve: {err.strip()[:200]}")
                continue
            if outcome in ("ok", "dead_end"):
                problems = self._check_output(ref, op, out, outcome == "ok")
                if problems:
                    chk.fail(f"{op.algo} {op.key}: {'; '.join(problems)}")
        return chk

    def _expected(self, instance, op: Op):
        """Outcome of the library solve and stdout of an in-process CLI run."""
        k, alpha = op.key
        try:
            params = ts.make_params(k, alpha, self.BETA, instance)
            result = solvers.SOLVERS[solvers.Algorithm(op.algo)](instance, params)
        except TagSelectError as exc:
            result = exc
        code, out, _ = _main_in_process(self._argv(op))
        return outcome_of(result), code, out

    def _check_output(self, ref: Ref, op: Op, out: str, feasible: bool) -> list[str]:
        ids, kind, value = [], None, None
        for line in out.splitlines():
            if line.endswith(" (+)") or line.endswith(" (-)"):
                ids.append(ref.labels.get((line[:-4], line[-2]), -1))
            elif kind is None and " = " in line:
                kind, _, text = line.partition(" = ")
                value = int(text) if text.isdigit() else None
        if kind is None or value is None:
            return ["no objective line"]
        k, alpha = op.key
        return ref.check(ids, k, alpha, self.BETA, kind, value, feasible)


def _strip_time(text: str) -> list[str]:
    return [line for line in text.splitlines() if not line.startswith("time = ")]


def _main_in_process(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


WORKLOADS = {w.name: w for w in (ItemRequests, OracleSweep, ExactScale, CliCold)}
