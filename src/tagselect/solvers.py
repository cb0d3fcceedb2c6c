"""Exact and approximate solvers for both coverage objectives.

Each objective gets three routes:

* an exhaustive enumerator over all quota-feasible subsets (the oracle);
* a depth-first branch-and-bound search with the same semantics as the 0/1
  integer program (count, relevance, and optimistic-coverage pruning);
* a greedy approximation with a per-step relevance filter.

All solvers are pure functions of (instance, params) and deterministic:
argmax/argmin ties resolve by objective, then relevance, then lowest tag
ids, in that order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, combinations
from typing import Callable, Sequence

from .coverage import build_dc_graph, cov_dc, cov_ic, theta_dc
from .errors import Infeasible, InstanceTooLarge
from .model import EPS, Instance, Params, Selection, Tag, check_quotas
from .relevance import RelBenchmark, rel_max, rel_total, stepwise_rel_max

DEFAULT_EXACT_CAP = 30


class Algorithm(Enum):
    E_IC = "e-ic"
    BNB_IC = "bnb-ic"
    A_IC = "a-ic"
    E_DC = "e-dc"
    BNB_DC = "bnb-dc"
    A_DC = "a-dc"


@dataclass(frozen=True)
class SolveReport:
    algorithm: Algorithm
    selection: Selection
    objective_value: int
    rel_total: float
    wall_time: float
    nodes_explored: int | None = None
    # The DC enumerator reports the theta optimum as its primary selection
    # and carries the dependent-coverage optimum alongside.
    covdc_selection: Selection | None = None
    covdc_value: int | None = None


def _exact_setup(instance: Instance, params: Params, exact_cap: int) -> float:
    """Shared set-up of the exact routes: refuse an unfillable quota, then an
    oversized instance, then return the relevance every answer must reach."""
    check_quotas(params.k1, params.k2, instance.n_pos, instance.n_neg)
    if instance.n > exact_cap:
        raise InstanceTooLarge(
            f"exhaustive solving refused for n={instance.n} tags "
            f"(cap {exact_cap}); raise exact_cap explicitly if you mean it"
        )
    bench = RelBenchmark.from_instance(instance)
    return params.beta * rel_max(bench, params.k1, params.k2) - EPS


def _selection(tags: Sequence[Tag], kind: str, value: int, feasible: bool) -> Selection:
    return Selection(
        tag_ids=frozenset(t.id for t in tags),
        rel_total=rel_total(tags),
        objective_kind=kind,
        objective_value=value,
        feasible=feasible,
    )


# ---------------------------------------------------------------------------
# Independent coverage
# ---------------------------------------------------------------------------


def exact_ic(
    instance: Instance, params: Params, exact_cap: int = DEFAULT_EXACT_CAP
) -> SolveReport:
    """Enumerate every subset with exactly k1 positives and k2 negatives and
    return the one maximizing independent coverage under the relevance bound.
    """
    t0 = time.perf_counter()
    need = _exact_setup(instance, params, exact_cap)

    best: tuple[int, float, tuple[Tag, ...]] | None = None
    nodes = 0
    for pos in combinations(instance.positives(), params.k1):
        pos_rel = sum(t.relevance for t in pos)
        pos_mask = 0
        for t in pos:
            pos_mask |= t.mask
        for neg in combinations(instance.negatives(), params.k2):
            nodes += 1
            rel = pos_rel + sum(t.relevance for t in neg)
            if rel < need:
                continue
            mask = pos_mask
            for t in neg:
                mask |= t.mask
            cov = mask.bit_count()
            # Enumeration order is lexicographic in tag ids, so replacing
            # only on strict improvement keeps the smallest id set on ties.
            if best is None or cov > best[0] or (cov == best[0] and rel > best[1]):
                best = (cov, rel, pos + neg)
    if best is None:
        raise Infeasible(
            f"no quota-feasible subset reaches relevance {need + EPS:.6g}"
        )
    cov, _, chosen = best
    return SolveReport(
        algorithm=Algorithm.E_IC,
        selection=_selection(chosen, "cov_ic", cov, True),
        objective_value=cov,
        rel_total=rel_total(chosen),
        wall_time=time.perf_counter() - t0,
        nodes_explored=nodes,
    )


def greedy_ic(instance: Instance, params: Params) -> SolveReport:
    """Greedy approximation: k rounds of adding the quota-open tag with the
    largest resulting coverage among those passing the per-step relevance
    filter.  Carries a 1/2 guarantee relative to the enumerator.

    A step with an empty candidate pool is a dead end: the partial selection
    is returned flagged infeasible instead of relaxing the filter.
    """
    t0 = time.perf_counter()
    check_quotas(params.k1, params.k2, instance.n_pos, instance.n_neg)
    bench = RelBenchmark.from_instance(instance)

    chosen: list[Tag] = []
    taken = set()
    pos_count = neg_count = 0
    rel_so_far = 0.0
    mask = 0
    for x in range(1, params.k + 1):
        threshold = params.beta * stepwise_rel_max(bench, params.k1, params.k2, x) - EPS
        best_key = None
        best_tag = None
        for t in instance.tags:
            if t.id in taken:
                continue
            if t.is_positive:
                if pos_count >= params.k1:
                    continue
            elif neg_count >= params.k2:
                continue
            if rel_so_far + t.relevance < threshold:
                continue
            key = ((mask | t.mask).bit_count(), t.relevance, -t.id)
            if best_key is None or key > best_key:
                best_key = key
                best_tag = t
        if best_tag is None:
            # Dead end: the relevance filter emptied the pool mid-run.
            return SolveReport(
                algorithm=Algorithm.A_IC,
                selection=_selection(chosen, "cov_ic", mask.bit_count(), False),
                objective_value=mask.bit_count(),
                rel_total=rel_so_far,
                wall_time=time.perf_counter() - t0,
            )
        chosen.append(best_tag)
        taken.add(best_tag.id)
        rel_so_far += best_tag.relevance
        mask |= best_tag.mask
        if best_tag.is_positive:
            pos_count += 1
        else:
            neg_count += 1
    cov = mask.bit_count()
    return SolveReport(
        algorithm=Algorithm.A_IC,
        selection=_selection(chosen, "cov_ic", cov, True),
        objective_value=cov,
        rel_total=rel_so_far,
        wall_time=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# Dependent coverage
# ---------------------------------------------------------------------------


def exact_dc(
    instance: Instance, params: Params, exact_cap: int = DEFAULT_EXACT_CAP
) -> SolveReport:
    """Enumerate quota-feasible subsets and return both optima: the
    theta-minimizing selection (primary, reported as the objective) and the
    dependent-coverage-maximizing selection (carried in ``covdc_*``).

    The two argopts coincide whenever minimizing theta is equivalent to
    maximizing dependent coverage on the instance; the enumeration does not
    assume that and evaluates both objectives independently.
    """
    t0 = time.perf_counter()
    need = _exact_setup(instance, params, exact_cap)
    graph = build_dc_graph(instance)

    best_theta: tuple[int, float, tuple[Tag, ...]] | None = None
    best_cov: tuple[int, float, tuple[Tag, ...]] | None = None
    nodes = 0
    for pos in combinations(instance.positives(), params.k1):
        pos_rel = sum(t.relevance for t in pos)
        for neg in combinations(instance.negatives(), params.k2):
            nodes += 1
            rel = pos_rel + sum(t.relevance for t in neg)
            if rel < need:
                continue
            subset = pos + neg
            th = theta_dc(graph, subset)
            cv = cov_dc(subset, instance)
            if (
                best_theta is None
                or th < best_theta[0]
                or (th == best_theta[0] and rel > best_theta[1])
            ):
                best_theta = (th, rel, subset)
            if (
                best_cov is None
                or cv > best_cov[0]
                or (cv == best_cov[0] and rel > best_cov[1])
            ):
                best_cov = (cv, rel, subset)
    if best_theta is None or best_cov is None:
        raise Infeasible(
            f"no quota-feasible subset reaches relevance {need + EPS:.6g}"
        )
    th, _, th_tags = best_theta
    cv, _, cv_tags = best_cov
    return SolveReport(
        algorithm=Algorithm.E_DC,
        selection=_selection(th_tags, "theta_dc", th, True),
        objective_value=th,
        rel_total=rel_total(th_tags),
        wall_time=time.perf_counter() - t0,
        nodes_explored=nodes,
        covdc_selection=_selection(cv_tags, "cov_dc", cv, True),
        covdc_value=cv,
    )


def greedy_dc(instance: Instance, params: Params) -> SolveReport:
    """Greedy approximation on the labeled graph.

    Phase 1 adds whole cross pairs (one positive, one negative) minimizing
    the resulting theta among pairs passing the relevance filter at size
    |T*| + 2; phase 2 fills whatever quota remains one tag at a time from
    the open side at size |T*| + 1.  Measured against the enumerator, theta
    stays within factor 2 on balanced quotas (k1 = k2); the one-sided fill
    phase can exceed that on imbalanced quotas, since theta's intra-edge
    subtraction is invisible to the myopic pair step.
    """
    t0 = time.perf_counter()
    check_quotas(params.k1, params.k2, instance.n_pos, instance.n_neg)
    bench = RelBenchmark.from_instance(instance)
    graph = build_dc_graph(instance)

    chosen: list[Tag] = []
    taken: set[int] = set()
    rel_so_far = 0.0
    k1_rem, k2_rem = params.k1, params.k2

    def dead_end() -> SolveReport:
        th = theta_dc(graph, chosen)
        return SolveReport(
            algorithm=Algorithm.A_DC,
            selection=_selection(chosen, "theta_dc", th, False),
            objective_value=th,
            rel_total=rel_so_far,
            wall_time=time.perf_counter() - t0,
        )

    while k1_rem > 0 and k2_rem > 0:
        x = len(chosen) + 2
        threshold = params.beta * stepwise_rel_max(bench, params.k1, params.k2, x) - EPS
        best_key = None
        best_pair = None
        for tx in instance.positives():
            if tx.id in taken:
                continue
            for ty in instance.negatives():
                if ty.id in taken or rel_so_far + tx.relevance + ty.relevance < threshold:
                    continue
                th = theta_dc(graph, chosen + [tx, ty])
                key = (th, -(tx.relevance + ty.relevance), (tx.id, ty.id))
                if best_key is None or key < best_key:
                    best_key = key
                    best_pair = (tx, ty)
        if best_pair is None:
            return dead_end()
        for t in best_pair:
            chosen.append(t)
            taken.add(t.id)
            rel_so_far += t.relevance
        k1_rem -= 1
        k2_rem -= 1

    while len(chosen) < params.k:
        pool = instance.positives() if k1_rem > 0 else instance.negatives()
        x = len(chosen) + 1
        threshold = params.beta * stepwise_rel_max(bench, params.k1, params.k2, x) - EPS
        best_key = None
        best_tag = None
        for t in pool:
            if t.id in taken or rel_so_far + t.relevance < threshold:
                continue
            th = theta_dc(graph, chosen + [t])
            key = (th, -t.relevance, t.id)
            if best_key is None or key < best_key:
                best_key = key
                best_tag = t
        if best_tag is None:
            return dead_end()
        chosen.append(best_tag)
        taken.add(best_tag.id)
        rel_so_far += best_tag.relevance
        if best_tag.is_positive:
            k1_rem -= 1
        else:
            k2_rem -= 1

    th = theta_dc(graph, chosen)
    return SolveReport(
        algorithm=Algorithm.A_DC,
        selection=_selection(chosen, "theta_dc", th, True),
        objective_value=th,
        rel_total=rel_so_far,
        wall_time=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# Branch-and-bound
# ---------------------------------------------------------------------------


def _suffix_top(tags: Sequence[Tag], side: bool) -> list[tuple[float, ...]]:
    """``rows[i][q]``: sum of the q largest relevances among ``tags[i:]`` of
    that side; used for the optimistic relevance bound."""
    rows = [(0.0,)] * (len(tags) + 1)
    rels: list[float] = []
    for i in range(len(tags) - 1, -1, -1):
        if tags[i].is_positive is side:
            rels.append(tags[i].relevance)
            rels.sort(reverse=True)
            rows[i] = tuple(accumulate(rels, initial=0.0))
        else:
            rows[i] = rows[i + 1]
    return rows


def _bnb(
    instance: Instance,
    params: Params,
    exact_cap: int,
    algorithm: Algorithm,
    kind: str,
    value: Callable[[int, int], int],
) -> SolveReport:
    """Depth-first 0/1 search over tag inclusion maximizing
    ``value(pos_mask, neg_mask)``, the objective of the selected positives'
    and negatives' coverage unions.  ``value`` must be monotone in both masks.

    Pruning: sentiment-count feasibility, an optimistic relevance bound from
    per-suffix sorted relevance prefix sums, and an optimistic coverage bound
    (each side's union extended by everything remaining on that side).
    """
    t0 = time.perf_counter()
    need = _exact_setup(instance, params, exact_cap)
    k1, k2 = params.k1, params.k2

    tags = instance.tags
    n = len(tags)
    suffix_pos_union = [0] * (n + 1)
    suffix_neg_union = [0] * (n + 1)
    suffix_pos = [0] * (n + 1)
    suffix_neg = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        is_pos = tags[i].is_positive
        suffix_pos_union[i] = suffix_pos_union[i + 1] | (tags[i].mask if is_pos else 0)
        suffix_neg_union[i] = suffix_neg_union[i + 1] | (0 if is_pos else tags[i].mask)
        suffix_pos[i] = suffix_pos[i + 1] + (1 if is_pos else 0)
        suffix_neg[i] = suffix_neg[i + 1] + (0 if is_pos else 1)
    top_pos = _suffix_top(tags, True)
    top_neg = _suffix_top(tags, False)

    best: dict = {"val": -1, "rel": -1.0, "tags": None}
    nodes = 0
    stack: list[Tag] = []

    def dfs(i, pos_cnt, neg_cnt, pos_mask, neg_mask, rel):
        nonlocal nodes
        nodes += 1
        if pos_cnt == k1 and neg_cnt == k2:
            if rel < need:
                return
            val = value(pos_mask, neg_mask)
            if val > best["val"] or (val == best["val"] and rel > best["rel"]):
                best.update(val=val, rel=rel, tags=tuple(stack))
            return
        if i == n:
            return
        need_pos = k1 - pos_cnt
        need_neg = k2 - neg_cnt
        if suffix_pos[i] < need_pos or suffix_neg[i] < need_neg:
            return
        if rel + top_pos[i][need_pos] + top_neg[i][need_neg] < need:
            return
        if value(pos_mask | suffix_pos_union[i], neg_mask | suffix_neg_union[i]) <= best["val"]:
            return
        t = tags[i]
        if t.is_positive and pos_cnt < k1:
            stack.append(t)
            dfs(i + 1, pos_cnt + 1, neg_cnt, pos_mask | t.mask, neg_mask, rel + t.relevance)
            stack.pop()
        elif not t.is_positive and neg_cnt < k2:
            stack.append(t)
            dfs(i + 1, pos_cnt, neg_cnt + 1, pos_mask, neg_mask | t.mask, rel + t.relevance)
            stack.pop()
        dfs(i + 1, pos_cnt, neg_cnt, pos_mask, neg_mask, rel)

    dfs(0, 0, 0, 0, 0, 0.0)
    if best["tags"] is None:
        raise Infeasible(
            f"no quota-feasible subset reaches relevance {need + EPS:.6g}"
        )
    chosen = best["tags"]
    return SolveReport(
        algorithm=algorithm,
        selection=_selection(chosen, kind, best["val"], True),
        objective_value=best["val"],
        rel_total=rel_total(chosen),
        wall_time=time.perf_counter() - t0,
        nodes_explored=nodes,
    )


def bnb_ic(
    instance: Instance, params: Params, exact_cap: int = DEFAULT_EXACT_CAP
) -> SolveReport:
    """Branch-and-bound with the integer-program semantics: a value counts
    once some selected tag covers it.  The objective value always matches
    the enumerator's; the selection may differ on ties.
    """
    return _bnb(
        instance, params, exact_cap, Algorithm.BNB_IC, "cov_ic",
        lambda pos_mask, neg_mask: (pos_mask | neg_mask).bit_count(),
    )


def bnb_dc(
    instance: Instance, params: Params, exact_cap: int = DEFAULT_EXACT_CAP
) -> SolveReport:
    """Branch-and-bound maximizing dependent coverage with the two-sided
    linearization: a value counts when both its positive side and its
    negative side are covered by the selection, the two synthetic one-sided
    stand-ins being always selected.  The value equals ``cov_dc``, so the
    optimum equals the enumerator's dependent-coverage optimum.
    """
    only_pos = instance.pos_cover_mask & ~instance.neg_cover_mask
    only_neg = instance.neg_cover_mask & ~instance.pos_cover_mask
    return _bnb(
        instance, params, exact_cap, Algorithm.BNB_DC, "cov_dc",
        lambda pos_mask, neg_mask: ((pos_mask | only_neg) & (neg_mask | only_pos)).bit_count(),
    )


SOLVERS = {
    Algorithm.E_IC: exact_ic,
    Algorithm.BNB_IC: bnb_ic,
    Algorithm.A_IC: greedy_ic,
    Algorithm.E_DC: exact_dc,
    Algorithm.BNB_DC: bnb_dc,
    Algorithm.A_DC: greedy_dc,
}
