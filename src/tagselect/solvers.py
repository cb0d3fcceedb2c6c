"""Exact and approximate solvers for both coverage objectives.

Each objective gets three routes:

* an exhaustive enumerator over all quota-feasible subsets (the oracle);
* a depth-first branch-and-bound search with the same semantics as the 0/1
  integer program (count, relevance, and optimistic-coverage pruning);
* a greedy approximation with a per-step relevance filter.

One enumerator (:func:`_enumerate`) and one branch-and-bound (:func:`_bnb`)
serve both objectives, told apart by their ``dc`` argument; the public
routes are one-line calls of them.

All six are called as ``solver(instance, params, exact_cap=...)`` and
return a :class:`SolveReport`.  ``exact_cap`` limits enumeration only: the
exact and branch-and-bound routes refuse larger vocabularies, and the
greedy routes ignore it.  All solvers are deterministic.  The enumerators
and the greedy routes resolve ties by objective, then relevance, then lowest
tag ids.  Branch-and-bound reaches the enumerator's objective, but it prunes
every subtree that can at best tie its incumbent: of the optimal selections
it visits it keeps the one of highest relevance, the first in its visiting
order among equals, so its selection can differ from the enumerator's.

The greedy routes' steps with both quotas open and no relevance filter
depend on the instance alone, which keeps them as a path that requests grow
(:attr:`Instance.ic_path`, :attr:`Instance.dc_pair_path`); a request follows
its route's path while the next step applies to it, then scans.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
import operator
from functools import reduce
from itertools import accumulate, combinations
from math import comb, inf
from typing import Sequence

from .errors import Infeasible, InstanceTooLarge
from .model import EPS, Instance, Params, Selection, Tag, check_quotas
from .relevance import rel_max, rel_total, stepwise_rel_max

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
    """What a solver returned.  Objective values and the relevance total are
    read from the selections, which hold them once."""

    algorithm: Algorithm
    selection: Selection
    wall_time: float
    nodes_explored: int | None = None
    # The DC enumerator reports the theta optimum as its primary selection
    # and carries the dependent-coverage optimum alongside.
    covdc_selection: Selection | None = None

    @property
    def objective_value(self) -> int:
        return self.selection.objective_value

    @property
    def rel_total(self) -> float:
        return self.selection.rel_total

    @property
    def covdc_value(self) -> int | None:
        return None if self.covdc_selection is None else self.covdc_selection.objective_value


def _exact_setup(instance: Instance, params: Params, exact_cap: int) -> float:
    """Shared set-up of the exact routes: refuse an unfillable quota, then an
    oversized instance, then return the relevance every answer must reach."""
    check_quotas(params.k1, params.k2, instance.n_pos, instance.n_neg)
    if instance.n > exact_cap:
        raise InstanceTooLarge(
            f"exhaustive solving refused for n={instance.n} tags "
            f"(cap {exact_cap}); raise exact_cap explicitly if you mean it"
        )
    return params.beta * rel_max(instance.rel_benchmark, params.k1, params.k2) - EPS


def _reached(best, need: float):
    """``best``, the answer of an exact route, or the refusal when no
    quota-feasible subset reached the relevance ``need``."""
    if best is None:
        raise Infeasible(f"no quota-feasible subset reaches relevance {need + EPS:.6g}")
    return best


def _selection(tags: Sequence[Tag], kind: str, value: int, feasible: bool) -> Selection:
    return Selection(
        tag_ids=frozenset(t.id for t in tags),
        rel_total=rel_total(tags),
        objective_kind=kind,
        objective_value=value,
        feasible=feasible,
    )


# The most negative combinations the enumerator holds as a table; past it
# the negatives are rebuilt for each positive combination, which bounds the
# table's memory whatever the size of the side.
_TILE_PAIRS = 1 << 16


def _side_rows(
    tags: Sequence[Tag], rels: Sequence[float], vectors: Sequence[int], k: int, stand_in: int
):
    """Yield the k-combinations of one side's ``tags`` in ``combinations``
    order as rows (relevance sum, OR, AND, complement of OR, tags), where
    ``rels`` and ``vectors`` are the tags' relevances and vectors.  The
    relevance sum is the scalar ``sum`` in tag order, so that ties on
    relevance stay bit-exact.  The empty combination stands for the side's
    stand-in, whose OR and AND are ``stand_in``."""
    if not k:
        yield 0, stand_in, stand_in, ~stand_in, ()
        return
    # combinations of equally long sequences align, so each step gives one
    # combination's tags, relevances and vectors.
    for chosen, rel, vec in zip(
        combinations(tags, k), combinations(rels, k), combinations(vectors, k)
    ):
        union = reduce(operator.or_, vec)
        yield sum(rel), union, reduce(operator.and_, vec), ~union, chosen


def _side_columns(instance: Instance, vectors: tuple[Sequence[int], Sequence[int]]) -> tuple:
    """Per side, positives first: its (ids, relevances, ``vectors``) in id
    order, so that the sides taken in turn visit the tags in id order."""
    n_pos = instance.n_pos
    return tuple(zip((range(n_pos), range(n_pos, instance.n)), instance.side_relevances, vectors))


def _enumerate(instance: Instance, params: Params, exact_cap: int, dc: bool) -> SolveReport:
    """Enumerate every subset with exactly k1 positives and k2 negatives,
    pairing each positive combination with a table of the negative side's
    k2-combinations (:func:`_side_rows`): held once per solve up to
    ``_TILE_PAIRS`` rows, rebuilt for each positive combination past that.

    Independent coverage pairs the coverage masks, stand-in 0, and
    maximizes ``popcount(OR_P | OR_N)``.  Dependent coverage (``dc``) pairs
    the augmented vectors, an empty side entering as its stand-in
    (:attr:`DCGraph.stand_ins`), and returns two optima, each evaluated on
    its own: the theta minimum (:func:`theta_mask` inline, the primary
    selection) and the maximum of ``cov_dc``, ``|OR_P & OR_N|``, each
    side's OR holding its stand-in (carried in ``covdc_*``).  Each optimum
    is replaced only on a strictly better objective, or an equal one and a
    larger relevance; enumeration is lexicographic in tag ids, so ties keep
    the smallest id set.
    ``nodes_explored`` counts every (positive, negative) pair.
    """
    t0 = time.perf_counter()
    need = _exact_setup(instance, params, exact_cap)
    if dc:
        graph = instance.dc_graph
        vectors, stand_ins = graph.aug, graph.stand_ins
    else:
        vectors, stand_ins = instance.side_masks, (0, 0)
    rels = instance.side_relevances
    negatives = instance.negatives()

    def neg_stream():
        return _side_rows(negatives, rels[1], vectors[1], params.k2, stand_ins[1])

    held = list(neg_stream()) if comb(len(negatives), params.k2) <= _TILE_PAIRS else None

    # m + 1 exceeds every theta and -1 is below every coverage.
    th_best, th_val, th_rel = None, instance.m + 1, 0.0
    cv_best, cv_val, cv_rel = None, -1, 0.0
    for pos_rel, po, pa, p_out, pos in _side_rows(
        instance.positives(), rels[0], vectors[0], params.k1, stand_ins[0]
    ):
        for neg_rel, no, na, n_out, neg in held or neg_stream():
            rel = pos_rel + neg_rel
            if rel < need:
                continue
            if dc:
                th = ((pa & n_out) | (na & p_out)).bit_count()
                if th <= th_val and (th < th_val or rel > th_rel):
                    th_best, th_val, th_rel = pos + neg, th, rel
                cv = (po & no).bit_count()
            else:
                cv = (po | no).bit_count()
            if cv >= cv_val and (cv > cv_val or rel > cv_rel):
                cv_best, cv_val, cv_rel = pos + neg, cv, rel
    covered = _selection(_reached(cv_best, need), "cov_dc" if dc else "cov_ic", cv_val, True)
    return SolveReport(
        algorithm=Algorithm.E_DC if dc else Algorithm.E_IC,
        selection=_selection(th_best, "theta_dc", th_val, True) if dc else covered,
        wall_time=time.perf_counter() - t0,
        nodes_explored=comb(instance.n_pos, params.k1) * comb(instance.n_neg, params.k2),
        covdc_selection=covered if dc else None,
    )


# ---------------------------------------------------------------------------
# Independent coverage
# ---------------------------------------------------------------------------


def exact_ic(
    instance: Instance, params: Params, exact_cap: int = DEFAULT_EXACT_CAP
) -> SolveReport:
    """Enumerate every subset with exactly k1 positives and k2 negatives and
    return the one maximizing independent coverage under the relevance
    bound (:func:`_enumerate`)."""
    return _enumerate(instance, params, exact_cap, False)


def _ic_scan(sides, left, mask: int, taken: set[int], rel_so_far: float, threshold: float):
    """a-ic's step: the quota-open candidate of largest resulting coverage,
    then relevance, then lowest id, among those passing ``threshold``, as
    ``(id, side, relevance)``; None when the filter passes none."""
    best = best_side = None
    best_cov = -1
    best_rel = 0.0
    for side, (ids, rels, masks) in enumerate(sides):
        if not left[side]:
            continue
        for i, rel, tag_mask in zip(ids, rels, masks):
            if rel_so_far + rel < threshold:
                continue
            # Visited in id order, so replacing only on a strictly larger
            # (coverage, relevance) keeps the lowest id on ties.  A taken
            # tag adds nothing, so it is seldom a new best and is looked
            # for only then.
            cov = (mask | tag_mask).bit_count()
            if (cov > best_cov or (cov == best_cov and rel > best_rel)) and i not in taken:
                best, best_side, best_cov, best_rel = i, side, cov, rel
    return None if best is None else (best, best_side, best_rel)


def greedy_ic(
    instance: Instance, params: Params, exact_cap: int = DEFAULT_EXACT_CAP
) -> SolveReport:
    """Greedy approximation: k rounds of adding the quota-open tag with the
    largest resulting coverage among those passing the per-step relevance
    filter.  Carries a 1/2 guarantee relative to the enumerator.

    With both quotas open and no filter, the steps depend on the instance
    alone: :attr:`Instance.ic_path` holds them as far as requests have
    grown it.  A request takes the path's next entry while that entry's
    side has quota left and the entry passes the filter: the request's
    candidates are a subset of the path's that holds the entry, under the
    same key.  Past the path's end it grows the path by one entry, with
    :func:`_ic_scan` at threshold -inf, but only at a step with both quotas
    open, where no quota can refuse the entry.  From the first entry that
    fails, or a step it may not grow, it scans.

    A step with an empty candidate pool is a dead end: the partial selection
    is returned flagged infeasible instead of relaxing the filter.
    ``exact_cap`` limits enumeration only, so it never refuses this route.
    """
    t0 = time.perf_counter()
    check_quotas(params.k1, params.k2, instance.n_pos, instance.n_neg)
    bench = instance.rel_benchmark
    sides = _side_columns(instance, instance.side_masks)
    left = [params.k1, params.k2]
    path = instance.ic_path
    held = len(path)
    on_path = True

    chosen: list[Tag] = []
    taken: set[int] = set()
    rel_so_far = 0.0
    mask = 0
    for x in range(1, params.k + 1):
        threshold = params.beta * stepwise_rel_max(bench, params.k1, params.k2, x) - EPS
        if on_path and len(path) < x:
            # Grown only where no quota can refuse the new entry.
            on_path = left[0] > 0 and left[1] > 0
            if on_path:
                path += (_ic_scan(sides, left, mask, taken, 0.0, -inf),)
        if on_path:
            best = path[x - 1]
            on_path = left[best[1]] > 0 and rel_so_far + best[2] >= threshold
        if not on_path:
            best = _ic_scan(sides, left, mask, taken, rel_so_far, threshold)
            if best is None:
                break  # Dead end: the relevance filter emptied the pool mid-run.
        i, side, rel = best
        tag = instance.tags[i]
        chosen.append(tag)
        taken.add(i)
        rel_so_far += rel
        mask |= tag.mask
        left[side] -= 1
    if len(path) > held:
        instance.extend_path("ic_path", path)
    return SolveReport(
        algorithm=Algorithm.A_IC,
        selection=_selection(chosen, "cov_ic", mask.bit_count(), len(chosen) == params.k),
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
    dependent-coverage-maximizing selection (carried in ``covdc_*``); see
    :func:`_enumerate`."""
    return _enumerate(instance, params, exact_cap, True)


def _pair_scan(sides, left, acc, taken: set[int], full: int, rel_so_far: float, threshold: float):
    """a-dc's step: the (positive option, negative option) pair of least
    theta, then largest relevance, then lowest ids, among those passing
    ``threshold``, as ``((id, relevance, OR, AND) per side, theta)``; None
    when the filter passes none.

    An option holds the side's OR and AND after adding the candidate, and
    the complement of that OR, taken once per option, not once per pair.
    A side with no quota ``left`` offers one option, its ``acc`` at
    relevance 0 and id None."""
    pos_opts, neg_opts = [
        [
            (i, r, (u := o | v), a & v, full ^ u)
            for i, r, v in zip(*cands)
            if i not in taken
        ]
        if q
        else [(None, 0.0, o, a, full ^ o)]
        for q, (o, a), cands in zip(left, acc, sides)
    ]
    # Options are visited in id order and replace the best only on a
    # smaller theta, or an equal theta and a larger relevance, so ties keep
    # the lowest ids.  m + 1 exceeds every theta.
    best = None
    best_th, best_rel = full.bit_length() + 1, 0.0
    for p in pos_opts:
        _, rx, _, pa, p_out = p
        base = rel_so_far + rx
        for n in neg_opts:
            _, ry, _, na, n_out = n
            if base + ry < threshold:
                continue
            # theta_mask inline: AND_P minus OR_N, plus AND_N minus OR_P.
            th = ((pa & n_out) | (na & p_out)).bit_count()
            if th > best_th:
                continue
            rel = rx + ry
            if th < best_th or rel > best_rel:
                best, best_th, best_rel = (p, n), th, rel
    return None if best is None else (best[0][:4], best[1][:4], best_th)


def greedy_dc(
    instance: Instance, params: Params, exact_cap: int = DEFAULT_EXACT_CAP
) -> SolveReport:
    """Greedy approximation on the labeled graph: one step search over
    (positive option, negative option) pairs (:func:`_pair_scan`).

    A side with quota left offers each open candidate, with the side's OR
    and AND of augmented vectors after adding it; a full side offers one
    fixed option, its own OR and AND (its stand-in's vector when it has no
    member), at relevance 0.  So while both quotas are open a step adds a
    whole cross pair, and after that it fills the open side one tag at a
    time, as a pair with the full side.  A step keeps the pair of least
    theta among those passing the relevance filter at size |T*| plus the
    number of open sides.

    Theta against the enumerator's optimum, measured on the 2,000 held-out
    cases of ``tests/test_heldout.py``: on balanced quotas (k1 = k2) no
    ratio exceeds 2 (max 2.00), but 4 of 427 answers sit above a zero
    optimum; on imbalanced quotas 8 of 1,518 ratios exceed 2 (max 4.00) and
    42 answers sit above a zero optimum.  Theta's intra-edge subtraction is
    invisible to the myopic pair step.

    Theta is |AND_P \\ OR_N| + |AND_N \\ OR_P| (:func:`theta_mask`), so
    scoring a pair costs two ANDs, one OR and a popcount.  The pair steps
    with both quotas open start each side from no member, so without the
    filter they depend on the instance alone: :attr:`Instance.dc_pair_path`
    holds them as far as requests have grown it, one pair at a time with
    :func:`_pair_scan` at threshold -inf.  A request takes the path's next
    pair, growing the path when it ends, while both quotas are open and the
    pair passes the filter, which is the pair the scan would keep; from the
    first pair that fails, it scans.  The reported theta is the one the
    last step scored, or the two stand-ins' when no step took a pair.  A
    step with an empty candidate pool is a dead end, as in
    :func:`greedy_ic`, and ``exact_cap`` never refuses this route.
    """
    t0 = time.perf_counter()
    check_quotas(params.k1, params.k2, instance.n_pos, instance.n_neg)
    bench = instance.rel_benchmark
    graph = instance.dc_graph
    path = instance.dc_pair_path
    held = len(path)
    on_path = True

    chosen: list[Tag] = []
    taken: set[int] = set()
    rel_so_far = 0.0
    stand_ins = graph.stand_ins
    th = (stand_ins[0] ^ stand_ins[1]).bit_count()
    full = (1 << instance.m) - 1
    # Per side, positives first: the quota left, the running (OR, AND) and
    # the candidates' ids, relevances and vectors in id order.  (0, full),
    # the identities of | and & over the m values, marks an open side with
    # no member yet; a side with no quota holds its stand-in's vector, which
    # theta_mask takes as OR = AND.
    left = [params.k1, params.k2]
    acc = [(0, full) if q else (stand_in, stand_in) for q, stand_in in zip(left, stand_ins)]
    sides = _side_columns(instance, graph.aug)
    while len(chosen) < params.k:
        x = len(chosen) + (left[0] > 0) + (left[1] > 0)
        threshold = params.beta * stepwise_rel_max(bench, params.k1, params.k2, x) - EPS
        on_path = on_path and left[0] > 0 and left[1] > 0
        if on_path:
            step = len(chosen) // 2
            if len(path) == step:
                path += (_pair_scan(sides, left, acc, taken, full, 0.0, -inf),)
            best = path[step]
            on_path = rel_so_far + best[0][1] + best[1][1] >= threshold
        if not on_path:
            best = _pair_scan(sides, left, acc, taken, full, rel_so_far, threshold)
            if best is None:
                break  # Dead end: the relevance filter emptied the pool mid-run.
        pos, neg, th = best
        for side, (i, r, o, a) in enumerate((pos, neg)):
            if i is not None:
                chosen.append(instance.tags[i])
                taken.add(i)
                rel_so_far += r
                left[side] -= 1
                acc[side] = (o, a)
    if len(path) > held:
        instance.extend_path("dc_pair_path", path)
    return SolveReport(
        algorithm=Algorithm.A_DC,
        selection=_selection(chosen, "theta_dc", th, len(chosen) == params.k),
        wall_time=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# Branch-and-bound
# ---------------------------------------------------------------------------


def _suffix_top(rels: Sequence[float], start: int, stop: int) -> tuple[tuple[float, ...], ...]:
    """``rows[i][q]``: sum of the q largest of ``rels[max(i, start):stop]``,
    for every i from 0 to ``len(rels)``."""
    n = len(rels)
    rows = [(0.0,)] * (n + 1)
    held: list[float] = []
    for i in range(n - 1, -1, -1):
        if start <= i < stop:
            held.append(rels[i])
            held.sort(reverse=True)
            rows[i] = tuple(accumulate(held, initial=0.0))
        else:
            rows[i] = rows[i + 1]
    return tuple(rows)


def build_search_order(instance: Instance) -> tuple:
    """Branch-and-bound's visiting order and the tables its bounds read,
    as ``(tags, masks, relevances, size, rest, top_pos, top_neg)``.

    ``tags`` holds the positives, then the negatives, each side by
    descending coverage size, then id; ``masks`` and ``relevances`` follow
    it.  ``size[j] - size[i]`` sums the coverage sizes of ``tags[i:j]``;
    ``rest[i]`` is the union of ``tags[i:]`` up to the end of ``tags[i]``'s
    side; ``top_pos[i][q]`` and ``top_neg[i][q]`` sum the q largest
    relevances of that side among ``tags[i:]``.
    """
    tags = tuple(
        sorted(instance.tags, key=lambda t: (not t.is_positive, -t.mask.bit_count(), t.id))
    )
    masks = tuple(t.mask for t in tags)
    rels = tuple(t.relevance for t in tags)
    size = tuple(accumulate((m.bit_count() for m in masks), initial=0))
    n, n_pos = len(tags), instance.n_pos
    rest = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        rest[i] = masks[i] | (0 if i + 1 == n_pos else rest[i + 1])
    return (
        tags, masks, rels, size, tuple(rest),
        _suffix_top(rels, 0, n_pos), _suffix_top(rels, n_pos, n),
    )


def _bnb(instance: Instance, params: Params, exact_cap: int, dc: bool) -> SolveReport:
    """Depth-first 0/1 search over tag inclusion maximizing the coverage of
    the selected positives' and negatives' unions P and N: ``cov_ic``,
    ``|P | N|``, or with ``dc`` the two-sided ``cov_dc``, ``|P & N|``, each
    union starting at its side's stand-in (:attr:`DCGraph.stand_ins`).

    Tags are visited in :func:`build_search_order`'s order.  Once the
    positive quota is full the search jumps to the first negative.  The
    search keeps its own stack, so its depth is not bounded by the
    interpreter's recursion limit.

    Pruning: sentiment-count feasibility, an optimistic relevance bound from
    per-suffix sorted relevance prefix sums, and size bounds: a tag adds at
    most its coverage size, and in this order the q largest sizes left on a
    side are those of its next q tags.  IC adds both sides' q largest sizes
    to ``|P | N|``, and also prunes on the optimistic union, P | N with
    every tag left.  DC prunes on two size bounds alone, each counting one
    side's q largest sizes while the other side takes everything it has
    left.
    """
    t0 = time.perf_counter()
    need = _exact_setup(instance, params, exact_cap)
    k1, k2 = params.k1, params.k2

    # The visiting order and its tables, built once per instance.
    tags, masks, rels, size, rest, top_pos, top_neg = instance.search_order
    n, n_pos = len(tags), instance.n_pos

    best_val, best_rel, best_sel = -1, -1.0, None
    nodes = 0
    # (next index, positives taken, negatives taken, P, N, relevance,
    # bit set of the taken indices)
    stack = [(0, 0, 0, *(instance.dc_graph.stand_ins if dc else (0, 0)), 0.0, 0)]
    while stack:
        i, pos_cnt, neg_cnt, pos_mask, neg_mask, rel, sel = stack.pop()
        nodes += 1
        need_pos = k1 - pos_cnt
        need_neg = k2 - neg_cnt
        if not need_pos and not need_neg:
            if rel < need:
                continue
            val = (pos_mask & neg_mask if dc else pos_mask | neg_mask).bit_count()
            if val > best_val or (val == best_val and rel > best_rel):
                best_val, best_rel, best_sel = val, rel, sel
            continue
        if not need_pos and i < n_pos:
            i = n_pos
        first_neg = i if i > n_pos else n_pos
        if first_neg - i < need_pos or n - first_neg < need_neg:
            continue
        if rel + top_pos[i][need_pos] + top_neg[i][need_neg] < need:
            continue
        rest_pos = rest[i] if i < n_pos else 0
        rest_neg = rest[first_neg]
        # need_pos > 0 only while i < n_pos, so both ranges stay on one side.
        top_pos_size = size[i + need_pos] - size[i]
        top_neg_size = size[first_neg + need_neg] - size[first_neg]
        if dc:
            if (pos_mask & (neg_mask | rest_neg)).bit_count() + top_pos_size <= best_val:
                continue
            if ((pos_mask | rest_pos) & neg_mask).bit_count() + top_neg_size <= best_val:
                continue
        else:
            if (pos_mask | neg_mask | rest_pos | rest_neg).bit_count() <= best_val:
                continue
            if (pos_mask | neg_mask).bit_count() + top_pos_size + top_neg_size <= best_val:
                continue
        # Push the exclusion first, so that the inclusion is searched first.
        stack.append((i + 1, pos_cnt, neg_cnt, pos_mask, neg_mask, rel, sel))
        if i < n_pos:
            stack.append((i + 1, pos_cnt + 1, neg_cnt, pos_mask | masks[i], neg_mask,
                          rel + rels[i], sel | 1 << i))
        else:
            stack.append((i + 1, pos_cnt, neg_cnt + 1, pos_mask, neg_mask | masks[i],
                          rel + rels[i], sel | 1 << i))

    taken = _reached(best_sel, need)
    chosen = sorted((t for i, t in enumerate(tags) if taken >> i & 1), key=lambda t: t.id)
    return SolveReport(
        algorithm=Algorithm.BNB_DC if dc else Algorithm.BNB_IC,
        selection=_selection(chosen, "cov_dc" if dc else "cov_ic", best_val, True),
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
    return _bnb(instance, params, exact_cap, False)


def bnb_dc(
    instance: Instance, params: Params, exact_cap: int = DEFAULT_EXACT_CAP
) -> SolveReport:
    """Branch-and-bound maximizing dependent coverage with the two-sided
    linearization: a value counts when both its positive side and its
    negative side are covered by the selection, the two synthetic one-sided
    stand-ins being always selected.  The value equals ``cov_dc``, so the
    optimum equals the enumerator's dependent-coverage optimum.
    """
    return _bnb(instance, params, exact_cap, True)


SOLVERS = {
    Algorithm.E_IC: exact_ic,
    Algorithm.BNB_IC: bnb_ic,
    Algorithm.A_IC: greedy_ic,
    Algorithm.E_DC: exact_dc,
    Algorithm.BNB_DC: bnb_dc,
    Algorithm.A_DC: greedy_dc,
}
