"""Exact and approximate solvers for both coverage objectives.

Each objective gets three routes:

* an exhaustive enumerator over all quota-feasible subsets (the oracle);
* a depth-first branch-and-bound search with the same semantics as the 0/1
  integer program (count, relevance, and optimistic-coverage pruning);
* a greedy approximation with a per-step relevance filter.

One enumerator (:func:`_enumerate`) and one branch-and-bound (:func:`_bnb`)
serve both objectives, told apart by their ``dc`` argument; the public
routes are one-line calls of them.  One greedy driver (:func:`_greedy`)
serves both too: each greedy route adds only its step search and its
set-up.

All six are called as ``solver(instance, params, exact_cap=...)`` and
return a :class:`SolveReport`.  ``exact_cap`` limits enumeration only: the
exact and branch-and-bound routes refuse larger vocabularies, and the
greedy routes ignore it.  All solvers are deterministic.  The enumerators
and the greedy routes resolve ties by objective, then relevance, then lowest
tag ids.  Branch-and-bound reaches the enumerator's objective, but it prunes
every subtree that can at best tie its incumbent: of the optimal selections
it visits it keeps the one of highest relevance, the first in its visiting
order among equals, so its selection can differ from the enumerator's.

The greedy routes follow the unfiltered paths that earlier requests grew on
the instance while each step passes the request's filter (:func:`_greedy`).
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
from .model import EPS, Instance, Params, Selection, Tag, one_write_init
from .relevance import prefix_sums, rel_need, rel_total, step_needs

DEFAULT_EXACT_CAP = 30


class Algorithm(Enum):
    E_IC = "e-ic"
    BNB_IC = "bnb-ic"
    A_IC = "a-ic"
    E_DC = "e-dc"
    BNB_DC = "bnb-dc"
    A_DC = "a-dc"


@one_write_init
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
    """Shared set-up of the exact routes: return the relevance every answer
    must reach, refusing an unfillable quota, then an oversized instance."""
    need = rel_need(instance, params)
    if instance.n > exact_cap:
        raise InstanceTooLarge(
            f"exhaustive solving refused for n={instance.n} tags "
            f"(cap {exact_cap}); raise exact_cap explicitly if you mean it"
        )
    return need


def _reached(best, need: float):
    """``best``, the answer of an exact route, or the refusal when no
    quota-feasible subset reached the relevance ``need``."""
    if best is None:
        raise Infeasible(f"no quota-feasible subset reaches relevance {need + EPS:.6g}")
    return best


def _selection(tags: Sequence[Tag], kind: str, value: int) -> Selection:
    """An exact route's answer, ``tags`` in id order (so its relevance sum is)."""
    return Selection(frozenset(t.id for t in tags), rel_total(tags), kind, value, True)


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
    relevance sum adds in tag order on every Python (``sum`` of floats
    compensates from 3.12 on), so that ties on relevance stay bit-exact.
    The empty combination stands for the side's stand-in, whose OR and AND
    are ``stand_in``."""
    if not k:
        yield 0, stand_in, stand_in, ~stand_in, ()
        return
    # combinations of equally long sequences align, so each step gives one
    # combination's tags, relevances and vectors.
    for chosen, rel, vec in zip(
        combinations(tags, k), combinations(rels, k), combinations(vectors, k)
    ):
        union = reduce(operator.or_, vec)
        yield reduce(operator.add, rel), union, reduce(operator.and_, vec), ~union, chosen


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
    (_, pos_rels, pos_masks), (_, neg_rels, neg_masks) = instance.side_columns
    if dc:
        graph = instance.dc_graph
        vectors, stand_ins = graph.aug, graph.stand_ins
    else:
        vectors, stand_ins = (pos_masks, neg_masks), (0, 0)
    negatives = instance.negatives()

    def neg_stream():
        return _side_rows(negatives, neg_rels, vectors[1], params.k2, stand_ins[1])

    held = list(neg_stream()) if comb(len(negatives), params.k2) <= _TILE_PAIRS else None

    # m + 1 exceeds every theta and -1 is below every coverage.
    th_best, th_val, th_rel = None, instance.m + 1, 0.0
    cv_best, cv_val, cv_rel = None, -1, 0.0
    for pos_rel, po, pa, p_out, pos in _side_rows(
        instance.positives(), pos_rels, vectors[0], params.k1, stand_ins[0]
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
    covered = _selection(_reached(cv_best, need), "cov_dc" if dc else "cov_ic", cv_val)
    return SolveReport(
        algorithm=Algorithm.E_DC if dc else Algorithm.E_IC,
        selection=_selection(th_best, "theta_dc", th_val) if dc else covered,
        wall_time=time.perf_counter() - t0,
        nodes_explored=comb(instance.n_pos, params.k1) * comb(instance.n_neg, params.k2),
        covdc_selection=covered if dc else None,
    )


# ---------------------------------------------------------------------------
# Greedy driver
# ---------------------------------------------------------------------------


def _greedy(instance: Instance, params: Params, route: str, scan, fold, start) -> Selection:
    """The greedy scheme of both routes, "a-ic" and "a-dc": steps under the
    per-step relevance filter until the quotas fill.  The selection is the
    loop's running state: the list of ids taken, the running relevance (the
    picks' relevances in pick order, as :func:`rel_total` adds them) and
    the score of the last step, or the start score when no step was taken.

    ``scan(instance, left, acc, taken, rel_so_far, threshold)`` is the
    route's step search, with ``left`` the quotas left, ``acc`` each side's
    state, ``taken`` the set of ids taken and ``rel_so_far`` the running
    relevance; it keeps only candidates whose relevance, added to
    ``rel_so_far``, reaches ``threshold``.  A step is ``(positive id,
    negative id, running relevance after it, score)``, None for a side it
    leaves alone: an a-dc step picks on each open side and an a-ic step on
    one.  The filter is the one at the size the step reaches
    (:func:`step_needs`).  ``start(instance, params)`` gives each side's
    state before any pick, each side's vectors and the start score, and
    ``fold(state, vector)`` adds a pick to its side's state.

    With no relevance filter a route's steps depend on the instance alone
    while both quotas are open, and after one side fills, on the steps
    taken and which side is full alone (the scans test a quota only for
    being non-zero).  So :attr:`Instance.grown` keeps them, each as far as
    requests have grown it: under ``(route, 0, None)`` the steps with both
    quotas open, and under ``(route, s, side)`` the steps taken after
    ``side`` filled once ``s`` steps were taken; a request with a zero
    quota starts on ``(route, 0, side)``.  A path is thus entered only at
    the start or after the same steps, and a step's running relevance is
    every request's that reaches it.  A request takes its path's next step
    while the step's running relevance reaches its filter: its candidates
    are a subset of the path's that holds the step, under the same key, so
    it is the step the scan would keep.  When a side fills it opens the
    path for that side and step.  Past a path's end it grows the path by
    one step, a scan at threshold -inf, and keeps it
    (:meth:`Instance.keep`).  From the first step that fails, it scans.

    Only a scan reads ``acc``, ``left`` and ``taken``, so they are built
    just before one: ``acc`` by ``start`` at the first scan, with the ids
    taken since the last scan folded in, and ``left`` and ``taken`` from
    the counts and the ids.  A request that reads every step from a path
    builds none of them.

    A step with an empty candidate pool is a dead end: the partial
    selection is returned flagged infeasible instead of relaxing the
    filter.
    """
    needs = step_needs(instance, params)
    pairs = route == "a-dc"
    k, k1, k2 = params.k, params.k1, params.k2
    ids: list[int] = []
    n1 = n2 = 0  # positives and negatives taken
    rel = 0.0
    acc = None  # each side's state, built at the first scan
    folded = 0  # the ids folded into acc
    # A request with a zero quota moves to its full side's path at once.
    key = (route, 0, None)
    path = instance.grown.get(key, ())
    held = len(path)
    step = 0
    on_path = True
    while n1 + n2 < k:
        if on_path and key[2] is None and (n1 == k1 or n2 == k2):
            if len(path) > held:
                instance.keep(key, path)
            key = (route, step, 0 if n1 == k1 else 1)
            path = instance.grown.get(key, ())
            held = len(path)
            step = 0
        threshold = needs[n1 + n2 + (pairs and n1 < k1 and n2 < k2)]
        if on_path and step < len(path):
            row = path[step]
        else:
            if acc is None:
                acc, vectors, _ = start(instance, params)
            for i in ids[folded:]:
                side = i >= instance.n_pos  # 0 or 1, and the side's first id is side * n_pos
                acc[side] = fold(acc[side], vectors[side][i - side * instance.n_pos])
            folded = len(ids)
            floor = -inf if on_path else threshold  # a growth scan filters nothing
            row = scan(instance, [k1 - n1, k2 - n2], acc, set(ids), rel, floor)
            if row is None:
                break  # Dead end: the relevance filter emptied the pool mid-run.
            if on_path:
                path += (row,)
        if on_path:
            step += 1
            if row[2] < threshold:
                on_path = False
                continue
        pos, neg, rel, score = row
        if pos is not None:
            ids.append(pos)
            n1 += 1
        if neg is not None:
            ids.append(neg)
            n2 += 1
    if len(path) > held:
        instance.keep(key, path)
    if not ids:  # Every step takes an id, so none was taken.
        score = start(instance, params)[2]
    kind = "theta_dc" if pairs else "cov_ic"
    return Selection(frozenset(ids), rel, kind, score, len(ids) == k)


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


def _ic_scan(
    instance: Instance, left, acc, taken: set[int], rel_so_far: float, threshold: float
):
    """a-ic's step (:func:`_greedy`): the quota-open candidate of largest
    coverage joined with the sides' masks ``acc``, then relevance, then
    lowest id, among those passing ``threshold``; None when the filter
    passes none."""
    mask = acc[0] | acc[1]
    best = None
    best_cov = -1
    best_rel = 0.0
    for q, (ids, rels, masks) in zip(left, instance.side_columns):
        if not q:
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
                best, best_cov, best_rel = i, cov, rel
    if best is None:
        return None
    pos, neg = (None, best) if best >= instance.n_pos else (best, None)
    return pos, neg, rel_so_far + best_rel, best_cov


def greedy_ic(
    instance: Instance, params: Params, exact_cap: int = DEFAULT_EXACT_CAP
) -> SolveReport:
    """Greedy approximation: k rounds of adding the quota-open tag with the
    largest resulting coverage among those passing the per-step relevance
    filter (:func:`_greedy` with :func:`_ic_scan`), each side's state the
    union of its masks.  Carries a 1/2 guarantee relative to the
    enumerator.  ``exact_cap`` limits enumeration only, so it never refuses
    this route.
    """
    t0 = time.perf_counter()
    selection = _greedy(instance, params, "a-ic", _ic_scan, operator.or_, _ic_start)
    return SolveReport(Algorithm.A_IC, selection, time.perf_counter() - t0)


def _ic_start(instance: Instance, params: Params) -> tuple:
    """a-ic's start (:func:`_greedy`): empty unions, the masks, score 0."""
    return [0, 0], tuple(masks for _, _, masks in instance.side_columns), 0


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


def _pair_scan(
    instance: Instance, left, acc, taken: set[int], rel_so_far: float, threshold: float
):
    """a-dc's step (:func:`_greedy`): the (positive option, negative option)
    pair of least theta, then largest relevance, then lowest ids, among
    those passing ``threshold``; None when the filter passes none.

    A side with quota left offers each open candidate, and a full side one
    idle option, id None.  An option holds its relevance, the side's AND
    and the complement of its OR after it, from the side's (OR, AND) in
    ``acc``, taken once per option, not once per pair, and its id."""
    full = (1 << instance.m) - 1
    options = [
        [(r, a & v, full ^ (o | v), i) for i, r, v in zip(ids, rels, vectors) if i not in taken]
        if q
        else [(0.0, a, full ^ o, None)]
        for q, (o, a), (ids, rels, _), vectors in zip(
            left, acc, instance.side_columns, instance.dc_graph.aug
        )
    ]
    # Options are visited in id order and replace the best only on a
    # smaller theta, or an equal theta and a larger relevance, so ties keep
    # the lowest ids.  m + 1 exceeds every theta.
    best_pos = best_neg = best_after = None
    best_th, best_rel = instance.m + 1, 0.0
    for rx, pa, p_out, pos in options[0]:
        base = rel_so_far + rx
        for ry, na, n_out, neg in options[1]:
            if base + ry < threshold:
                continue
            # theta_mask inline: AND_P minus OR_N, plus AND_N minus OR_P.
            th = ((pa & n_out) | (na & p_out)).bit_count()
            if th > best_th:
                continue
            rel = rx + ry
            if th < best_th or rel > best_rel:
                best_pos, best_neg, best_after, best_th, best_rel = pos, neg, base + ry, th, rel
    return None if best_after is None else (best_pos, best_neg, best_after, best_th)


def _or_and_with(state: tuple[int, int], vector: int) -> tuple[int, int]:
    """A side's (OR, AND) with ``vector`` added."""
    return state[0] | vector, state[1] & vector


def greedy_dc(
    instance: Instance, params: Params, exact_cap: int = DEFAULT_EXACT_CAP
) -> SolveReport:
    """Greedy approximation on the labeled graph: each step takes the
    (positive option, negative option) pair of least theta among those
    passing the relevance filter (:func:`_greedy` with :func:`_pair_scan`),
    each side's state its (OR, AND) of augmented vectors.

    A side with quota left offers each open candidate and a full side one
    fixed option, its own OR and AND (its stand-in's vector when it has no
    member), at relevance 0.  So while both quotas are open a step adds a
    whole cross pair, and after that it fills the open side one tag at a
    time, as a pair with the full side.  Theta is |AND_P \\ OR_N| +
    |AND_N \\ OR_P| (:func:`theta_mask`), so scoring a pair costs two ANDs,
    one OR and a popcount.  The reported theta is the one the last step
    scored, or the two stand-ins' when no step took a pair.  ``exact_cap``
    never refuses this route.

    Theta's intra-edge subtraction is invisible to the myopic pair step,
    and the factor 2 against the enumerator fails on balanced quotas
    (k1 = k2) as on imbalanced ones.  On ROADMAP item 15's balanced stream
    (a scratch measurement at b8910c1) 333 of 229,900 balanced full answers
    had theta ratios above 2 (max 5.00); the 2,000 held-out cases of
    ``tests/test_heldout.py`` are too few to show that rate.
    ``tests/test_counterexamples.py`` pins one small case of each quota
    class.
    """
    t0 = time.perf_counter()
    selection = _greedy(instance, params, "a-dc", _pair_scan, _or_and_with, _dc_start)
    return SolveReport(Algorithm.A_DC, selection, time.perf_counter() - t0)


def _dc_start(instance: Instance, params: Params) -> tuple:
    """a-dc's start (:func:`_greedy`): each side's (OR, AND), the vectors, the stand-ins' theta."""
    graph = instance.dc_graph
    pos_in, neg_in = graph.stand_ins
    full = (1 << instance.m) - 1
    # (0, full), the identities of | and & over the m values, marks an open
    # side with no member yet; a side with no quota holds its stand-in's
    # vector, which theta_mask takes as OR = AND.
    acc = [
        (0, full) if params.k1 else (pos_in, pos_in),
        (0, full) if params.k2 else (neg_in, neg_in),
    ]
    return acc, graph.aug, (pos_in ^ neg_in).bit_count()


# ---------------------------------------------------------------------------
# Branch-and-bound
# ---------------------------------------------------------------------------


def _suffix_top(rels: Sequence[float], n_pos: int) -> tuple[tuple[float, ...], ...]:
    """``rows[i][q]``: sum of the q largest of ``rels[i:]`` up to the end of
    position i's side, the first ``n_pos`` positions being one side;
    ``rows[len(rels)] == (0.0,)``."""
    n = len(rels)
    return tuple(prefix_sums(rels[i : n_pos if i < n_pos else n]) for i in range(n)) + ((0.0,),)


def build_search_order(instance: Instance) -> tuple:
    """Branch-and-bound's visiting order and the tables its bounds read,
    as ``(tags, masks, relevances, size, rest, top)``.

    ``tags`` holds the positives, then the negatives, each side by
    descending coverage size, then id; ``masks`` and ``relevances`` follow
    it.  ``size[j] - size[i]`` sums the coverage sizes of ``tags[i:j]``;
    ``rest[i]`` is the union of ``tags[i:]`` up to the end of ``tags[i]``'s
    side, and ``top[i][q]`` sums the q largest relevances among the same
    tags (:func:`_suffix_top`).
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
    return tags, masks, rels, size, tuple(rest), _suffix_top(rels, n_pos)


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
    tags, masks, rels, size, rest, top = instance.search_order
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
        if rel + top[i][need_pos] + top[first_neg][need_neg] < need:
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
        selection=_selection(chosen, "cov_dc" if dc else "cov_ic", best_val),
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
