import dataclasses
import itertools
import sys
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagselect import (
    Algorithm,
    Infeasible,
    InfeasiblePolarity,
    InstanceTooLarge,
    Params,
    RelBenchmark,
    Rule,
    Sentiment,
    bnb_dc,
    bnb_ic,
    build_dc_graph,
    build_instance,
    cov_dc,
    cov_ic,
    exact_dc,
    exact_ic,
    greedy_dc,
    greedy_ic,
    make_params,
    rel_max,
    rel_total,
    stepwise_rel_max,
    theta_dc,
)
from tagselect import relevance, solvers
from tagselect.datagen import SynthConfig, extract_rules, gen_matrix, random_instance
from tagselect.model import EPS, split_budget

from conftest import pick


P, N = Sentiment.POSITIVE, Sentiment.NEGATIVE


def labels(instance, report):
    return {instance.tags[i].label for i in report.selection.tag_ids}


def random_case(stream, trial):
    """One (instance, params) pair from the shared benchmark distribution."""
    rng = np.random.default_rng([stream, trial])
    n_pos = int(rng.integers(3, 10))
    n_neg = int(rng.integers(3, 10))
    m = int(rng.integers(10, 25))
    inst = random_instance(seed=[stream, trial, 1], num_attrs=m, n_pos=n_pos, n_neg=n_neg)
    k = int(rng.integers(2, 7))
    alpha = float(rng.choice([0.25, 0.5, 0.75]))
    beta = float(rng.choice([0.0, 0.3, 0.7]))
    try:
        params = make_params(k, alpha, beta, inst)
    except InfeasiblePolarity:
        return None
    return inst, params


def assert_feasible_report(instance, params, report):
    sel = report.selection
    assert sel.feasible
    tags = [instance.tags[i] for i in sel.tag_ids]
    assert sum(t.is_positive for t in tags) == params.k1
    assert sum(not t.is_positive for t in tags) == params.k2
    bench = RelBenchmark.from_instance(instance)
    assert sel.rel_total >= params.beta * rel_max(bench, params.k1, params.k2) - 1e-9


class TestExactIC:
    def test_camera(self, camera):
        params = make_params(2, 0.5, 0.5, camera)
        report = exact_ic(camera, params)
        assert labels(camera, report) == {"stylish", "blurry pictures"}
        assert report.objective_value == 7

    def test_take_everything(self, camera):
        params = make_params(6, 0.5, 0.0, camera)
        report = exact_ic(camera, params)
        assert report.selection.tag_ids == frozenset(range(6))
        assert report.objective_value == cov_ic(camera.tags)

    def test_beta_one_forces_top_relevance_pair(self, camera):
        params = make_params(2, 0.5, 1.0, camera)
        report = exact_ic(camera, params)
        assert labels(camera, report) == {"super cool", "gimmicky touchscreen"}
        assert report.rel_total == pytest.approx(0.45)

    def test_matches_pairwise_brute_force(self, camera):
        params = make_params(2, 0.5, 0.5, camera)
        best = 0
        for p in camera.positives():
            for n in camera.negatives():
                if p.relevance + n.relevance >= 0.5 * 0.45 - 1e-9:
                    best = max(best, cov_ic([p, n]))
        assert exact_ic(camera, params).objective_value == best == 7

    def test_refuses_oversized_instance(self):
        inst = random_instance(seed=501, num_attrs=10, n_pos=16, n_neg=16)
        params = make_params(2, 0.5, 0.0, inst)
        with pytest.raises(InstanceTooLarge):
            exact_ic(inst, params)
        # but an explicit cap raise is honored
        assert exact_ic(inst, params, exact_cap=32).selection.feasible


class TestGreedyIC:
    def test_camera_worked_example(self, camera):
        params = make_params(2, 0.5, 0.5, camera)
        report = greedy_ic(camera, params)
        assert labels(camera, report) == {"stylish", "blurry pictures"}
        assert report.selection.feasible

    def test_single_positive_slot_takes_top_relevance(self, camera):
        params = make_params(1, 1.0, 1.0, camera)
        report = greedy_ic(camera, params)
        assert labels(camera, report) == {"super cool"}

    def test_half_bound_on_random_instances(self):
        # 200 instances at the benchmark shape; the greedy result is never
        # worse than half the enumerated optimum.
        violations = 0
        ratios = []
        for trial in range(200):
            inst = random_instance(seed=[502, trial], num_attrs=24, n_pos=8, n_neg=8)
            params = make_params(6, 0.5, 0.3, inst)
            g = greedy_ic(inst, params)
            e = exact_ic(inst, params)
            assert g.selection.feasible
            ratios.append(e.objective_value / g.objective_value)
            if 2 * g.objective_value < e.objective_value:
                violations += 1
        assert violations == 0
        assert max(ratios) <= 2.0

    def test_dead_end_reports_partial_infeasible(self, camera):
        # White-box: an out-of-range beta makes the filter unsatisfiable,
        # exercising the dead-end reporting path (unreachable for beta <= 1).
        params = Params(k=2, alpha=0.5, beta=1.5, k1=1, k2=1)
        report = greedy_ic(camera, params)
        assert not report.selection.feasible
        assert len(report.selection.tag_ids) < 2


class TestBnbIC:
    def test_camera_matches_exact(self, camera):
        params = make_params(2, 0.5, 0.5, camera)
        assert bnb_ic(camera, params).objective_value == 7

    def test_forced_selection_explores_few_nodes(self):
        rules = [
            Rule(frozenset({0}), "p", P, 0.9),
            Rule(frozenset({1}), "n", N, 0.8),
        ]
        inst = build_instance(rules, m=2)
        params = make_params(2, 0.5, 0.0, inst)
        report = bnb_ic(inst, params)
        assert report.selection.tag_ids == frozenset({0, 1})
        assert report.nodes_explored <= 7

    def test_matches_enumeration_on_random_instances(self):
        checked = 0
        for trial in range(200):
            case = random_case(503, trial)
            if case is None:
                continue
            inst, params = case
            checked += 1
            assert bnb_ic(inst, params).objective_value == exact_ic(inst, params).objective_value
        assert checked >= 150

    def test_prunes_against_enumeration(self, camera):
        params = make_params(2, 0.5, 0.5, camera)
        assert bnb_ic(camera, params).nodes_explored < exact_ic(camera, params).nodes_explored * 4


class TestExactDC:
    def test_camera_theta_optimum(self, camera):
        params = make_params(2, 0.5, 0.5, camera)
        report = exact_dc(camera, params)
        assert report.objective_value == 1
        assert labels(camera, report) == {"stylish", "poor battery life"}

    def test_camera_covdc_optimum(self, camera):
        params = make_params(2, 0.5, 0.5, camera)
        report = exact_dc(camera, params)
        assert report.covdc_value == 4
        best = max(
            cov_dc([p, n], camera)
            for p in camera.positives()
            for n in camera.negatives()
            if p.relevance + n.relevance >= 0.225 - 1e-9
        )
        assert report.covdc_value == best

    def test_camera_theta_against_pair_enumeration(self, camera):
        g = build_dc_graph(camera)
        feasible = [
            (p, n)
            for p in camera.positives()
            for n in camera.negatives()
            if p.relevance + n.relevance >= 0.225 - 1e-9
        ]
        assert min(theta_dc(g, list(pair)) for pair in feasible) == 1

    def test_positive_only_quota(self, camera):
        params = make_params(1, 1.0, 0.5, camera)
        report = exact_dc(camera, params)
        tags = [camera.tags[i] for i in report.selection.tag_ids]
        assert len(tags) == 1 and tags[0].is_positive

    def test_reports_both_selections(self, camera):
        params = make_params(2, 0.5, 0.5, camera)
        report = exact_dc(camera, params)
        assert report.covdc_selection is not None
        assert report.covdc_selection.objective_kind == "cov_dc"
        assert report.selection.objective_kind == "theta_dc"


class TestGreedyDC:
    def test_camera_worked_example(self, camera):
        params = make_params(2, 0.5, 0.5, camera)
        report = greedy_dc(camera, params)
        assert labels(camera, report) == {"stylish", "poor battery life"}
        assert report.objective_value == 1

    def test_forced_pair(self):
        rules = [
            Rule(frozenset({0}), "only-pos", P, 0.9),
            Rule(frozenset({1}), "only-neg", N, 0.1),
        ]
        inst = build_instance(rules, m=2)
        params = make_params(2, 0.5, 0.5, inst)
        report = greedy_dc(inst, params)
        assert report.selection.tag_ids == frozenset({0, 1})

    def test_factor_two_on_random_instances(self):
        # The factor-2 guarantee applies where the optimum is nonzero; a
        # zero-optimum instance with nonzero greedy is flagged, not failed.
        flagged = 0
        compared = 0
        for trial in range(200):
            inst = random_instance(seed=[504, trial], num_attrs=24, n_pos=8, n_neg=8)
            params = make_params(6, 0.5, 0.3, inst)
            g = greedy_dc(inst, params)
            e = exact_dc(inst, params)
            assert g.selection.feasible
            if e.objective_value > 0:
                compared += 1
                assert g.objective_value <= 2 * e.objective_value
            elif g.objective_value > 0:
                flagged += 1
        assert compared > 0
        print(f"theta ratio cases: {compared}, flagged zero-optimum misses: {flagged}")

    def test_phase_two_fills_open_side(self):
        inst = random_instance(seed=505, num_attrs=16, n_pos=6, n_neg=6)
        params = make_params(5, 0.75, 0.3, inst)  # k1=4, k2=1
        report = greedy_dc(inst, params)
        assert_feasible_report(inst, params, report)

    def test_dead_end_reports_partial_infeasible(self, camera):
        params = Params(k=2, alpha=0.5, beta=1.5, k1=1, k2=1)
        report = greedy_dc(camera, params)
        assert not report.selection.feasible

    def test_first_step_skips_ranked_pairs_below_the_filter(self, camera):
        params = make_params(4, 0.5, 0.9, camera)  # k1 = k2 = 2
        threshold = params.beta * stepwise_rel_max(camera.rel_benchmark, 2, 2, 2) - EPS
        ranked = brute_first_pairs(camera)
        # The pairs of theta 1, 2 and 3 miss the filter; the step leaves the
        # pair path at its theta-1 entry, scans, takes the theta-4 pair
        # (super cool, gimmicky touchscreen), and two steps follow.
        assert [rel >= threshold for _, rel, _, _ in ranked][:4] == [False] * 3 + [True]
        assert [th for th, _, _, _ in ranked][:4] == [1, 2, 3, 4]
        assert pick(camera, "super cool", "gimmicky touchscreen") == [
            camera.tags[i] for i in ranked[3][2:]
        ]
        report = greedy_dc(camera, params)
        i, j, rel, th = camera.grown["a-dc", 0, None][0]
        assert (th, rel, i, j) == ranked[0]
        assert set(ranked[3][2:]) < report.selection.tag_ids
        assert greedy_outcome(report) == reference_greedy_dc(camera, params)
        assert report.selection.feasible

    @pytest.mark.parametrize("k1, k2", [(1, 1), (0, 2), (2, 0)])
    def test_step_one_dead_end_scores_the_stand_ins(self, camera, k1, k2):
        # No relevance sum reaches 1.5 times the best, so no step takes a
        # pair and the objective is the empty selection's.
        report = greedy_dc(camera, Params(k=k1 + k2, alpha=k1 / (k1 + k2), beta=1.5, k1=k1, k2=k2))
        assert report.selection.tag_ids == frozenset()
        assert report.objective_value == theta_dc(camera.dc_graph, []) > 0


class TestBnbDC:
    def test_camera_covdc(self, camera):
        params = make_params(2, 0.5, 0.5, camera)
        report = bnb_dc(camera, params)
        assert report.objective_value == 4
        assert report.objective_value == exact_dc(camera, params).covdc_value

    def test_all_positive_vocabulary_reduces_to_union_size(self):
        rules = [
            Rule(frozenset({0, 1}), "p1", P, 0.5),
            Rule(frozenset({2}), "p2", P, 0.6),
            Rule(frozenset({1, 3}), "p3", P, 0.7),
        ]
        inst = build_instance(rules, m=4)
        params = make_params(2, 1.0, 0.0, inst)
        report = bnb_dc(inst, params)
        ic = exact_ic(inst, params)
        assert report.objective_value == ic.objective_value
        sel = [inst.tags[i] for i in report.selection.tag_ids]
        assert report.objective_value == cov_ic(sel)

    def test_matches_enumeration_on_random_instances(self):
        checked = 0
        for trial in range(200):
            case = random_case(507, trial)
            if case is None:
                continue
            inst, params = case
            checked += 1
            assert bnb_dc(inst, params).objective_value == exact_dc(inst, params).covdc_value
        assert checked >= 150

    def test_as_printed_variant_can_overcount(self):
        # The paper's printed linearization counts a value when at least two
        # augmented vectors cover it, the two stand-ins included, whatever
        # their sentiment.  Selecting the two positives covers nothing
        # two-sidedly (value 0's negative coverer is unselected, value 1 is
        # negative-only), yet the printed count scores both values: two
        # same-polarity tags cover value 0, and the augmented positive
        # vectors plus the positive stand-in all carry value 1.
        rules = [
            Rule(frozenset({0}), "p1", P, 0.5),
            Rule(frozenset({0}), "p2", P, 0.5),
            Rule(frozenset({0, 1}), "n1", N, 0.5),
        ]
        inst = build_instance(rules, m=2)
        params = make_params(2, 1.0, 0.0, inst)
        corrected = bnb_dc(inst, params)
        selected = [inst.tags[i] for i in corrected.selection.sorted_ids()]
        assert selected == list(inst.positives())
        graph = build_dc_graph(inst)
        # The positive stand-in's vector, then the negative one's.
        stand_ins = [graph.only_neg_mask, graph.only_pos_mask]
        vectors = [graph.aug_mask(t) for t in selected] + stand_ins
        printed = sum(
            1 for y in range(inst.m) if sum(v >> y & 1 for v in vectors) >= 2
        )
        assert corrected.objective_value == cov_dc(selected, inst) == 0
        assert printed == 2


# (k, alpha, beta) -> ((ids, objective, nodes) of bnb_ic, same of bnb_dc).
CAMERA_PINS = {
    (2, 0.5, 0.5): (((1, 3), 7, 5), ((1, 5), 4, 9)),
    (3, 0.5, 0.3): (((0, 1, 3), 8, 7), ((0, 1, 3), 4, 7)),
    (4, 0.5, 0.0): (((0, 1, 3, 4), 8, 9), ((0, 1, 3, 4), 7, 9)),
    (2, 0.5, 1.0): (((2, 4), 4, 11), ((2, 4), 2, 11)),
}
# Indexed by the seed of random_case_pinned.
RANDOM_PINS = (
    (((5, 9, 10), 12, 69), ((5, 7, 9), 6, 101)),
    (((1, 2, 10, 11), 17, 219), ((1, 5, 11, 13), 9, 209)),
    (((1, 2, 4, 6, 8), 16, 103), ((1, 2, 4, 6, 8), 8, 145)),
    (((2, 6, 7, 8, 10, 13), 17, 37), ((0, 6, 7, 10, 12, 13), 13, 41)),
    (((1, 2, 10), 12, 51), ((4, 5, 10), 5, 153)),
    (((0, 5, 6, 13), 17, 29), ((0, 5, 6, 13), 11, 17)),
    (((2, 3, 9, 11, 13), 15, 111), ((0, 3, 9, 11, 13), 10, 181)),
    (((0, 4, 6, 7, 12, 13), 18, 85), ((0, 4, 6, 7, 11, 12), 14, 129)),
    (((0, 3, 5), 9, 35), ((1, 3, 5), 1, 27)),
    (((3, 7, 8, 9), 16, 81), ((0, 7, 9, 10), 8, 9)),
)


def random_case_pinned(seed):
    inst = random_instance(seed=[700, seed], num_attrs=20, n_pos=7, n_neg=7)
    k = 3 + seed % 4
    alpha = (0.25, 0.5, 0.75)[seed % 3]
    beta = (0.0, 0.3, 0.7)[seed % 3]
    return inst, make_params(k, alpha, beta, inst)


class TestBnbPinned:
    """Fixes the branch-and-bound searches exactly: selection, objective and
    node count.  A pruning or visiting-order change shows up here even when
    the optimum is unchanged; each pinned objective is the enumerator's."""

    @staticmethod
    def outcome(report):
        return report.selection.sorted_ids(), report.objective_value, report.nodes_explored

    def check(self, inst, params, ic, dc):
        assert self.outcome(bnb_ic(inst, params)) == ic
        assert self.outcome(bnb_dc(inst, params)) == dc
        assert ic[1] == exact_ic(inst, params).objective_value
        assert dc[1] == exact_dc(inst, params).covdc_value

    def test_camera(self, camera):
        for (k, alpha, beta), (ic, dc) in CAMERA_PINS.items():
            self.check(camera, make_params(k, alpha, beta, camera), ic, dc)

    def test_random_instances(self):
        for seed, (ic, dc) in enumerate(RANDOM_PINS):
            self.check(*random_case_pinned(seed), ic, dc)


def draw_vocabulary(draw, max_m, max_side, m=None):
    """Up to ``max_side`` tags per side, possibly one side only, over at
    most ``max_m`` values (exactly ``m`` when given), with tied relevances
    and, at times, one coverage size for every tag."""
    if m is None:
        m = draw(st.integers(1, max_m))
    n_pos = draw(st.integers(0, max_side))
    n_neg = draw(st.integers(0 if n_pos else 1, max_side))
    size = draw(st.none() | st.integers(1, m))
    rel = st.sampled_from((0.0, 0.25, 0.5)) | st.floats(0.0, 1.0)
    rules = [
        Rule(
            draw(st.frozensets(
                st.integers(0, m - 1), min_size=size or 1, max_size=size or m
            )),
            f"t{j}",
            P if j < n_pos else N,
            draw(rel),
        )
        for j in range(n_pos + n_neg)
    ]
    return build_instance(rules, m=m)


BETAS = (0.0, 0.3, 0.7, 0.9, 1.0, 1.001)


@st.composite
def bnb_cases(draw):
    """A small vocabulary and quotas built without make_params, so that an
    unfillable quota reaches the solvers.  One-sided vocabularies, one-sided
    quotas (alpha 0 and 1), tags of equal coverage size, tied relevances
    and a relevance bound above the best reachable all occur."""
    inst = draw_vocabulary(draw, 40, 5)
    k = draw(st.integers(1, 6))
    alpha = draw(st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0)))
    beta = draw(st.sampled_from(BETAS))
    return inst, Params(k, alpha, beta, *split_budget(k, alpha))


@st.composite
def greedy_cases(draw):
    """Up to 8+8 tags and quotas each side can fill; k1 = 0 and k2 = 0
    (alpha 1 and 0) both occur."""
    inst = draw_vocabulary(draw, 30, 8)
    k1 = draw(st.integers(0 if inst.n_neg else 1, inst.n_pos))
    k2 = draw(st.integers(0 if k1 else 1, inst.n_neg))
    return inst, Params(k1 + k2, k1 / (k1 + k2), draw(st.sampled_from(BETAS)), k1, k2)


def objective_or_error(solve, inst, params, covdc=False):
    try:
        report = solve(inst, params)
    except (Infeasible, InfeasiblePolarity) as exc:
        return type(exc), str(exc)
    return report.covdc_value if covdc else report.objective_value


class TestBnbAgainstEnumeration:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(bnb_cases())
    def test_objective_or_error_matches(self, case):
        inst, params = case
        assert objective_or_error(bnb_ic, inst, params) == objective_or_error(
            exact_ic, inst, params
        )
        assert objective_or_error(bnb_dc, inst, params) == objective_or_error(
            exact_dc, inst, params, covdc=True
        )


def reference_greedy_ic(inst, params):
    """greedy_ic's loop with a full (coverage, relevance, -id) key per
    candidate."""
    bench = RelBenchmark.from_instance(inst)
    chosen = []
    quota = {True: params.k1, False: params.k2}
    rel_so_far = 0.0
    for x in range(1, params.k + 1):
        threshold = params.beta * stepwise_rel_max(bench, params.k1, params.k2, x) - EPS
        best_key = best = None
        for t in inst.tags:
            if t in chosen or quota[t.is_positive] == 0:
                continue
            if rel_so_far + t.relevance < threshold:
                continue
            key = (cov_ic(chosen + [t]), t.relevance, -t.id)
            if best_key is None or key > best_key:
                best_key, best = key, t
        if best is None:
            break
        chosen.append(best)
        quota[best.is_positive] -= 1
        rel_so_far += best.relevance
    return reference_outcome(chosen, cov_ic(chosen), params)


def reference_greedy_dc(inst, params):
    """greedy_dc's pair and fill loops with a full (theta, -relevance, ids)
    key per candidate, theta scored by theta_dc on the whole selection."""
    bench = RelBenchmark.from_instance(inst)
    graph = build_dc_graph(inst)
    chosen = []
    quota = {True: params.k1, False: params.k2}
    rel_so_far = 0.0
    while len(chosen) < params.k:
        if quota[True] and quota[False]:
            x = len(chosen) + 2
            steps = [
                (tx, ty)
                for tx in inst.positives() if tx not in chosen
                for ty in inst.negatives() if ty not in chosen
            ]
        else:
            x = len(chosen) + 1
            side = inst.positives() if quota[True] else inst.negatives()
            steps = [(t,) for t in side if t not in chosen]
        threshold = params.beta * stepwise_rel_max(bench, params.k1, params.k2, x) - EPS
        best_key = best = None
        for step in steps:
            rel = rel_so_far
            for t in step:
                rel += t.relevance
            if rel < threshold:
                continue
            key = (
                theta_dc(graph, chosen + list(step)),
                -sum(t.relevance for t in step),
                tuple(t.id for t in step),
            )
            if best_key is None or key < best_key:
                best_key, best = key, step
        if best is None:
            break
        for t in best:
            chosen.append(t)
            quota[t.is_positive] -= 1
            rel_so_far += t.relevance
    return reference_outcome(chosen, theta_dc(graph, chosen), params)


def reference_outcome(chosen, value, params):
    """A reference run's answer in the form of :func:`greedy_outcome`."""
    ids = tuple(sorted(t.id for t in chosen))
    return ids, value, len(chosen) == params.k, rel_total(chosen)


def greedy_outcome(report):
    sel = report.selection
    return sel.sorted_ids(), sel.objective_value, sel.feasible, sel.rel_total


def reference_exact_ic(inst, params):
    """Every quota-feasible subset in id order, replaced only on a strictly
    larger (coverage, relevance).  Relevance is added per side and then
    summed, as the enumerator adds it, so that ties compare equal floats."""
    need = params.beta * rel_max(RelBenchmark.from_instance(inst), params.k1, params.k2) - EPS
    best_key = best = None
    visited = 0
    for subset in itertools.combinations(inst.tags, params.k):
        pos = [t for t in subset if t.is_positive]
        if len(pos) != params.k1:
            continue
        visited += 1
        neg = [t for t in subset if not t.is_positive]
        rel = sum(t.relevance for t in pos) + sum(t.relevance for t in neg)
        if rel < need:
            continue
        key = (cov_ic(subset), rel)
        if best_key is None or key > best_key:
            best_key, best = key, subset
    if best is None:
        return f"no quota-feasible subset reaches relevance {need + EPS:.6g}"
    return tuple(t.id for t in best), best_key[0], rel_total(best), visited


def exact_ic_outcome(inst, params):
    try:
        report = exact_ic(inst, params)
    except Infeasible as exc:
        return str(exc)
    sel = report.selection
    return sel.sorted_ids(), sel.objective_value, sel.rel_total, report.nodes_explored


class TestGreedyAgainstReference:
    """The greedy candidate loops compare theta (or coverage) first and
    build no key; the reference builds the whole tuple key each time.  Equal
    relevances force the tie-breaks, and a bound up to 1.001 gives dead
    ends."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(greedy_cases())
    def test_answers_match(self, case):
        inst, params = case
        assert greedy_outcome(greedy_ic(inst, params)) == reference_greedy_ic(inst, params)
        assert greedy_outcome(greedy_dc(inst, params)) == reference_greedy_dc(inst, params)


@st.composite
def wide_greedy_cases(draw):
    """As :func:`greedy_cases`, over up to 150 values, so that the masks
    span more than one 64-bit word; the word edges 63, 64, 65 and 128 are
    drawn often."""
    m = draw(st.sampled_from((63, 64, 65, 128)) | st.integers(1, 150))
    inst = draw_vocabulary(draw, 150, 8, m=m)
    k1 = draw(st.integers(0 if inst.n_neg else 1, inst.n_pos))
    k2 = draw(st.integers(0 if k1 else 1, inst.n_neg))
    return inst, Params(k1 + k2, k1 / (k1 + k2), draw(st.sampled_from(BETAS)), k1, k2)


class TestGreedyDCBeyondOneWord:
    """greedy_dc scores pairs against the complement of each option's OR
    within the m values; the reference scores with theta_dc."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(wide_greedy_cases())
    def test_answers_match(self, case):
        inst, params = case
        assert greedy_outcome(greedy_dc(inst, params)) == reference_greedy_dc(inst, params)


def brute_first_pairs(inst):
    """a-dc's first pair step with both quotas open, ranked from every
    (positive, negative) pair: one entry (theta, relevance sum, positive id,
    negative id) per theta, ascending, for its pair of largest relevance
    sum, then lowest ids; theta scored by theta_dc on the pair alone."""
    graph = build_dc_graph(inst)
    best = {}
    for tp in inst.positives():
        for tn in inst.negatives():
            th = theta_dc(graph, [tp, tn])
            key = (tp.relevance + tn.relevance, -tp.id, -tn.id)
            best[th] = max(best.get(th, key), key)
    return tuple((th, rel, -i, -j) for th, (rel, i, j) in sorted(best.items()))


class TestDCFirstPairs:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(greedy_cases() | wide_greedy_cases())
    def test_matches_brute_force(self, case):
        """The pair path's first entry is the pair of least theta, then
        largest relevance sum, then lowest ids."""
        inst, _ = case
        ranked = brute_first_pairs(inst)
        if not (inst.n_pos and inst.n_neg):
            assert ranked == ()
            return
        greedy_dc(inst, Params(k=2, alpha=0.5, beta=0.0, k1=1, k2=1))
        ((i, j, rel, th),) = inst.grown["a-dc", 0, None]
        assert (th, rel, i, j) == ranked[0]


@st.composite
def replayed_requests(draw):
    """One instance of :func:`greedy_cases` or :func:`wide_greedy_cases` and
    2 to 7 requests of any quotas it can fill and any bound in BETAS."""
    inst, _ = draw(greedy_cases() | wide_greedy_cases())
    requests = []
    for _ in range(draw(st.integers(2, 7))):
        k1 = draw(st.integers(0 if inst.n_neg else 1, inst.n_pos))
        k2 = draw(st.integers(0 if k1 else 1, inst.n_neg))
        requests.append(Params(k1 + k2, k1 / (k1 + k2), draw(st.sampled_from(BETAS)), k1, k2))
    return inst, requests


def both_open(inst, route):
    """The steps ``route`` keeps on ``inst`` with both quotas open."""
    return inst.grown.get((route, 0, None), ())


class TestGreedyPaths:
    """The greedy routes follow each instance's unfiltered path, grown by
    earlier requests, until an entry misses the request's quota or filter."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(replayed_requests())
    def test_answers_read_from_grown_paths(self, case):
        inst, requests = case
        for params in requests:
            assert greedy_outcome(greedy_ic(inst, params)) == reference_greedy_ic(inst, params)
            assert greedy_outcome(greedy_dc(inst, params)) == reference_greedy_dc(inst, params)

    def test_growth_is_lazy_at_catalogue_scale(self):
        inst = random_instance(seed=513, num_attrs=200, n_pos=300, n_neg=300)
        greedy_dc(inst, make_params(2, 0.5, 0.5, inst))
        assert len(both_open(inst, "a-dc")) <= 1
        greedy_ic(inst, make_params(4, 0.5, 0.5, inst))
        assert len(both_open(inst, "a-ic")) <= 4

    def test_growth_stops_where_a_request_leaves_the_path(self):
        rules = [
            Rule(frozenset({0, 1, 2}), "wide", P, 0.1),
            Rule(frozenset({3}), "narrow", P, 0.9),
            Rule(frozenset({4}), "n1", N, 0.5),
            Rule(frozenset({5}), "n2", N, 0.4),
        ]
        inst = build_instance(rules, m=6)
        params = make_params(4, 0.5, 0.9, inst)  # k1 = k2 = 2
        # Both paths start with "wide", whose relevance misses the filter,
        # so each request scans from its first step and grows nothing more.
        assert greedy_outcome(greedy_ic(inst, params)) == reference_greedy_ic(inst, params)
        assert greedy_outcome(greedy_dc(inst, params)) == reference_greedy_dc(inst, params)
        ((wide, _, _, _),) = both_open(inst, "a-ic")
        ((pos, _, _, _),) = both_open(inst, "a-dc")
        assert inst.tags[wide].label == inst.tags[pos].label == "wide"

    # The transitions where a request's steps read from a path must be folded
    # into the sides' state: (route, rules as (coverage, relevance) per
    # side, m, the warming quotas at beta 0, the request, and the request's
    # first scan as (growth or filter, quotas left, ids taken)).
    FOLD_CASES = {
        # One path step passes the filter, the next misses it.
        "ic-path-then-miss": (
            "a-ic", [({0, 1, 2, 3}, 0.5), ({4, 5, 6}, 0.05), ({7}, 0.9)],
            [({8}, 0.4), ({9}, 0.3)], 10, (2, 2), (2, 2, 0.5), ("filter", [1, 2], [0]),
        ),
        "dc-path-then-miss": (
            "a-dc", [({3}, 0.2), ({1, 2}, 0.5), ({1, 4}, 0.8)],
            [({0, 1, 4}, 0.7), ({0, 1, 5}, 0.9), ({4}, 0.6)], 6, (2, 2), (2, 2, 0.8),
            ("filter", [1, 1], [1, 4]),
        ),
        # The positives fill, a step of their fill path passes, the next misses.
        "ic-fill-then-miss": (
            "a-ic", [({0, 1, 2, 3, 4}, 0.6), ({5}, 0.7)],
            [({5, 6, 7}, 0.5), ({8, 9}, 0.05), ({10}, 0.45)], 11, (1, 3), (1, 3, 0.8),
            ("filter", [0, 2], [0, 2]),
        ),
        "dc-fill-then-miss": (
            "a-dc", [({1}, 0.5), ({5}, 0.7)],
            [({2, 3}, 0.8), ({1, 2, 5}, 0.3), ({2}, 0.6), ({0, 3}, 0.4)], 6, (1, 3),
            (1, 3, 0.9), ("filter", [0, 1], [1, 2, 5]),
        ),
        # A longer request follows the warm path to its end, then grows it.
        "ic-path-then-grow": (
            "a-ic", [({0, 1, 2, 3}, 0.5), ({4, 5, 6}, 0.05), ({7}, 0.9)],
            [({8}, 0.4), ({9}, 0.3)], 10, (1, 1), (2, 2, 0.0), ("grow", [1, 2], [0]),
        ),
        "dc-path-then-grow": (
            "a-dc", [({0, 1, 2, 3}, 0.5), ({4, 5, 6}, 0.05), ({7}, 0.9)],
            [({8}, 0.4), ({9}, 0.3)], 10, (1, 1), (2, 2, 0.0), ("grow", [1, 1], [0, 3]),
        ),
    }

    @pytest.mark.parametrize("name", FOLD_CASES)
    def test_steps_read_from_a_path_are_folded_before_a_scan(self, name, monkeypatch):
        route, pos, neg, m, warm, (k1, k2, beta), first_scan = self.FOLD_CASES[name]
        rules = [Rule(frozenset(c), f"p{i}", P, r) for i, (c, r) in enumerate(pos)]
        rules += [Rule(frozenset(c), f"n{i}", N, r) for i, (c, r) in enumerate(neg)]
        inst = build_instance(rules, m=m)
        solve, reference, scan_name = {
            "a-ic": (greedy_ic, reference_greedy_ic, "_ic_scan"),
            "a-dc": (greedy_dc, reference_greedy_dc, "_pair_scan"),
        }[route]
        solve(inst, Params(sum(warm), warm[0] / sum(warm), 0.0, *warm))
        scans = []
        scan = getattr(solvers, scan_name)

        def recording(instance, left, acc, taken, rel_so_far, threshold):
            kind = "grow" if threshold == -float("inf") else "filter"
            scans.append((kind, list(left), sorted(taken)))
            return scan(instance, left, acc, taken, rel_so_far, threshold)

        monkeypatch.setattr(solvers, scan_name, recording)
        params = Params(k1 + k2, k1 / (k1 + k2), beta, k1, k2)
        answer = greedy_outcome(solve(inst, params))
        assert scans[0] == first_scan
        assert answer == reference(inst, params)
        assert answer == greedy_outcome(solve(rebuilt(inst), params))

    @pytest.mark.parametrize("route", ["a-ic", "a-dc"])
    def test_running_relevance_is_the_reported_relevance(self, route):
        """At beta 0 a request on a fresh instance grows every row it
        reads: the both-open path's, then one fill path's, entered after
        as many steps, or at step 0 with a zero quota.  Those rows hold
        the request's ids, and the last one its relevance, bit for bit."""
        solve = {"a-ic": greedy_ic, "a-dc": greedy_dc}[route]
        entered = set()
        for seed in range(20):
            inst = random_instance(seed=[518, seed], num_attrs=30, n_pos=6, n_neg=6)
            for k1, k2 in ((3, 1), (1, 3), (2, 2), (4, 2), (0, 3), (3, 0), (1, 0)):
                fresh = rebuilt(inst)
                params = Params(k1 + k2, k1 / (k1 + k2), 0.0, k1, k2)
                selection = solve(fresh, params).selection
                paths = {key: path for key, path in fresh.grown.items() if key[0] == route}
                rows = list(paths.pop((route, 0, None), ()))
                assert len(paths) <= 1
                for (_, s, side), fill in paths.items():
                    assert s == len(rows)
                    if not s:
                        assert side == (1 if k1 else 0)
                    entered.add("fill" if s else "zero quota")
                    rows += fill
                if not paths:
                    entered.add("both open only")
                ids = {i for pos, neg, _, _ in rows for i in (pos, neg) if i is not None}
                assert ids == selection.tag_ids and selection.feasible
                assert repr(rows[-1][2]) == repr(selection.rel_total)
        # An a-ic step takes one side, so one side fills first.
        both = {"both open only"} if route == "a-dc" else set()
        assert entered == {"fill", "zero quota"} | both

    def test_a_zero_budget_takes_no_step_and_reports_the_start_score(self):
        # make_params refuses k = 0, but Params can be built directly.
        inst = random_instance(seed=519, num_attrs=10, n_pos=3, n_neg=3)
        params = Params(k=0, alpha=0.5, beta=0.0, k1=0, k2=0)
        pos_in, neg_in = inst.dc_graph.stand_ins
        assert greedy_outcome(greedy_ic(inst, params)) == ((), 0, True, 0.0)
        assert greedy_outcome(greedy_dc(inst, params)) == (
            (), (pos_in ^ neg_in).bit_count(), True, 0.0
        )

    def test_a_shorter_path_never_replaces_a_longer_one(self):
        inst = random_instance(seed=515, num_attrs=14, n_pos=4, n_neg=4)
        greedy_ic(inst, make_params(8, 0.5, 0.0, inst))
        grown = both_open(inst, "a-ic")
        assert len(grown) >= 4
        inst.keep(("a-ic", 0, None), grown[:2])
        assert both_open(inst, "a-ic") is grown

    def test_threads_sharing_instances_answer_as_fresh(self):
        shared = [random_instance(seed=[514, i], num_attrs=30, n_pos=8, n_neg=8) for i in range(4)]
        requests = [
            (solve, inst, make_params(k, alpha, beta, inst))
            for solve in (greedy_ic, greedy_dc)
            for inst in shared
            for k in range(2, 9)
            for alpha in (0.25, 0.5, 0.75)
            for beta in (0.0, 0.3, 0.6)
        ]
        np.random.default_rng(514).shuffle(requests)
        interval = sys.getswitchinterval()
        # Switch threads often, so that requests interleave mid-solve.
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                answers = list(pool.map(lambda r: full_answer(*r), requests))
        finally:
            sys.setswitchinterval(interval)
        assert answers == [
            full_answer(solve, rebuilt(inst), params) for solve, inst, params in requests
        ]

    def test_warm_repeats_scan_nothing(self, monkeypatch):
        """A request repeated on a warm instance reads every step from a
        path or fill path and every threshold from the kept maxima, also
        at a second bound whose entries pass the filter."""
        calls = dict.fromkeys(("_ic_scan", "_pair_scan", "stepwise_rel_max"), 0)

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for module, name in (
            (solvers, "_ic_scan"), (solvers, "_pair_scan"), (relevance, "stepwise_rel_max")
        ):
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        inst = random_instance(seed=[516, 3], num_attrs=30, n_pos=8, n_neg=8)
        for k1, k2 in ((3, 1), (1, 3), (0, 3), (3, 0)):
            warm = Params(k1 + k2, k1 / (k1 + k2), 0.5, k1, k2)
            for solve in (greedy_ic, greedy_dc):
                solve(inst, warm)
            assert all(calls.values()), (k1, k2)
            calls.update(dict.fromkeys(calls, 0))
            for params in (warm, dataclasses.replace(warm, beta=0.3)):
                assert greedy_outcome(greedy_ic(inst, params)) == reference_greedy_ic(inst, params)
                assert greedy_outcome(greedy_dc(inst, params)) == reference_greedy_dc(inst, params)
            assert calls == dict.fromkeys(calls, 0), (k1, k2)

    def test_fill_paths_and_maxima_are_lazy_and_per_instance(self):
        inst = random_instance(seed=513, num_attrs=200, n_pos=300, n_neg=300)
        params = make_params(4, 0.75, 0.5, inst)
        assert (params.k1, params.k2) == (3, 1)
        greedy_dc(inst, params)
        # At most one pair, then at most two fill steps with the negatives full.
        assert len(both_open(inst, "a-dc")) <= 1
        fills = {
            key: path for key, path in inst.grown.items() if key[0] == "a-dc" and key[2] is not None
        }
        assert fills.keys() <= {("a-dc", 1, 1)}
        assert all(len(path) <= 2 for path in fills.values())
        greedy_ic(inst, params)
        ic = [path for (route, *_), path in inst.grown.items() if route == "a-ic"]
        assert sum(map(len, ic)) <= 4
        assert len(ic) <= 2
        stepwise = {key: len(maxima) for key, maxima in inst.grown.items() if key[0] == "stepwise"}
        assert stepwise == {("stepwise", 3, 1): 4}
        fresh = rebuilt(inst)
        assert fresh == inst and hash(fresh) == hash(inst) and repr(fresh) == repr(inst)
        assert fresh.grown == {}
        greedy_dc(fresh, params)
        greedy_ic(fresh, params)
        assert fresh.grown == inst.grown and fresh.grown is not inst.grown
        assert all(fresh.grown[key] is not inst.grown[key] for key in inst.grown)

    def test_one_key_scheme_for_all_grown_state(self):
        """Paths are kept under (route, steps taken, full side), both-open
        paths with side None and zero quotas starting on their full side's
        path at step 0; step maxima under ("stepwise", k1, k2).  Both
        routes' steps have one shape: the positive and the negative id
        taken, each None for a side left alone, the running relevance
        after the step, a float that never decreases along a path, and the
        step's score."""
        inst = random_instance(seed=[517], num_attrs=30, n_pos=8, n_neg=8)
        quotas = ((3, 1), (1, 3), (0, 3), (3, 0), (2, 2), (0, 1), (4, 0))
        requests = [
            Params(k1 + k2, k1 / (k1 + k2), beta, k1, k2)
            for k1, k2 in quotas
            for beta in (0.0, 0.5)
        ]
        for params in requests:
            greedy_ic(inst, params)
        assert {route for route, *_ in inst.grown} == {"a-ic", "stepwise"}
        for params in requests:
            greedy_dc(inst, params)
        for (route, s, side), value in inst.grown.items():
            if route == "stepwise":
                assert (s, side) in quotas
                assert len(value) == s + side
                assert all(type(best) is float for best in value)
            else:
                assert route in ("a-ic", "a-dc") and value
                assert (s, side) == (0, None) or (side in (0, 1) and s >= 0), (route, s, side)
                before = 0.0
                for pos, neg, rel, score in value:
                    assert type(score) is int
                    assert type(rel) is float and rel >= before
                    before = rel
                    for on_side, i in enumerate((pos, neg)):
                        if i is not None:
                            assert inst.tags[i].is_positive == (on_side == 0)
                    picks = [i for i in (pos, neg) if i is not None]
                    assert len(picks) == 1 if route == "a-ic" else picks
        for route in ("a-ic", "a-dc"):
            assert {(route, 0, None), (route, 0, 0), (route, 0, 1)} <= inst.grown.keys()
            assert any(route == r and s > 0 for r, s, _ in inst.grown)
        assert [f.name for f in dataclasses.fields(RelBenchmark)] == ["prefix_pos", "prefix_neg"]


def test_side_rows_add_in_tag_order():
    # As relevance.rel_total: ten plain additions of 0.1 round to just below
    # 1.0, where the compensated float sum of Python 3.12+ gives exactly 1.0.
    ((rel, *_),) = solvers._side_rows(range(10), (0.1,) * 10, (1,) * 10, 10, 0)
    assert repr(rel) == "0.9999999999999999"


class TestExactICAgainstReference:
    """The enumerator pairs each positive combination with a table of the
    negative ones; the reference scans whole subsets.  A one-combination
    table re-streams the negatives for every positive combination.  Tied
    relevances, one-sided quotas and vocabularies, masks of more than one
    64-bit word and a bound above the best relevance all occur."""

    @staticmethod
    def assert_matches_at_both_tiles(inst, params):
        # Drawing the cases costs far more than solving them, so each case
        # runs at both table sizes.
        expected = reference_exact_ic(inst, params)
        for tile in (solvers._TILE_PAIRS, 1):
            with mock.patch.object(solvers, "_TILE_PAIRS", tile):
                assert exact_ic_outcome(inst, params) == expected, tile

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(greedy_cases())
    def test_answers_match(self, case):
        self.assert_matches_at_both_tiles(*case)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(wide_greedy_cases())
    def test_answers_match_beyond_one_word(self, case):
        self.assert_matches_at_both_tiles(*case)


def reference_exact_dc(inst, params):
    """Every quota-feasible subset in id order, scored by theta_dc and
    cov_dc on the whole subset; each optimum is replaced only on a strictly
    better (objective, relevance).  Relevance is added per side and then
    summed, as the enumerator adds it."""
    need = params.beta * rel_max(RelBenchmark.from_instance(inst), params.k1, params.k2) - EPS
    graph = build_dc_graph(inst)
    best = [None, None]  # (theta, -rel) and (-cov_dc, -rel) keys with their subsets
    visited = 0
    for subset in itertools.combinations(inst.tags, params.k):
        pos = [t for t in subset if t.is_positive]
        if len(pos) != params.k1:
            continue
        visited += 1
        neg = [t for t in subset if not t.is_positive]
        rel = sum(t.relevance for t in pos) + sum(t.relevance for t in neg)
        if rel < need:
            continue
        for slot, score in enumerate((theta_dc(graph, subset), -cov_dc(subset, inst))):
            if best[slot] is None or (score, -rel) < best[slot][0]:
                best[slot] = ((score, -rel), subset)
    if best[0] is None:
        return f"no quota-feasible subset reaches relevance {need + EPS:.6g}"
    (th, _), th_tags = best[0]
    (neg_cv, _), cv_tags = best[1]
    return (
        tuple(t.id for t in th_tags), th, rel_total(th_tags),
        tuple(t.id for t in cv_tags), -neg_cv, rel_total(cv_tags),
        visited,
    )


def exact_dc_outcome(inst, params):
    try:
        report = exact_dc(inst, params)
    except Infeasible as exc:
        return str(exc)
    th, cv = report.selection, report.covdc_selection
    return (
        th.sorted_ids(), th.objective_value, th.rel_total,
        cv.sorted_ids(), cv.objective_value, cv.rel_total,
        report.nodes_explored,
    )


class TestExactDCAgainstReference:
    """The enumerator pairs side tables of combinations; the reference scans
    whole subsets with theta_dc and cov_dc.  A one-combination table
    re-streams the negatives for every positive combination.  Tied
    relevances, one-sided quotas and vocabularies, masks of more than one
    64-bit word and a bound above the best relevance all occur."""

    @pytest.mark.parametrize("tile", [solvers._TILE_PAIRS, 1])
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(greedy_cases())
    def test_answers_match(self, tile, case):
        inst, params = case
        with mock.patch.object(solvers, "_TILE_PAIRS", tile):
            assert exact_dc_outcome(inst, params) == reference_exact_dc(inst, params)

    @pytest.mark.parametrize("tile", [solvers._TILE_PAIRS, 1])
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(wide_greedy_cases())
    def test_answers_match_beyond_one_word(self, tile, case):
        inst, params = case
        with mock.patch.object(solvers, "_TILE_PAIRS", tile):
            assert exact_dc_outcome(inst, params) == reference_exact_dc(inst, params)


@st.composite
def permuted_rules(draw):
    """Rules that repeat (label, sentiment) pairs, so that normalization
    picks one rule per tag, and a permutation of the same rules."""
    m = draw(st.integers(1, 12))
    rule = st.builds(
        Rule,
        st.frozensets(st.integers(0, m - 1), min_size=1),
        st.sampled_from("abcde"),
        st.sampled_from(Sentiment),
        st.sampled_from((0.0, 0.25, 0.5)) | st.floats(0.0, 1.0),
    )
    rules = draw(st.lists(rule, min_size=1, max_size=14))
    return m, rules, draw(st.permutations(rules))


def answer_or_error(solve, inst, params):
    try:
        return dataclasses.replace(solve(inst, params), wall_time=0.0)
    except (Infeasible, InfeasiblePolarity) as exc:
        return type(exc), str(exc)


class TestPermutedRules:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        permuted_rules(),
        st.integers(1, 6),
        st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0)),
        st.sampled_from(BETAS),
    )
    def test_same_tags_and_answers(self, case, k, alpha, beta):
        m, rules, shuffled = case
        inst = build_instance(rules, m=m)
        other = build_instance(shuffled, m=m)
        assert other.tags == inst.tags
        params = Params(k, alpha, beta, *split_budget(k, alpha))
        for algorithm, solve in solvers.SOLVERS.items():
            assert answer_or_error(solve, other, params) == answer_or_error(
                solve, inst, params
            ), algorithm


@pytest.fixture(scope="module")
def rules_file_instance():
    """The vocabulary of ``tagselect gen --items 20000 --seed 1602``: 50
    positive and 50 negative tags over 100 values."""
    config = SynthConfig(num_items=20000, seed=1602)
    return build_instance(extract_rules(gen_matrix(config)), m=config.num_attrs)


class TestBnbScale:
    """Branch-and-bound past the enumerator's default cap.  The node bounds
    hold the coverage order and the size bound."""

    def test_ic_at_k4(self, rules_file_instance):
        params = make_params(4, 0.5, 0.5, rules_file_instance)
        report = bnb_ic(rules_file_instance, params, exact_cap=100)
        assert report.objective_value == 32
        assert report.objective_value == exact_ic(
            rules_file_instance, params, exact_cap=100
        ).objective_value
        assert report.nodes_explored <= 5_000

    def test_dc_at_k4(self, rules_file_instance):
        params = make_params(4, 0.5, 0.5, rules_file_instance)
        report = bnb_dc(rules_file_instance, params, exact_cap=100)
        assert report.objective_value == 12
        assert report.objective_value == exact_dc(
            rules_file_instance, params, exact_cap=100
        ).covdc_value
        assert report.nodes_explored <= 500_000

    def test_ic_at_k6(self, rules_file_instance):
        # Beyond enumeration here; an independent MILP model of the 0/1
        # program (scipy.optimize.milp) gives the same optimum, 46.
        params = make_params(6, 0.5, 0.5, rules_file_instance)
        report = bnb_ic(rules_file_instance, params, exact_cap=100)
        assert_feasible_report(rules_file_instance, params, report)
        assert report.objective_value == 46

    def test_deep_vocabulary_needs_no_recursion(self):
        # 1,400 tags: a search that recursed once per tag would exceed the
        # interpreter's recursion limit.
        inst = random_instance(seed=713, num_attrs=200, n_pos=700, n_neg=700)
        params = make_params(2, 0.5, 0.5, inst)
        report = bnb_ic(inst, params, exact_cap=2000)
        assert_feasible_report(inst, params, report)
        selected = [inst.tags[i] for i in report.selection.tag_ids]
        assert report.objective_value == cov_ic(selected)


def pinned_dc_case(seed):
    rng = np.random.default_rng([710, seed])
    m = (10, 24, 70, 130)[seed % 4]
    inst = random_instance(
        seed=[710, seed, 1],
        num_attrs=m,
        n_pos=int(rng.integers(5, 9)),
        n_neg=int(rng.integers(5, 9)),
        cover_max=max(6, m // 4),
    )
    if seed % 3 == 2:
        # Equal relevances: every tie on theta is also a tie on relevance,
        # so the combination order alone decides.
        inst = build_instance(
            [Rule(t.coverage, t.label, t.sentiment, 0.5) for t in inst.tags], m=m
        )
    k = int(rng.integers(2, 6))
    alpha = (0.0, 0.25, 0.5, 0.75, 1.0)[seed % 5]
    beta = (0.0, 0.5, 0.9, 1.0)[(seed // 5) % 4]
    return inst, make_params(k, alpha, beta, inst)


# Indexed by the seed of pinned_dc_case: (theta ids, theta, cov_dc ids,
# cov_dc, nodes) of exact_dc and (ids, theta, feasible) of greedy_dc.
# Seeds 16 and 36 are greedy dead ends.
DC_PINS = (
    (((6, 7, 8, 10), 0, (6, 7, 8, 10), 0, 5), ((6, 7, 8, 10), 0, True)),
    (((6, 9, 10, 12), 3, (6, 9, 10, 12), 9, 160), ((6, 10, 11, 13), 3, True)),
    (((4, 11), 29, (0, 10), 14, 42), ((4, 11), 29, True)),
    (((1, 3, 4), 40, (1, 3, 4), 20, 20), ((1, 3, 4), 40, True)),
    (((0, 1, 2, 3, 4), 1, (0, 1, 2, 3, 4), 1, 1), ((0, 1, 2, 3, 4), 1, True)),
    (((6, 7, 8, 9, 12), 6, (6, 7, 8, 9, 12), 6, 56), ((6, 7, 8, 9, 12), 6, True)),
    (((2, 11), 28, (2, 11), 21, 35), ((2, 11), 28, True)),
    (((2, 4, 7, 9, 10), 17, (2, 3, 7, 8, 9), 76, 560), ((2, 4, 7, 9, 10), 17, True)),
    (((0, 1, 2, 3, 9), 0, (0, 1, 2, 4, 13), 6, 245), ((0, 1, 2, 6, 7), 0, True)),
    (((1, 3, 5), 6, (1, 3, 5), 4, 20), ((1, 3, 5), 6, True)),
    (((5, 6, 10, 11, 12), 16, (5, 6, 10, 11, 12), 21, 56), ((5, 6, 10, 11, 12), 16, True)),
    (((0, 7), 51, (6, 8), 33, 35), ((0, 7), 51, True)),
    (((0, 8), 5, (0, 8), 3, 40), ((0, 8), 5, True)),
    (((0, 4, 5), 4, (0, 4, 5), 5, 20), ((0, 4, 5), 4, True)),
    (((0, 1, 2, 4), 18, (0, 1, 2, 4), 19, 35), ((0, 1, 2, 4), 18, True)),
    (((9, 10), 60, (9, 10), 6, 10), ((9, 10), 60, True)),
    (((2, 3, 7, 9, 10), 0, (2, 3, 7, 9, 10), 5, 150), ((), 2, False)),
    (((0, 1, 6), 10, (0, 1, 6), 7, 50), ((0, 1, 6), 10, True)),
    (((3, 4, 5, 6, 8), 23, (3, 4, 5, 6, 8), 20, 175), ((3, 4, 5, 6, 8), 23, True)),
    (((3, 5), 67, (3, 5), 6, 15), ((3, 5), 67, True)),
    (((8, 9, 10), 0, (8, 9, 10), 1, 20), ((8, 9, 10), 0, True)),
    (((7, 8, 10, 11), 5, (7, 8, 10, 11), 11, 160), ((7, 8, 10, 11), 5, True)),
    (((0, 2, 10), 21, (1, 2, 8), 26, 140), ((1, 5, 11), 22, True)),
    (((3, 4), 39, (4, 6), 23, 21), ((3, 4), 39, True)),
    (((2, 3, 4, 5, 6), 0, (2, 3, 4, 5, 6), 0, 21), ((2, 3, 4, 5, 6), 0, True)),
    (((9, 10), 9, (6, 9), 1, 10), ((6, 9), 10, True)),
    (((3, 7, 10), 22, (3, 7, 10), 20, 105), ((3, 7, 10), 22, True)),
    (((0, 1, 7), 32, (0, 1, 5), 49, 60), ((0, 1, 7), 32, True)),
    (((5, 6), 0, (1, 5), 0, 21), ((5, 6), 0, True)),
    (((0, 1, 2, 5), 4, (0, 1, 2, 5), 6, 70), ((0, 1, 2, 5), 4, True)),
    (((9, 10), 29, (9, 10), 4, 10), ((9, 10), 29, True)),
    (((7, 8, 10, 12), 39, (7, 8, 10, 12), 43, 160), ((7, 8, 12, 13), 40, True)),
    (((1, 3, 11), 0, (3, 4, 12), 6, 126), ((1, 3, 11), 0, True)),
    (((3, 4), 9, (4, 6), 3, 28), ((3, 4), 9, True)),
    (((2, 3, 4), 34, (2, 3, 4), 10, 10), ((2, 3, 4), 34, True)),
    (((7, 8, 9, 11), 27, (7, 8, 10, 11), 30, 5), ((7, 8, 9, 11), 27, True)),
    (((2, 8, 10, 13), 1, (2, 8, 10, 13), 5, 448), ((), 0, False)),
    (((1, 8), 10, (1, 8), 3, 64), ((1, 8), 10, True)),
    (((0, 1, 3, 6), 6, (0, 1, 3, 9), 32, 50), ((0, 1, 3, 6), 6, True)),
    (((0, 4), 66, (0, 4), 6, 10), ((0, 4), 66, True)),
)


class TestDCPinned:
    """Fixes the answers of both DC solvers, captured from the pairwise
    theta_dc/cov_dc scan: one-sided quotas, m up to 130 (three words) and
    relevance bounds up to 1.0."""

    @staticmethod
    def exact_outcome(report):
        return (
            report.selection.sorted_ids(),
            report.objective_value,
            report.covdc_selection.sorted_ids(),
            report.covdc_value,
            report.nodes_explored,
        )

    def test_exact_dc(self):
        for seed, (pin, _) in enumerate(DC_PINS):
            assert self.exact_outcome(exact_dc(*pinned_dc_case(seed))) == pin, seed

    def test_exact_dc_across_small_tiles(self, monkeypatch):
        # Three pairs per tile split every side into many runs, so the best
        # cell of a later tile must lose ties to an earlier combination.
        monkeypatch.setattr(solvers, "_TILE_PAIRS", 3)
        for seed, (pin, _) in enumerate(DC_PINS):
            assert self.exact_outcome(exact_dc(*pinned_dc_case(seed))) == pin, seed

    def test_greedy_dc(self):
        for seed, (_, pin) in enumerate(DC_PINS):
            report = greedy_dc(*pinned_dc_case(seed))
            outcome = (
                report.selection.sorted_ids(),
                report.objective_value,
                report.selection.feasible,
            )
            assert outcome == pin, seed

    def test_exact_dc_unreachable_relevance(self, camera):
        params = Params(k=2, alpha=0.5, beta=1.5, k1=1, k2=1)
        with pytest.raises(Infeasible, match="no quota-feasible subset reaches relevance"):
            exact_dc(camera, params)


def pinned_ic_case(seed):
    rng = np.random.default_rng([720, seed])
    m = (10, 24, 70, 130)[seed % 4]
    inst = random_instance(
        seed=[720, seed, 1],
        num_attrs=m,
        n_pos=int(rng.integers(5, 9)),
        n_neg=int(rng.integers(5, 9)),
        cover_max=max(6, m // 4),
    )
    if seed % 3 == 2:
        inst = build_instance(
            [Rule(t.coverage, t.label, t.sentiment, 0.5) for t in inst.tags], m=m
        )
    k = int(rng.integers(2, 6))
    alpha = (0.0, 0.25, 0.5, 0.75, 1.0)[seed % 5]
    beta = (0.0, 0.5, 0.9, 1.0, 0.3, 0.7)[(seed // 5) % 6]
    params = make_params(k, alpha, beta, inst)
    if seed >= 30:
        # A bound above the best relevance: the enumerator refuses and the
        # greedy dead-ends at its first step.
        params = dataclasses.replace(params, beta=(1.001, 1.5)[seed % 2])
    return inst, params


# Indexed by the seed of pinned_ic_case: (ids, cov_ic, rel_total, nodes) of
# exact_ic, or its Infeasible message, and (ids, cov_ic, rel_total,
# feasible) of greedy_ic.  Seeds 30-33 are greedy dead ends.
IC_PINS = (
    (((8, 9, 10, 11, 12), 10, 2.1465300000000003, 1), ((8, 9, 10, 11, 12), 10, 2.1465300000000003, True)),
    (((1, 7, 8, 10), 12, 2.7286520000000003, 60), ((3, 6, 8, 10), 12, 2.589446, True)),
    (((0, 2, 8, 12), 40, 2.0, 280), ((0, 2, 8, 12), 40, 2.0, True)),
    (((0, 4), 56, 1.0199829999999999, 15), ((0, 4), 56, 1.0199829999999999, True)),
    (((2, 4, 5, 6, 7), 10, 2.822942, 56), ((2, 4, 5, 6, 7), 10, 2.8229420000000003, True)),
    (((7, 8), 11, 1.0, 28), ((7, 8), 11, 1.0, True)),
    (((5, 9, 11), 38, 2.1484829999999997, 196), ((0, 8, 9), 37, 1.545501, True)),
    (((0, 4, 6, 10, 14), 89, 2.283764, 980), ((0, 3, 4, 13, 14), 87, 2.972479, True)),
    (((0, 1, 2, 3, 6), 10, 2.5, 105), ((0, 1, 2, 3, 6), 10, 2.5, True)),
    (((0, 1, 2, 6, 7), 17, 3.495418, 56), ((0, 1, 2, 6, 7), 17, 3.495418, True)),
    (((5, 6, 7, 8, 9), 40, 3.113004, 6), ((5, 6, 7, 8, 9), 40, 3.113004, True)),
    (((4, 5, 10, 11), 76, 2.0, 175), ((4, 5, 10, 11), 76, 2.0, True)),
    (((3, 10), 7, 1.835141, 49), ((3, 10), 7, 1.835141, True)),
    (((0, 1, 2), 11, 1.810245, 35), ((0, 1, 2), 11, 1.810245, True)),
    (((0, 1, 2, 4), 40, 2.0, 15), ((0, 1, 2, 4), 40, 2.0, True)),
    (((6, 7, 8, 10), 59, 2.0208209999999998, 5), ((6, 7, 8, 10), 59, 2.020821, True)),
    (((0, 12), 3, 1.873307, 56), ((0, 12), 3, 1.873307, True)),
    (((0, 8), 11, 1.0, 49), ((3, 7), 10, 1.0, True)),
    (((1, 4, 5), 26, 2.717353, 20), ((1, 4, 5), 26, 2.717353, True)),
    (((0, 1, 3, 4, 6), 75, 3.17161, 21), ((0, 1, 3, 4, 6), 75, 3.17161, True)),
    (((8, 9, 10, 11, 14), 10, 2.5, 21), ((8, 9, 10, 11, 14), 10, 2.5, True)),
    (((2, 8, 11), 14, 1.9843989999999998, 105), ((1, 10, 11), 14, 1.273997, True)),
    (((0, 1, 6, 9), 39, 1.510177, 150), ((0, 1, 6, 7), 38, 1.42127, True)),
    (((2, 4, 5, 8), 75, 2.0, 175), ((2, 4, 5, 8), 75, 2.0, True)),
    (((1, 3, 7), 10, 2.206754, 56), ((1, 3, 7), 10, 2.206754, True)),
    (((8, 9, 10, 11), 16, 2.214872, 5), ((8, 9, 10, 11), 16, 2.214872, True)),
    (((0, 7, 12), 35, 1.5, 196), ((0, 7, 12), 35, 1.5, True)),
    (((0, 4, 6, 7, 12), 76, 2.6062130000000003, 525), ((0, 4, 6, 7, 12), 76, 2.6062130000000003, True)),
    (((4, 5, 6), 9, 2.6174109999999997, 56), ((4, 5, 6), 9, 2.6174109999999997, True)),
    (((1, 2, 3, 5, 6), 17, 2.5, 21), ((1, 2, 3, 5, 6), 17, 2.5, True)),
    ('no quota-feasible subset reaches relevance 3.141', ((), 0, 0.0, False)),
    ('no quota-feasible subset reaches relevance 5.67431', ((), 0, 0.0, False)),
    ('no quota-feasible subset reaches relevance 2.5025', ((), 0, 0.0, False)),
    ('no quota-feasible subset reaches relevance 4.97136', ((), 0, 0.0, False)),
)


class TestICPinned:
    """Fixes the answers of exact_ic and greedy_ic.  Relevance totals are
    compared exactly: the enumerator and the greedy add the same relevances
    in different orders, and both orders are pinned."""

    def test_exact_ic(self):
        for seed, (pin, _) in enumerate(IC_PINS):
            inst, params = pinned_ic_case(seed)
            if isinstance(pin, str):
                with pytest.raises(Infeasible) as exc:
                    exact_ic(inst, params)
                assert str(exc.value) == pin, seed
                continue
            report = exact_ic(inst, params)
            outcome = (
                report.selection.sorted_ids(),
                report.objective_value,
                report.rel_total,
                report.nodes_explored,
            )
            assert outcome == pin, seed

    def test_exact_ic_streamed_negatives(self, monkeypatch):
        # A table of one or three negative combinations: nearly every case
        # rebuilds its negatives for each positive combination, and the
        # cases of few negative combinations still take the table.
        for tile in (1, 3):
            monkeypatch.setattr(solvers, "_TILE_PAIRS", tile)
            for seed, (pin, _) in enumerate(IC_PINS):
                inst, params = pinned_ic_case(seed)
                try:
                    report = exact_ic(inst, params)
                except Infeasible as exc:
                    assert str(exc) == pin, (tile, seed)
                    continue
                outcome = (
                    report.selection.sorted_ids(),
                    report.objective_value,
                    report.rel_total,
                    report.nodes_explored,
                )
                assert outcome == pin, (tile, seed)

    def test_greedy_ic(self):
        for seed, (_, pin) in enumerate(IC_PINS):
            report = greedy_ic(*pinned_ic_case(seed))
            outcome = (
                report.selection.sorted_ids(),
                report.objective_value,
                report.rel_total,
                report.selection.feasible,
            )
            assert outcome == pin, seed


class TestCallForm:
    GREEDY = {Algorithm.A_IC, Algorithm.A_DC}

    def test_every_solver_takes_exact_cap(self, camera):
        params = make_params(2, 0.5, 0.5, camera)
        for algorithm, solve in solvers.SOLVERS.items():
            if algorithm in self.GREEDY:
                capped = solve(camera, params, exact_cap=1)
                assert capped.selection == solve(camera, params).selection, algorithm
            else:
                with pytest.raises(InstanceTooLarge, match="n=6 tags"):
                    solve(camera, params, exact_cap=1)

    def test_report_values_come_from_selections(self, camera):
        params = make_params(3, 0.5, 0.3, camera)
        for algorithm, solve in solvers.SOLVERS.items():
            report = solve(camera, params, exact_cap=solvers.DEFAULT_EXACT_CAP)
            assert report.objective_value == report.selection.objective_value
            assert report.rel_total == report.selection.rel_total
            if algorithm is Algorithm.E_DC:
                assert report.covdc_value == report.covdc_selection.objective_value
            else:
                assert report.covdc_selection is report.covdc_value is None

    def test_exact_routes_share_one_refusal(self, camera):
        params = Params(k=2, alpha=0.5, beta=1.5, k1=1, k2=1)
        messages = set()
        for algorithm, solve in solvers.SOLVERS.items():
            if algorithm in self.GREEDY:
                continue
            with pytest.raises(Infeasible) as exc:
                solve(camera, params)
            messages.add(str(exc.value))
        assert messages == {"no quota-feasible subset reaches relevance 0.675"}


class TestSolverContracts:
    def test_feasible_outputs_respect_quotas_and_relevance(self):
        solvers = [exact_ic, greedy_ic, bnb_ic, exact_dc, greedy_dc, bnb_dc]
        for trial in range(40):
            case = random_case(508, trial)
            if case is None:
                continue
            inst, params = case
            for solve in solvers:
                assert_feasible_report(inst, params, solve(inst, params))

    def test_determinism_across_runs_and_rebuilds(self):
        for trial in range(10):
            case = random_case(509, trial)
            if case is None:
                continue
            inst, params = case
            rebuilt = random_instance(
                seed=[509, trial, 1],
                num_attrs=inst.m,
                n_pos=inst.n_pos,
                n_neg=inst.n_neg,
            )
            assert rebuilt == inst
            for solve in (exact_ic, greedy_ic, bnb_ic, exact_dc, greedy_dc, bnb_dc):
                first = solve(inst, params)
                second = solve(rebuilt, params)
                assert first.selection == second.selection
                assert first.objective_value == second.objective_value

    def test_algorithm_tags(self, camera):
        params = make_params(2, 0.5, 0.5, camera)
        assert exact_ic(camera, params).algorithm is Algorithm.E_IC
        assert greedy_ic(camera, params).algorithm is Algorithm.A_IC
        assert bnb_ic(camera, params).algorithm is Algorithm.BNB_IC
        assert exact_dc(camera, params).algorithm is Algorithm.E_DC
        assert greedy_dc(camera, params).algorithm is Algorithm.A_DC
        assert bnb_dc(camera, params).algorithm is Algorithm.BNB_DC

    def test_quota_mismatch_rejected(self, camera):
        bad = Params(k=8, alpha=0.5, beta=0.0, k1=4, k2=4)
        for solve in (exact_ic, greedy_ic, bnb_ic, exact_dc, greedy_dc, bnb_dc):
            with pytest.raises(InfeasiblePolarity):
                solve(camera, bad)


def rebuilt(inst):
    """A fresh instance built from the rules behind ``inst``'s tags."""
    rules = [Rule(t.coverage, t.label, t.sentiment, t.relevance) for t in inst.tags]
    return build_instance(rules, m=inst.m, item_id=inst.item_id)


def full_answer(solve, inst, params):
    try:
        report = solve(inst, params)
    except (Infeasible, InfeasiblePolarity) as exc:
        return type(exc), str(exc)
    sel = report.selection
    return (
        sel.sorted_ids(), sel.objective_value, repr(sel.rel_total), sel.feasible,
        report.nodes_explored, report.covdc_selection,
    )


# The solve inputs an instance builds on first use and keeps.
CACHED_INPUTS = {"rel_benchmark", "dc_graph", "side_columns", "search_order"}


class TestSolveInputsBuiltOnce:
    @pytest.fixture
    def builds(self, monkeypatch):
        """Counts the calls of RelBenchmark.from_instance and build_dc_graph,
        wrapped wherever a module of the package holds them."""
        calls = {"from_instance": 0, "build_dc_graph": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        wrapper = counting("build_dc_graph", build_dc_graph)
        for name, module in list(sys.modules.items()):
            if name == "tagselect" or name.startswith("tagselect."):
                for key, value in list(vars(module).items()):
                    if value is build_dc_graph:
                        monkeypatch.setattr(module, key, wrapper)
        from_instance = RelBenchmark.__dict__["from_instance"].__func__
        monkeypatch.setattr(
            RelBenchmark, "from_instance", classmethod(counting("from_instance", from_instance))
        )
        return calls

    def test_second_solve_builds_nothing(self, builds):
        for trial, (algorithm, solve) in enumerate(solvers.SOLVERS.items()):
            inst = random_instance(seed=[510, trial], num_attrs=14, n_pos=6, n_neg=6)
            params = make_params(4, 0.5, 0.3, inst)
            before = dict(builds)
            first = full_answer(solve, inst, params)
            once = dict(builds)
            assert all(once[name] - before[name] <= 1 for name in once), algorithm
            assert full_answer(solve, inst, params) == first
            assert builds == once, algorithm

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(greedy_cases() | wide_greedy_cases())
    def test_warm_instance_answers_as_fresh(self, case):
        inst, params = case
        for solve in solvers.SOLVERS.values():
            full_answer(solve, inst, params)
        assert CACHED_INPUTS <= vars(inst).keys()
        # Each route grows its both-open path only at steps with both quotas
        # open: a-ic by at most k tags, a-dc by at most min(k1, k2) pairs.
        assert len(both_open(inst, "a-ic")) <= params.k
        assert len(both_open(inst, "a-dc")) <= min(params.k1, params.k2)
        for route in ("a-ic", "a-dc"):
            has_path = (route, 0, None) in inst.grown
            assert has_path == (params.k1 > 0 and params.k2 > 0), route
        fresh = rebuilt(inst)
        for algorithm, solve in solvers.SOLVERS.items():
            assert full_answer(solve, inst, params) == full_answer(solve, fresh, params), algorithm
        assert fresh.grown == inst.grown

    def test_inputs_are_per_instance_and_outside_equality(self):
        warm = random_instance(seed=[511], num_attrs=14, n_pos=6, n_neg=6)
        cold = rebuilt(warm)
        params = make_params(4, 0.5, 0.3, warm)
        for solve in solvers.SOLVERS.values():
            solve(warm, params)
        assert CACHED_INPUTS | {"grown"} <= vars(warm).keys()
        assert not (CACHED_INPUTS | {"grown"}) & vars(cold).keys()
        assert cold.grown == {}
        assert warm == cold and hash(warm) == hash(cold) and repr(warm) == repr(cold)
        for name in CACHED_INPUTS:
            assert getattr(cold, name) == getattr(warm, name)
            assert getattr(cold, name) is not getattr(warm, name), name
        # Two equal instances given the same requests hold equal paths and
        # maxima, never the same ones.
        for solve in solvers.SOLVERS.values():
            solve(cold, params)
        assert cold.grown == warm.grown and cold.grown is not warm.grown
        for key in warm.grown:
            assert cold.grown[key] is not warm.grown[key], key
