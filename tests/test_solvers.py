import numpy as np
import pytest

from tagselect import (
    Algorithm,
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
    theta_dc,
)
from tagselect.datagen import random_instance


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
        vectors = [graph.aug_mask(t) for t in (*selected, graph.dummy_pos, graph.dummy_neg)]
        printed = sum(
            1 for y in range(inst.m) if sum(v >> y & 1 for v in vectors) >= 2
        )
        assert corrected.objective_value == cov_dc(selected, inst) == 0
        assert printed == 2


# (k, alpha, beta) -> ((ids, objective, nodes) of bnb_ic, same of bnb_dc).
CAMERA_PINS = {
    (2, 0.5, 0.5): (((1, 3), 7, 16), ((1, 5), 4, 18)),
    (3, 0.5, 0.3): (((0, 1, 3), 8, 8), ((0, 1, 4), 4, 20)),
    (4, 0.5, 0.0): (((0, 1, 3, 4), 8, 10), ((0, 1, 3, 4), 7, 10)),
    (2, 0.5, 1.0): (((2, 4), 4, 11), ((2, 4), 2, 11)),
}
# Indexed by the seed of random_case_pinned.
RANDOM_PINS = (
    (((5, 9, 10), 12, 178), ((5, 7, 9), 6, 124)),
    (((1, 2, 10, 11), 17, 664), ((5, 6, 8, 11), 9, 470)),
    (((1, 2, 4, 6, 8), 16, 386), ((2, 3, 4, 6, 7), 8, 544)),
    (((0, 2, 7, 10, 12, 13), 17, 92), ((0, 6, 7, 10, 12, 13), 13, 124)),
    (((1, 2, 10), 12, 274), ((4, 5, 10), 5, 276)),
    (((0, 5, 6, 11), 17, 93), ((0, 5, 6, 13), 11, 235)),
    (((2, 5, 9, 10, 11), 15, 263), ((0, 3, 9, 11, 12), 10, 302)),
    (((0, 3, 4, 7, 12, 13), 18, 311), ((0, 2, 3, 7, 9, 12), 14, 378)),
    (((0, 3, 5), 9, 75), ((1, 3, 5), 1, 75)),
    (((3, 7, 8, 9), 16, 110), ((0, 7, 8, 9), 8, 40)),
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
    the optimum is unchanged."""

    @staticmethod
    def outcome(report):
        return report.selection.sorted_ids(), report.objective_value, report.nodes_explored

    def test_camera(self, camera):
        for (k, alpha, beta), (ic, dc) in CAMERA_PINS.items():
            params = make_params(k, alpha, beta, camera)
            assert self.outcome(bnb_ic(camera, params)) == ic
            assert self.outcome(bnb_dc(camera, params)) == dc

    def test_random_instances(self):
        for seed, (ic, dc) in enumerate(RANDOM_PINS):
            inst, params = random_case_pinned(seed)
            assert self.outcome(bnb_ic(inst, params)) == ic
            assert self.outcome(bnb_dc(inst, params)) == dc


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
