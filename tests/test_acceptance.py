"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line with the
measured numbers (run pytest with ``-s`` or read captured output).  Criteria:

1. running-example fidelity (exact values, < 1 s total);
2. branch-and-bound matches enumeration on 500 random instances (< 5 min);
3. factor-2 approximation bounds over the same 500 instances;
4. a concrete witness that dependent-coverage gains can grow with the set;
5. 10,000-trial diminishing-returns check for independent coverage;
6. relative performance shape (greedy vs enumeration, growth in k);
7. quality sweeps over the (k, alpha, beta) grid on 50 instances;
8. generator statistics and checksum determinism at 100,000 items;
9. the user-factor estimate on the worked ratings number.
"""

import hashlib
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import pytest

from tagselect import (
    InfeasiblePolarity,
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
    stepwise_rel_max,
    theta_dc,
)
from tagselect.datagen import (
    DemographicRatings,
    SynthConfig,
    estimate_alpha,
    gen_matrix,
    random_instance,
    save_matrix,
)

from conftest import pick

P, N = Sentiment.POSITIVE, Sentiment.NEGATIVE


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


@dataclass
class Case:
    instance: object
    params: Params


def build_suite(count=500):
    """Random (instance, params) cases: n <= 18, m <= 24, k <= 6, alpha in
    {0.25, 0.5, 0.75}, beta in {0, 0.3, 0.7}; quotas always satisfiable."""
    alphas = (0.25, 0.5, 0.75)
    betas = (0.0, 0.3, 0.7)
    cases = []
    i = 0
    while len(cases) < count:
        rng = np.random.default_rng([202508, i])
        n_pos = int(rng.integers(5, 10))
        n_neg = int(rng.integers(5, 10))
        m = int(rng.integers(12, 25))
        inst = random_instance(seed=[202508, i, 1], num_attrs=m, n_pos=n_pos, n_neg=n_neg)
        k = int(rng.integers(2, 7))
        alpha = alphas[i % 3]
        beta = betas[(i // 3) % 3]
        i += 1
        try:
            params = make_params(k, alpha, beta, inst)
        except InfeasiblePolarity:
            continue
        cases.append(Case(inst, params))
    return cases


@pytest.fixture(scope="module")
def suite500():
    t0 = time.perf_counter()
    cases = build_suite(500)
    solved = []
    for case in cases:
        solved.append(
            {
                "case": case,
                "e_ic": exact_ic(case.instance, case.params),
                "b_ic": bnb_ic(case.instance, case.params),
                "e_dc": exact_dc(case.instance, case.params),
                "b_dc": bnb_dc(case.instance, case.params),
            }
        )
    return solved, time.perf_counter() - t0


def test_criterion_1_running_example_fidelity(camera):
    with criterion(1, "running-example fidelity, exact values"):
        t0 = time.perf_counter()

        triple = pick(camera, "super cool", "stylish", "gimmicky touchscreen")
        assert cov_ic(triple) == 5
        assert cov_dc(triple, camera) == 3

        params = make_params(2, 0.5, 0.5, camera)
        a_ic = greedy_ic(camera, params)
        assert {camera.tags[i].label for i in a_ic.selection.tag_ids} == {
            "stylish",
            "blurry pictures",
        }

        a_dc = greedy_dc(camera, params)
        assert {camera.tags[i].label for i in a_dc.selection.tag_ids} == {
            "stylish",
            "poor battery life",
        }
        assert a_dc.objective_value == 1
        graph = build_dc_graph(camera)
        assert theta_dc(graph, pick(camera, "stylish", "poor battery life")) == 1

        bench = RelBenchmark.from_instance(camera)
        assert stepwise_rel_max(bench, 1, 1, 1) == pytest.approx(0.3, abs=1e-12)
        assert rel_max(bench, 1, 1) == pytest.approx(0.45, abs=1e-12)
        assert stepwise_rel_max(bench, 1, 1, 2) == pytest.approx(0.45, abs=1e-12)

        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"running example took {elapsed:.3f}s"


def test_criterion_2_oracle_equivalence(suite500):
    solved, elapsed = suite500
    with criterion(2, "branch-and-bound equals enumeration on 500 instances"):
        assert len(solved) == 500
        ic_mismatches = sum(
            1 for s in solved if s["b_ic"].objective_value != s["e_ic"].objective_value
        )
        dc_mismatches = sum(
            1 for s in solved if s["b_dc"].objective_value != s["e_dc"].covdc_value
        )
        assert ic_mismatches == 0, f"{ic_mismatches} IC objective mismatches"
        assert dc_mismatches == 0, f"{dc_mismatches} DC objective mismatches"
        assert elapsed < 300.0, f"suite took {elapsed:.1f}s"
        print(f"  500/500 instances agree (solved in {elapsed:.1f}s)")


def test_criterion_3_approximation_bounds(suite500):
    solved, _ = suite500
    with criterion(3, "factor-2 bounds for both greedy algorithms"):
        ic_violations = dc_violations = 0
        ic_ratios, dc_ratios = [], []
        dc_balanced_ratios, dc_imbalanced_ratios = [], []
        zero_opt_flagged = 0
        for s in solved:
            case = s["case"]
            g_ic = greedy_ic(case.instance, case.params)
            assert g_ic.selection.feasible
            opt = s["e_ic"].objective_value
            ic_ratios.append(opt / g_ic.objective_value)
            if 2 * g_ic.objective_value < opt:
                ic_violations += 1
            g_dc = greedy_dc(case.instance, case.params)
            assert g_dc.selection.feasible
            opt_theta = s["e_dc"].objective_value
            if opt_theta > 0:
                ratio = g_dc.objective_value / opt_theta
                dc_ratios.append(ratio)
                if case.params.k1 == case.params.k2:
                    dc_balanced_ratios.append(ratio)
                else:
                    dc_imbalanced_ratios.append(ratio)
                if g_dc.objective_value > 2 * opt_theta:
                    dc_violations += 1
            elif g_dc.objective_value == 0:
                dc_ratios.append(1.0)
            else:
                zero_opt_flagged += 1
        print(
            f"  mean coverage ratio {np.mean(ic_ratios):.4f} (max {max(ic_ratios):.3f}, "
            f"{ic_violations} violations); mean theta ratio {np.mean(dc_ratios):.4f} "
            f"(max {max(dc_ratios):.3f}, {dc_violations} violations); "
            f"{zero_opt_flagged} zero-optimum cases flagged; theta max ratio "
            f"{max(dc_balanced_ratios):.2f} on balanced quotas, "
            f"{max(dc_imbalanced_ratios):.2f} on imbalanced"
        )
        assert ic_violations == 0
        assert max(ic_ratios) <= 2.0
        # Known red: the pair-then-fill greedy exceeds factor 2 on a small
        # share of imbalanced-quota cases (min(k1, k2) = 1); balanced quotas
        # never violate.  See the README's Known red section.
        assert dc_violations == 0, (
            f"{dc_violations}/500 theta ratios exceed 2.0, all on imbalanced "
            f"quotas where the one-sided fill phase runs (max ratio "
            f"{max(dc_imbalanced_ratios):.2f}; balanced-quota max "
            f"{max(dc_balanced_ratios):.2f})"
        )


def test_criterion_4_dependent_coverage_not_submodular():
    with criterion(4, "dependent-coverage gain grows with the set (witness)"):
        rules = [
            Rule(frozenset({0}), "a-pos", P, 0.5),
            Rule(frozenset({0}), "x-neg", N, 0.5),
            Rule(frozenset({1}), "y-neg", N, 0.5),
        ]
        inst = build_instance(rules, m=2)
        t = pick(inst, "a-pos")[0]
        small = pick(inst, "y-neg")
        large = pick(inst, "x-neg", "y-neg")
        gain_small = cov_dc(small + [t], inst) - cov_dc(small, inst)
        gain_large = cov_dc(large + [t], inst) - cov_dc(large, inst)
        assert gain_small == 0
        assert gain_large == 1
        assert gain_large > gain_small


def test_criterion_5_independent_coverage_submodular():
    with criterion(5, "independent coverage obeys diminishing returns (10,000 trials)"):
        violations = 0
        trials = 0
        for block in range(500):
            rng = np.random.default_rng([505050, block])
            inst = random_instance(
                seed=[505050, block, 1],
                num_attrs=int(rng.integers(6, 13)),
                n_pos=5,
                n_neg=5,
            )
            for _ in range(20):
                trials += 1
                order = rng.permutation(inst.n)
                t = inst.tags[order[-1]]
                cut1, cut2 = sorted(rng.integers(0, inst.n - 1, size=2))
                small = [inst.tags[i] for i in order[:cut1]]
                large = [inst.tags[i] for i in order[:cut2]]
                gain_small = cov_ic(small + [t]) - cov_ic(small)
                gain_large = cov_ic(large + [t]) - cov_ic(large)
                if gain_small < gain_large or cov_ic(large) < cov_ic(small):
                    violations += 1
        assert trials == 10_000
        assert violations == 0
        print(f"  {trials} trials, {violations} violations")


def test_criterion_6_performance_shape():
    with criterion(6, "greedy vs enumeration timing shape at n=18"):
        instances = [
            random_instance(seed=[606, i], num_attrs=24, n_pos=9, n_neg=9)
            for i in range(8)
        ]
        ks = (2, 4, 6, 8, 10)

        def mean_wall(solver, k, reps):
            times = []
            for inst in instances:
                params = make_params(k, 0.5, 0.5, inst)
                for _ in range(reps):
                    times.append(solver(inst, params).wall_time)
            return float(np.mean(times))

        # warm-up so interpreter costs do not distort the smallest runs
        mean_wall(greedy_ic, 2, 3)
        mean_wall(exact_ic, 2, 1)

        greedy_means = {k: mean_wall(greedy_ic, k, 20) for k in ks}
        exact_means = {k: mean_wall(exact_ic, k, 3) for k in ks}

        speedup = exact_means[10] / greedy_means[10]
        assert speedup >= 10.0, f"speedup only {speedup:.1f}x at k=10"
        growth = [greedy_means[b] / greedy_means[a] for a, b in zip(ks, ks[1:])]
        assert max(growth) <= 3.0, f"greedy growth ratios {growth}"
        enum_growth = exact_means[10] / exact_means[2]
        assert enum_growth > 5.0, f"enumeration grew only {enum_growth:.1f}x"
        print(
            f"  speedup {speedup:.0f}x at k=10; greedy step ratios "
            f"{[f'{g:.2f}' for g in growth]}; enumeration k2->k10 {enum_growth:.0f}x"
        )


def test_criterion_7_quality_sweeps():
    with criterion(7, "greedy quality tracks exact across the parameter grid"):
        instances = [
            random_instance(seed=[700, i], num_attrs=24, n_pos=8, n_neg=8)
            for i in range(50)
        ]
        k_values = (2, 4, 6)
        alpha_values = (0.1, 0.3, 0.5, 0.7, 0.9)
        beta_values = (0.1, 0.5)
        denominators = [cov_ic(inst.tags) for inst in instances]

        ic_points = {}
        dc_points = {}
        ic_half_violations = 0
        for k in k_values:
            for alpha in alpha_values:
                for beta in beta_values:
                    ic_g, ic_e, dc_g, dc_e = [], [], [], []
                    for inst, denom in zip(instances, denominators):
                        params = make_params(k, alpha, beta, inst)
                        g = greedy_ic(inst, params)
                        e = exact_ic(inst, params)
                        ic_g.append(g.objective_value / denom)
                        ic_e.append(e.objective_value / denom)
                        if 2 * g.objective_value < e.objective_value:
                            ic_half_violations += 1
                        gd = greedy_dc(inst, params)
                        ed = exact_dc(inst, params)
                        # Objective-consistent quality: both solvers minimize
                        # theta; the reported quality is their achieved
                        # dependent coverage.
                        gd_cov = cov_dc([inst.tags[i] for i in gd.selection.tag_ids], inst)
                        ed_cov = cov_dc([inst.tags[i] for i in ed.selection.tag_ids], inst)
                        dc_g.append(gd_cov / denom)
                        dc_e.append(ed_cov / denom)
                    point = (k, alpha, beta)
                    ic_points[point] = (np.mean(ic_g), np.mean(ic_e))
                    dc_points[point] = (np.mean(dc_g), np.mean(dc_e))

        all_points = list(ic_points.values()) + list(dc_points.values())
        within = sum(1 for g, e in all_points if g >= 0.9 * e - 1e-12)
        fraction = within / len(all_points)
        assert fraction >= 0.9, f"only {fraction:.0%} of grid points within 10%"
        # The half guarantee is the coverage theorem's; it belongs to the
        # sentiment-blind family.
        assert ic_half_violations == 0

        # Raising the user factor from balance starves the negative side and
        # dependent coverage falls.  (Below 0.5 the symmetric effect mirrors
        # it: balanced vocabularies peak at alpha = 0.5.)
        by_alpha = {
            alpha: np.mean(
                [dc_points[(k, alpha, b)][0] for k in k_values for b in beta_values]
            )
            for alpha in alpha_values
        }
        upper = [by_alpha[a] for a in (0.5, 0.7, 0.9)]
        assert upper[0] >= upper[1] - 1e-12 >= upper[2] - 1e-12, f"not non-increasing: {upper}"
        assert by_alpha[0.9] < by_alpha[0.5]
        print(
            f"  {within}/{len(all_points)} grid points within 10%; "
            f"DC mean coverage by alpha {[f'{by_alpha[a]:.3f}' for a in alpha_values]}"
        )


def test_criterion_8_generator_statistics(tmp_path):
    with criterion(8, "generator group means and checksum determinism at 100k items"):
        config = SynthConfig(num_items=100_000, seed=2024)
        matrix = gen_matrix(config)
        groups = np.array_split(np.arange(config.num_attrs), len(config.group_probs))
        for cols, target in zip(groups, config.group_probs):
            mean = matrix.data[:, cols].mean()
            assert abs(mean - target) < 0.02, f"group {target}: mean {mean:.4f}"

        first = tmp_path / "first.matrix"
        second = tmp_path / "second.matrix"
        save_matrix(matrix, first)
        save_matrix(gen_matrix(config), second)
        h1 = hashlib.sha256(first.read_bytes()).hexdigest()
        h2 = hashlib.sha256(second.read_bytes()).hexdigest()
        assert h1 == h2
        print(f"  group means within 0.02; checksum {h1[:12]}... reproduced")


def test_criterion_9_user_factor_estimation():
    with criterion(9, "ratings averaging 8.0 on a 10 scale give exactly 0.8"):
        group = DemographicRatings("f-18-25-ca", (8.0, 8.0, 8.0), 10.0)
        assert estimate_alpha(group) == 0.8
