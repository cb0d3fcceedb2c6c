from itertools import combinations
from types import SimpleNamespace

import pytest

from tagselect import InfeasiblePolarity, RelBenchmark, rel_max, rel_total, stepwise_rel_max
from tagselect.datagen import random_instance

from conftest import pick


def brute_force_rel_max(instance, k1, k2):
    """Independent oracle: best relevance sum over all exact (k1, k2) subsets."""
    best = None
    for pos in combinations(instance.positives(), k1):
        for neg in combinations(instance.negatives(), k2):
            total = sum(t.relevance for t in pos + neg)
            if best is None or total > best:
                best = total
    return best


class TestRelTotal:
    def test_pair_sum(self, camera):
        assert rel_total(pick(camera, "stylish", "blurry pictures")) == pytest.approx(0.32)

    def test_empty(self):
        assert rel_total([]) == 0.0

    def test_worked_pair(self, camera):
        sel = pick(camera, "stylish", "poor battery life")
        assert rel_total(sel) == pytest.approx(0.33)

    def test_adds_in_iteration_order(self):
        # Ten plain additions of 0.1 round to just below 1.0; the
        # compensated float sum of Python 3.12+ would give exactly 1.0.
        # The greedy routes' relevance is this in-order sum of their picks.
        tenths = [SimpleNamespace(relevance=0.1)] * 10
        assert repr(rel_total(tenths)) == "0.9999999999999999"

    def test_additivity(self, camera):
        base = pick(camera, "stylish")
        extra = pick(camera, "blurry pictures")[0]
        assert rel_total(base + [extra]) == pytest.approx(
            rel_total(base) + extra.relevance
        )


class TestRelMax:
    def test_camera_one_one(self, camera):
        bench = RelBenchmark.from_instance(camera)
        assert rel_max(bench, 1, 1) == pytest.approx(0.45)

    def test_camera_one_zero(self, camera):
        bench = RelBenchmark.from_instance(camera)
        assert rel_max(bench, 1, 0) == pytest.approx(0.30)

    def test_zero_quota(self, camera):
        bench = RelBenchmark.from_instance(camera)
        assert rel_max(bench, 0, 0) == 0.0

    def test_quota_exceeds_tags(self, camera):
        bench = RelBenchmark.from_instance(camera)
        with pytest.raises(InfeasiblePolarity):
            rel_max(bench, 4, 0)

    def test_prefix_arrays_monotone(self, camera):
        bench = RelBenchmark.from_instance(camera)
        for prefix in (bench.prefix_pos, bench.prefix_neg):
            assert prefix[0] == 0.0
            assert all(a <= b for a, b in zip(prefix, prefix[1:]))

    def test_matches_brute_force_on_random_instances(self):
        for trial in range(30):
            inst = random_instance(seed=[301, trial], num_attrs=12, n_pos=6, n_neg=6)
            bench = RelBenchmark.from_instance(inst)
            for k1 in range(0, 4):
                for k2 in range(0, 4):
                    assert rel_max(bench, k1, k2) == pytest.approx(
                        brute_force_rel_max(inst, k1, k2), abs=1e-12
                    )


class TestStepwiseRelMax:
    def test_camera_step_one(self, camera):
        bench = RelBenchmark.from_instance(camera)
        assert stepwise_rel_max(bench, 1, 1, 1) == pytest.approx(0.30)

    def test_camera_step_two(self, camera):
        bench = RelBenchmark.from_instance(camera)
        assert stepwise_rel_max(bench, 1, 1, 2) == pytest.approx(0.45)

    def test_negative_only_split(self, camera):
        bench = RelBenchmark.from_instance(camera)
        assert stepwise_rel_max(bench, 0, 1, 1) == pytest.approx(0.15)

    def test_monotone_in_x(self):
        for trial in range(20):
            inst = random_instance(seed=[302, trial], num_attrs=10, n_pos=5, n_neg=5)
            bench = RelBenchmark.from_instance(inst)
            k1, k2 = 3, 2
            values = [stepwise_rel_max(bench, k1, k2, x) for x in range(1, 6)]
            assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_final_step_equals_rel_max(self):
        for trial in range(20):
            inst = random_instance(seed=[303, trial], num_attrs=10, n_pos=5, n_neg=5)
            bench = RelBenchmark.from_instance(inst)
            assert stepwise_rel_max(bench, 3, 2, 5) == pytest.approx(rel_max(bench, 3, 2))

    def test_matches_brute_force_over_splits(self):
        inst = random_instance(seed=304, num_attrs=12, n_pos=5, n_neg=5)
        bench = RelBenchmark.from_instance(inst)
        for x in range(1, 5):
            best = max(
                brute_force_rel_max(inst, p, x - p)
                for p in range(0, x + 1)
                if p <= 3 and x - p <= 2 and p <= 5 and x - p <= 5
            )
            assert stepwise_rel_max(bench, 3, 2, x) == pytest.approx(best, abs=1e-12)

    def test_no_feasible_split(self, camera):
        bench = RelBenchmark.from_instance(camera)
        with pytest.raises(InfeasiblePolarity):
            stepwise_rel_max(bench, 0, 0, 1)
