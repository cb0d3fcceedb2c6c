import math
from fractions import Fraction

import numpy as np
import pytest

from tagselect import (
    AttributeOutOfRange,
    EmptyInstance,
    InfeasiblePolarity,
    Rule,
    Sentiment,
    build_instance,
    make_params,
    split_budget,
)

from conftest import by_label, camera_rules

P, N = Sentiment.POSITIVE, Sentiment.NEGATIVE


class TestBuildInstance:
    def test_mask_sets_one_bit_per_covered_value(self, camera):
        assert by_label(camera, "super cool").mask == 1 << 3 | 1 << 6 | 1 << 7
        for t in camera.tags:
            assert {y for y in range(camera.m) if t.mask >> y & 1} == t.coverage

    def test_camera_example(self, camera):
        assert camera.n_pos == 3
        assert camera.n_neg == 3
        stylish = by_label(camera, "stylish")
        assert stylish.relevance == 0.2
        assert stylish.coverage == frozenset({2, 3, 6, 7})

    def test_max_probability_rule_wins(self):
        rules = [
            Rule(frozenset({0}), "t", P, 0.1),
            Rule(frozenset({1}), "t", P, 0.3),
        ]
        inst = build_instance(rules, m=2)
        assert inst.n == 1
        assert inst.tags[0].relevance == 0.3
        assert inst.tags[0].coverage == frozenset({1})

    def test_probability_tie_prefers_larger_antecedent(self):
        rules = [
            Rule(frozenset({0}), "t", P, 0.3),
            Rule(frozenset({1, 2}), "t", P, 0.3),
        ]
        inst = build_instance(rules, m=3)
        assert inst.tags[0].coverage == frozenset({1, 2})

    def test_degenerate_single_rule(self):
        inst = build_instance([Rule(frozenset({0}), "t", P, 1.0)], m=1)
        assert (inst.n_pos, inst.n_neg) == (1, 0)

    def test_same_label_both_sentiments_kept_distinct(self):
        rules = [
            Rule(frozenset({0}), "loud", P, 0.4),
            Rule(frozenset({1}), "loud", N, 0.2),
        ]
        inst = build_instance(rules, m=2)
        assert inst.n == 2
        assert {t.sentiment for t in inst.tags} == {P, N}

    def test_ids_dense_positive_first_label_sorted(self, camera):
        labels = [t.label for t in camera.tags]
        assert labels == [
            "lightweight",
            "stylish",
            "super cool",
            "blurry pictures",
            "gimmicky touchscreen",
            "poor battery life",
        ]
        assert [t.id for t in camera.tags] == list(range(6))

    def test_permutation_independence(self, camera):
        shuffled = list(reversed(camera_rules()))
        rebuilt = build_instance(shuffled, m=8, item_id="camera")
        assert rebuilt == camera

    def test_idempotent_rebuild_from_own_tags(self, camera):
        rules = [
            Rule(t.coverage, t.label, t.sentiment, t.relevance)
            for t in camera.tags
        ]
        rebuilt = build_instance(rules, m=camera.m, item_id=camera.item_id)
        assert rebuilt == camera

    def test_empty_rules_rejected(self):
        with pytest.raises(EmptyInstance):
            build_instance([], m=4)

    def test_out_of_range_antecedent_rejected(self):
        with pytest.raises(AttributeOutOfRange, match=r"'t' .* \[-1, 5\] outside \[0, 3\)"):
            build_instance([Rule(frozenset({0}), "s", P, 0.5),
                            Rule(frozenset({5, 1, -1}), "t", P, 0.5)], m=3)

    def test_bad_universe_size_rejected(self):
        with pytest.raises(ValueError):
            build_instance([Rule(frozenset({0}), "t", P, 0.5)], m=0)

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            Rule(frozenset(), "t", P, 0.5)
        with pytest.raises(ValueError):
            Rule(frozenset({0}), "t", P, 1.5)


class TestParams:
    @pytest.mark.parametrize(
        "k,alpha,expected",
        [(2, 0.5, (1, 1)), (5, 1.0, (5, 0)), (3, 0.5, (2, 1)), (4, 0.0, (0, 4))],
    )
    def test_budget_split(self, k, alpha, expected):
        assert split_budget(k, alpha) == expected

    def test_split_matches_exact_rational_arithmetic(self):
        for k in range(1, 21):
            for num in range(0, 11):
                alpha = Fraction(num, 10)
                k1_exact, k2_exact = split_budget(k, alpha)
                k1_float, k2_float = split_budget(k, num / 10)
                assert k1_exact == math.ceil(alpha * k)
                assert (k1_float, k2_float) == (k1_exact, k2_exact)
                assert k1_float + k2_float == k

    def test_make_params_on_camera(self, camera):
        params = make_params(2, 0.5, 0.5, camera)
        assert (params.k1, params.k2) == (1, 1)

    def test_quota_deficits_reported(self, camera):
        with pytest.raises(InfeasiblePolarity) as exc:
            make_params(10, 0.5, 0.5, camera)
        assert exc.value.pos_deficit == 2
        assert exc.value.neg_deficit == 2

    @pytest.mark.parametrize("k", [2.5, 3.0, "3", None])
    def test_non_integer_budget_rejected(self, camera, k):
        with pytest.raises(ValueError, match=f"budget k must be an integer, got {k}$"):
            make_params(k, 0.5, 0.5, camera)

    def test_numpy_integer_budget_accepted(self, camera):
        params = make_params(np.int64(2), 0.5, 0.5, camera)
        assert (params.k, params.k1, params.k2) == (2, 1, 1)
        assert type(params.k) is int

    def test_argument_validation(self, camera):
        with pytest.raises(ValueError):
            make_params(0, 0.5, 0.5, camera)
        with pytest.raises(ValueError):
            make_params(2, 1.5, 0.5, camera)
        with pytest.raises(ValueError):
            make_params(2, 0.5, -0.1, camera)
