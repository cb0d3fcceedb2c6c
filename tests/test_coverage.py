"""Coverage objectives against independent set-algebra oracles.

The oracles below work on plain frozensets and never touch the package's
bitmask representation, so they stay an independent route for every value
they confirm.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagselect import (
    Rule,
    Sentiment,
    Tag,
    build_dc_graph,
    build_instance,
    cov_dc,
    cov_ic,
    theta_dc,
)
from tagselect.coverage import theta_mask
from tagselect.datagen import random_instance
from tagselect.model import union_mask

from conftest import pick

P, N = Sentiment.POSITIVE, Sentiment.NEGATIVE


def oracle_cov_ic(selection):
    covered = set()
    for t in selection:
        covered |= t.coverage
    return len(covered)


def oracle_cov_dc(selection, instance):
    pos = set().union(*(t.coverage for t in selection if t.is_positive), set())
    neg = set().union(*(t.coverage for t in selection if not t.is_positive), set())
    all_pos = set().union(*(t.coverage for t in instance.positives()), set())
    all_neg = set().union(*(t.coverage for t in instance.negatives()), set())
    return len(pos & neg) + len(pos - all_neg) + len(neg - all_pos)


@st.composite
def selections(draw):
    """A random vocabulary over m values (m > 64 included, so masks span
    words) and a random subset of its tags: empty, one-sided and
    single-member sides all occur."""
    m = draw(st.integers(1, 150))
    n_pos = draw(st.integers(0, 5))
    n_neg = draw(st.integers(0 if n_pos else 1, 5))
    rules = [
        Rule(
            draw(st.frozensets(st.integers(0, m - 1), min_size=1, max_size=m)),
            f"t{j}",
            P if j < n_pos else N,
            0.5,
        )
        for j in range(n_pos + n_neg)
    ]
    inst = build_instance(rules, m=m)
    chosen = draw(st.sets(st.integers(0, inst.n - 1)))
    return inst, [inst.tags[i] for i in sorted(chosen)]


def positions(mask):
    """Bit positions set in ``mask``, read one position at a time."""
    return frozenset(y for y in range(mask.bit_length()) if mask >> y & 1)


def oracle_augmented(instance):
    """Augmented coverage sets, including the two stand-ins keyed 'dp'/'dn'."""
    all_pos = set().union(*(t.coverage for t in instance.positives()), set())
    all_neg = set().union(*(t.coverage for t in instance.negatives()), set())
    only_pos, only_neg = all_pos - all_neg, all_neg - all_pos
    aug = {
        t.id: set(t.coverage) | (only_neg if t.is_positive else only_pos)
        for t in instance.tags
    }
    aug["dp"] = set(only_neg)
    aug["dn"] = set(only_pos)
    return aug


def oracle_theta(instance, selection):
    aug = oracle_augmented(instance)
    pos = [aug[t.id] for t in selection if t.is_positive] or [aug["dp"]]
    neg = [aug[t.id] for t in selection if not t.is_positive] or [aug["dn"]]
    cross = set()
    for a in pos:
        for b in neg:
            cross |= a ^ b
    intra = set()
    for side in (
        [aug[t.id] for t in selection if t.is_positive],
        [aug[t.id] for t in selection if not t.is_positive],
    ):
        for a, b in combinations(side, 2):
            intra |= a ^ b
    return len(cross - intra)


class TestCovIC:
    def test_camera_triple(self, camera):
        sel = pick(camera, "super cool", "stylish", "gimmicky touchscreen")
        assert cov_ic(sel) == 5

    def test_camera_pair_against_oracle(self, camera):
        sel = pick(camera, "stylish", "blurry pictures")
        assert oracle_cov_ic(sel) == 7
        assert cov_ic(sel) == 7

    def test_empty(self):
        assert cov_ic([]) == 0

    def test_agrees_with_oracle_on_random_selections(self):
        rng = np.random.default_rng(7)
        for trial in range(50):
            inst = random_instance(seed=[401, trial], num_attrs=16, n_pos=5, n_neg=5)
            size = int(rng.integers(0, inst.n + 1))
            sel = [inst.tags[i] for i in rng.choice(inst.n, size=size, replace=False)]
            assert cov_ic(sel) == oracle_cov_ic(sel)

    def test_monotone_and_submodular(self):
        rng = np.random.default_rng(8)
        for trial in range(300):
            inst = random_instance(seed=[402, trial], num_attrs=12, n_pos=5, n_neg=5)
            ids = list(rng.permutation(inst.n))
            cut1, cut2 = sorted(rng.integers(0, inst.n, size=2))
            small = [inst.tags[i] for i in ids[:cut1]]
            large = [inst.tags[i] for i in ids[:cut2]]
            t = inst.tags[ids[-1]] if ids[cut2:] else None
            assert cov_ic(large) >= cov_ic(small)
            if t is not None:
                gain_small = cov_ic(small + [t]) - cov_ic(small)
                gain_large = cov_ic(large + [t]) - cov_ic(large)
                assert gain_small >= gain_large


class TestCovDC:
    def test_camera_triple(self, camera):
        sel = pick(camera, "super cool", "stylish", "gimmicky touchscreen")
        assert cov_dc(sel, camera) == 3

    def test_camera_pair_against_oracle(self, camera):
        sel = pick(camera, "stylish", "poor battery life")
        assert oracle_cov_dc(sel, camera) == 4
        assert cov_dc(sel, camera) == 4

    def test_empty(self, camera):
        assert cov_dc([], camera) == 0

    def test_agrees_with_oracle_on_random_selections(self):
        rng = np.random.default_rng(9)
        for trial in range(80):
            inst = random_instance(seed=[403, trial], num_attrs=14, n_pos=5, n_neg=5)
            size = int(rng.integers(0, inst.n + 1))
            sel = [inst.tags[i] for i in rng.choice(inst.n, size=size, replace=False)]
            assert cov_dc(sel, inst) == oracle_cov_dc(sel, inst)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(selections())
    def test_two_sided_form_against_oracle(self, case):
        # The form bnb_dc maximizes and exact_dc counts: both sides' unions,
        # each extended by the values only the other side's vocabulary
        # covers (the OR of that side's augmented vectors).
        inst, sel = case
        pos_cover = union_mask(inst.positives())
        neg_cover = union_mask(inst.negatives())
        only_pos = pos_cover & ~neg_cover
        only_neg = neg_cover & ~pos_cover
        pos = union_mask(t for t in sel if t.is_positive)
        neg = union_mask(t for t in sel if not t.is_positive)
        expected = oracle_cov_dc(sel, inst)
        assert ((pos | only_neg) & (neg | only_pos)).bit_count() == expected
        assert cov_dc(sel, inst) == expected

    def test_gain_can_grow_with_the_set(self):
        # A positive tag whose matching negative is present only in the
        # superset: its gain there strictly exceeds its gain at the subset.
        rules = [
            Rule(frozenset({0}), "a-pos", P, 0.5),
            Rule(frozenset({0}), "x-neg", N, 0.5),
            Rule(frozenset({1}), "y-neg", N, 0.5),
        ]
        inst = build_instance(rules, m=2)
        a_pos = pick(inst, "a-pos")[0]
        small = pick(inst, "y-neg")
        large = pick(inst, "x-neg", "y-neg")
        gain_small = cov_dc(small + [a_pos], inst) - cov_dc(small, inst)
        gain_large = cov_dc(large + [a_pos], inst) - cov_dc(large, inst)
        assert gain_small == 0
        assert gain_large == 1
        assert gain_large > gain_small


class TestDCGraph:
    def test_camera_one_sided_values(self, camera):
        g = build_dc_graph(camera)
        assert positions(g.only_pos_mask) == frozenset({2})
        assert positions(g.only_neg_mask) == frozenset({5})

    def test_camera_augmentation(self, camera):
        g = build_dc_graph(camera)
        aug = oracle_augmented(camera)
        for t in camera.tags:
            assert positions(g.aug_mask(t)) == aug[t.id]
        assert positions(g.only_neg_mask) == aug["dp"]
        assert positions(g.only_pos_mask) == aug["dn"]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(selections())
    def test_augmentation_against_oracle(self, case):
        # Every tag's augmented vector and both stand-in vectors, on
        # vocabularies of up to 150 values with either side possibly empty.
        inst, _ = case
        g = build_dc_graph(inst)
        aug = oracle_augmented(inst)
        for t in inst.tags:
            assert positions(g.aug_mask(t)) == aug[t.id]
        assert positions(g.only_neg_mask) == aug["dp"]
        assert positions(g.only_pos_mask) == aug["dn"]
        assert g.stand_ins == tuple(sum(1 << y for y in aug[d]) for d in ("dp", "dn"))

    def test_two_sided_instance_augments_nothing(self):
        rules = [
            Rule(frozenset({0, 1}), "p", P, 0.5),
            Rule(frozenset({0, 1}), "n", N, 0.5),
        ]
        inst = build_instance(rules, m=2)
        g = build_dc_graph(inst)
        assert g.only_pos_mask == 0
        assert g.only_neg_mask == 0
        for t in inst.tags:
            assert positions(g.aug_mask(t)) == t.coverage

    def test_all_positive_instance(self):
        rules = [
            Rule(frozenset({0}), "p1", P, 0.5),
            Rule(frozenset({1}), "p2", P, 0.5),
        ]
        inst = build_instance(rules, m=2)
        g = build_dc_graph(inst)
        # The negative stand-in carries both values, the positive one none.
        assert positions(g.only_pos_mask) == frozenset({0, 1})
        assert g.only_neg_mask == 0


class TestEdgeLabel:
    """An edge label is the set of values on which two augmented vectors
    differ: the XOR of their masks."""

    def test_stylish_poor_battery(self, camera):
        g = build_dc_graph(camera)
        t1, t2 = pick(camera, "stylish", "poor battery life")
        assert positions(g.aug_mask(t1) ^ g.aug_mask(t2)) == frozenset({5})

    def test_dummy_pair(self, camera):
        # The two stand-ins differ on every one-sided value.
        g = build_dc_graph(camera)
        assert positions(g.only_neg_mask ^ g.only_pos_mask) == frozenset({2, 5})

    def test_non_member_rejected(self, camera):
        g = build_dc_graph(camera)
        other = random_instance(seed=405, num_attrs=8, n_pos=7, n_neg=7)
        with pytest.raises(KeyError, match=r"tag 10 \('neg-010'\) is not a member of this graph"):
            g.aug_mask(other.tags[10])


class TestThetaDC:
    def test_camera_worked_pair(self, camera):
        g = build_dc_graph(camera)
        assert theta_dc(g, pick(camera, "stylish", "poor battery life")) == 1

    def test_identical_vectors_score_zero(self):
        rules = [
            Rule(frozenset({0, 1}), "p", P, 0.5),
            Rule(frozenset({0, 1}), "n", N, 0.5),
        ]
        inst = build_instance(rules, m=2)
        g = build_dc_graph(inst)
        assert theta_dc(g, list(inst.tags)) == 0

    def test_camera_pair_against_oracle(self, camera):
        g = build_dc_graph(camera)
        sel = pick(camera, "super cool", "poor battery life")
        expected = oracle_theta(camera, sel)
        assert expected == 2  # frozen from the oracle
        assert theta_dc(g, sel) == expected

    def test_empty_selection_scores_the_dummy_edge(self, camera):
        g = build_dc_graph(camera)
        assert theta_dc(g, []) == (g.only_pos_mask | g.only_neg_mask).bit_count() == 2

    def test_empty_selection_on_random_instances(self):
        for trial in range(20):
            inst = random_instance(seed=[406, trial], num_attrs=14, n_pos=5, n_neg=5)
            g = build_dc_graph(inst)
            assert theta_dc(g, []) == len(positions(g.only_pos_mask) | positions(g.only_neg_mask))

    def test_agrees_with_oracle_on_random_selections(self):
        rng = np.random.default_rng(10)
        for trial in range(80):
            inst = random_instance(seed=[407, trial], num_attrs=14, n_pos=5, n_neg=5)
            g = build_dc_graph(inst)
            size = int(rng.integers(0, inst.n + 1))
            sel = [inst.tags[i] for i in rng.choice(inst.n, size=size, replace=False)]
            assert theta_dc(g, sel) == oracle_theta(inst, sel)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(selections())
    def test_closed_form_against_oracle(self, case):
        inst, sel = case
        assert theta_dc(build_dc_graph(inst), sel) == oracle_theta(inst, sel)

    def test_one_sided_selection_uses_the_stand_in(self, camera):
        g = build_dc_graph(camera)
        sel = pick(camera, "stylish")
        aug = oracle_augmented(camera)
        assert theta_dc(g, sel) == len(aug[sel[0].id] ^ aug["dn"])

    def test_dummy_in_selection_rejected(self, camera):
        # A tag past the instance's ids, such as a stand-in made a Tag, is
        # not a member of the graph.
        g = build_dc_graph(camera)
        for tag_id, sentiment in ((camera.n, P), (camera.n + 1, N)):
            stand_in = Tag(tag_id, "stand-in", sentiment, 0.0, frozenset())
            with pytest.raises(KeyError, match="is not a member of this graph"):
                theta_dc(g, [stand_in])


@st.composite
def side_masks(draw):
    """m and each side's (OR, AND) over one to four vectors of m bits; one
    vector is a stand-in, whose OR equals its AND.  A vector is a set of
    positions or its complement, so that sparse and dense vectors both
    reach the last word."""
    m = draw(st.integers(1, 150))
    full = (1 << m) - 1
    sides = []
    for _ in range(2):
        or_, and_ = 0, full
        for _ in range(draw(st.integers(1, 4))):
            v = sum(1 << i for i in draw(st.frozensets(st.integers(0, m - 1))))
            if draw(st.booleans()):
                v ^= full
            or_, and_ = or_ | v, and_ & v
        sides.append((or_, and_))
    return m, sides


class TestThetaMask:
    """theta_mask equals the agreement form: both sides constant, and the
    sides apart."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(side_masks())
    def test_agreement_form_and_range(self, case):
        m, ((or_pos, and_pos), (or_neg, and_neg)) = case
        theta = theta_mask(or_pos, and_pos, or_neg, and_neg)
        intra = (or_pos ^ and_pos) | (or_neg ^ and_neg)
        assert theta == (or_pos ^ or_neg) & ~intra
        assert 0 <= theta < 1 << m
