import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagselect import AttributeOutOfRange, EmptyInstance, NoData, Rule, Sentiment
from tagselect import datagen
from tagselect.datagen import (
    DemographicRatings,
    SynthConfig,
    SynthMatrix,
    estimate_alpha,
    extract_rules,
    gen_matrix,
    random_instance,
    random_rules,
    sample_instance,
)
from tagselect.errors import TagSelectError
from tagselect.model import build_instance


def small_config(**kw):
    defaults = dict(num_items=2000, num_attrs=20, num_pos_tags=5, num_neg_tags=5, seed=13)
    defaults.update(kw)
    return SynthConfig(**defaults)


class TestGenMatrix:
    def test_shape_and_dtype(self):
        mx = gen_matrix(small_config())
        assert mx.data.shape == (2000, 30)
        assert mx.data.dtype == bool
        assert len(mx.correlated) == 10

    def test_group_means_converge(self):
        mx = gen_matrix(SynthConfig(num_items=30_000, seed=5))
        groups = np.array_split(np.arange(100), 4)
        for cols, p in zip(groups, (0.75, 0.15, 0.10, 0.05)):
            assert abs(mx.data[:, cols].mean() - p) < 0.02

    def test_deterministic(self):
        a = gen_matrix(small_config())
        b = gen_matrix(small_config())
        assert np.array_equal(a.data, b.data)
        assert a.correlated == b.correlated

    def test_seed_changes_output(self):
        a = gen_matrix(small_config())
        b = gen_matrix(small_config(seed=14))
        assert not np.array_equal(a.data, b.data)

    def test_row_prefix_stable_across_sizes(self):
        # The per-block counter scheme makes the first rows independent of
        # how many items follow them.
        big = gen_matrix(small_config(num_items=50_000))
        small = gen_matrix(small_config(num_items=300))
        assert np.array_equal(big.data[:300], small.data)

    def test_all_one_probabilities(self):
        mx = gen_matrix(small_config(group_probs=(1.0, 1.0, 1.0, 1.0)))
        assert mx.data.all()

    def test_majority_is_strict(self):
        configs = (
            # Two generation blocks, no negative tags, and set sizes 2, 3
            # and 4 out of 4 attributes.
            small_config(num_items=datagen.BLOCK_ROWS + 300, num_attrs=4,
                         num_pos_tags=4, num_neg_tags=0, corr_min=2,
                         corr_max=4, group_probs=(0.5,), seed=15),
            small_config(num_items=600, num_attrs=6, num_pos_tags=3,
                         num_neg_tags=3, corr_min=1, corr_max=6,
                         group_probs=(0.5, 0.3), seed=13),
        )
        for config in configs:
            mx = gen_matrix(config)
            assert max(len(c) for c in mx.correlated) == config.num_attrs
            ties = 0
            for row in mx.data.tolist():
                for j, corr in enumerate(mx.correlated):
                    ones = sum(row[y] for y in corr)
                    ties += 2 * ones == len(corr)
                    assert row[config.num_attrs + j] == (2 * ones > len(corr))
            # Even-sized sets with exactly half their attributes set occur,
            # and their tag cells read 0.
            assert ties > 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(num_items=0)
        with pytest.raises(ValueError):
            SynthConfig(num_items=10, group_probs=(0.5, 1.5, 0.1, 0.1))
        with pytest.raises(ValueError):
            SynthConfig(num_items=10, num_attrs=4, corr_min=3, corr_max=8)
        with pytest.raises(ValueError, match="group_probs must hold at least one"):
            SynthConfig(num_items=10, group_probs=())
        with pytest.raises(ValueError, match="at least one tag required"):
            SynthConfig(num_items=10, num_pos_tags=0, num_neg_tags=0)
        # One empty side is a valid vocabulary.
        assert SynthConfig(num_items=10, num_pos_tags=0).num_tags == 50


class TestCatalogue:
    """The 20,000-item catalogue the item-requests benchmark serves from;
    its matrix bytes and rules must not drift."""

    def test_matrix_and_rules_pinned(self):
        mx = gen_matrix(SynthConfig(num_items=20000, group_probs=(0.9, 0.5, 0.3, 0.1), seed=1602))
        assert hashlib.sha256(mx.data.tobytes()).hexdigest() == (
            "86c25e731b78a82b8366ae2bcb564b73499050d99113eff0264d2be170a54b47"
        )
        rules = repr([
            (sorted(r.antecedent), r.tag_label, r.sentiment.value, r.probability)
            for r in extract_rules(mx)
        ])
        assert hashlib.sha256(rules.encode()).hexdigest() == (
            "666397ed76d74f2a13855ec697106aab240a6c08cadfc8f162af5a251ce2c300"
        )


def loop_extract_rules(matrix):
    """Reference for ``extract_rules``: one cell at a time."""
    config = matrix.config
    rules = []
    for j, corr in enumerate(matrix.correlated):
        hits = fires = 0
        for row in matrix.data.tolist():
            if 2 * sum(row[y] for y in corr) > len(corr):
                hits += 1
                fires += row[config.num_attrs + j]
        freq = fires / hits if hits else 0.0
        rules.append(
            Rule(
                antecedent=frozenset(corr),
                tag_label=datagen.tag_labels(config)[j],
                sentiment=datagen.tag_sentiment(config, j),
                probability=min(1.0, max(0.01, freq)),
            )
        )
    return rules


def loop_sample_instance(matrix, rules, item_row):
    """Reference for ``sample_instance``: reads each cell of the row."""
    config = matrix.config
    row = matrix.data[item_row]
    active = []
    for j, rule in enumerate(rules):
        if not row[config.num_attrs + j]:
            continue
        restricted = frozenset(y for y in rule.antecedent if row[y])
        if restricted:
            active.append(replace(rule, antecedent=restricted))
    return build_instance(active, m=config.num_attrs, item_id=f"item-{item_row}")


def outcome(fn, *args):
    try:
        return fn(*args)
    except TagSelectError as exc:
        return type(exc), str(exc)


@st.composite
def matrices(draw):
    num_attrs = draw(st.integers(1, 12))
    corr_max = draw(st.integers(1, num_attrs))
    # One side may be empty; a config without tags is refused.
    num_pos_tags = draw(st.integers(0, 4))
    config = SynthConfig(
        num_items=draw(st.integers(1, 40)),
        num_attrs=num_attrs,
        num_pos_tags=num_pos_tags,
        num_neg_tags=draw(st.integers(0 if num_pos_tags else 1, 4)),
        group_probs=tuple(
            draw(st.lists(st.sampled_from((0.0, 0.1, 0.5, 0.9, 1.0)), min_size=1, max_size=4))
        ),
        seed=draw(st.integers(0, 2**32)),
        corr_min=draw(st.integers(1, corr_max)),
        corr_max=corr_max,
    )
    mx = gen_matrix(config)
    # Doctored matrices: a share of the tag cells disagrees with the majority.
    flip = draw(st.sampled_from((0.0, 0.2, 1.0)))
    if flip:
        data = mx.data.copy()
        tags = data[:, num_attrs:]
        tags ^= np.random.default_rng(draw(st.integers(0, 2**32))).random(tags.shape) < flip
        mx = SynthMatrix(config=config, data=data, correlated=mx.correlated)
    return mx


@settings(max_examples=200, deadline=None, derandomize=True)
@given(matrices())
def test_vectorized_paths_match_cell_loops(mx):
    rules = extract_rules(mx)
    assert rules == loop_extract_rules(mx)
    for row in range(mx.config.num_items):
        assert outcome(sample_instance, mx, rules, row) == outcome(
            loop_sample_instance, mx, rules, row
        )


class TestExtractRules:
    def test_one_rule_per_tag_with_clamped_probabilities(self):
        mx = gen_matrix(small_config())
        rules = extract_rules(mx)
        assert len(rules) == 10
        assert all(0.01 <= r.probability <= 1.0 for r in rules)
        assert sum(r.sentiment is Sentiment.POSITIVE for r in rules) == 5

    def test_tag_generated_by_majority_has_probability_one(self):
        mx = gen_matrix(small_config(group_probs=(0.75, 0.75, 0.75, 0.75)))
        for rule in extract_rules(mx):
            assert rule.probability == 1.0

    def test_single_attribute_antecedent(self):
        mx = gen_matrix(small_config(corr_min=1, corr_max=1))
        for rule in extract_rules(mx):
            assert len(rule.antecedent) == 1
            assert rule.probability == 1.0

    def test_clamp_floor_when_tag_never_fires(self):
        config = small_config(num_items=4, num_attrs=4, num_pos_tags=1,
                              num_neg_tags=0, corr_min=2, corr_max=2)
        base = gen_matrix(config)
        data = base.data.copy()
        data[:, :4] = True
        data[:, 4] = False  # tag column forced off despite majorities
        doctored = SynthMatrix(config=config, data=data, correlated=base.correlated)
        (rule,) = extract_rules(doctored)
        assert rule.probability == 0.01


class TestSampleInstance:
    def test_all_ones_row_keeps_full_antecedents(self):
        config = small_config(group_probs=(1.0, 1.0, 1.0, 1.0))
        mx = gen_matrix(config)
        rules = extract_rules(mx)
        inst = sample_instance(mx, rules, 0)
        assert inst.n == 10
        by_label = {t.label: t for t in inst.tags}
        for j, rule in enumerate(rules):
            assert by_label[rule.tag_label].coverage == rule.antecedent

    def test_all_zero_row_is_empty(self):
        config = small_config(group_probs=(0.0, 0.0, 0.0, 0.0))
        mx = gen_matrix(config)
        rules = extract_rules(mx)
        with pytest.raises(EmptyInstance):
            sample_instance(mx, rules, 0)

    def test_deterministic(self):
        mx = gen_matrix(small_config(num_items=1000))
        rules = extract_rules(mx)
        assert sample_instance(mx, rules, 0) == sample_instance(mx, rules, 0)

    def test_antecedents_restricted_to_active_values(self):
        mx = gen_matrix(small_config(num_items=1000))
        rules = extract_rules(mx)
        for row in range(40):
            try:
                inst = sample_instance(mx, rules, row)
            except EmptyInstance:
                continue
            active = set(np.flatnonzero(mx.data[row, :20]))
            for t in inst.tags:
                assert t.coverage <= active

    @pytest.mark.parametrize("value", [10, 16 + 50, -1], ids=["num_attrs", "past_num_cols", "minus_one"])
    def test_out_of_range_antecedent_raises_on_every_row(self, value):
        config = small_config(num_items=50, num_attrs=10, num_pos_tags=3,
                              num_neg_tags=3, corr_min=2, corr_max=4)
        mx = gen_matrix(config)
        rules = extract_rules(mx)
        rules[2] = replace(rules[2], antecedent=rules[2].antecedent | {value})
        for row in range(config.num_items):
            with pytest.raises(AttributeOutOfRange, match=rf"'pos-002'.*\[{value}\] outside \[0, 10\)"):
                sample_instance(mx, rules, row)

    def test_row_bounds(self):
        mx = gen_matrix(small_config(num_items=10))
        rules = extract_rules(mx)
        with pytest.raises(IndexError):
            sample_instance(mx, rules, 10)


class TestEstimateAlpha:
    def test_worked_number(self):
        assert estimate_alpha(DemographicRatings("g", (8.0,), 10.0)) == 0.8

    def test_scale_maximum(self):
        assert estimate_alpha(DemographicRatings("g", (10.0, 10.0), 10.0)) == 1.0

    def test_plain_mean(self):
        assert estimate_alpha(DemographicRatings("g", (2, 4, 6), 10.0)) == pytest.approx(0.4)

    def test_no_data(self):
        with pytest.raises(NoData):
            estimate_alpha(DemographicRatings("g", (), 10.0))

    def test_rating_outside_scale_rejected(self):
        with pytest.raises(ValueError):
            DemographicRatings("g", (11.0,), 10.0)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        mx = gen_matrix(small_config())
        path = tmp_path / "m.matrix"
        datagen.save_matrix(mx, path)
        back = datagen.load_matrix(path)
        assert back.config == mx.config
        assert back.correlated == mx.correlated
        assert np.array_equal(back.data, mx.data)

    def test_identical_seeds_identical_checksums(self, tmp_path):
        p1, p2 = tmp_path / "a.matrix", tmp_path / "b.matrix"
        datagen.save_matrix(gen_matrix(small_config()), p1)
        datagen.save_matrix(gen_matrix(small_config()), p2)
        assert hashlib.sha256(p1.read_bytes()).digest() == hashlib.sha256(p2.read_bytes()).digest()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"not a matrix")
        with pytest.raises(ValueError):
            datagen.load_matrix(path)

    @pytest.mark.parametrize("edit", [lambda raw: raw[:-200], lambda raw: raw + b"\x00"],
                             ids=["short", "trailing"])
    def test_payload_of_wrong_length_rejected(self, tmp_path, edit):
        path = tmp_path / "m.matrix"
        datagen.save_matrix(gen_matrix(small_config()), path)
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(ValueError, match="payload holds"):
            datagen.load_matrix(path)

    def test_csv_export(self, tmp_path):
        mx = gen_matrix(small_config(num_items=50))
        path = tmp_path / "m.csv"
        datagen.export_matrix_csv(mx, path, max_rows=10)
        lines = path.read_text().splitlines()
        assert len(lines) == 11
        assert lines[0].count(",") == 29

    def test_csv_export_rejects_negative_rows(self, tmp_path):
        path = tmp_path / "m.csv"
        with pytest.raises(ValueError, match="max_rows must be >= 0"):
            datagen.export_matrix_csv(gen_matrix(small_config(num_items=50)), path, max_rows=-1)
        assert not path.exists()


class TestRandomInstances:
    def test_deterministic(self):
        a = random_instance(seed=99, num_attrs=16, n_pos=6, n_neg=6)
        b = random_instance(seed=99, num_attrs=16, n_pos=6, n_neg=6)
        assert a == b

    @pytest.mark.parametrize(
        "sizes, fragment",
        [
            ((16, -1, 4), "tag counts must be >= 0, got -1 positive and 4 negative"),
            ((16, 6, -2), "tag counts must be >= 0, got 6 positive and -2 negative"),
            ((0, 6, 4), "attribute count must be >= 1, got 0"),
            ((-2, 6, 4), "attribute count must be >= 1, got -2"),
            ((16, 0, 0), "at least one tag required; both tag counts are 0"),
        ],
    )
    def test_bad_sizes_rejected(self, sizes, fragment):
        num_attrs, n_pos, n_neg = sizes
        with pytest.raises(ValueError, match=fragment):
            random_instance(seed=1, num_attrs=num_attrs, n_pos=n_pos, n_neg=n_neg)
        with pytest.raises(ValueError, match=fragment):
            random_rules(np.random.default_rng(1), num_attrs, n_pos, n_neg)

    @pytest.mark.parametrize("cover", [(0, 0), (2, 0), (-3, -1), (0, 6), (5, 4)])
    def test_bad_cover_sizes_rejected(self, cover):
        cover_min, cover_max = cover
        fragment = rf"got cover_min={cover_min} and cover_max={cover_max}"
        with pytest.raises(ValueError, match=fragment):
            random_instance(seed=1, num_attrs=16, cover_min=cover_min, cover_max=cover_max)
        with pytest.raises(ValueError, match=fragment):
            random_rules(np.random.default_rng(1), 16, 6, 4, cover_min, cover_max)

    def test_cover_max_clamped_to_attributes(self):
        inst = random_instance(seed=1, num_attrs=3, n_pos=4, n_neg=4, cover_min=2, cover_max=9)
        assert all(2 <= len(t.coverage) <= 3 for t in inst.tags)

    def test_shape(self):
        inst = random_instance(seed=1, num_attrs=16, n_pos=6, n_neg=4)
        assert (inst.n_pos, inst.n_neg, inst.m) == (6, 4, 16)
        assert all(0.01 <= t.relevance <= 1.0 for t in inst.tags)
