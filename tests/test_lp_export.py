import re

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tagselect import InfeasiblePolarity, Rule, Sentiment, build_instance, make_params
from tagselect.datagen import random_instance
from tagselect.lp_export import lp_dc, lp_ic, write_lp

from test_coverage import oracle_augmented


@pytest.fixture
def params(camera):
    return make_params(2, 0.5, 0.5, camera)


def section(text, start, end):
    return text.split(start, 1)[1].split(end, 1)[0]


def test_ic_model_structure(camera, params):
    text = lp_ic(camera, params)
    assert text.startswith("\\")
    for keyword in ("Maximize", "Subject To", "Binary", "End"):
        assert keyword in text
    assert " pos_quota:" in text and "= 1" in text
    assert " neg_quota:" in text
    assert " relevance:" in text
    # one coverage link per attribute value
    assert len(re.findall(r"^ cover_\d+:", text, re.M)) == camera.m


def test_ic_objective_covers_all_values(camera, params):
    obj = section(lp_ic(camera, params), "Maximize", "Subject To")
    assert set(re.findall(r"y_(\d+)", obj)) == {str(j) for j in range(camera.m)}


def test_ic_binary_section_lists_every_variable(camera, params):
    binaries = section(lp_ic(camera, params), "Binary", "End")
    assert set(re.findall(r"x_(\d+)", binaries)) == {str(t.id) for t in camera.tags}
    assert len(re.findall(r"y_\d+", binaries)) == camera.m


def test_ic_coverage_links_match_instance(camera, params):
    text = lp_ic(camera, params)
    for j in range(camera.m):
        block = section(text, f" cover_{j}:", ">= 0")
        xs = {int(i) for i in re.findall(r"x_(\d+)", block)}
        assert xs == {t.id for t in camera.tags if j in t.coverage}


def test_dc_model_has_two_sided_links_and_fixed_standins(camera, params):
    text = lp_dc(camera, params)
    assert len(re.findall(r"^ cover_pos_\d+:", text, re.M)) == camera.m
    assert len(re.findall(r"^ cover_neg_\d+:", text, re.M)) == camera.m
    assert "x_dp = 1" in text
    assert "x_dn = 1" in text
    # Color=Red (value 2) is positive-only: every augmented negative plus the
    # stand-in covers it on the negative side.
    neg_block = section(text, " cover_neg_2:", ">= 0")
    assert "x_dn" in neg_block
    for t in camera.negatives():
        assert f"x_{t.id}" in neg_block


def test_relevance_threshold_uses_beta(camera):
    relaxed = lp_ic(camera, make_params(2, 0.5, 0.0, camera))
    block = section(relaxed, " relevance:", "\n cover_0")
    assert ">= -1e-09" in block  # beta 0 with the epsilon guard


def relevance_row(text):
    """The relevance row's coefficients by tag id, and its bound."""
    terms, bound = " ".join(section(text, " relevance:\n", "\n cover_").split()).split(" >= ")
    coefficients = {}
    for term in terms.split(" + "):
        value, name = term.split()
        coefficients[int(name.removeprefix("x_"))] = float(value)
    return coefficients, float(bound)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.lists(st.floats(0.0, 1.0), max_size=6),
    st.lists(st.floats(0.0, 1.0), max_size=6),
    st.integers(1, 6),
    st.sampled_from([0.0, 0.3, 0.5, 1.0]),
)
@example([0.766136872787], [0.262518335482], 2, 0.5)
def test_top_set_satisfies_relevance_row_at_beta_1(pos, neg, k, alpha):
    # Full-precision relevances: the top k1 positives and k2 negatives, the
    # set that reaches rel_max, must satisfy the row the model prints.
    assume(pos or neg)
    rules = [Rule(frozenset({0}), f"p{i}", Sentiment.POSITIVE, r) for i, r in enumerate(pos)]
    rules += [Rule(frozenset({0}), f"n{i}", Sentiment.NEGATIVE, r) for i, r in enumerate(neg)]
    inst = build_instance(rules, m=1)
    try:
        params = make_params(k, alpha, 1.0, inst)
    except InfeasiblePolarity:
        assume(False)
    top = sorted(
        t.id
        for side, q in ((inst.positives(), params.k1), (inst.negatives(), params.k2))
        for t in sorted(side, key=lambda t: t.relevance, reverse=True)[:q]
    )
    for text in (lp_ic(inst, params), lp_dc(inst, params)):
        coefficients, bound = relevance_row(text)
        assert sum(coefficients[i] for i in top) >= bound


def test_write_lp(tmp_path, camera, params):
    path = tmp_path / "model.lp"
    write_lp(camera, params, "dc", path)
    assert path.read_text().rstrip().endswith("End")
    with pytest.raises(ValueError):
        write_lp(camera, params, "nope", path)


def test_dc_cover_rows_match_oracle_augmentation():
    # Each cover_pos_j / cover_neg_j row lists exactly the tags of that side
    # whose augmented coverage holds j, plus the side's stand-in when its
    # vector holds j; one vocabulary has no negative tag.
    cases = [
        random_instance(seed=[611, trial], num_attrs=14, n_pos=5, n_neg=4)
        for trial in range(4)
    ]
    cases.append(random_instance(seed=612, num_attrs=10, n_pos=4, n_neg=0))
    for inst in cases:
        text = lp_dc(inst, make_params(2, 1.0 if inst.n_neg == 0 else 0.5, 0.5, inst))
        aug = oracle_augmented(inst)
        for j in range(inst.m):
            for side, positive, stand_in in (("pos", True, "dp"), ("neg", False, "dn")):
                block = section(text, f" cover_{side}_{j}:", ">= 0")
                expected = {f"x_{t.id}" for t in inst.tags
                            if t.is_positive is positive and j in aug[t.id]}
                if j in aug[stand_in]:
                    expected.add(f"x_{stand_in}")
                assert set(re.findall(r"x_\w+", block)) == expected
