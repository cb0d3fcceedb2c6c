import dataclasses
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tagselect import (
    Infeasible,
    InfeasiblePolarity,
    Rule,
    Sentiment,
    bnb_dc,
    bnb_ic,
    build_instance,
    make_params,
)
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


@pytest.mark.parametrize("export", [lp_ic, lp_dc])
def test_item_id_stays_in_its_comment(camera, params, export):
    # The id comes from a rules-file header: its line breaks must not start
    # a section of their own.
    inst = dataclasses.replace(camera, item_id="cam\nMaximize\r obj: x_0\r\nEnd")
    lines = export(inst, params).splitlines()
    assert lines.count("Maximize") == 1
    assert all(line.startswith("\\") for line in lines[: lines.index("Maximize")])


def test_write_lp(tmp_path, camera, params):
    path = tmp_path / "model.lp"
    write_lp(camera, params, "dc", path)
    assert path.read_text().rstrip().endswith("End")
    with pytest.raises(ValueError):
        write_lp(camera, params, "nope", path)
    for model, export in (("ic", lp_ic), ("dc", lp_dc)):
        write_lp(camera, params, model, path)
        assert path.read_text() == export(camera, params)


def test_dc_model_leaves_the_dc_graph_unbuilt():
    # The model's rows come from the tags' coverage sets, not from the
    # augmented vectors the solvers it cross-checks read.
    inst = random_instance(seed=613, num_attrs=12, n_pos=4, n_neg=3)
    lp_dc(inst, make_params(2, 0.5, 0.5, inst))
    assert "dc_graph" not in vars(inst)


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


def parse_lp(text):
    """Read back the LP subset this package writes: the variables of its
    Binary section, the objective's coefficients, and each constraint as
    (coefficients, sense, right-hand side)."""
    body = " ".join(line for line in text.splitlines() if not line.startswith("\\"))
    head, rest = body.split("Subject To")
    rows_text, binaries = rest.split("Binary")
    names = binaries.split("End")[0].split()
    objective = linear_terms(head.split("obj:")[1])
    rows = [
        (linear_terms(terms), sense, float(rhs))
        for _, terms, sense, rhs in re.findall(r"(\w+):\s(.*?)\s(>=|<=|=)\s(\S+)", rows_text)
    ]
    return names, objective, rows


def linear_terms(text):
    """``{variable: coefficient}`` of a sum such as ``0.5 x_1 + x_2 - y_0``."""
    coefficients, sign, value = {}, 1.0, 1.0
    for token in text.split():
        if token in "+-":
            sign = -1.0 if token == "-" else 1.0
        elif token[0].isalpha():
            coefficients[token] = coefficients.get(token, 0.0) + sign * value
            sign, value = 1.0, 1.0
        else:
            value = float(token)
    return coefficients


def milp_optimum(text):
    """The model's optimum by HiGHS, or None when it is infeasible."""
    optimize = pytest.importorskip("scipy.optimize")
    names, objective, rows = parse_lp(text)
    column = {name: i for i, name in enumerate(names)}
    matrix = np.zeros((len(rows), len(names)))
    lower, upper = np.empty(len(rows)), np.empty(len(rows))
    for r, (coefficients, sense, rhs) in enumerate(rows):
        for name, value in coefficients.items():
            matrix[r, column[name]] = value
        lower[r] = -np.inf if sense == "<=" else rhs
        upper[r] = np.inf if sense == ">=" else rhs
    cost = np.zeros(len(names))
    for name, value in objective.items():
        cost[column[name]] = -value  # milp minimizes
    result = optimize.milp(
        cost,
        constraints=optimize.LinearConstraint(matrix, lower, upper),
        integrality=np.ones(len(names)),
        bounds=optimize.Bounds(0, 1),
    )
    if result.status == 2:
        return None
    assert result.success, result.message
    return -result.fun


def milp_cases(camera):
    """The camera, then random vocabularies, some with no positive tag."""
    yield camera, 0.5
    for trial in range(20):
        rng = np.random.default_rng([614, trial])
        num_attrs, n_pos, n_neg = (int(x) for x in rng.integers([6, 0, 1], [21, 7, 7]))
        inst = random_instance(seed=[615, trial], num_attrs=num_attrs, n_pos=n_pos, n_neg=n_neg)
        yield inst, float(rng.choice([0.0, 0.5, 1.0])) if n_pos else 0.0


def test_exported_models_solve_to_the_branch_and_bound_optimum(camera):
    # HiGHS, an external MILP solver, reads each model back and must reach
    # the optimum of the built-in branch-and-bound.  Only the values are
    # compared: HiGHS does not follow the package's tie rule.
    checks = 0
    for inst, alpha in milp_cases(camera):
        for k in (1, 2, 3):
            for beta in (0.0, 0.5, 0.9):
                try:
                    params = make_params(k, alpha, beta, inst)
                except InfeasiblePolarity:
                    continue
                for export, bnb in ((lp_ic, bnb_ic), (lp_dc, bnb_dc)):
                    try:
                        expected = bnb(inst, params).objective_value
                    except Infeasible:
                        expected = None
                    if expected is not None:
                        expected = pytest.approx(expected, abs=1e-6)
                    optimum = milp_optimum(export(inst, params))
                    assert optimum == expected, (inst.item_id, k, beta, export.__name__)
                    checks += 1
    assert checks > 250
