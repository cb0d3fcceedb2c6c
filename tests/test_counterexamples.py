"""Two small instances on which a-dc's theta is three times the optimum.

Every relevance is 0.5 and beta is 0, so only coverage decides.  One case
has balanced quotas (k1 = k2 = 2), the other imbalanced ones (k1 = 1,
k2 = 3), so the factor 2 fails in both quota classes (ROADMAP item 15).
The tests pin today's answers and assert no bound: a change to a-dc that
moves them re-pins them on purpose.
"""

import pytest

from tagselect import Rule, Sentiment, build_instance, exact_dc, greedy_dc, make_params, theta_dc

P, N = Sentiment.POSITIVE, Sentiment.NEGATIVE


def instance(m, positives, negatives):
    rules = [Rule(frozenset(values), label, P, 0.5) for label, values in positives.items()]
    rules += [Rule(frozenset(values), label, N, 0.5) for label, values in negatives.items()]
    return build_instance(rules, m=m)


def answer(inst, report):
    """The selected labels, sorted, and the reported theta, checked against
    theta_dc on the selection."""
    tags = [inst.tags[i] for i in report.selection.sorted_ids()]
    assert report.selection.feasible
    assert report.objective_value == theta_dc(inst.dc_graph, tags)
    return sorted(t.label for t in tags), report.objective_value


CASES = {
    "balanced": (
        instance(
            14,
            {"p1": {13}, "p3": {2, 3, 5, 11}, "p4": {0, 1, 4, 8, 9, 10}},
            {"n9": {5}, "n11": {7, 8}, "n14": {6, 9}, "n16": {0, 2, 4, 7, 12}},
        ),
        0.5,
        (["n11", "n14", "p1", "p3"], 3),
        (["n14", "n16", "p3", "p4"], 1),
    ),
    "imbalanced": (
        instance(
            12,
            {"p0": {11}, "p4": {4, 7}, "p5": {6, 10}, "p6": {0, 1, 2, 3}},
            {"n8": {1}, "n9": {0, 7}, "n10": {4, 8}, "n13": {4, 5, 10, 11}, "n14": {2, 9}},
        ),
        0.25,
        (["n10", "n13", "n14", "p4"], 3),
        (["n10", "n13", "n14", "p5"], 1),
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_greedy_dc_triples_the_optimum(name):
    inst, alpha, greedy, optimum = CASES[name]
    params = make_params(4, alpha, 0.0, inst)
    assert (params.k1, params.k2) == ((2, 2) if name == "balanced" else (1, 3))
    assert answer(inst, greedy_dc(inst, params)) == greedy
    assert answer(inst, exact_dc(inst, params)) == optimum
