"""Held-out quality report for the dependent-coverage greedy.

Criterion 3 measures a-dc on the 500 cases of the acceptance suite.  This
suite is drawn apart from it, so that a change to the greedy is judged on
cases it was not tuned against.  It prints a-dc's theta-ratio violations
(theta above twice the enumerated optimum) split by balanced (k1 = k2) and
imbalanced quotas, the largest ratio and the dead ends, and asserts only
what must hold: a full greedy answer never beats the optimum.  Run pytest
with ``-s`` to read the report.
"""

import numpy as np

from tagselect import InfeasiblePolarity, exact_dc, greedy_dc, make_params
from tagselect.datagen import random_instance

SEED = 909090


def heldout_cases(count=2000):
    """Seeded (instance, params) cases: m <= 40, k <= 7, alpha in
    [0.2, 0.8], beta in [0, 1], at most 8 positive and 8 negative tags;
    quotas always satisfiable."""
    cases = []
    i = 0
    while len(cases) < count:
        rng = np.random.default_rng([SEED, i])
        inst = random_instance(
            seed=[SEED, i, 1],
            num_attrs=int(rng.integers(8, 41)),
            n_pos=int(rng.integers(2, 9)),
            n_neg=int(rng.integers(2, 9)),
        )
        k = int(rng.integers(2, 8))
        alpha = float(rng.uniform(0.2, 0.8))
        beta = float(rng.uniform(0.0, 1.0))
        i += 1
        try:
            cases.append((inst, make_params(k, alpha, beta, inst)))
        except InfeasiblePolarity:
            continue
    return cases


def test_heldout_theta_ratio_report():
    cases = heldout_cases()
    # Per quota class: answers, ratios above 2, largest ratio, and answers
    # above a zero optimum, whose ratio is unbounded (criterion 3 flags
    # these apart from its violations).
    split = {"balanced": [0, 0, 0.0, 0], "imbalanced": [0, 0, 0.0, 0]}
    dead_ends = 0
    for inst, params in cases:
        greedy = greedy_dc(inst, params)
        if not greedy.selection.feasible:
            dead_ends += 1
            continue
        theta, opt = greedy.objective_value, exact_dc(inst, params).objective_value
        assert theta >= opt, (inst.item_id, params)
        cls = split["balanced" if params.k1 == params.k2 else "imbalanced"]
        cls[0] += 1
        if opt:
            cls[1] += theta > 2 * opt
            cls[2] = max(cls[2], theta / opt)
        else:
            cls[3] += theta > 0
    print(f"\nheld-out a-dc suite: {len(cases)} cases (seed {SEED}), {dead_ends} dead ends")
    for name, (answers, violations, worst, zero_opt) in split.items():
        print(
            f"  {name}: {violations}/{answers} theta ratios above 2, max ratio "
            f"{worst:.2f}; {zero_opt} above a zero optimum"
        )
