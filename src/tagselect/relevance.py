"""Relevance totals, and the bound a selection's relevance must reach.

The beta constraint compares a selection's summed relevance against the best
sum any quota-respecting selection of the same size could reach
(:func:`rel_need`), and a greedy step against the best at its own size
(:func:`step_needs`).  Prefix sums over the per-sentiment sorted relevance
lists make every benchmark an O(x) lookup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterable

from .errors import InfeasiblePolarity
from .model import EPS, Instance, Params, Tag, check_quotas


@dataclass(frozen=True)
class RelBenchmark:
    """Per-sentiment prefix sums of the relevances in descending order.

    ``prefix_pos[i]`` is the sum of the i highest positive relevances
    (``prefix_pos[0] == 0``), so a side holds ``len(prefix_pos) - 1`` tags;
    likewise for negative.  ``stepwise`` keeps, per quota pair (k1, k2)
    requested, the greedy steps' maxima (:func:`step_needs`); equality,
    hashing and repr ignore it.
    """

    prefix_pos: tuple[float, ...]
    prefix_neg: tuple[float, ...]
    stepwise: dict = field(default_factory=dict, compare=False, repr=False)

    @classmethod
    def from_instance(cls, instance: Instance) -> "RelBenchmark":
        return cls(
            prefix_pos=prefix_sums(t.relevance for t in instance.positives()),
            prefix_neg=prefix_sums(t.relevance for t in instance.negatives()),
        )


def prefix_sums(relevances: Iterable[float]) -> tuple[float, ...]:
    """Prefix sums of the relevances in descending order, from 0."""
    return tuple(accumulate(sorted(relevances, reverse=True), initial=0.0))


def rel_total(selection: Iterable[Tag]) -> float:
    """Sum of member relevances, added in iteration order; 0.0 for the
    empty set."""
    return sum((t.relevance for t in selection), 0.0)


def rel_max(benchmark: RelBenchmark, k1: int, k2: int) -> float:
    """Best relevance sum of any selection with exactly k1 positive and k2
    negative tags: the top k1 positives plus the top k2 negatives."""
    check_quotas(k1, k2, len(benchmark.prefix_pos) - 1, len(benchmark.prefix_neg) - 1)
    return benchmark.prefix_pos[k1] + benchmark.prefix_neg[k2]


def stepwise_rel_max(benchmark: RelBenchmark, k1: int, k2: int, x: int) -> float:
    """Best relevance sum of any x-subset whose positive count is <= k1 and
    negative count is <= k2.

    The per-step greedy filter needs this intermediate benchmark because the
    final (k1, k2) split does not pin down the split at size x; we take the
    best over all quota-feasible splits (p, x - p).
    """
    n_pos, n_neg = len(benchmark.prefix_pos) - 1, len(benchmark.prefix_neg) - 1
    lo = max(0, x - min(k2, n_neg))
    hi = min(x, k1, n_pos)
    if lo > hi:
        raise InfeasiblePolarity(
            f"no split of x={x} tags fits quotas (k1={k1}, k2={k2}) with "
            f"{n_pos} positive and {n_neg} negative tags available"
        )
    return max(
        benchmark.prefix_pos[p] + benchmark.prefix_neg[x - p] for p in range(lo, hi + 1)
    )


def rel_need(benchmark: RelBenchmark, params: Params) -> float:
    """The relevance a selection must reach: beta times :func:`rel_max`,
    less ``EPS``."""
    return params.beta * rel_max(benchmark, params.k1, params.k2) - EPS


def step_needs(benchmark: RelBenchmark, params: Params) -> list[float]:
    """The relevance greedy step x's selection must reach, for x = 1 … k1 +
    k2: beta times :func:`stepwise_rel_max`, less ``EPS``.  The maxima
    depend on the quotas alone, so the benchmark keeps them per (k1, k2)."""
    k1, k2 = params.k1, params.k2
    maxima = benchmark.stepwise.get((k1, k2))
    if maxima is None:
        maxima = tuple(stepwise_rel_max(benchmark, k1, k2, x) for x in range(1, k1 + k2 + 1))
        benchmark.stepwise[k1, k2] = maxima
    return [params.beta * best - EPS for best in maxima]
