"""Relevance totals and best-achievable relevance benchmarks.

The beta constraint compares a selection's summed relevance against the best
sum any quota-respecting selection of the same size could reach.  Prefix sums
over the per-sentiment sorted relevance lists make every benchmark an O(x)
lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import InfeasiblePolarity
from .model import Instance, Tag, check_quotas


@dataclass(frozen=True)
class RelBenchmark:
    """Descending per-sentiment relevances with prefix-sum arrays.

    ``prefix_pos[i]`` is the sum of the i highest positive relevances
    (``prefix_pos[0] == 0``); likewise for negative.
    """

    sorted_pos: tuple[float, ...]
    sorted_neg: tuple[float, ...]
    prefix_pos: tuple[float, ...]
    prefix_neg: tuple[float, ...]

    @classmethod
    def from_instance(cls, instance: Instance) -> "RelBenchmark":
        sp = tuple(sorted((t.relevance for t in instance.positives()), reverse=True))
        sn = tuple(sorted((t.relevance for t in instance.negatives()), reverse=True))
        return cls(
            sorted_pos=sp,
            sorted_neg=sn,
            prefix_pos=_prefix(sp),
            prefix_neg=_prefix(sn),
        )


def _prefix(values: tuple[float, ...]) -> tuple[float, ...]:
    out = [0.0]
    for v in values:
        out.append(out[-1] + v)
    return tuple(out)


def rel_total(selection: Iterable[Tag]) -> float:
    """Sum of member relevances; 0 for the empty set."""
    return sum(t.relevance for t in selection)


def rel_max(benchmark: RelBenchmark, k1: int, k2: int) -> float:
    """Best relevance sum of any selection with exactly k1 positive and k2
    negative tags: the top k1 positives plus the top k2 negatives."""
    check_quotas(k1, k2, len(benchmark.sorted_pos), len(benchmark.sorted_neg))
    return benchmark.prefix_pos[k1] + benchmark.prefix_neg[k2]


def stepwise_rel_max(benchmark: RelBenchmark, k1: int, k2: int, x: int) -> float:
    """Best relevance sum of any x-subset whose positive count is <= k1 and
    negative count is <= k2.

    The per-step greedy filter needs this intermediate benchmark because the
    final (k1, k2) split does not pin down the split at size x; we take the
    best over all quota-feasible splits (p, x - p).
    """
    n_pos = len(benchmark.sorted_pos)
    n_neg = len(benchmark.sorted_neg)
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
