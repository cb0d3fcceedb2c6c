"""Instance data model: rules, sentiment-labeled tags, and solve parameters.

Raw rules are normalized into an immutable :class:`Instance` whose tags have
dense, deterministic ids.  Everything here is safe to share across concurrent
solver calls; nothing mutates after construction.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import AttributeOutOfRange, EmptyInstance, InfeasiblePolarity

if TYPE_CHECKING:
    from .coverage import DCGraph
    from .relevance import RelBenchmark

# Guard subtracted before ceilings / added to >= tests so that binary float
# representation of values like 0.5 * 2 cannot flip an integer boundary.
EPS = 1e-9


class Sentiment(Enum):
    POSITIVE = "+"
    NEGATIVE = "-"

    def __str__(self) -> str:
        return self.value


# A module global reads faster than the enum's class attribute, which the
# per-tag sentiment tests below would otherwise look up on every call.
_POSITIVE = Sentiment.POSITIVE


@dataclass(frozen=True)
class Rule:
    """One mined association: a set of attribute values elicits a tag.

    ``probability`` is the rule's occurrence probability and becomes the
    tag's relevance when this rule wins normalization.
    """

    antecedent: frozenset[int]
    tag_label: str
    sentiment: Sentiment
    probability: float

    def __post_init__(self):
        if not self.antecedent:
            raise ValueError(f"rule for {self.tag_label!r} has an empty antecedent")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"rule for {self.tag_label!r} has probability {self.probability} outside [0, 1]"
            )
        object.__setattr__(self, "antecedent", frozenset(self.antecedent))


@dataclass(frozen=True)
class Tag:
    """A sentiment-labeled phrase with its relevance and covered values."""

    id: int
    label: str
    sentiment: Sentiment
    relevance: float
    coverage: frozenset[int]

    @cached_property
    def mask(self) -> int:
        """Coverage as a bit vector packed into an int (bit y = value y)."""
        m = 0
        for y in self.coverage:
            m |= 1 << y
        return m

    @property
    def is_positive(self) -> bool:
        return self.sentiment is _POSITIVE

    def annotated(self) -> str:
        return f"{self.label} ({self.sentiment})"


@dataclass(frozen=True)
class Instance:
    """An item's attribute-value universe plus its normalized tag vocabulary.

    Tag ids are dense in ``[0, n)``: positives first, each sentiment block
    ordered by label, so ids are a permutation-independent function of the
    rule multiset.
    """

    item_id: str
    m: int
    tags: tuple[Tag, ...]
    n_pos: int
    n_neg: int

    @property
    def n(self) -> int:
        return len(self.tags)

    def positives(self) -> tuple[Tag, ...]:
        return self.tags[: self.n_pos]

    def negatives(self) -> tuple[Tag, ...]:
        return self.tags[self.n_pos :]

    @cached_property
    def pos_cover_mask(self) -> int:
        """Union of every positive tag's coverage (vocabulary-wide)."""
        m = 0
        for t in self.positives():
            m |= t.mask
        return m

    @cached_property
    def neg_cover_mask(self) -> int:
        """Union of every negative tag's coverage (vocabulary-wide)."""
        m = 0
        for t in self.negatives():
            m |= t.mask
        return m

    # The solve inputs below depend on the instance alone, so each is built
    # on first use and kept, like the cover masks above.  They live outside
    # the dataclass fields: equality, hashing and repr ignore them.  The
    # per-side columns are tuples of the tags' own floats and ints.

    @cached_property
    def rel_benchmark(self) -> RelBenchmark:
        """The relevance prefix sums (:meth:`RelBenchmark.from_instance`)."""
        from .relevance import RelBenchmark

        return RelBenchmark.from_instance(self)

    @cached_property
    def dc_graph(self) -> DCGraph:
        """The one-sided masks (:func:`build_dc_graph`)."""
        from .coverage import build_dc_graph

        return build_dc_graph(self)

    @cached_property
    def side_relevances(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Each side's relevances, positives first, in id order."""
        return (
            tuple(t.relevance for t in self.positives()),
            tuple(t.relevance for t in self.negatives()),
        )

    @cached_property
    def side_masks(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Each side's coverage masks, positives first, in id order."""
        return (
            tuple(t.mask for t in self.positives()),
            tuple(t.mask for t in self.negatives()),
        )

    @cached_property
    def search_order(self) -> tuple:
        """Branch-and-bound's visiting order and the tables its bounds read,
        as ``(tags, masks, relevances, size, rest, top_pos, top_neg)``.

        ``tags`` holds the positives, then the negatives, each side by
        descending coverage size, then id; ``masks`` and ``relevances``
        follow it.  ``size[j] - size[i]`` sums the coverage sizes of
        ``tags[i:j]``; ``rest[i]`` is the union of ``tags[i:]`` up to the
        end of ``tags[i]``'s side; ``top_pos[i][q]`` and ``top_neg[i][q]``
        sum the q largest relevances of that side among ``tags[i:]``.
        """
        tags = tuple(
            sorted(self.tags, key=lambda t: (not t.is_positive, -t.mask.bit_count(), t.id))
        )
        masks = tuple(t.mask for t in tags)
        rels = tuple(t.relevance for t in tags)
        size = tuple(accumulate((m.bit_count() for m in masks), initial=0))
        n, n_pos = len(tags), self.n_pos
        rest = [0] * (n + 1)
        for i in range(n - 1, -1, -1):
            rest[i] = masks[i] | (0 if i + 1 == n_pos else rest[i + 1])
        return (
            tags, masks, rels, size, tuple(rest),
            _suffix_top(rels, 0, n_pos), _suffix_top(rels, n_pos, n),
        )


def _suffix_top(rels: Sequence[float], start: int, stop: int) -> tuple[tuple[float, ...], ...]:
    """``rows[i][q]``: sum of the q largest of ``rels[max(i, start):stop]``,
    for every i from 0 to ``len(rels)``."""
    n = len(rels)
    rows = [(0.0,)] * (n + 1)
    held: list[float] = []
    for i in range(n - 1, -1, -1):
        if start <= i < stop:
            held.append(rels[i])
            held.sort(reverse=True)
            rows[i] = tuple(accumulate(held, initial=0.0))
        else:
            rows[i] = rows[i + 1]
    return tuple(rows)


@dataclass(frozen=True)
class Params:
    """A solve request: budget k split into sentiment quotas (k1, k2).

    The polarity constraint is carried as the exact integer pair, never as
    the ratio k1/k2, so alpha = 0 and alpha = 1 are well-defined.
    """

    k: int
    alpha: float
    beta: float
    k1: int
    k2: int


@dataclass(frozen=True)
class Selection:
    """A result set with its objective value and feasibility flag."""

    tag_ids: frozenset[int]
    rel_total: float
    objective_kind: str  # "cov_ic" | "cov_dc" | "theta_dc"
    objective_value: int
    feasible: bool

    def sorted_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.tag_ids))


def _rule_sort_key(rule: Rule) -> tuple:
    # Among rules for the same (label, sentiment): keep highest probability,
    # then the largest antecedent, then a fixed order on the antecedent itself.
    return (rule.probability, len(rule.antecedent), tuple(sorted(rule.antecedent)))


def check_antecedents(rules: Sequence[Rule], m: int) -> None:
    """Raise :class:`AttributeOutOfRange` for the first rule with an
    antecedent value outside ``[0, m)``."""
    # One union and its bounds clear the common case, where all values fit.
    values = set().union(*[rule.antecedent for rule in rules])
    if not values or (min(values) >= 0 and max(values) < m):
        return
    for rule in rules:
        bad = sorted(y for y in rule.antecedent if y < 0 or y >= m)
        if bad:
            raise AttributeOutOfRange(
                f"rule for {rule.tag_label!r} references attribute value(s) "
                f"{bad} outside [0, {m})"
            )


def build_instance(rules: Sequence[Rule], m: int, item_id: str = "item") -> Instance:
    """Normalize raw rules into a solver-ready instance.

    One tag survives per (label, sentiment) pair: the rule with the highest
    probability (ties: larger antecedent, then antecedent order).  Positive
    tags get ids before negative tags; within a sentiment, ids follow label
    order.  Rebuilding from an instance's own tags yields an identical
    instance.
    """
    if m <= 0:
        raise ValueError(f"universe size m must be positive, got {m}")
    if not rules:
        raise EmptyInstance(f"no rules for item {item_id!r}")

    check_antecedents(rules, m)
    # Keyed on (label, is positive): a bool hashes in C, an Enum in Python.
    best: dict[tuple[str, bool], Rule] = {}
    for rule in rules:
        key = (rule.tag_label, rule.sentiment is _POSITIVE)
        held = best.get(key)
        if held is None or _rule_sort_key(rule) > _rule_sort_key(held):
            best[key] = rule

    def block(positive: bool) -> list[Rule]:
        return sorted(
            (r for (_, is_pos), r in best.items() if is_pos is positive),
            key=lambda r: r.tag_label,
        )

    positives = block(True)
    ordered = positives + block(False)
    tags = tuple(
        Tag(
            id=i,
            label=r.tag_label,
            sentiment=r.sentiment,
            relevance=r.probability,
            coverage=frozenset(r.antecedent),
        )
        for i, r in enumerate(ordered)
    )
    return Instance(
        item_id=item_id,
        m=m,
        tags=tags,
        n_pos=len(positives),
        n_neg=len(tags) - len(positives),
    )


def split_budget(k: int, alpha: float | Fraction) -> tuple[int, int]:
    """k1 = ceil(alpha * k), k2 = k - k1.

    Exact integer arithmetic when alpha is a Fraction; otherwise a guard
    epsilon is subtracted before the ceiling so float alphas like 0.5 with
    even k land on the intended integer.
    """
    if isinstance(alpha, Fraction):
        k1 = math.ceil(alpha * k)
    else:
        k1 = math.ceil(alpha * k - EPS)
    k1 = min(max(k1, 0), k)
    return k1, k - k1


def make_params(
    k: int, alpha: float | Fraction, beta: float, instance: Instance
) -> Params:
    """Validate a solve request against an instance's sentiment counts."""
    try:
        k = operator.index(k)
    except TypeError:
        raise ValueError(f"budget k must be an integer, got {k}") from None
    if k < 1:
        raise ValueError(f"budget k must be >= 1, got {k}")
    if not 0.0 <= float(alpha) <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must be in [0, 1], got {beta}")
    k1, k2 = split_budget(k, alpha)
    check_quotas(k1, k2, instance.n_pos, instance.n_neg)
    return Params(k=k, alpha=float(alpha), beta=beta, k1=k1, k2=k2)


def check_quotas(k1: int, k2: int, n_pos: int, n_neg: int) -> None:
    """Raise :class:`InfeasiblePolarity` unless n_pos positive and n_neg
    negative tags can fill the quotas (k1, k2)."""
    pos_deficit = max(0, k1 - n_pos)
    neg_deficit = max(0, k2 - n_neg)
    if pos_deficit or neg_deficit:
        raise InfeasiblePolarity(
            f"quota (k1={k1}, k2={k2}) exceeds available tags "
            f"(n_pos={n_pos}, n_neg={n_neg}); "
            f"short {pos_deficit} positive and {neg_deficit} negative",
            pos_deficit=pos_deficit,
            neg_deficit=neg_deficit,
        )


def union_mask(tags: Iterable[Tag]) -> int:
    mask = 0
    for t in tags:
        mask |= t.mask
    return mask
