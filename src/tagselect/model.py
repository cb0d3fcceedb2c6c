"""Instance data model: rules, sentiment-labeled tags, and solve parameters.

Raw rules are normalized into an immutable :class:`Instance` whose tags have
dense, deterministic ids.  Everything here is safe to share across concurrent
solver calls; nothing mutates after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import AttributeOutOfRange, EmptyInstance, InfeasiblePolarity

# Guard subtracted before ceilings / added to >= tests so that binary float
# representation of values like 0.5 * 2 cannot flip an integer boundary.
EPS = 1e-9


class Sentiment(Enum):
    POSITIVE = "+"
    NEGATIVE = "-"

    def __str__(self) -> str:
        return self.value


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
        return self.sentiment is Sentiment.POSITIVE

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
    # Optional textual names for the attribute-value indices, for reporting.
    attr_names: tuple[str, ...] | None = None

    @property
    def n(self) -> int:
        return len(self.tags)

    def positives(self) -> tuple[Tag, ...]:
        return self.tags[: self.n_pos]

    def negatives(self) -> tuple[Tag, ...]:
        return self.tags[self.n_pos :]

    def by_label(self, label: str, sentiment: Sentiment) -> Tag:
        for t in self.tags:
            if t.label == label and t.sentiment is sentiment:
                return t
        raise KeyError(f"no {sentiment} tag labeled {label!r}")

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


def build_instance(
    rules: Sequence[Rule],
    m: int,
    item_id: str = "item",
    attr_names: Sequence[str] | None = None,
) -> Instance:
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
    if attr_names is not None and len(attr_names) != m:
        raise ValueError(f"attr_names has {len(attr_names)} entries, expected m={m}")

    best: dict[tuple[str, Sentiment], Rule] = {}
    for rule in rules:
        bad = [y for y in rule.antecedent if y < 0 or y >= m]
        if bad:
            raise AttributeOutOfRange(
                f"rule for {rule.tag_label!r} references attribute value(s) "
                f"{sorted(bad)} outside [0, {m})"
            )
        key = (rule.tag_label, rule.sentiment)
        if key not in best or _rule_sort_key(rule) > _rule_sort_key(best[key]):
            best[key] = rule

    def block(sentiment: Sentiment) -> list[Rule]:
        return sorted(
            (r for r in best.values() if r.sentiment is sentiment),
            key=lambda r: r.tag_label,
        )

    ordered = block(Sentiment.POSITIVE) + block(Sentiment.NEGATIVE)
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
    n_pos = sum(1 for t in tags if t.is_positive)
    return Instance(
        item_id=item_id,
        m=m,
        tags=tags,
        n_pos=n_pos,
        n_neg=len(tags) - n_pos,
        attr_names=tuple(attr_names) if attr_names is not None else None,
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


def vectorize(tag: Tag, m: int) -> np.ndarray:
    """Boolean vector of length m with bit y set iff value y is covered."""
    v = np.zeros(m, dtype=bool)
    v[list(tag.coverage)] = True
    return v


def union_mask(tags: Iterable[Tag]) -> int:
    mask = 0
    for t in tags:
        mask |= t.mask
    return mask
