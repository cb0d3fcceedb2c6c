"""Instance data model: rules, sentiment-labeled tags, and solve parameters.

Raw rules are normalized into an immutable :class:`Instance` whose tags have
dense, deterministic ids.  Everything here is safe to share across concurrent
solver calls: no field changes after construction.  An instance keeps the
solve inputs it builds on first use, a solver's own through the module that
reads them, and the greedy routes' paths, which only grow
(:meth:`Instance.extend_path`).
"""

from __future__ import annotations

import math
import operator
import threading
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING, ClassVar, Iterable, Sequence

from .errors import AttributeOutOfRange, EmptyInstance, InfeasiblePolarity

if TYPE_CHECKING:
    from .coverage import DCGraph
    from .relevance import RelBenchmark

# Held while a greedy path is stored, so that a shorter copy never replaces a
# longer one.
_PATH_LOCK = threading.Lock()

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

    # The solve inputs below depend on the instance alone, so each is built
    # on first use and kept.  So do the greedy routes' steps with both
    # quotas open and no relevance filter: a-ic's (solvers.greedy_ic) and
    # a-dc's pair steps (solvers.greedy_dc), kept as far as requests have
    # grown them.  All live outside the dataclass fields: equality, hashing
    # and repr ignore them.  The per-side columns are tuples of the tags'
    # own floats and ints.
    ic_path: ClassVar[tuple] = ()
    dc_pair_path: ClassVar[tuple] = ()

    def extend_path(self, name: str, path: tuple) -> None:
        """Keep ``path`` as this instance's ``ic_path`` or ``dc_pair_path``
        unless the one held is as long.  Every copy of a path is a prefix
        of the same sequence, so two threads that grow it at once store
        equal entries."""
        with _PATH_LOCK:
            if len(path) > len(getattr(self, name)):
                vars(self)[name] = path

    @cached_property
    def rel_benchmark(self) -> RelBenchmark:
        """The relevance prefix sums (:meth:`RelBenchmark.from_instance`)."""
        from .relevance import RelBenchmark

        return RelBenchmark.from_instance(self)

    @cached_property
    def dc_graph(self) -> DCGraph:
        """The one-sided masks and augmented vectors (:func:`build_dc_graph`)."""
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
        """Branch-and-bound's inputs (:func:`build_search_order`)."""
        from .solvers import build_search_order

        return build_search_order(self)


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


def _rule_sort_key(entry: tuple) -> tuple:
    # Among rules for the same (label, sentiment): keep highest probability,
    # then the largest antecedent, then a fixed order on the antecedent itself.
    antecedent, _, _, probability = entry
    return (probability, len(antecedent), tuple(sorted(antecedent)))


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
    check_antecedents(rules, m)
    return _normalize(
        [(r.antecedent, r.tag_label, r.sentiment, r.probability) for r in rules], m, item_id
    )


def _normalize(entries: Sequence[tuple], m: int, item_id: str) -> Instance:
    """:func:`build_instance`'s normalization, from each rule's fields as
    ``(antecedent, tag_label, sentiment, probability)``.  The antecedents
    must be frozensets already checked against ``m``.  An empty list
    raises :class:`EmptyInstance`."""
    if not entries:
        raise EmptyInstance(f"no rules for item {item_id!r}")
    # Keyed on (is negative, label), the order of the ids: a bool hashes in
    # C, an Enum in Python.
    best: dict[tuple[bool, str], tuple] = {}
    for entry in entries:
        key = (entry[2] is not _POSITIVE, entry[1])
        held = best.get(key)
        if held is None or _rule_sort_key(entry) > _rule_sort_key(held):
            best[key] = entry
    tags = tuple(
        Tag(i, label, sentiment, probability, antecedent)
        for i, (_, (antecedent, label, sentiment, probability)) in enumerate(sorted(best.items()))
    )
    n_neg = sum(is_negative for is_negative, _ in best)
    return Instance(item_id, m, tags, len(tags) - n_neg, n_neg)


def split_budget(k: int, alpha: float) -> tuple[int, int]:
    """k1 = ceil(alpha * k), k2 = k - k1.

    A guard epsilon is subtracted before the ceiling so float alphas like
    0.5 with even k land on the intended integer.
    """
    k1 = min(max(math.ceil(alpha * k - EPS), 0), k)
    return k1, k - k1


def make_params(k: int, alpha: float, beta: float, instance: Instance) -> Params:
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
