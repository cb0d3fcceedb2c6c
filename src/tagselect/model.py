"""Instance data model: rules, sentiment-labeled tags, and solve parameters.

Raw rules are normalized into an immutable :class:`Instance` whose tags have
dense, deterministic ids.  Everything here is safe to share across concurrent
solver calls: no field changes after construction.  An instance keeps the
solve inputs it builds on first use, a solver's own through the module that
reads them, and what greedy requests grow on it (:meth:`Instance.keep`).
"""

from __future__ import annotations

import math
import operator
import threading
from dataclasses import MISSING, dataclass, fields
from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import TYPE_CHECKING, ClassVar, Iterable, Mapping, Sequence

from .errors import AttributeOutOfRange, EmptyInstance, InfeasiblePolarity

if TYPE_CHECKING:
    from .coverage import DCGraph
    from .relevance import RelBenchmark

# Held while Instance.keep stores, so that a shorter copy never replaces a
# longer one.
_KEEP_LOCK = threading.Lock()

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

    # The solve inputs below depend on the instance alone, so each is built on
    # first use and kept, as is what greedy requests grow: ``grown`` holds the
    # greedy paths of ids and running relevance (solvers._greedy) and the step
    # maxima (relevance.step_needs).  Equality, hashing and repr ignore all of
    # them.  The per-side columns are tuples of the tags' own floats and ints.
    grown: ClassVar[Mapping] = MappingProxyType({})

    def keep(self, key: tuple, value: tuple) -> None:
        """Keep ``value`` in :attr:`grown` under ``key``, unless the value
        held is as long.  Every copy of a key's value, a path of (positive
        id, negative id, running relevance, score) steps or step maxima, is
        a prefix of one sequence, so threads that grow it store equal values."""
        with _KEEP_LOCK:
            grown = vars(self).setdefault("grown", {})
            if len(value) > len(grown.get(key, ())):
                grown[key] = value

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
    def side_columns(self) -> tuple[tuple[range, tuple[float, ...], tuple[int, ...]], ...]:
        """Each side's ids, relevances and coverage masks, positives first,
        in id order, so that the sides taken in turn visit the tags in id
        order."""
        n_pos = self.n_pos
        sides = (range(n_pos), self.positives()), (range(n_pos, self.n), self.negatives())
        return tuple(
            (ids, tuple([t.relevance for t in tags]), tuple([t.mask for t in tags]))
            for ids, tags in sides
        )

    @cached_property
    def search_order(self) -> tuple:
        """Branch-and-bound's inputs (:func:`build_search_order`)."""
        from .solvers import build_search_order

        return build_search_order(self)


def one_write_init(cls: type) -> type:
    """Give the frozen dataclass ``cls`` an ``__init__`` that sets all its
    fields as the ``__dict__`` in one ``object.__setattr__`` call, the
    dataclass's own making one per field.  It takes the same arguments with
    the same defaults and runs nothing else, so ``cls`` must have no
    ``__post_init__`` and no field with a ``default_factory``."""
    defaults = {f.name: f.default for f in fields(cls) if f.default is not MISSING}
    names = [f.name for f in fields(cls)]
    args = ", ".join(f"{n}=_defaults[{n!r}]" if n in defaults else n for n in names)
    body = ", ".join(f"{n!r}: {n}" for n in names)
    namespace: dict = {"_defaults": defaults, "_set": object.__setattr__}
    exec(f"def __init__(self, {args}):\n    _set(self, '__dict__', {{{body}}})", namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    return cls


@one_write_init
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


@one_write_init
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
    k1 = math.ceil(alpha * k - EPS)
    k1 = 0 if k1 < 0 else k if k1 > k else k1  # cheaper than calling min and max
    return k1, k - k1


def make_params(k: int, alpha: float, beta: float, instance: Instance) -> Params:
    """Validate a solve request against an instance's sentiment counts."""
    try:
        k = operator.index(k)
    except TypeError:
        raise ValueError(f"budget k must be an integer, got {k}") from None
    if k < 1:
        raise ValueError(f"budget k must be >= 1, got {k}")
    share = float(alpha)
    if not 0.0 <= share <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must be in [0, 1], got {beta}")
    # The split takes alpha as given, so that an exact alpha splits exactly.
    k1, k2 = split_budget(k, alpha)
    check_quotas(k1, k2, instance.n_pos, instance.n_neg)
    return Params(k, share, beta, k1, k2)


def check_quotas(k1: int, k2: int, n_pos: int, n_neg: int) -> None:
    """Raise :class:`InfeasiblePolarity` unless n_pos positive and n_neg
    negative tags can fill the quotas (k1, k2)."""
    if k1 <= n_pos and k2 <= n_neg:
        return
    pos_deficit = max(0, k1 - n_pos)
    neg_deficit = max(0, k2 - n_neg)
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
