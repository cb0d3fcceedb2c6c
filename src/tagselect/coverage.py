"""Coverage objectives.

Three quantities drive the solvers:

* independent coverage — size of the union of the selected tags' coverage
  sets, sentiment-blind;
* dependent coverage — values count when covered from both sentiment sides
  where both sides exist in the vocabulary (one-sided values count from
  their only side);
* the labeled-graph objective theta — a minimization proxy for dependent
  coverage built on dummy-augmented tag vectors, where an edge label is the
  set of values on which two augmented vectors differ.  It has a closed
  form in the per-side OR and AND of those vectors (:func:`theta_mask`).

Coverage sets live as int bitmasks over the m-value universe, so unions and
differences are word-parallel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_, or_
from types import MappingProxyType
from typing import Iterable, Mapping

from .model import Instance, Sentiment, Tag, union_mask


def bits(mask: int) -> frozenset[int]:
    """Set of bit positions set in ``mask``; visits the set bits only."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(out)


def cov_ic(selection: Iterable[Tag]) -> int:
    """Number of attribute values covered by any selected tag."""
    return union_mask(selection).bit_count()


def cov_dc(selection: Iterable[Tag], instance: Instance) -> int:
    """Dependent coverage of a selection.

    Three disjoint contributions: values covered by both a selected positive
    and a selected negative; values of the selected positives that no
    negative tag in the whole vocabulary covers; and symmetrically for the
    selected negatives.  The last two subtract vocabulary-wide unions, not
    selected unions, so a one-sided value counts as soon as its only side is
    picked.
    """
    pos_sel = 0
    neg_sel = 0
    for t in selection:
        if t.is_positive:
            pos_sel |= t.mask
        else:
            neg_sel |= t.mask
    both = pos_sel & neg_sel
    pos_only = pos_sel & ~instance.neg_cover_mask
    neg_only = neg_sel & ~instance.pos_cover_mask
    return both.bit_count() + pos_only.bit_count() + neg_only.bit_count()


@dataclass(frozen=True)
class EdgeLabel:
    """Attribute values on which two augmented tag vectors differ."""

    differing: frozenset[int]

    def __len__(self) -> int:
        return len(self.differing)


@dataclass(frozen=True)
class DCGraph:
    """Dummy-augmented tag-vector representation for the DC solvers.

    Augmentation grafts each side's uncontested values onto the other side:
    every real positive vector gains the negative-only values, every real
    negative vector gains the positive-only values, and two synthetic tags
    (one per side, relevance 0, outside the budget) carry exactly those
    grafted values.  After this, "covered from both sides" reduces to
    agreement between a positive and a negative vector.
    """

    m: int
    only_pos_mask: int
    only_neg_mask: int
    dummy_pos: Tag
    dummy_neg: Tag
    aug_masks: Mapping[int, int]

    @property
    def only_pos(self) -> frozenset[int]:
        """Values that positive tags cover and no negative tag does."""
        return bits(self.only_pos_mask)

    @property
    def only_neg(self) -> frozenset[int]:
        """Values that negative tags cover and no positive tag does."""
        return bits(self.only_neg_mask)

    def aug_mask(self, tag: Tag) -> int:
        try:
            return self.aug_masks[tag.id]
        except KeyError:
            raise KeyError(f"tag {tag.id} ({tag.label!r}) is not a member of this graph")

    def aug_coverage(self, tag: Tag) -> frozenset[int]:
        return bits(self.aug_mask(tag))


def build_dc_graph(instance: Instance) -> DCGraph:
    """Compute the augmented vectors and dummy tags for an instance."""
    only_pos_mask = instance.pos_cover_mask & ~instance.neg_cover_mask
    only_neg_mask = instance.neg_cover_mask & ~instance.pos_cover_mask
    n = instance.n
    dummy_pos = Tag(
        id=n,
        label="dummy positive",
        sentiment=Sentiment.POSITIVE,
        relevance=0.0,
        coverage=bits(only_neg_mask),
    )
    dummy_neg = Tag(
        id=n + 1,
        label="dummy negative",
        sentiment=Sentiment.NEGATIVE,
        relevance=0.0,
        coverage=bits(only_pos_mask),
    )
    aug = {}
    for t in instance.tags:
        aug[t.id] = t.mask | (only_neg_mask if t.is_positive else only_pos_mask)
    aug[dummy_pos.id] = only_neg_mask
    aug[dummy_neg.id] = only_pos_mask
    return DCGraph(
        m=instance.m,
        only_pos_mask=only_pos_mask,
        only_neg_mask=only_neg_mask,
        dummy_pos=dummy_pos,
        dummy_neg=dummy_neg,
        aug_masks=MappingProxyType(aug),
    )


def edge_label(graph: DCGraph, t1: Tag, t2: Tag) -> EdgeLabel:
    """Symmetric difference of two augmented vectors.

    Its size is the Hamming distance between the vectors; the label of a
    self-edge is empty.
    """
    return EdgeLabel(differing=bits(graph.aug_mask(t1) ^ graph.aug_mask(t2)))


def theta_mask(or_pos, and_pos, or_neg, and_neg):
    """Values theta counts: those on which all selected positives agree,
    all selected negatives agree, and the two sides disagree.

    Takes the OR and the AND of each side's augmented vectors; an empty side
    enters as its dummy (OR = AND = the dummy's vector).  A side disagrees
    within itself exactly on OR ^ AND, the union of its intra-edge labels;
    elsewhere each side is constant, so the union of the cross-edge labels
    reduces to OR_P ^ OR_N there.  Symmetric in the two sides, and works
    elementwise on Python ints and on numpy ``uint64`` word arrays alike.
    """
    intra = (or_pos ^ and_pos) | (or_neg ^ and_neg)
    return (or_pos ^ or_neg) & ~intra


def theta_dc(graph: DCGraph, selection: Iterable[Tag]) -> int:
    """Labeled-graph objective: union of cross-edge labels minus union of
    intra-edge labels, over the selected tags' augmented vectors.

    A sentiment side with no selected tag is represented by its dummy, so
    the objective stays defined for one-sided and empty selections (the
    empty selection scores the two dummies' mutual label).  Dummies never
    join a side that has real members and never form intra edges.  Costs
    O(k) big-int operations through :func:`theta_mask`.
    """
    pos: list[int] = []
    neg: list[int] = []
    for t in selection:
        if t.id == graph.dummy_pos.id or t.id == graph.dummy_neg.id:
            raise ValueError("dummy tags cannot appear in a selection")
        (pos if t.is_positive else neg).append(graph.aug_mask(t))
    return theta_mask(
        *_or_and(pos, graph.aug_mask(graph.dummy_pos)),
        *_or_and(neg, graph.aug_mask(graph.dummy_neg)),
    ).bit_count()


def _or_and(masks: list[int], dummy: int) -> tuple[int, int]:
    if not masks:
        return dummy, dummy
    return reduce(or_, masks), reduce(and_, masks)
