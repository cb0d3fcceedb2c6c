"""Coverage objectives.

Three quantities drive the solvers:

* independent coverage — size of the union of the selected tags' coverage
  sets, sentiment-blind;
* dependent coverage — values count when covered from both sentiment sides
  where both sides exist in the vocabulary (one-sided values count from
  their only side);
* the labeled-graph objective theta — a minimization proxy for dependent
  coverage built on augmented tag vectors (:class:`DCGraph`), where an
  edge label is the set of values on which two augmented vectors differ.  It has a closed
  form in the per-side OR and AND of those vectors (:func:`theta_mask`):
  |AND_P \\ OR_N| + |AND_N \\ OR_P|.

Coverage sets live as int bitmasks over the m-value universe, so unions and
differences are word-parallel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_, or_
from typing import Iterable

from .model import Instance, Tag, union_mask


def cov_ic(selection: Iterable[Tag]) -> int:
    """Number of attribute values covered by any selected tag."""
    return union_mask(selection).bit_count()


def cov_dc(selection: Iterable[Tag], instance: Instance) -> int:
    """Dependent coverage of a selection: ``|P & N|`` over the unions P and N
    of the selected positives and negatives, each union starting at its
    side's stand-in (:attr:`DCGraph.stand_ins`).

    That is three disjoint contributions: values covered by both a selected
    positive and a selected negative; values of the selected positives that
    no negative tag in the whole vocabulary covers; and symmetrically for
    the selected negatives.  So a one-sided value counts as soon as its only
    side is picked.  ``bnb_dc`` maximizes and ``exact_dc`` counts the same
    form.
    """
    pos_sel, neg_sel = instance.dc_graph.stand_ins
    for t in selection:
        if t.is_positive:
            pos_sel |= t.mask
        else:
            neg_sel |= t.mask
    return (pos_sel & neg_sel).bit_count()


@dataclass(frozen=True)
class DCGraph:
    """The dependent-coverage graph of an instance: its two one-sided masks
    and every tag's augmented vector.

    Augmentation grafts each side's uncontested values onto the other side:
    every real positive vector gains the negative-only values and every real
    negative vector gains the positive-only values.  One stand-in per side
    (relevance 0, outside the budget) carries exactly the grafted values:
    the positive stand-in's vector is ``only_neg_mask`` and the negative
    one's is ``only_pos_mask``.  After this, "covered from both sides"
    reduces to agreement between a positive and a negative vector.
    """

    only_pos_mask: int  # covered by some positive tag and by no negative one
    only_neg_mask: int  # covered by some negative tag and by no positive one
    # Each side's augmented vectors, positives first, in id order.
    aug: tuple[tuple[int, ...], tuple[int, ...]]

    @property
    def stand_ins(self) -> tuple[int, int]:
        """The two stand-ins' vectors, positive side first; the one place
        that pairs each side with the other side's one-sided mask."""
        return self.only_neg_mask, self.only_pos_mask

    def aug_mask(self, tag: Tag) -> int:
        """The augmented vector of a tag of this graph's instance."""
        pos, neg = self.aug
        side, i = (pos, tag.id) if tag.is_positive else (neg, tag.id - len(pos))
        if not 0 <= i < len(side):
            raise KeyError(f"tag {tag.id} ({tag.label!r}) is not a member of this graph")
        return side[i]


def build_dc_graph(instance: Instance) -> DCGraph:
    """Augment an instance's tag vectors; the only place that does."""
    pos, neg = instance.side_masks
    pos_cover, neg_cover = reduce(or_, pos, 0), reduce(or_, neg, 0)
    only_pos = pos_cover & ~neg_cover
    only_neg = neg_cover & ~pos_cover
    return DCGraph(
        only_pos_mask=only_pos,
        only_neg_mask=only_neg,
        aug=(tuple(m | only_neg for m in pos), tuple(m | only_pos for m in neg)),
    )


def theta_mask(or_pos, and_pos, or_neg, and_neg):
    """Values theta counts: AND_P minus OR_N, plus AND_N minus OR_P.

    Takes the OR and the AND of each side's augmented vectors; an empty side
    enters as its stand-in (OR = AND = the stand-in's vector).  A value
    counts when it is in every selected positive and in no selected
    negative, or the reverse: there both sides are constant and disagree,
    so it carries a cross-edge label and no intra-edge label.  Every other
    value lies outside all cross labels or inside an intra label.  The two
    terms are disjoint, since AND is within OR on each side.  Symmetric in
    the two sides; the bits above m that ``~`` sets are cleared by the AND
    they meet.
    """
    return (and_pos & ~or_neg) | (and_neg & ~or_pos)


def theta_dc(graph: DCGraph, selection: Iterable[Tag]) -> int:
    """Labeled-graph objective: union of cross-edge labels minus union of
    intra-edge labels, over the selected tags' augmented vectors.

    A sentiment side with no selected tag is represented by its stand-in,
    so the objective stays defined for one-sided and empty selections (the
    empty selection scores the two stand-ins' mutual label).  Stand-ins
    never join a side that has real members and never form intra edges.
    Costs O(k) big-int operations through :func:`theta_mask`:
    |AND_P \\ OR_N| + |AND_N \\ OR_P| over the two sides' ORs and ANDs.
    """
    pos: list[int] = []
    neg: list[int] = []
    for t in selection:
        (pos if t.is_positive else neg).append(graph.aug_mask(t))
    pos_in, neg_in = graph.stand_ins
    return theta_mask(*_or_and(pos, pos_in), *_or_and(neg, neg_in)).bit_count()


def _or_and(masks: list[int], stand_in: int) -> tuple[int, int]:
    if not masks:
        return stand_in, stand_in
    return reduce(or_, masks), reduce(and_, masks)
