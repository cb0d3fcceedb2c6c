"""Independent answer checks for the benchmark.

Everything here is recomputed from an instance's raw data (each tag's
sentiment, relevance and coverage set), never through the package's own
kernels, so that a rewrite of a kernel cannot vouch for itself.  Theta is the
pairwise-XOR definition over dummy-augmented vectors; the enumerator walks
every quota-feasible subset.
"""

from __future__ import annotations

import math
from itertools import combinations

EPS = 1e-9
# Slack for a relevance sum recomputed in a possibly different order.
REL_SLACK = 1e-7


def split(k: int, alpha: float) -> tuple[int, int]:
    """k1 = ceil(alpha * k), k2 = k - k1, guarded against float noise."""
    k1 = min(max(math.ceil(alpha * k - EPS), 0), k)
    return k1, k - k1


def _mask(values) -> int:
    m = 0
    for y in values:
        m |= 1 << y
    return m


class Ref:
    """Raw per-tag data of one instance and the objectives defined on it."""

    def __init__(self, instance):
        tags = instance.tags
        self.n = len(tags)
        self.pos = [bool(t.is_positive) for t in tags]
        self.rel = [float(t.relevance) for t in tags]
        self.mask = [_mask(t.coverage) for t in tags]
        self.labels = {(t.label, "+" if p else "-"): t.id for t, p in zip(tags, self.pos)}
        self.pos_ids = [i for i in range(self.n) if self.pos[i]]
        self.neg_ids = [i for i in range(self.n) if not self.pos[i]]
        pos_vocab = _mask(y for i in self.pos_ids for y in tags[i].coverage)
        neg_vocab = _mask(y for i in self.neg_ids for y in tags[i].coverage)
        self.only_pos = pos_vocab & ~neg_vocab
        self.only_neg = neg_vocab & ~pos_vocab
        self.aug = [
            self.mask[i] | (self.only_neg if self.pos[i] else self.only_pos)
            for i in range(self.n)
        ]

    def rel_max(self, k1: int, k2: int) -> float:
        def top(ids, q):
            acc = 0.0
            for r in sorted((self.rel[i] for i in ids), reverse=True)[:q]:
                acc += r
            return acc

        return top(self.pos_ids, k1) + top(self.neg_ids, k2)

    def rel_total(self, ids) -> float:
        return sum(self.rel[i] for i in sorted(ids))

    def cov_ic(self, ids) -> int:
        m = 0
        for i in ids:
            m |= self.mask[i]
        return m.bit_count()

    def cov_dc(self, ids) -> int:
        """Values covered from both sides, plus one-sided values covered
        from their only side."""
        p = n = 0
        for i in ids:
            if self.pos[i]:
                p |= self.mask[i]
            else:
                n |= self.mask[i]
        return ((p & n) | (p & self.only_pos) | (n & self.only_neg)).bit_count()

    def theta(self, ids) -> int:
        """Union of cross-edge XOR labels minus union of intra-edge labels;
        an empty side is stood in for by its dummy vector."""
        pos = [self.aug[i] for i in ids if self.pos[i]]
        neg = [self.aug[i] for i in ids if not self.pos[i]]
        cross_pos = pos or [self.only_neg]
        cross_neg = neg or [self.only_pos]
        cross = 0
        for a in cross_pos:
            for b in cross_neg:
                cross |= a ^ b
        intra = 0
        for side in (pos, neg):
            for a, b in combinations(side, 2):
                intra |= a ^ b
        return (cross & ~intra).bit_count()

    def objective(self, kind: str, ids) -> int:
        return {"cov_ic": self.cov_ic, "cov_dc": self.cov_dc, "theta_dc": self.theta}[kind](ids)

    def check(self, ids, k, alpha, beta, kind, value, feasible) -> list[str]:
        """Problems with one answer: quotas, ids, relevance bound, objective."""
        problems = []
        ids = list(ids)
        if len(set(ids)) != len(ids):
            problems.append("duplicate tag ids")
        if any(not 0 <= i < self.n for i in ids):
            return problems + ["tag id out of range"]
        k1, k2 = split(k, alpha)
        n_pos = sum(1 for i in ids if self.pos[i])
        n_neg = len(ids) - n_pos
        if feasible:
            if (n_pos, n_neg) != (k1, k2):
                problems.append(f"quota ({n_pos},{n_neg}) != ({k1},{k2})")
            need = beta * self.rel_max(k1, k2) - EPS
            if self.rel_total(ids) < need - REL_SLACK:
                problems.append(f"relevance {self.rel_total(ids):.9g} below {need:.9g}")
        elif n_pos > k1 or n_neg > k2:
            problems.append(f"partial selection ({n_pos},{n_neg}) exceeds ({k1},{k2})")
        expect = self.objective(kind, ids)
        if expect != value:
            problems.append(f"{kind} reported {value}, recomputed {expect}")
        return problems

    def quota_ok(self, k: int, alpha: float) -> bool:
        k1, k2 = split(k, alpha)
        return k1 <= len(self.pos_ids) and k2 <= len(self.neg_ids)

    def optima(self, k: int, alpha: float, betas) -> dict[float, tuple[int, int, int]]:
        """Per beta: (max cov_ic, min theta, max cov_dc) over every subset
        with exactly k1 positives and k2 negatives that meets the bound."""
        k1, k2 = split(k, alpha)
        need = {b: b * self.rel_max(k1, k2) - EPS for b in betas}
        best = {b: (-1, math.inf, -1) for b in betas}
        neg_combos = [
            (c, sum(self.rel[i] for i in c)) for c in combinations(self.neg_ids, k2)
        ]
        for pc in combinations(self.pos_ids, k1):
            prel = sum(self.rel[i] for i in pc)
            for nc, nrel in neg_combos:
                rel = prel + nrel
                ok = [b for b in betas if rel >= need[b]]
                if not ok:
                    continue
                ids = pc + nc
                ic, th, dc = self.cov_ic(ids), self.theta(ids), self.cov_dc(ids)
                for b in ok:
                    bi, bt, bd = best[b]
                    best[b] = (max(bi, ic), min(bt, th), max(bd, dc))
        return best
