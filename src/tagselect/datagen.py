"""Synthetic instance generation, rules extraction, and user-factor estimation.

The generator builds a boolean item matrix: attribute columns are i.i.d.
Bernoulli with per-group probabilities, and each tag column fires when a
strict majority of its correlated attribute set fires.  Rows are generated
in fixed-size blocks, each from its own counter-keyed stream, so a block's
rows do not depend on the blocks generated before it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import NoData
from .model import Instance, Rule, Sentiment, build_instance, check_antecedents

# Rows per generation block; one counter-keyed stream per block.
BLOCK_ROWS = 16384
# Reserved counter for the structure stream (correlated attribute sets).
_STRUCTURE_COUNTER = 0xFFFFFFFFFFFFFFFF

MAGIC = b"TSMX0001"


@dataclass(frozen=True)
class SynthConfig:
    num_items: int
    num_attrs: int = 100
    num_pos_tags: int = 50
    num_neg_tags: int = 50
    group_probs: tuple[float, ...] = (0.75, 0.15, 0.10, 0.05)
    seed: int = 0
    # Size range of each tag's correlated attribute set.
    corr_min: int = 3
    corr_max: int = 8

    def __post_init__(self):
        if self.num_items < 1 or self.num_attrs < 1:
            raise ValueError("num_items and num_attrs must be positive")
        if self.num_pos_tags < 0 or self.num_neg_tags < 0:
            raise ValueError("tag counts must be non-negative")
        if not self.num_tags:
            raise ValueError("at least one tag required; both tag counts are 0")
        if not self.group_probs:
            raise ValueError("group_probs must hold at least one probability")
        if not all(0.0 <= p <= 1.0 for p in self.group_probs):
            raise ValueError(f"group_probs must lie in [0, 1]: {self.group_probs}")
        if not 1 <= self.corr_min <= self.corr_max <= self.num_attrs:
            raise ValueError(
                f"correlated-set size range [{self.corr_min}, {self.corr_max}] "
                f"invalid for {self.num_attrs} attributes"
            )
        object.__setattr__(self, "group_probs", tuple(self.group_probs))

    @property
    def num_tags(self) -> int:
        return self.num_pos_tags + self.num_neg_tags

    @property
    def num_cols(self) -> int:
        return self.num_attrs + self.num_tags


@dataclass(frozen=True)
class SynthMatrix:
    """Generated boolean matrix plus the structure it was built from."""

    config: SynthConfig
    data: np.ndarray  # bool, shape (num_items, num_attrs + num_tags)
    correlated: tuple[tuple[int, ...], ...]  # per tag, sorted attribute indices


def _stream(seed: int, counter: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, counter], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def attribute_probs(config: SynthConfig) -> np.ndarray:
    """Per-column Bernoulli probability; groups partition the attributes as
    evenly as possible, in order."""
    probs = np.empty(config.num_attrs, dtype=float)
    for group, cols in zip(
        config.group_probs,
        np.array_split(np.arange(config.num_attrs), len(config.group_probs)),
    ):
        probs[cols] = group
    return probs


def attribute_names(config: SynthConfig) -> tuple[str, ...]:
    width = len(str(config.num_attrs - 1))
    return tuple(f"attr{y:0{width}d}" for y in range(config.num_attrs))


def tag_labels(config: SynthConfig) -> tuple[str, ...]:
    pos = [f"pos-{j:03d}" for j in range(config.num_pos_tags)]
    neg = [f"neg-{j:03d}" for j in range(config.num_neg_tags)]
    return tuple(pos + neg)


def tag_sentiment(config: SynthConfig, tag_index: int) -> Sentiment:
    # The first num_pos_tags tag columns are positive by convention.
    return (
        Sentiment.POSITIVE
        if tag_index < config.num_pos_tags
        else Sentiment.NEGATIVE
    )


def draw_correlated_sets(config: SynthConfig) -> tuple[tuple[int, ...], ...]:
    rng = _stream(config.seed, _STRUCTURE_COUNTER)
    sets = []
    for _ in range(config.num_tags):
        size = int(rng.integers(config.corr_min, config.corr_max + 1))
        cols = rng.choice(config.num_attrs, size=size, replace=False)
        sets.append(tuple(sorted(int(c) for c in cols)))
    return tuple(sets)


def _majorities(
    attrs: np.ndarray, correlated: Sequence[Sequence[int]]
) -> Iterator[np.ndarray]:
    """Per tag, the rows where strictly more than half of its correlated
    attribute cells are 1 (ties count as 0)."""
    # Summing whole rows of a column-major copy is several times faster
    # than gathering columns of the row-major block.
    by_col = np.ascontiguousarray(attrs.T)
    for corr in correlated:
        yield 2 * by_col[list(corr)].sum(axis=0) > len(corr)


def gen_matrix(config: SynthConfig) -> SynthMatrix:
    """Generate the full boolean matrix deterministically from the config.

    A tag cell is 1 iff strictly more than half of its correlated attribute
    cells are 1 (ties count as 0).
    """
    correlated = draw_correlated_sets(config)
    probs = attribute_probs(config)
    data = np.empty((config.num_items, config.num_cols), dtype=bool)
    for block_start in range(0, config.num_items, BLOCK_ROWS):
        block_rows = min(BLOCK_ROWS, config.num_items - block_start)
        rng = _stream(config.seed, block_start // BLOCK_ROWS)
        attrs = rng.random((block_rows, config.num_attrs)) < probs
        data[block_start : block_start + block_rows, : config.num_attrs] = attrs
        for j, majority in enumerate(_majorities(attrs, correlated)):
            data[block_start : block_start + block_rows, config.num_attrs + j] = majority
    return SynthMatrix(config=config, data=data, correlated=correlated)


def extract_rules(matrix: SynthMatrix) -> list[Rule]:
    """One rule per tag: the correlated set implies the tag, with probability
    the empirical frequency of the tag given a majority of the set, clamped
    to [0.01, 1]."""
    config = matrix.config
    labels = tag_labels(config)
    attrs = matrix.data[:, : config.num_attrs]
    rules = []
    for j, (corr, majority) in enumerate(
        zip(matrix.correlated, _majorities(attrs, matrix.correlated))
    ):
        tag_col = matrix.data[:, config.num_attrs + j]
        hits = int(majority.sum())
        freq = float(tag_col[majority].sum() / hits) if hits else 0.0
        rules.append(
            Rule(
                antecedent=frozenset(corr),
                tag_label=labels[j],
                sentiment=tag_sentiment(config, j),
                probability=min(1.0, max(0.01, freq)),
            )
        )
    return rules


def sample_instance(matrix: SynthMatrix, rules: Sequence[Rule], item_row: int) -> Instance:
    """Instance for one item row: antecedents restricted to the item's active
    attribute values; rules whose tag bit is 0 for the item are dropped.

    Every antecedent must lie in the attribute columns, whatever the row.
    """
    config = matrix.config
    num_attrs = config.num_attrs
    if not 0 <= item_row < config.num_items:
        raise IndexError(f"item_row {item_row} outside [0, {config.num_items})")
    if len(rules) != config.num_tags:
        raise ValueError(
            f"expected {config.num_tags} rules aligned with tag columns, got {len(rules)}"
        )
    check_antecedents(rules, num_attrs)
    row = matrix.data[item_row]
    active = set(np.flatnonzero(row[:num_attrs]).tolist())
    kept = []
    for rule, fired in zip(rules, row[num_attrs:].tolist()):
        if fired:
            restricted = rule.antecedent & active
            if restricted:
                kept.append(
                    Rule(restricted, rule.tag_label, rule.sentiment, rule.probability)
                )
    return build_instance(kept, m=num_attrs, item_id=f"item-{item_row}")


# ---------------------------------------------------------------------------
# User-factor estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DemographicRatings:
    """Aggregate ratings of one demographic group on a declared scale."""

    group_key: str
    ratings: tuple[float, ...]
    max_scale: float = 10.0

    def __post_init__(self):
        if self.max_scale <= 0:
            raise ValueError(f"max_scale must be positive, got {self.max_scale}")
        bad = [r for r in self.ratings if not 0.0 <= r <= self.max_scale]
        if bad:
            raise ValueError(
                f"ratings outside [0, {self.max_scale}] for {self.group_key!r}: {bad}"
            )
        object.__setattr__(self, "ratings", tuple(float(r) for r in self.ratings))


def estimate_alpha(group: DemographicRatings) -> float:
    """Mean rating normalized by the scale, clamped to [0, 1].

    A group averaging 8.0 on a 10-point scale yields 0.8: that user is
    expected to hand out 80% positive feedback.
    """
    if not group.ratings:
        raise NoData(f"no ratings for group {group.group_key!r}")
    alpha = sum(group.ratings) / len(group.ratings) / group.max_scale
    return min(1.0, max(0.0, alpha))


# ---------------------------------------------------------------------------
# Matrix persistence
# ---------------------------------------------------------------------------


def save_matrix(matrix: SynthMatrix, path: str | Path) -> None:
    """Magic + JSON header (dims, seed, config, correlated sets) + row-major
    bit-packed payload."""
    header = {
        "num_items": matrix.config.num_items,
        "num_attrs": matrix.config.num_attrs,
        "num_pos_tags": matrix.config.num_pos_tags,
        "num_neg_tags": matrix.config.num_neg_tags,
        "group_probs": list(matrix.config.group_probs),
        "seed": matrix.config.seed,
        "corr_min": matrix.config.corr_min,
        "corr_max": matrix.config.corr_max,
        "correlated": [list(c) for c in matrix.correlated],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode()
    payload = np.packbits(matrix.data.reshape(-1))
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(len(header_bytes).to_bytes(8, "little"))
        fh.write(header_bytes)
        fh.write(payload.tobytes())


def load_matrix(path: str | Path) -> SynthMatrix:
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ValueError(f"{path}: not a matrix file (bad magic {magic!r})")
        header_len = int.from_bytes(fh.read(8), "little")
        header = json.loads(fh.read(header_len))
        payload = fh.read()
    correlated = tuple(tuple(c) for c in header.pop("correlated"))
    config = SynthConfig(**{k: tuple(v) if k == "group_probs" else v for k, v in header.items()})
    total = config.num_items * config.num_cols
    expected = (total + 7) // 8
    if len(payload) != expected:
        raise ValueError(
            f"{path}: payload holds {len(payload)} bytes, expected {expected} "
            f"for {config.num_items}x{config.num_cols} cells"
        )
    data = (
        np.unpackbits(np.frombuffer(payload, dtype=np.uint8), count=total)
        .astype(bool)
        .reshape(config.num_items, config.num_cols)
    )
    return SynthMatrix(config=config, data=data, correlated=correlated)


def export_matrix_csv(matrix: SynthMatrix, path: str | Path, max_rows: int | None = None) -> None:
    """Human-inspectable CSV dump (0/1 cells with column names) of the first
    ``max_rows`` rows, or of every row when it is None."""
    if max_rows is not None and max_rows < 0:
        raise ValueError(f"max_rows must be >= 0, got {max_rows}")
    config = matrix.config
    names = list(attribute_names(config)) + list(tag_labels(config))
    rows = matrix.data if max_rows is None else matrix.data[:max_rows]
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for row in rows:
            fh.write(",".join("1" if c else "0" for c in row) + "\n")


# ---------------------------------------------------------------------------
# Random instances for solver benchmarks
# ---------------------------------------------------------------------------


def check_random_sizes(num_attrs: int, n_pos: int, n_neg: int) -> None:
    """Refuse a random vocabulary over no attributes, with a negative tag
    count or with no tag at all; one empty side is valid."""
    if num_attrs < 1:
        raise ValueError(f"attribute count must be >= 1, got {num_attrs}")
    if n_pos < 0 or n_neg < 0:
        raise ValueError(f"tag counts must be >= 0, got {n_pos} positive and {n_neg} negative")
    if not n_pos + n_neg:
        raise ValueError("at least one tag required; both tag counts are 0")


def random_rules(
    rng: np.random.Generator,
    num_attrs: int,
    n_pos: int,
    n_neg: int,
    cover_min: int = 2,
    cover_max: int = 6,
) -> list[Rule]:
    """Random vocabulary with uniform relevances, as one rule per tag.

    The matrix protocol above yields near-degenerate relevances (its tags
    are deterministic given their antecedent), so solver sweeps that
    exercise the relevance constraint draw instances from this source.
    """
    check_random_sizes(num_attrs, n_pos, n_neg)
    if cover_min < 1 or cover_max < cover_min:
        raise ValueError(
            f"coverage sizes must satisfy 1 <= cover_min <= cover_max, "
            f"got cover_min={cover_min} and cover_max={cover_max}"
        )
    cover_max = min(cover_max, num_attrs)
    cover_min = min(cover_min, cover_max)
    rules = []
    for j in range(n_pos + n_neg):
        size = int(rng.integers(cover_min, cover_max + 1))
        cols = rng.choice(num_attrs, size=size, replace=False)
        sentiment = Sentiment.POSITIVE if j < n_pos else Sentiment.NEGATIVE
        label = f"{'pos' if j < n_pos else 'neg'}-{j:03d}"
        rules.append(
            Rule(
                antecedent=frozenset(int(c) for c in cols),
                tag_label=label,
                sentiment=sentiment,
                probability=float(np.round(rng.uniform(0.01, 1.0), 6)),
            )
        )
    return rules


def random_instance(
    seed: int | Sequence[int],
    num_attrs: int = 24,
    n_pos: int = 8,
    n_neg: int = 8,
    cover_min: int = 2,
    cover_max: int = 6,
    item_id: str | None = None,
) -> Instance:
    rng = np.random.default_rng(seed)
    rules = random_rules(rng, num_attrs, n_pos, n_neg, cover_min, cover_max)
    return build_instance(
        rules, m=num_attrs, item_id=item_id or f"rand-{seed}"
    )
