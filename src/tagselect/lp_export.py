"""Emit the two 0/1 models as LP-format text files, so that an external
solver can cross-check the built-in search; nothing in this package reads
them back.

One writer serves both models.  It builds every row from the tags' coverage
sets, the one-sided values by set algebra, so the models share no code with
the solvers they check.  Variables: ``x_<id>`` per tag (``x_dp``/``x_dn``
for the two dependent-coverage stand-ins, fixed to 1), ``y_<j>`` per
attribute value.
"""

from __future__ import annotations

import json
from pathlib import Path

from .model import EPS, Instance, Params
from .relevance import rel_max


def _wrap(terms: list[str], indent: str = "    ") -> str:
    lines = []
    line = indent
    for i, term in enumerate(terms):
        piece = term if i == 0 else f" {term}"
        if len(line) + len(piece) > 78:
            lines.append(line)
            line = indent + term
        else:
            line += piece
    lines.append(line)
    return "\n".join(lines)


def _sum_terms(names: list[str]) -> list[str]:
    return [name if i == 0 else f"+ {name}" for i, name in enumerate(names)]


def _lp(instance: Instance, params: Params, dc: bool) -> str:
    """The independent-coverage model, or the dependent-coverage one with
    its two-sided linearization.

    Each value j gets one cover row per group of tags: y_j <= the sum of x
    over the group's tags that cover j.  Independent coverage has one group,
    all tags.  Dependent coverage has one group per sentiment side, and a
    side's group also covers the other side's one-sided values: there every
    tag of the side joins the row, and so does its stand-in.
    """
    pos, neg = instance.positives(), instance.negatives()
    y_names = [f"y_{j}" for j in range(instance.m)]
    # The item id comes from the rules file; json.dumps keeps it on one
    # ASCII line, its line breaks escaped.
    lines = [
        f"\\ {'dependent' if dc else 'independent'}-coverage selection model, "
        f"item {json.dumps(instance.item_id)}",
        f"\\ k={params.k} alpha={params.alpha} beta={params.beta}",
    ]
    if dc:
        lines.append("\\ x_dp / x_dn are the one-sided stand-ins, fixed to 1")
    lines += ["Maximize", " obj:", _wrap(_sum_terms(y_names)), "Subject To"]
    for name, side, quota in (("pos_quota", pos, params.k1), ("neg_quota", neg, params.k2)):
        if side:
            lines.append(f" {name}:\n{_wrap(_sum_terms([f'x_{t.id}' for t in side]))} = {quota}")
    # Round-trip digits, so that the row holds for the relevance sums the
    # solvers compare: nine digits can put the top set's sum below the bound.
    need = params.beta * rel_max(instance.rel_benchmark, params.k1, params.k2) - EPS
    rel_terms = _sum_terms([f"{t.relevance!r} x_{t.id}" for t in instance.tags])
    lines.append(f" relevance:\n{_wrap(rel_terms)} >= {need!r}")
    # (row name, tags, stand-in, values every tag of the group covers)
    if dc:
        pos_values = frozenset().union(*(t.coverage for t in pos))
        neg_values = frozenset().union(*(t.coverage for t in neg))
        groups = [
            ("cover_pos_", pos, "x_dp", neg_values - pos_values),
            ("cover_neg_", neg, "x_dn", pos_values - neg_values),
        ]
    else:
        groups = [("cover_", instance.tags, "", frozenset())]
    for j in range(instance.m):
        for name, side, stand_in, grafted in groups:
            if j in grafted:
                cover = [f"x_{t.id}" for t in side] + [stand_in]
            else:
                cover = [f"x_{t.id}" for t in side if j in t.coverage]
            lines.append(f" {name}{j}:\n{_wrap(_sum_terms(cover) + [f'- y_{j}'])} >= 0")
    stand_ins = ["x_dp", "x_dn"] if dc else []
    lines += [f" fix_{x[2:]}:\n    {x} = 1" for x in stand_ins]
    lines += ["Binary", _wrap([f"x_{t.id}" for t in instance.tags] + stand_ins + y_names)]
    return "\n".join(lines + ["End"]) + "\n"


def lp_ic(instance: Instance, params: Params) -> str:
    """Independent coverage: y_j <= sum of x over the tags covering value j."""
    return _lp(instance, params, dc=False)


def lp_dc(instance: Instance, params: Params) -> str:
    """Dependent coverage with the two-sided linearization: y_j needs a
    selected coverer on each sentiment side of the augmented graph, the two
    stand-in tags being fixed selected."""
    return _lp(instance, params, dc=True)


def write_lp(instance: Instance, params: Params, model: str, path: str | Path) -> None:
    if model not in ("ic", "dc"):
        raise ValueError(f"model must be 'ic' or 'dc', got {model!r}")
    Path(path).write_text(_lp(instance, params, dc=model == "dc"))
