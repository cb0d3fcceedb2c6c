"""Emit the two 0/1 models as LP-format text files.

The files exist so an external solver can cross-check the built-in search;
nothing in this package reads them back.  Variables: ``x_<id>`` per tag
(``x_dp``/``x_dn`` for the two dependent-coverage stand-ins, fixed to 1),
``y_<j>`` per attribute value.
"""

from __future__ import annotations

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


def _common_constraints(instance: Instance, params: Params) -> list[str]:
    need = params.beta * rel_max(instance.rel_benchmark, params.k1, params.k2) - EPS
    pos_names = [f"x_{t.id}" for t in instance.positives()]
    neg_names = [f"x_{t.id}" for t in instance.negatives()]
    out = []
    if pos_names:
        out.append(f" pos_quota:\n{_wrap(_sum_terms(pos_names))} = {params.k1}")
    if neg_names:
        out.append(f" neg_quota:\n{_wrap(_sum_terms(neg_names))} = {params.k2}")
    # Round-trip digits, so that the row holds for the relevance sums the
    # solvers compare: nine digits can put the top set's sum below the bound.
    rel_terms = []
    for i, t in enumerate(instance.tags):
        sign = "" if i == 0 else "+ "
        rel_terms.append(f"{sign}{t.relevance!r} x_{t.id}")
    out.append(f" relevance:\n{_wrap(rel_terms)} >= {need!r}")
    return out


def lp_ic(instance: Instance, params: Params) -> str:
    """Independent coverage: y_j <= sum of x over the tags covering value j."""
    y_names = [f"y_{j}" for j in range(instance.m)]
    lines = [
        f"\\ independent-coverage selection model, item {instance.item_id}",
        f"\\ k={params.k} alpha={params.alpha} beta={params.beta}",
        "Maximize",
        " obj:",
        _wrap(_sum_terms(y_names)),
        "Subject To",
    ]
    lines.extend(_common_constraints(instance, params))
    for j in range(instance.m):
        coverers = [f"x_{t.id}" for t in instance.tags if j in t.coverage]
        terms = _sum_terms(coverers) + [f"- y_{j}"]
        lines.append(f" cover_{j}:\n{_wrap(terms)} >= 0")
    lines.append("Binary")
    lines.append(_wrap([f"x_{t.id}" for t in instance.tags] + y_names))
    lines.append("End")
    return "\n".join(lines) + "\n"


def lp_dc(instance: Instance, params: Params) -> str:
    """Dependent coverage with the two-sided linearization: y_j needs a
    selected coverer on each sentiment side of the augmented graph, the two
    stand-in tags being fixed selected."""
    graph = instance.dc_graph
    y_names = [f"y_{j}" for j in range(instance.m)]
    lines = [
        f"\\ dependent-coverage selection model, item {instance.item_id}",
        f"\\ k={params.k} alpha={params.alpha} beta={params.beta}",
        "\\ x_dp / x_dn are the one-sided stand-ins, fixed to 1",
        "Maximize",
        " obj:",
        _wrap(_sum_terms(y_names)),
        "Subject To",
    ]
    lines.extend(_common_constraints(instance, params))
    for j in range(instance.m):
        bit = 1 << j
        pos_cover = [f"x_{t.id}" for t in instance.positives() if graph.aug_mask(t) & bit]
        if graph.only_neg_mask & bit:
            pos_cover.append("x_dp")
        neg_cover = [f"x_{t.id}" for t in instance.negatives() if graph.aug_mask(t) & bit]
        if graph.only_pos_mask & bit:
            neg_cover.append("x_dn")
        terms_p = _sum_terms(pos_cover) + [f"- y_{j}"]
        terms_n = _sum_terms(neg_cover) + [f"- y_{j}"]
        lines.append(f" cover_pos_{j}:\n{_wrap(terms_p)} >= 0")
        lines.append(f" cover_neg_{j}:\n{_wrap(terms_n)} >= 0")
    lines.append(" fix_dp:\n    x_dp = 1")
    lines.append(" fix_dn:\n    x_dn = 1")
    lines.append("Binary")
    lines.append(
        _wrap([f"x_{t.id}" for t in instance.tags] + ["x_dp", "x_dn"] + y_names)
    )
    lines.append("End")
    return "\n".join(lines) + "\n"


def write_lp(instance: Instance, params: Params, model: str, path: str | Path) -> None:
    if model == "ic":
        text = lp_ic(instance, params)
    elif model == "dc":
        text = lp_dc(instance, params)
    else:
        raise ValueError(f"model must be 'ic' or 'dc', got {model!r}")
    Path(path).write_text(text)
