"""Line-oriented JSON rules files.

The first line is a header object declaring the attribute-value universe as
an ordered list of strings (that order defines the integer indices) plus an
optional item id::

    {"item": "camera-1", "attributes": ["Color=Red", "Touchscreen=true", ...]}

Every following line is one rule::

    {"tag": "stylish", "sentiment": "+", "p": 0.2, "attrs": ["Color=Red", ...]}

Malformed lines are hard errors carrying their 1-based line number.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .errors import RulesFileError
from .model import Instance, Rule, Sentiment, build_instance

_SENTIMENTS = {"+": Sentiment.POSITIVE, "-": Sentiment.NEGATIVE}


@dataclass(frozen=True)
class RulesDocument:
    """A parsed rules file: universe, item id, and index-mapped rules."""

    item_id: str
    attributes: tuple[str, ...]
    rules: tuple[Rule, ...]

    def build(self) -> Instance:
        return build_instance(self.rules, m=len(self.attributes), item_id=self.item_id)


def _parse_header(obj: dict, line_no: int) -> tuple[str, tuple[str, ...]]:
    attrs = obj.get("attributes")
    if not isinstance(attrs, list) or not attrs:
        raise RulesFileError(
            "header must carry a non-empty \"attributes\" list", line_no
        )
    if not all(isinstance(a, str) for a in attrs):
        raise RulesFileError("attribute names must be strings", line_no)
    if len(set(attrs)) != len(attrs):
        raise RulesFileError("attribute names must be unique", line_no)
    item = obj.get("item", "item")
    if not isinstance(item, str):
        raise RulesFileError("\"item\" must be a string", line_no)
    return item, tuple(attrs)


def _parse_rule(obj: dict, index: dict[str, int], line_no: int) -> Rule:
    for field_name in ("tag", "sentiment", "p", "attrs"):
        if field_name not in obj:
            raise RulesFileError(f"rule is missing \"{field_name}\"", line_no)
    tag = obj["tag"]
    if not isinstance(tag, str) or not tag:
        raise RulesFileError("\"tag\" must be a non-empty string", line_no)
    sentiment = _SENTIMENTS.get(obj["sentiment"]) if isinstance(obj["sentiment"], str) else None
    if sentiment is None:
        raise RulesFileError(
            f"\"sentiment\" must be \"+\" or \"-\", got {obj['sentiment']!r}", line_no
        )
    p = obj["p"]
    if not isinstance(p, (int, float)) or isinstance(p, bool) or not 0.0 <= p <= 1.0:
        raise RulesFileError(f"\"p\" must be a number in [0, 1], got {p!r}", line_no)
    attrs = obj["attrs"]
    if not isinstance(attrs, list) or not attrs:
        raise RulesFileError("\"attrs\" must be a non-empty list", line_no)
    antecedent = set()
    for name in attrs:
        if not isinstance(name, str):
            raise RulesFileError(f"\"attrs\" entries must be strings, got {name!r}", line_no)
        if name not in index:
            raise RulesFileError(
                f"unknown attribute value {name!r} (not in header)", line_no
            )
        antecedent.add(index[name])
    return Rule(
        antecedent=frozenset(antecedent),
        tag_label=tag,
        sentiment=sentiment,
        probability=float(p),
    )


def loads(text: str) -> RulesDocument:
    """Parse rules-file content. Blank lines are ignored."""
    header: tuple[str, tuple[str, ...]] | None = None
    rules: list[Rule] = []
    index: dict[str, int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise RulesFileError(f"invalid JSON: {exc.msg}", line_no) from exc
        if not isinstance(obj, dict):
            raise RulesFileError("each line must be a JSON object", line_no)
        if header is None:
            header = _parse_header(obj, line_no)
            index = {name: i for i, name in enumerate(header[1])}
        else:
            rules.append(_parse_rule(obj, index, line_no))
    if header is None:
        raise RulesFileError("file has no header line")
    return RulesDocument(item_id=header[0], attributes=header[1], rules=tuple(rules))


def load(path: str | Path) -> RulesDocument:
    return loads(Path(path).read_text())


def dumps(doc: RulesDocument) -> str:
    lines = [
        json.dumps({"item": doc.item_id, "attributes": list(doc.attributes)})
    ]
    for r in doc.rules:
        lines.append(
            json.dumps(
                {
                    "tag": r.tag_label,
                    "sentiment": r.sentiment.value,
                    "p": r.probability,
                    "attrs": [doc.attributes[y] for y in sorted(r.antecedent)],
                }
            )
        )
    return "\n".join(lines) + "\n"


def dump(doc: RulesDocument, path: str | Path) -> None:
    Path(path).write_text(dumps(doc))
