import json

import pytest

from tagselect import Rule, Sentiment, build_instance

# The worked camera example used throughout: 8 attribute values (0-based
# indices), three positive and three negative tags.
CAMERA_ATTRS = (
    "Resolution=12.2mp",
    "Optical Zoom=4.6x",
    "Color=Red",
    "Front LCD=1.5",
    "Back LCD=3.5",
    "Shutter Speed=8-1/2000",
    "Touchscreen=true",
    "Gesture Control=true",
)

CAMERA_RULES = (
    ("super cool", "+", 0.3, (3, 6, 7)),
    ("stylish", "+", 0.2, (2, 3, 6, 7)),
    ("lightweight", "+", 0.1, (0, 1, 4)),
    ("poor battery life", "-", 0.13, (3, 6, 7)),
    ("blurry pictures", "-", 0.12, (0, 1, 5)),
    ("gimmicky touchscreen", "-", 0.15, (4, 6, 7)),
)


def camera_rules() -> list[Rule]:
    return [
        Rule(
            antecedent=frozenset(attrs),
            tag_label=label,
            sentiment=Sentiment.POSITIVE if s == "+" else Sentiment.NEGATIVE,
            probability=p,
        )
        for label, s, p, attrs in CAMERA_RULES
    ]


@pytest.fixture(scope="session")
def camera():
    return build_instance(camera_rules(), m=8, item_id="camera")


def by_label(instance, label):
    matches = [t for t in instance.tags if t.label == label]
    assert len(matches) == 1, f"ambiguous or missing label {label!r}"
    return matches[0]


def pick(instance, *labels):
    return [by_label(instance, lbl) for lbl in labels]


def camera_rules_jsonl() -> str:
    lines = [json.dumps({"item": "camera", "attributes": list(CAMERA_ATTRS)})]
    for label, s, p, attrs in CAMERA_RULES:
        lines.append(
            json.dumps(
                {
                    "tag": label,
                    "sentiment": s,
                    "p": p,
                    "attrs": [CAMERA_ATTRS[i] for i in attrs],
                }
            )
        )
    return "\n".join(lines) + "\n"


@pytest.fixture
def camera_rules_file(tmp_path):
    path = tmp_path / "camera.rules.jsonl"
    path.write_text(camera_rules_jsonl())
    return path
