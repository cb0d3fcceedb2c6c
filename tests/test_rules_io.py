import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagselect import Rule, RulesFileError, Sentiment
from tagselect import rules_io

from conftest import CAMERA_ATTRS, camera_rules_jsonl


def test_load_camera_file(camera_rules_file, camera):
    doc = rules_io.load(camera_rules_file)
    assert doc.item_id == "camera"
    assert doc.attributes == CAMERA_ATTRS
    assert len(doc.rules) == 6
    assert doc.build() == camera


def test_round_trip(camera_rules_file):
    doc = rules_io.load(camera_rules_file)
    assert rules_io.loads(rules_io.dumps(doc)) == doc


@st.composite
def documents(draw):
    attributes = draw(st.lists(st.text(), min_size=1, max_size=8, unique=True))
    rule = st.builds(
        Rule,
        st.frozensets(st.integers(0, len(attributes) - 1), min_size=1),
        st.text(min_size=1),
        st.sampled_from(Sentiment),
        st.floats(0.0, 1.0),
    )
    return rules_io.RulesDocument(
        item_id=draw(st.text()),
        attributes=tuple(attributes),
        rules=tuple(draw(st.lists(rule, max_size=8))),
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(documents())
def test_round_trip_drawn_documents(doc):
    assert rules_io.loads(rules_io.dumps(doc)) == doc


def test_blank_lines_ignored():
    text = camera_rules_jsonl().replace("\n", "\n\n", 2)
    assert len(rules_io.loads(text).rules) == 6


def test_header_maps_attribute_order_to_indices():
    text = "\n".join(
        [
            json.dumps({"attributes": ["b", "a"]}),
            json.dumps({"tag": "t", "sentiment": "+", "p": 0.5, "attrs": ["a"]}),
        ]
    )
    doc = rules_io.loads(text)
    assert doc.rules[0].antecedent == frozenset({1})
    assert doc.rules[0].sentiment is Sentiment.POSITIVE


def error_line(text):
    with pytest.raises(RulesFileError) as exc:
        rules_io.loads(text)
    return exc.value


def test_invalid_json_reports_line_number():
    text = camera_rules_jsonl().splitlines()
    text[2] = "{not json"
    err = error_line("\n".join(text))
    assert err.line_no == 3
    assert "line 3" in str(err)


def test_missing_header():
    assert error_line("").line_no is None


def test_header_without_attributes():
    err = error_line(json.dumps({"item": "x"}))
    assert "attributes" in str(err)


def test_duplicate_attributes_rejected():
    err = error_line(json.dumps({"attributes": ["a", "a"]}))
    assert "unique" in str(err)


def test_non_string_attribute_names_rejected():
    err = error_line(json.dumps({"attributes": ["a", 1]}))
    assert err.line_no == 1
    assert "attribute names must be strings" in str(err)


def test_non_object_line():
    err = error_line(json.dumps({"attributes": ["a"]}) + "\n[1, 2]")
    assert err.line_no == 2


@pytest.mark.parametrize(
    "rule,fragment",
    [
        ({"sentiment": "+", "p": 0.5, "attrs": ["a"]}, "tag"),
        ({"tag": "t", "p": 0.5, "attrs": ["a"]}, "sentiment"),
        ({"tag": "t", "sentiment": "?", "p": 0.5, "attrs": ["a"]}, "sentiment"),
        ({"tag": "t", "sentiment": "+", "p": 1.5, "attrs": ["a"]}, "p"),
        ({"tag": "t", "sentiment": "+", "p": 0.5, "attrs": []}, "attrs"),
        ({"tag": "t", "sentiment": "+", "p": 0.5, "attrs": ["zzz"]}, "unknown attribute"),
        ({"tag": "", "sentiment": "+", "p": 0.5, "attrs": ["a"]}, "tag"),
        ({"tag": "t", "sentiment": "+", "p": 0.5, "attrs": [["a"]]}, "attrs"),
        ({"tag": "t", "sentiment": ["+"], "p": 0.5, "attrs": ["a"]}, "sentiment"),
    ],
)
def test_malformed_rule_lines(rule, fragment):
    text = json.dumps({"attributes": ["a"]}) + "\n" + json.dumps(rule)
    err = error_line(text)
    assert err.line_no == 2
    assert fragment in str(err)
