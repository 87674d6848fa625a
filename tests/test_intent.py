"""Intent recovery and the four-criteria quality filter."""

import itertools

import pytest

from tracer.errors import NoItemsFound, UnparseableDigit
from tracer.intent import IntentSource, generate_intent, score_quality

from conftest import make_gateway


# -- generation -------------------------------------------------------------


def test_generate_intent_takes_last_bracketed_item():
    completion = (
        "The evidence undercuts the number. It mentions <a caveat> in passing.\n"
        "<Taxes went down for everyone.>"
    )
    gateway, _ = make_gateway(
        rules=[{"template": "intent_generation", "response": completion}]
    )
    record = generate_intent(gateway, "claim", ["evidence"])
    assert record.text == "Taxes went down for everyone."
    assert record.rationale.endswith("in passing.")
    assert "<" not in record.text and ">" not in record.text


def test_generate_intent_takes_intent_and_rationale_from_the_same_bracket():
    # a blank last bracket is no item, so the intent is the one before it,
    # and the rationale is the text before the intent, not before the blank
    completion = "Reasoning here. <The economy is strong.> < >"
    gateway, _ = make_gateway(
        rules=[{"template": "intent_generation", "response": completion}]
    )
    record = generate_intent(gateway, "claim", ["evidence"])
    assert (record.text, record.rationale) == ("The economy is strong.", "Reasoning here.")


def test_generate_intent_without_brackets_fails():
    for completion in ("no markers at all", "blank brackets only: < > <>"):
        gateway, _ = make_gateway(
            rules=[{"template": "intent_generation", "response": completion}]
        )
        with pytest.raises(NoItemsFound, match="no bracketed items in completion"):
            generate_intent(gateway, "claim", ["evidence"])


def test_generate_intent_with_evidence():
    gateway, script = make_gateway(
        rules=[
            {
                "template": "intent_generation",
                "response": "Reasoning first. <The policy is working.>",
            }
        ]
    )
    record = generate_intent(gateway, "claim", ["sentence one", "sentence two"])
    assert record.text == "The policy is working."
    assert record.rationale == "Reasoning first."
    assert record.source is IntentSource.EVIDENCE_GENERATION
    assert record.low_context is False
    assert "sentence one\nsentence two" in script.call_log[0].prompt


def test_generate_intent_without_evidence_flags_low_context():
    gateway, script = make_gateway(
        rules=[{"template": "intent_generation", "response": "<Bare claim intent.>"}]
    )
    record = generate_intent(gateway, "claim", [])
    assert record.low_context is True
    assert record.rationale == ""
    assert "(no evidence available)" in script.call_log[0].prompt


# -- quality filter -------------------------------------------------------

_CRITERIA = ("plausibility", "implicity", "sufficiency", "readability")


def _quality_gateway(scores):
    rules = [
        {"template": criterion, "response": str(score)}
        for criterion, score in zip(_CRITERIA, scores)
    ]
    return make_gateway(rules=rules)


@pytest.mark.parametrize("scores", list(itertools.product((0, 1), repeat=4)))
def test_quality_accepts_only_a_clean_sweep(scores):
    gateway, _ = _quality_gateway(scores)
    result = score_quality(gateway, "claim", "intent")
    assert (result.plausibility, result.implicity, result.sufficiency, result.readability) == scores
    assert result.accepted is (scores == (1, 1, 1, 1))


def test_quality_always_issues_all_four_calls():
    gateway, script = _quality_gateway((1, 1, 1, 1))
    score_quality(gateway, "claim", "intent")
    assert sorted(c.template for c in script.call_log) == sorted(_CRITERIA)


def test_quality_unparseable_score_still_issues_remaining_calls():
    gateway, script = make_gateway(
        rules=[
            {"template": "plausibility", "response": "2"},  # out of range
            {"template": "implicity", "response": "1"},
            {"template": "sufficiency", "response": "1"},
            {"template": "readability", "response": "1"},
        ]
    )
    with pytest.raises(UnparseableDigit) as excinfo:
        score_quality(gateway, "claim", "intent")
    assert excinfo.value.criterion == "plausibility"
    assert len(script.call_log) == 4


def test_quality_first_failing_criterion_reported_in_canonical_order():
    gateway, _ = make_gateway(
        rules=[
            {"template": "plausibility", "response": "1"},
            {"template": "implicity", "response": "maybe"},
            {"template": "sufficiency", "response": "also unclear"},
            {"template": "readability", "response": "1"},
        ]
    )
    with pytest.raises(UnparseableDigit) as excinfo:
        score_quality(gateway, "claim", "intent")
    assert excinfo.value.criterion == "implicity"
