"""Every shipped malformed completion, driven through its real parser.

The corpus in fixtures/data lists responses a model could plausibly emit
and the behavior each one must produce: a clean parse, a specific
exception, truncation, or a recorded fallback. Adding a new observed
malformation means adding one JSON entry, not a new test.
"""

import pytest

from tracer import errors
from tracer.causality import (
    VAGUE_REFERENCE_FLAG,
    ImplicitQuestion,
    generate_implicit_questions,
    infer_assumptions,
)
from tracer.che import CheCandidate, NliVerdict
from tracer.corpus import Label
from tracer.gateway import parse_binary_digit, parse_bracketed, parse_letter_choice
from tracer.verdict import BaseVerdict, VerdictSource, cot_verify, reassess_with_argument

from conftest import load_malformed_responses, make_gateway

ENTRIES = load_malformed_responses()


def _expected_error(entry):
    return getattr(errors, entry["expect_error"])


def _one_rule_gateway(template, text):
    return make_gateway(rules=[{"template": template, "response": text}])


def _run_letter(entry):
    return parse_letter_choice(entry["text"], set(entry["allowed"]))


def _run_bracketed(entry):
    return parse_bracketed(entry["text"])


def _run_bracketed_sep(entry):
    return parse_bracketed(entry["text"], separator=entry["separator"])


def _run_digit(entry):
    return parse_binary_digit(entry["text"], "criterion")


def _run_questions(entry):
    gateway, _ = _one_rule_gateway("implicit_questions", entry["text"])
    return generate_implicit_questions(gateway, "claim", "intent", [])


def _run_assumptions(entry):
    gateway, _ = _one_rule_gateway("assumptions", entry["text"])
    return infer_assumptions(gateway, "claim", "intent", [ImplicitQuestion("q?")])


def _run_cot(entry):
    gateway, _ = _one_rule_gateway("cot_verdict", entry["text"])
    return cot_verify(gateway, "claim", ["evidence"])


def _run_reassess(entry):
    gateway, _ = _one_rule_gateway("reassessment", entry["text"])
    base = BaseVerdict(
        label=Label.TRUE, justification="base reasoning", source=VerdictSource.COT
    )
    che = [
        CheCandidate(
            sentence="hidden",
            assumption="a",
            similarity=0.9,
            nli=NliVerdict.CONTRADICT,
            selected=True,
            linked_assumptions=("a",),
        )
    ]
    return reassess_with_argument(gateway, base, che, "argument")


_RUNNERS = {
    "letter": _run_letter,
    "bracketed": _run_bracketed,
    "bracketed_sep": _run_bracketed_sep,
    "digit": _run_digit,
    "questions": _run_questions,
    "assumptions": _run_assumptions,
    "cot": _run_cot,
    "reassess": _run_reassess,
}


@pytest.mark.parametrize("entry", ENTRIES, ids=[e["name"] for e in ENTRIES])
def test_malformed_response(entry):
    runner = _RUNNERS[entry["kind"]]

    if "expect_error" in entry:
        with pytest.raises(_expected_error(entry)):
            runner(entry)
        return

    result = runner(entry)

    if "expect_value" in entry:
        assert result == entry["expect_value"]
    if "expect_items" in entry:
        assert result == entry["expect_items"]
    if "expect_count" in entry:
        assert len(result) == entry["expect_count"]
    if entry.get("expect_flagged"):
        assert all(VAGUE_REFERENCE_FLAG in item.flags for item in result)
    if "expect_label" in entry:
        assert result.label is Label(entry["expect_label"])
    if "expect_reassessed" in entry:
        assert result.reassessed is entry["expect_reassessed"]
    if "expect_fallback" in entry:
        has_reason = result.fallback_reason is not None
        assert has_reason is entry["expect_fallback"]
