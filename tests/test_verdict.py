"""Base verification, re-assessment, and the end-to-end pipeline."""

import contextlib
import json

import pytest
import requests

from tracer.alignment import AlignmentLabel, ExternalAlignmentClassifier, Provenance
from tracer.causality import Assumption, CausalEffect
from tracer.che import CheCandidate, ExternalNliClassifier, NliVerdict
from tracer.config import ABLATION_CONFIGS, Thresholds
from tracer.corpus import ClaimRecord, Label
from tracer.errors import (
    BackendError,
    EmptyJustification,
    ParseError,
    TracerError,
    UnparseableChoice,
)
from tracer.fixtures import (
    generate_synthetic_corpus,
    load_expected_report,
    load_scenario_record,
    load_scenario_script,
    make_scenario_gateway,
)
from tracer.gateway import Gateway, MockScript, ResponseCache
from tracer.gateway.backends import post_json
from tracer.verdict import (
    BaseVerdict,
    FinalVerdict,
    StageTrace,
    VerdictSource,
    cot_verify,
    load_base_verdicts,
    reassess_with_argument,
    report_from_dict,
    report_to_dict,
    run_pipeline,
    save_reports,
    load_reports,
)

from conftest import make_gateway, synthetic_script


# -- chain-of-thought base verdict -----------------------------------------


def _cot_gateway(completion):
    return make_gateway(rules=[{"template": "cot_verdict", "response": completion}])


@pytest.mark.parametrize(
    "letter,label",
    [("A", Label.TRUE), ("B", Label.HALF_TRUE), ("C", Label.FALSE)],
)
def test_cot_letter_mapping(letter, label):
    gateway, _ = _cot_gateway(f"Step one. Step two.\nAnswer: {letter}")
    verdict = cot_verify(gateway, "claim", ["e1"])
    assert verdict.label is label
    assert verdict.justification == "Step one. Step two."
    assert verdict.source is VerdictSource.COT


def test_cot_last_answer_marker_wins():
    gateway, _ = _cot_gateway(
        "Draft answer: A seems plausible at first.\nBut checking again.\nAnswer: C"
    )
    verdict = cot_verify(gateway, "claim", ["e1"])
    assert verdict.label is Label.FALSE
    assert verdict.justification.endswith("checking again.")


def test_cot_bare_letter_has_no_justification():
    gateway, _ = _cot_gateway("B")
    with pytest.raises(EmptyJustification):
        cot_verify(gateway, "claim", ["e1"])


def test_cot_marker_with_no_preceding_reasoning():
    gateway, _ = _cot_gateway("Answer: A")
    with pytest.raises(EmptyJustification):
        cot_verify(gateway, "claim", ["e1"])


def test_cot_unverifiable_is_not_a_base_option():
    gateway, _ = _cot_gateway("Reasoning.\nAnswer: D")
    with pytest.raises(UnparseableChoice):
        cot_verify(gateway, "claim", ["e1"])


def test_cot_prompt_carries_claim_and_evidence():
    gateway, script = _cot_gateway("Why.\nAnswer: A")
    cot_verify(gateway, "the claim text", ["first", "second"])
    prompt = script.call_log[0].prompt
    assert "the claim text" in prompt
    assert "first\nsecond" in prompt


def test_base_verdict_requires_justification():
    with pytest.raises(EmptyJustification):
        BaseVerdict(label=Label.TRUE, justification="  ", source=VerdictSource.COT)


# -- external verdict files -------------------------------------------------


def test_load_base_verdicts_round_trip(tmp_path):
    path = tmp_path / "verdicts.jsonl"
    rows = [
        {"id": "c1", "label": "True", "justification": "j1"},
        {"id": "c2", "label": "Half-True", "justification": "j2"},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    verdicts = load_base_verdicts(path)
    assert set(verdicts) == {"c1", "c2"}
    assert verdicts["c1"].label is Label.TRUE
    assert verdicts["c2"].label is Label.HALF_TRUE
    assert all(v.source is VerdictSource.EXTERNAL for v in verdicts.values())


def test_load_base_verdicts_names_bad_line(tmp_path):
    path = tmp_path / "verdicts.jsonl"
    path.write_text(
        '{"id": "c1", "label": "True", "justification": "j"}\n'
        '{"id": "c2", "label": "Mostly True", "justification": "j"}\n',
        encoding="utf-8",
    )
    with pytest.raises(ParseError) as excinfo:
        load_base_verdicts(path)
    assert excinfo.value.line_number == 2


# -- re-assessment ------------------------------------------------------------


def _base(label=Label.TRUE):
    return BaseVerdict(label=label, justification="base reasoning", source=VerdictSource.COT)


def _che_item(sentence="hidden one"):
    return CheCandidate(
        sentence=sentence,
        assumption="a",
        similarity=0.9,
        nli=NliVerdict.CONTRADICT,
        selected=True,
        linked_assumptions=("a",),
    )


def test_reassess_empty_che_preserves_base_without_a_call():
    gateway, script = make_gateway()
    final = reassess_with_argument(gateway, _base(), [], "argument")
    assert final == FinalVerdict(label=Label.TRUE, reassessed=False)
    assert script.call_log == []


@pytest.mark.parametrize(
    "letter,label",
    [("A", Label.TRUE), ("B", Label.HALF_TRUE), ("C", Label.FALSE)],
)
def test_reassess_letter_mapping(letter, label):
    gateway, script = make_gateway(rules=[{"template": "reassessment", "response": letter}])
    final = reassess_with_argument(gateway, _base(), [_che_item()], "the argument json")
    assert final.label is label
    assert final.reassessed is True
    assert final.raw_choice == letter
    assert final.fallback_reason is None
    prompt = script.call_log[0].prompt
    assert "hidden one" in prompt
    assert "the argument json" in prompt
    assert "base reasoning" in prompt


def test_reassess_unverifiable_keeps_base_label():
    gateway, _ = make_gateway(rules=[{"template": "reassessment", "response": "D"}])
    final = reassess_with_argument(gateway, _base(Label.HALF_TRUE), [_che_item()], "arg")
    assert final.label is Label.HALF_TRUE
    assert final.reassessed is True  # the stage did run and answered
    assert final.raw_choice == "D"
    assert final.fallback_reason == "Unverifiable"


def test_reassess_unparseable_keeps_base_with_reason():
    gateway, _ = make_gateway(
        rules=[{"template": "reassessment", "response": "cannot decide between them"}]
    )
    final = reassess_with_argument(gateway, _base(Label.TRUE), [_che_item()], "arg")
    assert final.label is Label.TRUE
    assert final.reassessed is False
    assert final.raw_choice is None
    assert final.fallback_reason.startswith("UnparseableChoice")


def test_reassess_joins_all_che_sentences():
    gateway, script = make_gateway(rules=[{"template": "reassessment", "response": "C"}])
    reassess_with_argument(
        gateway, _base(), [_che_item("first"), _che_item("second")], "arg"
    )
    assert "first\nsecond" in script.call_log[0].prompt


# -- pipeline wiring -----------------------------------------------------------


def _record():
    return ClaimRecord(
        id="t-1",
        claim="C.",
        date=None,
        raw_rating="True",
        gold_label=Label.TRUE,
        evidence=["E1 presented.", "E2 hidden."],
        ruling=["Our ruling", "R."],
    )


def _pipeline_rules(
    cot="Base reasoning.\nAnswer: A",
    reassess="B",
    nli="B",
    counterfactual="C",
    readability="1",
    questions="<Q1?>",
    assumptions="Thinking. <A1.>",
):
    return [
        {"template": "relevance", "response": "A"},
        {"template": "presentation", "contains": "E1", "response": "A"},
        {"template": "presentation", "response": "B"},
        {"template": "cot_verdict", "response": cot},
        {"template": "intent_generation", "response": "Because. <I.>"},
        {"template": "plausibility", "response": "1"},
        {"template": "implicity", "response": "1"},
        {"template": "sufficiency", "response": "1"},
        {"template": "readability", "response": readability},
        {"template": "implicit_questions", "response": questions},
        {"template": "assumptions", "response": assumptions},
        {"template": "counterfactual", "response": counterfactual},
        {"template": "nli", "response": nli},
        {"template": "reassessment", "response": reassess},
    ]


_PIPELINE_EMBEDDINGS = [
    {"text": "C.", "vector": [1.0, 0.0]},
    {"text": "E1 presented.", "vector": [0.9, 0.4358898943540673]},
    {"text": "E2 hidden.", "vector": [0.2, 0.9797958971132712]},
    {"text": "A1.", "vector": [0.2, 0.9797958971132712]},
    {"text": "I.", "vector": [0.2, 0.9797958971132712]},
]


def _pipeline_gateway(**kwargs):
    return make_gateway(rules=_pipeline_rules(**kwargs), embeddings=_PIPELINE_EMBEDDINGS)


def test_pipeline_full_run_revises_the_label():
    gateway, script = _pipeline_gateway()
    report = run_pipeline(gateway, _record())
    assert report.base_verdict.label is Label.TRUE
    assert report.final_verdict.label is Label.HALF_TRUE
    assert report.final_verdict.reassessed is True
    assert [a.label for a in report.aligned_evidence] == [
        AlignmentLabel.PRESENTED,
        AlignmentLabel.HIDDEN,
    ]
    assert [a.causal_effect for a in report.causal_argument.assumptions] == [
        CausalEffect.DECREASE
    ]
    assert [c.sentence for c in report.che] == ["E2 hidden."]
    assert {t.stage: t.status for t in report.stages} == {
        "alignment": "ok",
        "base_verdict": "ok",
        "intent": "ok",
        "questions": "ok",
        "assumptions": "ok",
        "causality": "ok",
        "che": "ok",
        "reassessment": "ok",
    }
    assert len(script.calls_for("counterfactual")) == 1


def test_pipeline_neutral_nli_preserves_base_label():
    gateway, script = _pipeline_gateway(nli="C")
    report = run_pipeline(gateway, _record())
    assert report.che == []
    assert report.final_verdict.label is report.base_verdict.label
    assert report.final_verdict.reassessed is False
    assert script.calls_for("reassessment") == []
    trace = {t.stage: t for t in report.stages}
    assert trace["reassessment"].status == "skipped"
    assert trace["reassessment"].detail == "no critical hidden evidence"


def test_pipeline_no_critical_assumption_preserves_base_label():
    gateway, script = _pipeline_gateway(counterfactual="A")
    report = run_pipeline(gateway, _record())
    assert report.che == []
    assert report.final_verdict == FinalVerdict(label=Label.TRUE, reassessed=False)
    assert script.calls_for("nli") == []
    assert script.calls_for("reassessment") == []


def test_pipeline_base_only_ablation_calls_nothing_downstream():
    gateway, script = _pipeline_gateway()
    report = run_pipeline(gateway, _record(), ablation=ABLATION_CONFIGS["cfg1"])
    assert report.final_verdict == FinalVerdict(label=Label.TRUE, reassessed=False)
    assert report.intent is None
    assert report.causal_argument is None
    assert report.che == []
    templates = {c.template for c in script.call_log if c.kind == "completion"}
    assert templates == {"relevance", "presentation", "cot_verdict"}
    trace = {t.stage: t.status for t in report.stages}
    for stage in ("intent", "questions", "assumptions", "causality", "che", "reassessment"):
        assert trace[stage] == "skipped"


def test_pipeline_intent_ablation_queries_by_intent():
    gateway, script = _pipeline_gateway()
    report = run_pipeline(gateway, _record(), ablation=ABLATION_CONFIGS["cfg2"])
    assert report.causal_argument is None
    assert script.calls_for("implicit_questions") == []
    assert script.calls_for("assumptions") == []
    assert script.calls_for("counterfactual") == []
    assert [c.assumption for c in report.che] == ["I."]
    argument = script.calls_for("reassessment")[0].prompt
    assert '"X": "C."' in argument
    assert '"Y_1"' not in argument  # no assumptions exist under this ablation
    assert report.final_verdict.label is Label.HALF_TRUE


def test_pipeline_assumption_ablation_treats_all_as_critical():
    gateway, script = _pipeline_gateway()
    report = run_pipeline(gateway, _record(), ablation=ABLATION_CONFIGS["cfg3"])
    assert script.calls_for("counterfactual") == []
    assert [c.assumption for c in report.che] == ["A1."]
    trace = {t.stage: t for t in report.stages}
    assert trace["causality"].status == "skipped"
    assert report.causal_argument.assumptions[0].causal_effect is None
    assert report.final_verdict.reassessed is True


def test_pipeline_external_base_verdicts_skip_cot():
    gateway, script = _pipeline_gateway()
    external = {
        "t-1": BaseVerdict(
            label=Label.HALF_TRUE, justification="ext", source=VerdictSource.EXTERNAL
        )
    }
    report = run_pipeline(gateway, _record(), base_verdicts=external)
    assert script.calls_for("cot_verdict") == []
    assert report.base_verdict.source is VerdictSource.EXTERNAL
    assert report.base_verdict.label is Label.HALF_TRUE


def test_pipeline_missing_external_verdict_fails_the_claim():
    gateway, _ = _pipeline_gateway()
    report = run_pipeline(gateway, _record(), base_verdicts={})
    assert report.final_verdict.label is Label.FALSE
    assert report.final_verdict.fallback_reason == "no external verdict for this claim"
    assert report.stages[-1].status == "failed"


class _RefusingSession:
    def post(self, url, json=None, headers=None, timeout=None):
        raise requests.ConnectionError("connection refused")


def _answering(body):
    return lambda url, payload: body


# What an external classifier can send back that is not an answer: a
# misnamed key, an unknown or out-of-range label, a body that is not an
# object, and a transport that keeps failing through every retry.
_CLASSIFIER_FAILURES = {
    "misnamed_key": _answering({"lbl": 1}),
    "unknown_verdict": _answering({"verdict": "maybe"}),
    "irrelevant_label": _answering({"label": "Irrelevant"}),
    "list_body": _answering([1]),
    "string_body": _answering("Hidden"),
    "null_body": _answering(None),
    "transport_error": lambda url, payload: post_json(
        url, payload, session=_RefusingSession(), sleep=lambda s: None
    ),
}


@pytest.mark.parametrize("failure", sorted(_CLASSIFIER_FAILURES))
def test_pipeline_records_alignment_classifier_failures(failure):
    classifier = ExternalAlignmentClassifier(
        "http://host/align", post=_CLASSIFIER_FAILURES[failure]
    )
    gateway, script = _pipeline_gateway()
    report = run_pipeline(gateway, _record(), alignment_classifier=classifier)
    assert [(row.stage, row.status) for row in report.stages] == [("alignment", "failed")]
    assert report.stages[0].detail.startswith("every evidence sentence failed: ")
    assert report.stages[0].detail.endswith(" errors=2")
    # every sentence failed, so the claim fails instead of being verified on no evidence
    assert script.calls_for("cot_verdict") == []
    assert report.final_verdict.label is Label.FALSE
    assert report.final_verdict.fallback_reason == report.stages[0].detail
    for aligned in report.aligned_evidence:
        assert aligned.error.startswith("BackendError: ")
        assert "http://host/align" in aligned.error
        assert aligned.provenance is Provenance.EXTERNAL_CLASSIFIER


def test_pipeline_goes_on_when_only_some_sentences_fail_alignment():
    def post(url, payload):
        if payload["sentence"] == "E2 hidden.":
            raise BackendError(f"POST {url} failed: connection refused")
        return {"label": "Presented"}

    classifier = ExternalAlignmentClassifier("http://host/align", post=post)
    gateway, script = _pipeline_gateway()
    report = run_pipeline(gateway, _record(), alignment_classifier=classifier)
    assert report.stages[0] == StageTrace(
        "alignment", "failed", "presented=1 hidden=0 irrelevant=1 errors=1"
    )
    assert report.stages[1] == StageTrace("base_verdict", "ok", "CoT")
    assert len(script.calls_for("cot_verdict")) == 1


def test_pipeline_claim_without_evidence_is_still_verified():
    record = _record()
    record.evidence = []
    gateway, script = _pipeline_gateway()
    report = run_pipeline(gateway, record)
    assert report.stages[0] == StageTrace("alignment", "ok", "presented=0 hidden=0 irrelevant=0")
    assert report.stages[1] == StageTrace("base_verdict", "ok", "CoT")
    assert len(script.calls_for("cot_verdict")) == 1


@pytest.mark.parametrize("failure", sorted(_CLASSIFIER_FAILURES))
def test_pipeline_records_nli_classifier_failures(failure):
    classifier = ExternalNliClassifier("http://host/nli", post=_CLASSIFIER_FAILURES[failure])
    gateway, _ = _pipeline_gateway()
    report = run_pipeline(gateway, _record(), nli_classifier=classifier)
    che = next(row for row in report.stages if row.stage == "che")
    assert che.status == "failed"
    assert che.detail.startswith("BackendError: ")
    assert "http://host/nli" in che.detail
    assert report.final_verdict == FinalVerdict(label=Label.TRUE, reassessed=False)


def test_pipeline_cot_failure_downgrades_to_false_with_trace():
    gateway, _ = _pipeline_gateway(cot="A")  # bare letter, no reasoning
    report = run_pipeline(gateway, _record())
    assert report.final_verdict.label is Label.FALSE
    assert "EmptyJustification" in report.final_verdict.fallback_reason
    trace = {t.stage: t for t in report.stages}
    assert trace["base_verdict"].status == "failed"


def test_pipeline_rejected_intent_downgrades_to_base():
    rules = [
        r if r["template"] != "readability" else {"template": "readability", "response": "0"}
        for r in _pipeline_rules()
    ]
    gateway, script = make_gateway(rules=rules, embeddings=_PIPELINE_EMBEDDINGS)
    report = run_pipeline(gateway, _record())
    assert report.final_verdict == FinalVerdict(label=Label.TRUE, reassessed=False)
    assert report.intent is not None  # recorded even though rejected
    assert report.intent_quality.accepted is False
    trace = {t.stage: t for t in report.stages}
    assert trace["intent"].status == "failed"
    assert "quality filter" in trace["intent"].detail
    assert trace["reassessment"].status == "skipped"
    assert script.calls_for("implicit_questions") == []


def test_pipeline_reassess_true_only_restricts_the_stage():
    gateway, script = _pipeline_gateway(cot="Reasoning.\nAnswer: B")
    report = run_pipeline(gateway, _record(), reassess_true_only=True)
    assert report.base_verdict.label is Label.HALF_TRUE
    assert report.final_verdict == FinalVerdict(label=Label.HALF_TRUE, reassessed=False)
    assert script.calls_for("reassessment") == []
    trace = {t.stage: t for t in report.stages}
    assert trace["reassessment"].status == "skipped"
    assert trace["reassessment"].detail == "restricted to True base verdicts"


def test_pipeline_reassess_true_only_still_reassesses_true():
    gateway, script = _pipeline_gateway()
    report = run_pipeline(gateway, _record(), reassess_true_only=True)
    assert report.base_verdict.label is Label.TRUE
    assert report.final_verdict.label is Label.HALF_TRUE
    assert len(script.calls_for("reassessment")) == 1


def test_pipeline_unparseable_reassessment_downgrades_gracefully():
    gateway, _ = _pipeline_gateway(reassess="no single letter here")
    report = run_pipeline(gateway, _record())
    assert report.final_verdict.label is Label.TRUE
    assert report.final_verdict.reassessed is False
    assert report.final_verdict.fallback_reason.startswith("UnparseableChoice")
    trace = {t.stage: t for t in report.stages}
    assert trace["reassessment"].status == "ok"
    assert "fallback=" in trace["reassessment"].detail


# -- exact stage traces ----------------------------------------------------------

_ALIGNED = ("alignment", "ok", "presented=1 hidden=1 irrelevant=0")
_COT = ("base_verdict", "ok", "CoT")
_INTENT = ("intent", "ok", "low_context=False")
_QUESTIONS = ("questions", "ok", "n=1")
_ASSUMPTIONS = ("assumptions", "ok", "n=1")
_CRITICAL = ("causality", "ok", "critical=1/1")
_ALL_CRITICAL = ("causality", "skipped", "ablation: all assumptions treated critical")
_REVISED = ("reassessment", "ok", "choice=B")
_GARBAGE = "UnparseableChoice: no letter from ['A', 'B', 'C'] in completion 'garbage'"
_NO_ITEMS = "NoItemsFound: no bracketed items in completion 'no brackets'"


def _skipped(reason, *stages):
    return [(stage, "skipped", reason) for stage in stages]


def _che(detail):
    return ("che", "ok", detail)


_BASE_ONLY = [
    _ALIGNED,
    _COT,
    *_skipped("ablation", "intent", "questions", "assumptions", "causality", "che", "reassessment"),
]
_INTENT_QUERY = [
    _ALIGNED,
    _COT,
    _INTENT,
    *_skipped("ablation", "questions", "assumptions", "causality"),
]
_ALL_ASSUMED = [_ALIGNED, _COT, _INTENT, _QUESTIONS, _ASSUMPTIONS, _ALL_CRITICAL]
_FULL = [_ALIGNED, _COT, _INTENT, _QUESTIONS, _ASSUMPTIONS, _CRITICAL]
_COT_FAILED = [
    _ALIGNED,
    ("base_verdict", "failed", "EmptyJustification: chain-of-thought completion contains no reasoning steps"),
]
_NO_EXTERNAL = [_ALIGNED, ("base_verdict", "failed", "no external verdict for this claim")]
_UNPARSEABLE_QUALITY = [
    _ALIGNED,
    _COT,
    ("intent", "failed", "UnparseableDigit: criterion 'readability': expected 0 or 1, got 'maybe'"),
    *_skipped("intent unavailable", "questions", "assumptions", "causality", "che", "reassessment"),
]
_REJECTED_INTENT = [
    _ALIGNED,
    _COT,
    (
        "intent",
        "failed",
        'quality filter rejected the intent: {"plausibility": 1, "implicity": 1, '
        '"sufficiency": 1, "readability": 0}',
    ),
    *_skipped("intent unavailable", "questions", "assumptions", "causality", "che", "reassessment"),
]
_QUESTIONS_FAILED = [
    _ALIGNED,
    _COT,
    _INTENT,
    ("questions", "failed", _NO_ITEMS),
    *_skipped("questions unavailable", "assumptions", "causality", "che", "reassessment"),
]
_ASSUMPTIONS_FAILED = [
    _ALIGNED,
    _COT,
    _INTENT,
    _QUESTIONS,
    ("assumptions", "failed", _NO_ITEMS),
    *_skipped("assumptions unavailable", "causality", "che", "reassessment"),
]
_TRUNCATED = [
    _ALIGNED,
    _COT,
    _INTENT,
    ("questions", "ok", "n=3"),
    ("questions", "ok", "implicit questions: 4 returned, keeping first 3"),
    _ASSUMPTIONS,
]
_UNPARSEABLE_REASSESSMENT = (
    "reassessment", "ok", "choice=None fallback=UnparseableChoice: 'no single letter here'"
)
_TRUE_ONLY = ("reassessment", "skipped", "restricted to True base verdicts")
_NOTHING_HIDDEN = ("reassessment", "skipped", "no critical hidden evidence")
_HIDDEN_UNAVAILABLE = ("reassessment", "skipped", "hidden evidence unavailable")

# case: (_pipeline_rules overrides, run_pipeline keywords, {config: (final label, trace)})
_TRACES = {
    "every_stage_ok": ({}, {}, {
        "cfg1": ("True", _BASE_ONLY),
        "cfg2": ("Half-True", [*_INTENT_QUERY, _che("selected=1 (intent query)"), _REVISED]),
        "cfg3": ("Half-True", [*_ALL_ASSUMED, _che("selected=1"), _REVISED]),
        "cfg4": ("Half-True", [*_FULL, _che("selected=1"), _REVISED]),
    }),
    "cot_failure": ({"cot": "A"}, {}, {
        cfg: ("False", _COT_FAILED) for cfg in ("cfg1", "cfg2", "cfg3", "cfg4")
    }),
    "missing_external_verdict": ({}, {"base_verdicts": {}}, {
        cfg: ("False", _NO_EXTERNAL) for cfg in ("cfg1", "cfg2", "cfg3", "cfg4")
    }),
    "unparseable_quality_digit": ({"readability": "maybe"}, {}, {
        "cfg1": ("True", _BASE_ONLY),
        **{cfg: ("True", _UNPARSEABLE_QUALITY) for cfg in ("cfg2", "cfg3", "cfg4")},
    }),
    "rejected_intent": ({"readability": "0"}, {}, {
        "cfg1": ("True", _BASE_ONLY),
        **{cfg: ("True", _REJECTED_INTENT) for cfg in ("cfg2", "cfg3", "cfg4")},
    }),
    "questions_failure": ({"questions": "no brackets"}, {}, {
        "cfg1": ("True", _BASE_ONLY),
        "cfg2": ("Half-True", [*_INTENT_QUERY, _che("selected=1 (intent query)"), _REVISED]),
        "cfg3": ("True", _QUESTIONS_FAILED),
        "cfg4": ("True", _QUESTIONS_FAILED),
    }),
    "questions_truncated": ({"questions": "<Q1?> <Q2?> <Q3?> <Q4?>"}, {}, {
        "cfg1": ("True", _BASE_ONLY),
        "cfg2": ("Half-True", [*_INTENT_QUERY, _che("selected=1 (intent query)"), _REVISED]),
        "cfg3": ("Half-True", [*_TRUNCATED, _ALL_CRITICAL, _che("selected=1"), _REVISED]),
        "cfg4": ("Half-True", [*_TRUNCATED, _CRITICAL, _che("selected=1"), _REVISED]),
    }),
    "assumptions_failure": ({"assumptions": "no brackets"}, {}, {
        "cfg1": ("True", _BASE_ONLY),
        "cfg2": ("Half-True", [*_INTENT_QUERY, _che("selected=1 (intent query)"), _REVISED]),
        "cfg3": ("True", _ASSUMPTIONS_FAILED),
        "cfg4": ("True", _ASSUMPTIONS_FAILED),
    }),
    "counterfactual_failure": ({"counterfactual": "garbage"}, {}, {
        "cfg1": ("True", _BASE_ONLY),
        "cfg2": ("Half-True", [*_INTENT_QUERY, _che("selected=1 (intent query)"), _REVISED]),
        "cfg3": ("Half-True", [*_ALL_ASSUMED, _che("selected=1"), _REVISED]),
        "cfg4": ("True", [
            _ALIGNED,
            _COT,
            _INTENT,
            _QUESTIONS,
            _ASSUMPTIONS,
            ("causality", "failed", _GARBAGE),
            *_skipped("causality unavailable", "che", "reassessment"),
        ]),
    }),
    "nli_failure": ({"nli": "garbage"}, {}, {
        "cfg1": ("True", _BASE_ONLY),
        "cfg2": ("True", [*_INTENT_QUERY, ("che", "failed", _GARBAGE), _HIDDEN_UNAVAILABLE]),
        "cfg3": ("True", [*_ALL_ASSUMED, ("che", "failed", _GARBAGE), _HIDDEN_UNAVAILABLE]),
        "cfg4": ("True", [*_FULL, ("che", "failed", _GARBAGE), _HIDDEN_UNAVAILABLE]),
    }),
    "unparseable_reassessment": ({"reassess": "no single letter here"}, {}, {
        "cfg1": ("True", _BASE_ONLY),
        "cfg2": ("True", [
            *_INTENT_QUERY, _che("selected=1 (intent query)"), _UNPARSEABLE_REASSESSMENT
        ]),
        "cfg3": ("True", [*_ALL_ASSUMED, _che("selected=1"), _UNPARSEABLE_REASSESSMENT]),
        "cfg4": ("True", [*_FULL, _che("selected=1"), _UNPARSEABLE_REASSESSMENT]),
    }),
    "reassess_true_only_skip": (
        {"cot": "Reasoning.\nAnswer: B"},
        {"reassess_true_only": True},
        {
            "cfg1": ("Half-True", _BASE_ONLY),
            "cfg2": ("Half-True", [*_INTENT_QUERY, _che("selected=1 (intent query)"), _TRUE_ONLY]),
            "cfg3": ("Half-True", [*_ALL_ASSUMED, _che("selected=1"), _TRUE_ONLY]),
            "cfg4": ("Half-True", [*_FULL, _che("selected=1"), _TRUE_ONLY]),
        },
    ),
    "empty_che": ({"nli": "C"}, {}, {
        "cfg1": ("True", _BASE_ONLY),
        "cfg2": ("True", [*_INTENT_QUERY, _che("selected=0 (intent query)"), _NOTHING_HIDDEN]),
        "cfg3": ("True", [*_ALL_ASSUMED, _che("selected=0"), _NOTHING_HIDDEN]),
        "cfg4": ("True", [*_FULL, _che("selected=0"), _NOTHING_HIDDEN]),
    }),
}


@pytest.mark.parametrize("cfg", ["cfg1", "cfg2", "cfg3", "cfg4"])
@pytest.mark.parametrize("case", list(_TRACES))
def test_pipeline_stage_trace_is_exact(case, cfg):
    overrides, keywords, expected = _TRACES[case]
    gateway, _ = _pipeline_gateway(**overrides)
    report = run_pipeline(gateway, _record(), ablation=ABLATION_CONFIGS[cfg], **keywords)
    rows = [(t.stage, t.status, t.detail) for t in report.stages]
    assert (report.final_verdict.label.value, rows) == expected[cfg]


# -- shipped scenario -----------------------------------------------------------


def test_scenario_reproduces_the_committed_report():
    gateway = make_scenario_gateway()
    report = run_pipeline(gateway, load_scenario_record())
    assert report_to_dict(report) == report_to_dict(load_expected_report())


def test_scenario_summary_shape():
    gateway = make_scenario_gateway()
    report = run_pipeline(gateway, load_scenario_record())
    assert report.base_verdict.label is Label.TRUE
    assert report.final_verdict.label is Label.HALF_TRUE
    assert report.final_verdict.reassessed is True
    assert len(report.che) == 2
    assert all(c.similarity == pytest.approx(0.9) for c in report.che)
    assert all(t.status == "ok" for t in report.stages)


def test_scenario_runs_are_byte_identical():
    runs = []
    for _ in range(2):
        gateway = make_scenario_gateway()
        report = run_pipeline(gateway, load_scenario_record())
        runs.append(json.dumps(report_to_dict(report), ensure_ascii=False, sort_keys=False))
    assert runs[0] == runs[1]


# -- cache writes ----------------------------------------------------------------


def _vector_file(path):
    return path.with_name(path.name + ".vectors")


def _record_requests(gateway):
    """Wrap the gateway's requests so that every call is logged in order."""
    calls = []
    for name in ("complete", "embed", "embed_many"):
        method = getattr(gateway, name)

        def logged(*args, _method=method, _name=name, **kwargs):
            calls.append((_name, args, kwargs))
            return _method(*args, **kwargs)

        setattr(gateway, name, logged)
    return calls


def _scenario_run():
    return load_scenario_script(), [load_scenario_record()]


def _synthetic_run(dim):
    def run():
        script = MockScript.from_dict(synthetic_script(dim))
        return script, generate_synthetic_corpus(seed=23, n=5).records

    return run


@pytest.mark.parametrize(
    "make_run",
    [_scenario_run, _synthetic_run(8), _synthetic_run(1536)],
    ids=["scenario", "synthetic-8", "synthetic-1536"],
)
def test_pipeline_cache_files_equal_those_of_the_same_requests_written_through(
    tmp_path, make_run
):
    script, records = make_run()
    path = tmp_path / "claims.jsonl"
    gateway = Gateway(backend=script, cache=ResponseCache(path))
    calls = _record_requests(gateway)
    for record in records:
        run_pipeline(gateway, record)

    # the same requests, one at a time, outside any claim
    script, _ = make_run()
    through = tmp_path / "through.jsonl"
    replay = Gateway(backend=script, cache=ResponseCache(through))
    for name, args, kwargs in calls:
        with contextlib.suppress(TracerError):
            getattr(replay, name)(*args, **kwargs)
    assert replay.counters == gateway.counters
    assert path.read_bytes() == through.read_bytes()
    assert _vector_file(path).read_bytes() == _vector_file(through).read_bytes()
    assert _vector_file(path).stat().st_size > 0


class _InterruptedBackend:
    """The scenario script, interrupted at the first request for one template."""

    def __init__(self, template_id):
        self.script = load_scenario_script()
        self.template_id = template_id

    def complete(self, template_id, prompt, decoding):
        if template_id == self.template_id:
            raise KeyboardInterrupt
        return self.script.complete(template_id, prompt, decoding)

    def embed(self, texts):
        return self.script.embed(texts)


def test_pipeline_interrupted_inside_a_claim_keeps_its_earlier_records(tmp_path):
    path = tmp_path / "cache.jsonl"
    gateway = Gateway(backend=_InterruptedBackend("cot_verdict"), cache=ResponseCache(path))
    with pytest.raises(KeyboardInterrupt):
        run_pipeline(gateway, load_scenario_record())

    # alignment's completions and embeddings came before the interrupt
    held = gateway.cache._entries
    counters = gateway.counters
    # one record per completion call and one per embedded text
    assert counters.by_template == {"relevance": 4, "presentation": 4}
    assert len(held) == 8 + counters.embedding_requests - counters.embedding_cache_hits > 8
    reloaded = ResponseCache(path)
    assert len(reloaded) == len(held)
    for key, value in held.items():
        if isinstance(value, str):
            assert reloaded.get(key) == value
        else:
            assert reloaded.get(key).tobytes() == value.tobytes()


def test_pipeline_never_leaves_an_index_record_past_the_vector_file(tmp_path):
    path = tmp_path / "cache.jsonl"
    gateway = Gateway(
        backend=MockScript.from_dict(synthetic_script(8)), cache=ResponseCache(path)
    )
    n_records = 0
    for record in generate_synthetic_corpus(seed=29, n=4).records:
        run_pipeline(gateway, record)
        size = _vector_file(path).stat().st_size
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) > n_records
        n_records = len(lines)
        for line in lines:
            index = json.loads(line)
            if "at" in index:
                assert index["at"] + 8 * index["dim"] <= size
        assert len(ResponseCache(path)) == n_records


def test_pipeline_answer_with_a_lone_surrogate_fails_only_its_stage(tmp_path):
    script = synthetic_script(8)
    script["rules"] = [
        {"template": "intent_generation", "response": "intent \ud800"}
        if rule["template"] == "intent_generation"
        else rule
        for rule in script["rules"]
    ]
    path = tmp_path / "cache.jsonl"
    gateway = Gateway(backend=MockScript.from_dict(script), cache=ResponseCache(path))
    records = generate_synthetic_corpus(seed=29, n=2).records
    reports = [run_pipeline(gateway, record) for record in records]
    for report in reports:
        status = {trace.stage: trace for trace in report.stages}
        assert status["base_verdict"].status == "ok"
        assert status["intent"].status == "failed"
        assert "BackendError" in status["intent"].detail
        assert "not valid Unicode" in status["intent"].detail
    save_reports(tmp_path / "reports.jsonl", reports)
    gateway.cache.close()
    assert len(ResponseCache(path)) == len(gateway.cache)


def test_pipeline_cache_that_cannot_write_vectors_writes_no_index_record(tmp_path):
    path = tmp_path / "cache.jsonl"
    _vector_file(path).mkdir()
    gateway = Gateway(
        backend=MockScript.from_dict(synthetic_script(8)), cache=ResponseCache(path)
    )
    with pytest.raises(OSError):
        run_pipeline(gateway, generate_synthetic_corpus(seed=29, n=1).records[0])
    written = path.read_text(encoding="utf-8") if path.exists() else ""
    assert '"at": ' not in written


# -- report serialization ---------------------------------------------------------


def test_report_round_trip_is_lossless():
    gateway, _ = _pipeline_gateway()
    report = run_pipeline(gateway, _record())
    restored = report_from_dict(report_to_dict(report))
    assert restored == report
    # and the dict form is json-stable
    once = json.dumps(report_to_dict(report))
    twice = json.dumps(report_to_dict(restored))
    assert once == twice


def test_report_round_trip_with_minimal_fields():
    gateway, script = _pipeline_gateway()
    report = run_pipeline(gateway, _record(), ablation=ABLATION_CONFIGS["cfg1"])
    restored = report_from_dict(report_to_dict(report))
    assert restored == report
    assert restored.intent is None
    assert restored.causal_argument is None


def test_report_rejects_unknown_schema_version():
    with pytest.raises(ParseError):
        report_from_dict({"schema_version": 99})


def test_save_and_load_reports(tmp_path):
    gateway, _ = _pipeline_gateway()
    reports = [run_pipeline(gateway, _record())]
    path = tmp_path / "reports.jsonl"
    save_reports(path, reports)
    assert load_reports(path) == reports


def test_load_reports_names_bad_line(tmp_path):
    path = tmp_path / "reports.jsonl"
    path.write_text("not json\n", encoding="utf-8")
    with pytest.raises(ParseError) as excinfo:
        load_reports(path)
    assert excinfo.value.line_number == 1
