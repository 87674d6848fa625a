"""Implicit questions, assumptions, and counterfactual effects."""

import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tracer.causality import (
    LETTER_TO_EFFECT,
    VAGUE_REFERENCE_FLAG,
    Assumption,
    CausalArgument,
    CausalEffect,
    ImplicitQuestion,
    evaluate_all,
    generate_implicit_questions,
    infer_assumptions,
    select_critical_assumptions,
    serialize_argument,
)
from tracer.errors import (
    NoItemsFound,
    UnevaluatedAssumption,
    UnparseableChoice,
)
from tracer.gateway import bundled_templates, render_template

from conftest import make_gateway, served


def graph_of(*texts, intent="Z text", claim="X text", effects=None):
    assumptions = tuple(
        Assumption(text=t, causal_effect=(effects[i] if effects else None))
        for i, t in enumerate(texts)
    )
    return CausalArgument(intent=intent, claim=claim, assumptions=assumptions)


# -- implicit questions ---------------------------------------------------


def test_questions_parsed_from_brackets():
    gateway, script = make_gateway(
        rules=[
            {
                "template": "implicit_questions",
                "response": "Some framing. <Was the base year typical?> <Did coverage change?>",
            }
        ]
    )
    questions = generate_implicit_questions(gateway, "c", "i", ["h1", "h2"])
    assert [q.text for q in questions] == [
        "Was the base year typical?",
        "Did coverage change?",
    ]
    assert "h1\nh2" in script.call_log[0].prompt


def test_questions_truncated_at_cap_with_diagnostic():
    gateway, _ = make_gateway(
        rules=[
            {
                "template": "implicit_questions",
                "response": "<q1> <q2> <q3> <q4> <q5>",
            }
        ]
    )
    diagnostics = []
    questions = generate_implicit_questions(
        gateway, "c", "i", [], max_questions=3, diagnostics=diagnostics
    )
    assert [q.text for q in questions] == ["q1", "q2", "q3"]
    assert diagnostics == ["implicit questions: 5 returned, keeping first 3"]


def test_questions_without_hidden_evidence_say_so():
    gateway, script = make_gateway(
        rules=[{"template": "implicit_questions", "response": "<q>"}]
    )
    generate_implicit_questions(gateway, "c", "i", [])
    assert "(none)" in script.call_log[0].prompt


def test_questions_none_found_raises():
    gateway, _ = make_gateway(
        rules=[{"template": "implicit_questions", "response": "nothing bracketed"}]
    )
    with pytest.raises(NoItemsFound):
        generate_implicit_questions(gateway, "c", "i", [])


# -- assumptions ----------------------------------------------------------

_Q = [ImplicitQuestion("Was it counted?")]


def test_assumptions_split_on_double_pipe():
    gateway, script = make_gateway(
        rules=[
            {
                "template": "assumptions",
                "response": "Reasoning here. <First assumption. || Second assumption.>",
            }
        ]
    )
    assumptions = infer_assumptions(gateway, "c", "i", _Q)
    assert [a.text for a in assumptions] == ["First assumption.", "Second assumption."]
    assert all(a.causal_effect is None for a in assumptions)
    assert "Was it counted?" in script.call_log[0].prompt
    assert "3" in script.call_log[0].prompt  # the cap rides along in the prompt


def test_assumptions_vague_reference_flagged_not_rejected():
    gateway, _ = make_gateway(
        rules=[
            {
                "template": "assumptions",
                "response": "<The figure counts cancellations. || The claim is about all trains.>",
            }
        ]
    )
    assumptions = infer_assumptions(gateway, "c", "i", _Q)
    assert assumptions[0].flags == ()
    assert assumptions[1].flags == (VAGUE_REFERENCE_FLAG,)


def test_assumptions_truncated_at_cap():
    gateway, _ = make_gateway(
        rules=[{"template": "assumptions", "response": "<a1 || a2 || a3 || a4>"}]
    )
    diagnostics = []
    assumptions = infer_assumptions(gateway, "c", "i", _Q, max_n=3, diagnostics=diagnostics)
    assert [a.text for a in assumptions] == ["a1", "a2", "a3"]
    assert diagnostics == ["assumptions: 4 returned, keeping first 3"]


def test_assumptions_require_questions():
    gateway, _ = make_gateway()
    with pytest.raises(ValueError):
        infer_assumptions(gateway, "c", "i", [])


# -- argument wire format -------------------------------------------------


def test_serialize_argument_structure():
    graph = graph_of("first", "second")
    data = json.loads(serialize_argument(graph))
    assert data == {
        "Z": "Z text",
        "linked_by": {"X": "X text", "Y_1": "first", "Y_2": "second"},
    }


def test_serialize_argument_is_pretty_printed_unicode():
    graph = graph_of("café statistics")
    text = serialize_argument(graph)
    assert "café" in text  # not \u-escaped
    assert text.startswith("{\n")


def test_parse_inverts_serialize():
    graph = graph_of("a1", "a2", "a3")
    parsed = json.loads(serialize_argument(graph))
    assert parsed["Z"] == graph.intent
    assert parsed["linked_by"] == {"X": graph.claim, "Y_1": "a1", "Y_2": "a2", "Y_3": "a3"}


@given(
    texts=st.lists(st.text(min_size=1, max_size=40), min_size=1, max_size=5),
    intent=st.text(min_size=1, max_size=40),
    claim=st.text(min_size=1, max_size=40),
)
def test_parse_serialize_round_trip_property(texts, intent, claim):
    graph = CausalArgument(
        intent=intent, claim=claim, assumptions=tuple(Assumption(t) for t in texts)
    )
    parsed = json.loads(serialize_argument(graph))
    assert parsed["Z"] == intent
    assert parsed["linked_by"] == {
        "X": claim,
        **{f"Y_{i}": text for i, text in enumerate(texts, start=1)},
    }


# every character a string can hold: quotes, backslashes, control
# characters, non-BMP characters and lone surrogates included
_ANY_TEXT = st.text(st.characters(exclude_categories=()), max_size=40)


@given(texts=st.lists(_ANY_TEXT, max_size=5), intent=_ANY_TEXT, claim=_ANY_TEXT)
@example(texts=['say "no"', "C:\\path"], intent="tab\tnew\nline\x00\x1f", claim="\U0001f600 \ud800")
def test_serialize_argument_is_json_dumps_with_indent_2_byte_for_byte(texts, intent, claim):
    graph = CausalArgument(
        intent=intent, claim=claim, assumptions=tuple(Assumption(t) for t in texts)
    )
    linked_by = {"X": claim, **{f"Y_{i}": text for i, text in enumerate(texts, start=1)}}
    expected = json.dumps({"Z": intent, "linked_by": linked_by}, indent=2, ensure_ascii=False)
    assert serialize_argument(graph) == expected


def test_target_symbol_is_one_based():
    graph = graph_of("a", "b")
    assert graph.target_symbol(0) == "Y_1"
    assert graph.target_symbol(1) == "Y_2"
    with pytest.raises(IndexError):
        graph.target_symbol(2)


# -- counterfactual evaluation --------------------------------------------


def test_letter_effect_table_is_a_bijection():
    assert list(LETTER_TO_EFFECT) == ["A", "B", "C"]
    assert set(LETTER_TO_EFFECT.values()) == set(CausalEffect)


@pytest.mark.parametrize(
    "letter,effect",
    [("A", CausalEffect.NO_CHANGE), ("B", CausalEffect.INCREASE), ("C", CausalEffect.DECREASE)],
)
def test_counterfactual_letter_mapping(letter, effect):
    gateway, script = make_gateway(
        rules=[{"template": "counterfactual", "response": letter}]
    )
    graph = graph_of("a1", "a2")
    evaluated = evaluate_all(gateway, graph)
    assert [a.causal_effect for a in evaluated.assumptions] == [effect, effect]
    prompt = script.call_log[1].prompt
    assert "Y_2" in prompt  # the do-target rides in the prompt
    assert '"Y_1": "a1"' in prompt  # full argument serialized inline


def test_counterfactual_rejects_out_of_range_letter():
    gateway, _ = make_gateway(rules=[{"template": "counterfactual", "response": "E"}])
    with pytest.raises(UnparseableChoice):
        evaluate_all(gateway, graph_of("a"))


def test_evaluate_all_one_call_per_assumption():
    gateway, script = make_gateway(
        rules=[
            {"template": "counterfactual", "contains": f"do(Y_{i} ", "response": letter}
            for i, letter in enumerate("CAB", start=1)
        ]
    )
    graph = graph_of("a1", "a2", "a3")
    evaluated = evaluate_all(gateway, graph)
    assert len(served(script, "counterfactual")) == 3
    assert [a.causal_effect for a in evaluated.assumptions] == [
        CausalEffect.DECREASE,
        CausalEffect.NO_CHANGE,
        CausalEffect.INCREASE,
    ]
    # original graph is untouched
    assert all(a.causal_effect is None for a in graph.assumptions)


def test_evaluate_all_prompts_carry_the_whole_argument_and_each_target():
    gateway, script = make_gateway(rules=[{"template": "counterfactual", "response": "A"}])
    graph = graph_of("a1", "a2", "a3")
    evaluate_all(gateway, graph)
    template = bundled_templates()["counterfactual"]
    assert [call.prompt for call in script.call_log] == [
        render_template(template, {"argument": serialize_argument(graph), "letter": f"Y_{i}"})
        for i in (1, 2, 3)
    ]


def test_evaluate_all_preserves_text_and_flags():
    gateway, _ = make_gateway(rules=[{"template": "counterfactual", "response": "A"}])
    graph = CausalArgument(
        intent="i", claim="c", assumptions=(Assumption(text="a", flags=(VAGUE_REFERENCE_FLAG,)),)
    )
    evaluated = evaluate_all(gateway, graph)
    assert evaluated.assumptions[0].text == "a"
    assert evaluated.assumptions[0].flags == (VAGUE_REFERENCE_FLAG,)


# -- critical selection ----------------------------------------------------


def test_only_decrease_is_critical():
    assert Assumption("a", CausalEffect.DECREASE).is_critical
    assert not Assumption("a", CausalEffect.INCREASE).is_critical
    assert not Assumption("a", CausalEffect.NO_CHANGE).is_critical
    assert not Assumption("a").is_critical


def test_select_critical_filters_in_graph_order():
    effects = [CausalEffect.INCREASE, CausalEffect.DECREASE, CausalEffect.DECREASE]
    graph = graph_of("a1", "a2", "a3", effects=effects)
    critical = select_critical_assumptions(graph)
    assert [a.text for a in critical] == ["a2", "a3"]


def test_select_critical_requires_every_effect():
    graph = graph_of("a1", "a2", effects=[CausalEffect.DECREASE, None])
    with pytest.raises(UnevaluatedAssumption) as excinfo:
        select_critical_assumptions(graph)
    assert "Y_2" in str(excinfo.value)


def test_select_critical_none_critical_is_empty():
    graph = graph_of("a1", effects=[CausalEffect.NO_CHANGE])
    assert select_critical_assumptions(graph) == []
