"""Counterfactual causality over a claim's intent.

The intent stands or falls on assumptions the claim never states. This
module surfaces those assumptions (via implicit yes/no questions),
assembles them into a star-shaped causal argument with the intent at the
center, and asks, for each assumption in turn, what happens to the
intent's probability if that assumption is forcibly negated. Assumptions
whose negation sinks the intent are the critical ones worth checking
against hidden evidence.
"""

from __future__ import annotations

from json.encoder import encode_basestring
from dataclasses import dataclass, field, replace
from enum import Enum

from .errors import UnevaluatedAssumption
from .gateway import Gateway, parse_bracketed, parse_letter_choice

DEFAULT_QUESTION_EXAMPLES = (
    "Claim: Our trains ran on time 99 percent of days this year.\n"
    "Intent: The rail service is well run.\n"
    "Output: <Were cancelled trains counted as on time?> <Did ridership stay stable?>"
)
DEFAULT_ASSUMPTION_EXAMPLES = (
    "Intent: The rail service is well run.\n"
    "Questions: Were cancelled trains counted as on time?\n"
    "Output: Punctuality statistics only support the intent if cancellations were counted. "
    "<Cancelled trains were counted against the punctuality figure.>"
)

# Phrases that make an assumption lean on its context instead of
# standing alone. Advisory: matches are flagged, never rejected.
DEFAULT_VAGUE_REFERENCES = ("the claim", "the evidence", "the statement", "the ruling")

VAGUE_REFERENCE_FLAG = "VagueReference"


class CausalEffect(str, Enum):
    NO_CHANGE = "NoChange"
    INCREASE = "Increase"
    DECREASE = "Decrease"


# Option letters of the counterfactual prompt, in presentation order.
LETTER_TO_EFFECT = {
    "A": CausalEffect.NO_CHANGE,
    "B": CausalEffect.INCREASE,
    "C": CausalEffect.DECREASE,
}


@dataclass(frozen=True)
class ImplicitQuestion:
    text: str


@dataclass(frozen=True)
class Assumption:
    text: str
    # None until evaluated; a report line always carries the key (see
    # ``tracer.verdict.report_from_dict``)
    causal_effect: CausalEffect | None = field(default=None, metadata={"optional": False})
    flags: tuple[str, ...] = ()

    @property
    def is_critical(self) -> bool:
        return self.causal_effect is CausalEffect.DECREASE


@dataclass(frozen=True)
class CausalArgument:
    """Star-shaped argument: intent Z supported by claim X and assumptions Y_i."""

    intent: str
    claim: str
    assumptions: tuple[Assumption, ...]

    def target_symbol(self, index: int) -> str:
        """Wire name of the index-th assumption (1-based on the wire)."""
        if not 0 <= index < len(self.assumptions):
            raise IndexError(f"assumption index {index} out of range")
        return f"Y_{index + 1}"


def serialize_argument(graph: CausalArgument) -> str:
    """Render the argument structure embedded verbatim into prompts: ``json.dumps({"Z":
    intent, "linked_by": {"X": claim, "Y_1": ...}}, indent=2, ensure_ascii=False)``, byte
    for byte, without the pure-Python encoder that ``indent`` selects."""
    quote = encode_basestring
    links = [("X", graph.claim), *((f"Y_{i}", a.text) for i, a in enumerate(graph.assumptions, 1))]
    body = ",\n".join(f'    "{name}": {quote(text)}' for name, text in links)
    return f'{{\n  "Z": {quote(graph.intent)},\n  "linked_by": {{\n{body}\n  }}\n}}'


def generate_implicit_questions(
    gateway: Gateway,
    claim: str,
    intent: str,
    hidden_evidence: list[str],
    max_questions: int = 3,
    diagnostics: list[str] | None = None,
) -> list[ImplicitQuestion]:
    """Yes/no questions whose answers the intent quietly presumes."""
    completion = gateway.complete(
        "implicit_questions",
        claim=claim,
        intent=intent,
        evidence="\n".join(hidden_evidence) if hidden_evidence else "(none)",
        examples=DEFAULT_QUESTION_EXAMPLES,
    )
    items = parse_bracketed(completion)
    if len(items) > max_questions:
        if diagnostics is not None:
            diagnostics.append(
                f"implicit questions: {len(items)} returned, keeping first {max_questions}"
            )
        items = items[:max_questions]
    return [ImplicitQuestion(text=item) for item in items]


def infer_assumptions(
    gateway: Gateway,
    claim: str,
    intent: str,
    questions: list[ImplicitQuestion],
    max_n: int = 3,
    diagnostics: list[str] | None = None,
) -> list[Assumption]:
    """Turn implicit questions into self-contained assumption statements."""
    if not questions:
        raise ValueError("infer_assumptions requires at least one question")
    completion = gateway.complete(
        "assumptions",
        claim=claim,
        intention=intent,
        questions="\n".join(q.text for q in questions),
        assumption_max_number=str(max_n),
        examples=DEFAULT_ASSUMPTION_EXAMPLES,
    )
    items = parse_bracketed(completion, separator="||")
    if len(items) > max_n:
        if diagnostics is not None:
            diagnostics.append(f"assumptions: {len(items)} returned, keeping first {max_n}")
        items = items[:max_n]
    assumptions = []
    for item in items:
        lowered = item.lower()
        vague = any(phrase in lowered for phrase in DEFAULT_VAGUE_REFERENCES)
        assumptions.append(
            Assumption(text=item, flags=(VAGUE_REFERENCE_FLAG,) if vague else ())
        )
    return assumptions


def evaluate_all(gateway: Gateway, graph: CausalArgument) -> CausalArgument:
    """Effect on the intent of negating each assumption (do-operation).

    One counterfactual call per assumption, all with the same serialized
    argument; returns a fresh graph with the effects set.
    """
    argument = serialize_argument(graph)
    evaluated = []
    for i, assumption in enumerate(graph.assumptions):
        completion = gateway.complete(
            "counterfactual", argument=argument, letter=graph.target_symbol(i)
        )
        effect = LETTER_TO_EFFECT[parse_letter_choice(completion, set(LETTER_TO_EFFECT))]
        evaluated.append(replace(assumption, causal_effect=effect))
    return replace(graph, assumptions=tuple(evaluated))


def select_critical_assumptions(graph: CausalArgument) -> list[Assumption]:
    """Assumptions whose negation would sink the intent, in graph order."""
    for i, assumption in enumerate(graph.assumptions):
        if assumption.causal_effect is None:
            raise UnevaluatedAssumption(
                f"assumption {graph.target_symbol(i)} has no causal effect yet"
            )
    return [a for a in graph.assumptions if a.is_critical]


__all__ = [
    "Assumption",
    "CausalArgument",
    "CausalEffect",
    "DEFAULT_ASSUMPTION_EXAMPLES",
    "DEFAULT_QUESTION_EXAMPLES",
    "DEFAULT_VAGUE_REFERENCES",
    "ImplicitQuestion",
    "LETTER_TO_EFFECT",
    "VAGUE_REFERENCE_FLAG",
    "evaluate_all",
    "generate_implicit_questions",
    "infer_assumptions",
    "select_critical_assumptions",
    "serialize_argument",
]
