"""Intent recovery: what a claim wants its audience to conclude.

The intent is generated from the claim and its evidence; the
fact-checker's ruling is not consulted. The candidate then faces four
independent yes/no quality checks (plausibility, implicity,
sufficiency, readability) and is accepted only on a clean sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import NoItemsFound
from .gateway import Gateway, parse_binary_digit
from .gateway.parsing import BRACKETED

# Exemplar slot for the few-shot template. The shipped default is
# deliberately small and synthetic; operators running live models should
# substitute exemplars drawn from their own annotation pass.
DEFAULT_GENERATION_EXAMPLES = (
    "Claim: Our factory passed every safety inspection this quarter.\n"
    "Evidence: Inspectors visited twice and found no violations.\n"
    "Output: The claim presents inspection results as proof of safe conditions. "
    "<The factory is a safe place to work.>"
)


class IntentSource(str, Enum):
    EVIDENCE_GENERATION = "EvidenceGeneration"


@dataclass(frozen=True)
class IntentRecord:
    text: str
    rationale: str
    source: IntentSource
    low_context: bool = False
    quality: QualityScores | None = None  # set once the quality checks ran


@dataclass(frozen=True)
class QualityScores:
    plausibility: int
    implicity: int
    sufficiency: int
    readability: int

    @property
    def accepted(self) -> bool:
        return all(score == 1 for score in vars(self).values())


def _split_intent(completion: str) -> tuple[str, str]:
    # The last non-blank bracketed item is the intent; the text before it,
    # earlier bracketed reasoning included, is the rationale.
    filled = [match for match in BRACKETED.finditer(completion) if match.group(1).strip()]
    if not filled:
        raise NoItemsFound(completion)
    return filled[-1].group(1).strip(), completion[: filled[-1].start()].strip()


def generate_intent(gateway: Gateway, claim: str, evidence: list[str]) -> IntentRecord:
    """The claim's intent, generated from the claim plus its evidence.

    Works with an empty evidence list (the claim alone still implies
    something) but flags the result so consumers know how little context
    it rests on.
    """
    evidence_block = "\n".join(evidence) if evidence else "(no evidence available)"
    completion = gateway.complete(
        "intent_generation",
        claim=claim,
        evidence=evidence_block,
        examples=DEFAULT_GENERATION_EXAMPLES,
    )
    text, rationale = _split_intent(completion)
    return IntentRecord(
        text=text,
        rationale=rationale,
        source=IntentSource.EVIDENCE_GENERATION,
        low_context=not evidence,
    )


def score_quality(gateway: Gateway, claim: str, intent: str) -> QualityScores:
    """Run the four quality checks on one intent candidate.

    All four completions are issued before any parsing, so a malformed
    answer on one criterion never suppresses the other calls; the first
    unparseable criterion is then reported.
    """
    completions = {
        "plausibility": gateway.complete("plausibility", claim=claim, intent=intent),
        "implicity": gateway.complete("implicity", claim=claim, intent=intent),
        "sufficiency": gateway.complete("sufficiency", intent=intent),
        "readability": gateway.complete("readability", intent=intent),
    }
    scores = {}
    for criterion, completion in completions.items():
        scores[criterion] = parse_binary_digit(completion, criterion)
    return QualityScores(**scores)


__all__ = [
    "DEFAULT_GENERATION_EXAMPLES",
    "IntentRecord",
    "IntentSource",
    "QualityScores",
    "generate_intent",
    "score_quality",
]
