"""Evidence alignment: split evidence into Presented and Hidden.

Each evidence sentence passes through up to three steps. A relevance
check against the claim and its ruling drops off-topic sentences. A
presentation check asks whether the claim itself states the sentence's
content. Finally an embedding-similarity pass refines the provisional
answer, demoting presented sentences the claim barely resembles and
promoting unpresented ones that are near-paraphrases of it.

When a fine-tuned external classifier is available over HTTP it replaces
the whole prompt pipeline; provenance records which path produced each
label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .config import Thresholds
from .errors import BackendError, DimensionMismatch, TracerError, ZeroVector
from .gateway import Embedding, Gateway, parse_letter_choice
from .gateway.backends import post_json


class AlignmentLabel(str, Enum):
    PRESENTED = "Presented"
    HIDDEN = "Hidden"
    IRRELEVANT = "Irrelevant"


class Provenance(str, Enum):
    PROMPT_PIPELINE = "PromptPipeline"
    EXTERNAL_CLASSIFIER = "ExternalClassifier"


@dataclass(frozen=True)
class AlignedEvidence:
    sentence: str
    label: AlignmentLabel
    similarity: float | None = None  # set only when refinement ran
    provenance: Provenance = Provenance.PROMPT_PIPELINE
    error: str | None = None


def _sequential_sum(values: np.ndarray) -> float:
    """Strictly left-to-right float64 sum, starting from +0.0.

    This is the sum Python 3.11's builtin ``sum`` computes over floats,
    bit for bit. ``np.sum`` sums pairwise and Python 3.12+'s ``sum``
    compensates rounding, so either would move serialized similarities
    in the last bits. The trailing ``+ 0.0`` is the start value: it turns
    an all-negative-zero sum into +0.0 and changes nothing else.
    """
    if values.size == 0:
        return 0.0
    return float(np.add.accumulate(values)[-1]) + 0.0


def cosine_similarity(u: Embedding, v: Embedding) -> float:
    if u.model_id != v.model_id:
        raise DimensionMismatch(
            f"embeddings from different models: {u.model_id!r} vs {v.model_id!r}"
        )
    if len(u.vector) != len(v.vector):
        raise DimensionMismatch(
            f"embedding lengths differ: {len(u.vector)} vs {len(v.vector)}"
        )
    norm_u = math.sqrt(_sequential_sum(u.vector * u.vector))
    norm_v = math.sqrt(_sequential_sum(v.vector * v.vector))
    if norm_u == 0.0 or norm_v == 0.0:
        raise ZeroVector("cosine similarity undefined for zero-norm vector")
    dot = _sequential_sum(u.vector * v.vector)
    value = dot / (norm_u * norm_v)
    # guard rounding drift out of [-1, 1]
    return max(-1.0, min(1.0, value))


def check_relevance(gateway: Gateway, claim: str, ruling: str, sentence: str) -> bool:
    """True when the sentence bears on the claim at all."""
    text = gateway.complete("relevance", claim=claim, ruling=ruling, evidence=sentence)
    return parse_letter_choice(text, {"A", "B"}) == "A"


def check_presentation(gateway: Gateway, claim: str, sentence: str) -> bool:
    """True when the claim itself states the sentence's content."""
    text = gateway.complete("presentation", claim=claim, evidence=sentence)
    return parse_letter_choice(text, {"A", "B"}) == "A"


def refine_by_similarity(
    gateway: Gateway,
    claim: str,
    sentence: str,
    provisional_presented: bool,
    thresholds: Thresholds,
) -> tuple[AlignmentLabel, float]:
    """Second opinion from embedding space on the presentation answer.

    A "presented" sentence far from the claim is treated as a
    hallucinated match and demoted to Hidden; an "unpresented" sentence
    nearly identical to the claim is treated as a missed paraphrase and
    promoted. Either direction is disabled by setting its threshold to
    None.
    """
    similarity = cosine_similarity(gateway.embed(claim), gateway.embed(sentence))
    if provisional_presented:
        if thresholds.tau_low is not None and similarity < thresholds.tau_low:
            return AlignmentLabel.HIDDEN, similarity
        return AlignmentLabel.PRESENTED, similarity
    if thresholds.tau_high is not None and similarity >= thresholds.tau_high:
        return AlignmentLabel.PRESENTED, similarity
    return AlignmentLabel.HIDDEN, similarity


class ExternalAlignmentClassifier:
    """HTTP stand-in for a fine-tuned alignment model.

    Request: POST {"claim": ..., "sentence": ...}
    Response: {"label": "Presented" | "Hidden", "confidence": number}

    Requests go through ``post_json`` (retried, no API key sent); any
    failure, including an answer of another shape, is a ``BackendError``.
    """

    def __init__(self, endpoint: str, timeout: float = 30.0, post=None):
        self.endpoint = endpoint
        self.timeout = timeout
        # injectable for tests; default goes over the network
        self._post = post or (lambda url, payload: post_json(url, payload, timeout=self.timeout))

    def classify(self, claim: str, sentence: str) -> tuple[AlignmentLabel, float]:
        data = self._post(self.endpoint, {"claim": claim, "sentence": sentence})
        try:
            label = AlignmentLabel(data["label"])
            confidence = float(data.get("confidence", 1.0))
        except (KeyError, TypeError, ValueError) as exc:
            raise BackendError(
                f"{self.endpoint} returned a malformed answer: {data!r:.200}"
            ) from exc
        if label is AlignmentLabel.IRRELEVANT:
            raise BackendError(f"{self.endpoint} answered Irrelevant, not Presented or Hidden")
        return label, confidence


def align_evidence(
    gateway: Gateway,
    claim: str,
    ruling: str,
    evidence: list[str],
    thresholds: Thresholds = Thresholds(),
    classifier: ExternalAlignmentClassifier | None = None,
) -> list[AlignedEvidence]:
    """Label every evidence sentence Presented, Hidden, or Irrelevant.

    Output order matches input order. A failure on one sentence is
    recorded on that sentence and alignment continues; downstream stages
    decide what to do with flagged entries. The relevance step needs the
    ruling text; without one (inference time) every sentence is treated
    as relevant.
    """
    aligned: list[AlignedEvidence] = []
    for sentence in evidence:
        try:
            aligned.append(
                _align_one(gateway, claim, ruling, sentence, thresholds, classifier)
            )
        except TracerError as exc:
            aligned.append(
                AlignedEvidence(
                    sentence=sentence,
                    label=AlignmentLabel.IRRELEVANT,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
    return aligned


def _align_one(
    gateway: Gateway,
    claim: str,
    ruling: str,
    sentence: str,
    thresholds: Thresholds,
    classifier: ExternalAlignmentClassifier | None,
) -> AlignedEvidence:
    if classifier is not None:
        label, confidence = classifier.classify(claim, sentence)
        return AlignedEvidence(
            sentence=sentence,
            label=label,
            similarity=confidence,
            provenance=Provenance.EXTERNAL_CLASSIFIER,
        )
    if ruling.strip() and not check_relevance(gateway, claim, ruling, sentence):
        return AlignedEvidence(sentence=sentence, label=AlignmentLabel.IRRELEVANT)
    presented = check_presentation(gateway, claim, sentence)
    label, similarity = refine_by_similarity(gateway, claim, sentence, presented, thresholds)
    return AlignedEvidence(sentence=sentence, label=label, similarity=similarity)


def hidden_pool(aligned: list[AlignedEvidence]) -> list[str]:
    return [a.sentence for a in aligned if a.label is AlignmentLabel.HIDDEN]


def presented_pool(aligned: list[AlignedEvidence]) -> list[str]:
    return [a.sentence for a in aligned if a.label is AlignmentLabel.PRESENTED]


__all__ = [
    "AlignedEvidence",
    "AlignmentLabel",
    "ExternalAlignmentClassifier",
    "Provenance",
    "align_evidence",
    "check_presentation",
    "check_relevance",
    "cosine_similarity",
    "hidden_pool",
    "presented_pool",
    "refine_by_similarity",
]
