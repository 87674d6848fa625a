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

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .config import Thresholds
from .errors import BackendError, DimensionMismatch, TracerError, ZeroVector
from .gateway import Embedding, Gateway, parse_letter_choice
from .gateway.backends import CircuitBreaker, post_json


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


def cosine_similarities(query: Embedding, rows: list[Embedding]) -> list[float]:
    """Cosine similarity of the query to each row, in row order.

    Each row is checked as ``cosine_similarity`` checks a pair, in order,
    so a bad row raises what the pairwise call would. The dot products
    are one matrix step, but each row is still summed strictly left to
    right (``np.add.accumulate`` along the row, then ``+ 0.0`` as the
    start value), so every value has the bits of an explicit ``acc += x``
    loop. ``np.dot``, ``np.sum`` and BLAS sum in other orders and would
    not.
    """
    for row in rows:
        if query.model_id != row.model_id:
            raise DimensionMismatch(
                f"embeddings from different models: {query.model_id!r} vs {row.model_id!r}"
            )
        if len(query.vector) != len(row.vector):
            raise DimensionMismatch(
                f"embedding lengths differ: {len(query.vector)} vs {len(row.vector)}"
            )
        if query.norm == 0.0 or row.norm == 0.0:
            raise ZeroVector("cosine similarity undefined for zero-norm vector")
    if not rows:
        return []
    products = np.array([row.vector for row in rows])  # a fresh copy, safe to write
    products *= query.vector
    dots = (np.add.accumulate(products, axis=1)[:, -1] + 0.0).tolist()
    # the max/min pair guards rounding drift out of [-1, 1]
    return [
        max(-1.0, min(1.0, dot / (query.norm * row.norm))) for dot, row in zip(dots, rows)
    ]


def cosine_similarity(u: Embedding, v: Embedding) -> float:
    return cosine_similarities(u, [v])[0]


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

    Requests go through ``post_json`` (retried, no API key sent) behind a
    ``CircuitBreaker``; any failure, including an answer of another shape,
    is a ``BackendError``.
    """

    def __init__(self, endpoint: str, timeout: float = 30.0, post=None):
        self.endpoint = endpoint
        self.timeout = timeout
        # injectable for tests; default goes over the network
        self._post = CircuitBreaker(
            post or (lambda url, payload: post_json(url, payload, timeout=self.timeout))
        )

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
    provenance = (
        Provenance.PROMPT_PIPELINE if classifier is None else Provenance.EXTERNAL_CLASSIFIER
    )
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
                    provenance=provenance,
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
    "cosine_similarities",
    "cosine_similarity",
    "hidden_pool",
    "presented_pool",
    "refine_by_similarity",
]
