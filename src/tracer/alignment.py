"""Evidence alignment: split evidence into Presented and Hidden.

Each evidence sentence passes through up to three steps. A relevance
check against the claim and its ruling drops off-topic sentences. A
presentation check asks whether the claim itself states the sentence's
content. Finally an embedding-similarity pass refines the provisional
answer, demoting presented sentences the claim barely resembles and
promoting unpresented ones that are near-paraphrases of it.

The two prompts run for every sentence first, in evidence order; the
claim and all the sentences to refine are then embedded in one request,
so a claim pays one embedding round trip, not one per sentence.

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


def _refine(
    claim: Embedding, sentence: Embedding, provisional_presented: bool, thresholds: Thresholds
) -> tuple[AlignmentLabel, float]:
    """Second opinion from embedding space on the presentation answer.

    A "presented" sentence far from the claim is treated as a
    hallucinated match and demoted to Hidden; an "unpresented" sentence
    nearly identical to the claim is treated as a missed paraphrase and
    promoted. Either direction is disabled by setting its threshold to
    None.
    """
    similarity = cosine_similarity(claim, sentence)
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

    ``confidence`` defaults to 1.0 and must be a finite number, not a
    bool or a string.

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
            confidence = data.get("confidence", 1.0)
            # a NaN would reach the report as a bare token, which is not JSON
            if isinstance(confidence, bool) or not math.isfinite(confidence):
                raise ValueError("confidence is not a finite number")
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise BackendError(
                f"{self.endpoint} returned a malformed answer: {data!r:.200}"
            ) from exc
        if label is AlignmentLabel.IRRELEVANT:
            raise BackendError(f"{self.endpoint} answered Irrelevant, not Presented or Hidden")
        return label, float(confidence)


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

    The prompts run first, sentence by sentence in evidence order. Then
    the claim and every sentence still to refine are embedded in one
    ``embed_many`` call. If that call fails, each sentence is refined on
    its own, so an embedding that cannot be had fails only its sentence.
    """
    if classifier is not None:
        return [_classify(classifier, claim, sentence) for sentence in evidence]
    aligned: list[AlignedEvidence | None] = []
    presented: dict[int, bool] = {}  # position -> answer, for the sentences to refine
    for sentence in evidence:
        try:
            if ruling.strip() and not check_relevance(gateway, claim, ruling, sentence):
                irrelevant = AlignedEvidence(sentence=sentence, label=AlignmentLabel.IRRELEVANT)
                aligned.append(irrelevant)
                continue
            presented[len(aligned)] = check_presentation(gateway, claim, sentence)
            aligned.append(None)
        except TracerError as exc:
            aligned.append(_failed(sentence, Provenance.PROMPT_PIPELINE, exc))
    embeddings = None
    if presented:
        try:
            embeddings = gateway.embed_many([claim, *(evidence[i] for i in presented)])
        except TracerError:
            pass  # refined one by one below, so the failure stays on its sentence
    for n, (position, answer) in enumerate(presented.items(), start=1):
        sentence = evidence[position]
        try:
            if embeddings is None:
                pair = gateway.embed_many([claim, sentence])
            else:
                pair = embeddings[0], embeddings[n]
            label, similarity = _refine(*pair, answer, thresholds)
        except TracerError as exc:
            aligned[position] = _failed(sentence, Provenance.PROMPT_PIPELINE, exc)
            continue
        aligned[position] = AlignedEvidence(sentence=sentence, label=label, similarity=similarity)
    return aligned


def _classify(
    classifier: ExternalAlignmentClassifier, claim: str, sentence: str
) -> AlignedEvidence:
    try:
        label, confidence = classifier.classify(claim, sentence)
    except TracerError as exc:
        return _failed(sentence, Provenance.EXTERNAL_CLASSIFIER, exc)
    return AlignedEvidence(
        sentence=sentence,
        label=label,
        similarity=confidence,
        provenance=Provenance.EXTERNAL_CLASSIFIER,
    )


def _failed(sentence: str, provenance: Provenance, exc: TracerError) -> AlignedEvidence:
    return AlignedEvidence(
        sentence=sentence,
        label=AlignmentLabel.IRRELEVANT,
        provenance=provenance,
        error=f"{type(exc).__name__}: {exc}",
    )


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
]
