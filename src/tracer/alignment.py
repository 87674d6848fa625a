"""Evidence alignment: split evidence into Presented and Hidden.

Each evidence sentence passes through up to three steps. A relevance
check against the claim and its ruling drops off-topic sentences. A
presentation check asks whether the claim itself states the sentence's
content. Finally an embedding-similarity pass refines the provisional
answer, demoting presented sentences the claim barely resembles and
promoting unpresented ones that are near-paraphrases of it.

The two prompts run for every sentence first, in evidence order; the
claim and all the sentences to refine are then embedded in one request,
so a claim pays one embedding round trip, not one per sentence. They
are compared with the claim in one similarity step, and CHE reuses them.

When a fine-tuned external classifier is available over HTTP it replaces
the whole prompt pipeline: an ``Endpoint`` asks it one question per
sentence and ``_read_label`` reads the answer. Provenance records
which path produced each label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .config import Thresholds
from .decoding import decode
from .errors import DimensionMismatch, TracerError, ZeroVector
from .gateway import Embedding, Endpoint, Gateway, parse_letter_choice, unwrap


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


def _check_pair(u: Embedding, v: Embedding) -> None:
    """Raise what makes the cosine of ``u`` and ``v`` undefined, if anything."""
    if u.model_id != v.model_id:
        raise DimensionMismatch(
            f"embeddings from different models: {u.model_id!r} vs {v.model_id!r}"
        )
    if len(u.vector) != len(v.vector):
        raise DimensionMismatch(f"embedding lengths differ: {len(u.vector)} vs {len(v.vector)}")
    if u.norm == 0.0 or v.norm == 0.0:
        raise ZeroVector("cosine similarity undefined for zero-norm vector")


def cosine_similarities(query: Embedding, rows: list[Embedding]) -> list[float]:
    """Cosine similarity of the query to each row, in row order.

    Each row is checked by ``_check_pair``, in order, so a bad row raises
    what the pairwise call would. The dot products are one matrix step,
    but each row is still summed strictly left to right
    (``np.add.accumulate`` along the row, then ``+ 0.0`` as the start
    value), so every value has the bits of an explicit ``acc += x`` loop.
    ``np.dot``, ``np.sum`` and BLAS sum in other orders and would not.
    """
    for row in rows:
        _check_pair(query, row)
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


def _refine(
    similarity: float, provisional_presented: bool, thresholds: Thresholds
) -> AlignmentLabel:
    """Second opinion from embedding space on the presentation answer.

    A "presented" sentence far from the claim is treated as a
    hallucinated match and demoted to Hidden; an "unpresented" sentence
    nearly identical to the claim is treated as a missed paraphrase and
    promoted. Either direction is disabled by setting its threshold to
    None.
    """
    if provisional_presented:
        if thresholds.tau_low is not None and similarity < thresholds.tau_low:
            return AlignmentLabel.HIDDEN
        return AlignmentLabel.PRESENTED
    if thresholds.tau_high is not None and similarity >= thresholds.tau_high:
        return AlignmentLabel.PRESENTED
    return AlignmentLabel.HIDDEN


def _read_label(data) -> tuple[AlignmentLabel, float]:
    """An alignment classifier's answer: ``{"label", "confidence"}``.

    The label is Presented or Hidden. ``confidence`` defaults to 1.0
    and must be a finite number, not a bool or a string.
    """
    label = decode(AlignmentLabel, data["label"])
    confidence = decode(float, data.get("confidence", 1.0))
    # a NaN would reach the report as a bare token, which is not JSON
    if not math.isfinite(confidence):
        raise ValueError("confidence is not a finite number")
    if label is AlignmentLabel.IRRELEVANT:
        raise ValueError("the label is Irrelevant, not Presented or Hidden")
    return label, confidence


def align_evidence(
    gateway: Gateway,
    claim: str,
    ruling: str,
    evidence: list[str],
    thresholds: Thresholds = Thresholds(),
    classifier: Endpoint | None = None,
    embeddings: dict[str, Embedding] | None = None,
) -> list[AlignedEvidence]:
    """Label every evidence sentence Presented, Hidden, or Irrelevant.

    Output order matches input order. A failure on one sentence is
    recorded on that sentence and alignment continues; downstream stages
    decide what to do with flagged entries. The relevance step needs the
    ruling text; without one (inference time) every sentence is treated
    as relevant.

    The prompts run first, sentence by sentence in evidence order. Then
    the claim and every sentence still to refine are embedded in one
    ``embed_many`` call, so an embedding that cannot be had (a blank
    sentence's, say) fails only its sentence, as does one that cannot be
    compared with the claim's; the rest are compared in one
    ``cosine_similarities`` call. ``embeddings``, when given, receives
    the ``Embedding`` of every refined sentence, by sentence.
    """
    if classifier is not None:
        return [_classify(classifier, claim, sentence) for sentence in evidence]
    aligned: list[AlignedEvidence | None] = []
    presented: dict[int, bool] = {}  # position -> answer, for the sentences to refine
    for sentence in evidence:
        try:
            if ruling.strip() and not _ask(
                gateway, "relevance", claim=claim, ruling=ruling, evidence=sentence
            ):
                irrelevant = AlignedEvidence(sentence=sentence, label=AlignmentLabel.IRRELEVANT)
                aligned.append(irrelevant)
                continue
            presented[len(aligned)] = _ask(gateway, "presentation", claim=claim, evidence=sentence)
            aligned.append(None)
        except TracerError as exc:
            aligned.append(_failed(sentence, Provenance.PROMPT_PIPELINE, exc))
    if not presented:
        return aligned
    claim_outcome, *outcomes = gateway.embed_many([claim, *(evidence[i] for i in presented)])
    refined: dict[int, Embedding] = {}  # position -> embedding, for the checked sentences
    for position, outcome in zip(presented, outcomes):
        try:
            claim_embedding, embedding = unwrap(claim_outcome), unwrap(outcome)
            _check_pair(claim_embedding, embedding)
        except TracerError as exc:
            aligned[position] = _failed(evidence[position], Provenance.PROMPT_PIPELINE, exc)
            continue
        refined[position] = embedding
    similarities = cosine_similarities(claim_embedding, [*refined.values()]) if refined else []
    for (position, embedding), similarity in zip(refined.items(), similarities):
        sentence = evidence[position]
        label = _refine(similarity, presented[position], thresholds)
        aligned[position] = AlignedEvidence(sentence=sentence, label=label, similarity=similarity)
        if embeddings is not None:
            embeddings[sentence] = embedding
    return aligned


def _ask(gateway: Gateway, template_id: str, **bindings) -> bool:
    """True when the answer to the template's A/B question is A."""
    return parse_letter_choice(gateway.complete(template_id, **bindings), {"A", "B"}) == "A"


def _classify(classifier: Endpoint, claim: str, sentence: str) -> AlignedEvidence:
    try:
        label, confidence = classifier.ask({"claim": claim, "sentence": sentence}, _read_label)
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
    "Provenance",
    "align_evidence",
    "cosine_similarities",
    "cosine_similarity",
    "hidden_pool",
    "presented_pool",
]
