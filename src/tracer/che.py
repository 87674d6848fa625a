"""Critical Hidden Evidence retrieval.

Given the assumptions whose negation would sink the intent, search the
hidden-evidence pool for sentences that bear on them. Retrieval is a
two-stage gate: embedding similarity ranks the pool and discards weak
matches, then an entailment check keeps only sentences that genuinely
support or contradict the assumption. Neutral sentences are rejected no
matter how similar they look.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

# cosine_similarity stays importable from here: the benchmark's tracer patches this name
from .alignment import cosine_similarities, cosine_similarity  # noqa: F401
from .causality import Assumption
from .config import Thresholds
from .errors import BackendError
from .gateway import Gateway, parse_letter_choice
from .gateway.backends import CircuitBreaker, post_json


class NliVerdict(str, Enum):
    ENTAIL = "Entail"
    CONTRADICT = "Contradict"
    NEUTRAL = "Neutral"


LETTER_TO_NLI = {
    "A": NliVerdict.ENTAIL,
    "B": NliVerdict.CONTRADICT,
    "C": NliVerdict.NEUTRAL,
}


@dataclass(frozen=True)
class CheCandidate:
    sentence: str
    assumption: str  # strongest link: the highest-similarity assumption
    similarity: float
    nli: NliVerdict
    selected: bool
    linked_assumptions: tuple[str, ...] = ()


class ExternalNliClassifier:
    """HTTP stand-in for a dedicated NLI model.

    Request: POST {"premise": ..., "hypothesis": ...}
    Response: {"verdict": "Entail" | "Contradict" | "Neutral"}

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

    def check(self, premise: str, hypothesis: str) -> NliVerdict:
        data = self._post(self.endpoint, {"premise": premise, "hypothesis": hypothesis})
        try:
            return NliVerdict(data["verdict"])
        except (KeyError, TypeError, ValueError) as exc:
            raise BackendError(
                f"{self.endpoint} returned a malformed answer: {data!r:.200}"
            ) from exc


def nli_check(
    gateway: Gateway,
    premise: str,
    hypothesis: str,
    classifier: ExternalNliClassifier | None = None,
) -> NliVerdict:
    """Does the premise entail, contradict, or say nothing about the hypothesis?"""
    if classifier is not None:
        return classifier.check(premise, hypothesis)
    completion = gateway.complete("nli", premise=premise, hypothesis=hypothesis)
    return LETTER_TO_NLI[parse_letter_choice(completion, set(LETTER_TO_NLI))]


def retrieve_che(
    gateway: Gateway,
    assumption: str,
    hidden_pool: list[str],
    k: int = 5,
    tau_che: float = 0.5,
    classifier: ExternalNliClassifier | None = None,
) -> list[CheCandidate]:
    """Hidden sentences that support or contradict one assumption.

    The pool is ranked by cosine similarity to the assumption; only the
    top k at or above tau_che reach the entailment gate. Ties rank by
    pool position so retrieval is deterministic.
    """
    if not hidden_pool:
        return []
    query = gateway.embed(assumption)
    similarities = cosine_similarities(query, [gateway.embed(s) for s in hidden_pool])
    # a stable sort: ties keep pool order
    ranked = sorted(zip(similarities, hidden_pool), key=lambda item: -item[0])
    selected = []
    for similarity, sentence in ranked[:k]:
        if similarity < tau_che:
            break  # ranked order: everything after is weaker still
        verdict = nli_check(gateway, sentence, assumption, classifier)
        if verdict is NliVerdict.NEUTRAL:
            continue
        selected.append(
            CheCandidate(
                sentence=sentence,
                assumption=assumption,
                similarity=similarity,
                nli=verdict,
                selected=True,
                linked_assumptions=(assumption,),
            )
        )
    return selected


def collect_che(
    gateway: Gateway,
    critical_assumptions: list[Assumption],
    hidden_pool: list[str],
    thresholds: Thresholds = Thresholds(),
    classifier: ExternalNliClassifier | None = None,
) -> list[CheCandidate]:
    """Union of per-assumption retrievals, deduplicated by sentence.

    A sentence selected for several assumptions appears once, linked to
    all of them, with its primary link being the highest-similarity one.
    Output order is first-selection order, which is deterministic.
    """
    by_sentence: dict[str, CheCandidate] = {}
    for assumption in critical_assumptions:
        candidates = retrieve_che(
            gateway,
            assumption.text,
            hidden_pool,
            k=thresholds.top_k,
            tau_che=thresholds.tau_che,
            classifier=classifier,
        )
        for candidate in candidates:
            existing = by_sentence.get(candidate.sentence)
            if existing is None:
                by_sentence[candidate.sentence] = candidate
                continue
            links = existing.linked_assumptions + (candidate.assumption,)
            if candidate.similarity > existing.similarity:
                merged = replace(
                    candidate, linked_assumptions=links, sentence=existing.sentence
                )
            else:
                merged = replace(existing, linked_assumptions=links)
            by_sentence[existing.sentence] = merged
    return list(by_sentence.values())


__all__ = [
    "CheCandidate",
    "ExternalNliClassifier",
    "LETTER_TO_NLI",
    "NliVerdict",
    "collect_che",
    "nli_check",
    "retrieve_che",
]
