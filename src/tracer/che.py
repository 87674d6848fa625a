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

    ``collect_che`` of that one assumption, with ``k`` as ``top_k``.
    """
    thresholds = Thresholds(top_k=k, tau_che=tau_che)
    return collect_che(gateway, [Assumption(assumption)], hidden_pool, thresholds, classifier)


def collect_che(
    gateway: Gateway,
    critical_assumptions: list[Assumption],
    hidden_pool: list[str],
    thresholds: Thresholds = Thresholds(),
    classifier: ExternalNliClassifier | None = None,
) -> list[CheCandidate]:
    """Hidden sentences that support or contradict the critical assumptions.

    The assumptions and the pool are embedded in one ``embed_many``
    call. Then, assumption by assumption, the pool is ranked by cosine
    similarity; only the top k at or above tau_che reach the entailment
    gate, and Neutral sentences are dropped. Ties rank by pool position
    so retrieval is deterministic. A sentence selected for several
    assumptions appears once, linked to all of them, with its primary
    link being the highest-similarity one. Output order is
    first-selection order. With no assumption or an empty pool nothing
    is asked of the gateway.
    """
    if not critical_assumptions or not hidden_pool:
        return []
    texts = [assumption.text for assumption in critical_assumptions]
    embeddings = gateway.embed_many([*texts, *hidden_pool])
    pool = embeddings[len(texts) :]
    by_sentence: dict[str, CheCandidate] = {}
    for assumption, query in zip(texts, embeddings):
        # a stable sort: ties keep pool order
        ranked = sorted(
            zip(cosine_similarities(query, pool), hidden_pool), key=lambda item: -item[0]
        )
        for similarity, sentence in ranked[: thresholds.top_k]:
            if similarity < thresholds.tau_che:
                break  # ranked order: everything after is weaker still
            verdict = nli_check(gateway, sentence, assumption, classifier)
            if verdict is NliVerdict.NEUTRAL:
                continue
            existing = by_sentence.get(sentence)
            links = (existing.linked_assumptions if existing else ()) + (assumption,)
            if existing is None or similarity > existing.similarity:
                by_sentence[sentence] = CheCandidate(
                    sentence=sentence,
                    assumption=assumption,
                    similarity=similarity,
                    nli=verdict,
                    selected=True,
                    linked_assumptions=links,
                )
            else:
                by_sentence[sentence] = replace(existing, linked_assumptions=links)
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
