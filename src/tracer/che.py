"""Critical Hidden Evidence retrieval.

Given the assumptions whose negation would sink the intent, search the
hidden-evidence pool for sentences that bear on them. Retrieval is a
two-stage gate: embedding similarity ranks the pool and discards weak
matches, then an entailment check keeps only sentences that genuinely
support or contradict the assumption. Neutral sentences are rejected no
matter how similar they look. The pool's embeddings are alignment's
(the external alignment classifier makes none, and then CHE embeds the
pool). An ``Endpoint`` can stand in for the entailment prompt: it POSTs
``{"premise", "hypothesis"}`` and reads ``{"verdict": "Entail" |
"Contradict" | "Neutral"}``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

# cosine_similarity stays importable from here: the benchmark's tracer patches this name
from .alignment import cosine_similarities, cosine_similarity  # noqa: F401
from .causality import Assumption
from .config import Thresholds
from .decoding import decode
from .gateway import Embedding, Endpoint, Gateway, parse_letter_choice, unwrap


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


def nli_check(
    gateway: Gateway,
    premise: str,
    hypothesis: str,
    classifier: Endpoint | None = None,
) -> NliVerdict:
    """Does the premise entail, contradict, or say nothing about the hypothesis?"""
    if classifier is not None:
        payload = {"premise": premise, "hypothesis": hypothesis}
        return classifier.ask(payload, lambda data: decode(NliVerdict, data["verdict"]))
    completion = gateway.complete("nli", premise=premise, hypothesis=hypothesis)
    return LETTER_TO_NLI[parse_letter_choice(completion, LETTER_TO_NLI)]


def collect_che(
    gateway: Gateway,
    critical_assumptions: list[Assumption],
    hidden_pool: list[str],
    thresholds: Thresholds = Thresholds(),
    classifier: Endpoint | None = None,
    embeddings: dict[str, Embedding] | None = None,
) -> list[CheCandidate]:
    """Hidden sentences that support or contradict the critical assumptions.

    The assumptions, and the pool sentences ``embeddings`` does not
    already hold (alignment's, by sentence), are embedded in one
    ``embed_many`` call. Then, assumption by assumption, the pool is
    ranked by cosine similarity; only the top k at or above tau_che
    reach the entailment gate, and Neutral sentences are dropped. Ties
    rank by pool position so retrieval is deterministic. A sentence
    selected for several assumptions appears once, linked to all of
    them, with its primary link being the highest-similarity one. Output
    order is first-selection order. With no assumption or an empty pool
    nothing is asked of the gateway.
    """
    if not critical_assumptions or not hidden_pool:
        return []
    texts = [assumption.text for assumption in critical_assumptions]
    known = dict(embeddings or {})
    missing = [sentence for sentence in hidden_pool if sentence not in known]
    queries = [unwrap(outcome) for outcome in gateway.embed_many([*texts, *missing])]
    known.update(zip(missing, queries[len(texts) :]))
    pool = [known[sentence] for sentence in hidden_pool]
    by_sentence: dict[str, CheCandidate] = {}
    for assumption, query in zip(texts, queries):
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
    "LETTER_TO_NLI",
    "NliVerdict",
    "collect_che",
    "nli_check",
]
