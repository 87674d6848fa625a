"""Critical hidden evidence retrieval: ranking, gating, deduplication."""

import math

import pytest

from tracer.alignment import ExternalAlignmentClassifier, align_evidence, hidden_pool
from tracer.causality import Assumption, CausalEffect
from tracer.che import (
    LETTER_TO_NLI,
    ExternalNliClassifier,
    NliVerdict,
    collect_che,
    nli_check,
    retrieve_che,
)
from tracer.config import Thresholds
from tracer.errors import BackendError
from tracer.fixtures import make_retrieval_fixture
from tracer.gateway import Gateway, ResponseCache

from conftest import make_gateway


def critical(text):
    return Assumption(text=text, causal_effect=CausalEffect.DECREASE)


# -- entailment gate -------------------------------------------------------


def test_nli_letter_mapping_is_total():
    assert LETTER_TO_NLI == {
        "A": NliVerdict.ENTAIL,
        "B": NliVerdict.CONTRADICT,
        "C": NliVerdict.NEUTRAL,
    }


@pytest.mark.parametrize("letter,verdict", sorted(LETTER_TO_NLI.items()))
def test_nli_check_prompt_pipeline(letter, verdict):
    gateway, script = make_gateway(rules=[{"template": "nli", "response": letter}])
    assert nli_check(gateway, "premise text", "hypothesis text") is verdict
    assert "premise text" in script.call_log[0].prompt
    assert "hypothesis text" in script.call_log[0].prompt


def test_nli_check_external_classifier_bypasses_gateway():
    posts = []

    def fake_post(url, payload):
        posts.append(payload)
        return {"verdict": "Contradict"}

    classifier = ExternalNliClassifier("http://host/nli", post=fake_post)
    gateway, script = make_gateway()
    verdict = nli_check(gateway, "p", "h", classifier)
    assert verdict is NliVerdict.CONTRADICT
    assert script.call_log == []
    assert posts == [{"premise": "p", "hypothesis": "h"}]


def test_external_nli_classifier_circuit_resets_on_success_and_opens_after_three_failures():
    answers = iter([False, False, True, False, False, True, False, False, False])
    posts = []

    def flaky_post(url, payload):
        posts.append(payload)
        if not next(answers):
            raise BackendError(f"POST {url} returned 503", retries=3)
        return {"verdict": "Neutral"}

    classifier = ExternalNliClassifier("http://host/nli", post=flaky_post)
    outcomes = []
    for _ in range(11):
        try:
            outcomes.append(classifier.check("p", "h"))
        except BackendError as exc:
            outcomes.append(str(exc))
    assert len(posts) == 9  # the last two calls send nothing
    assert outcomes[2] is NliVerdict.NEUTRAL and outcomes[5] is NliVerdict.NEUTRAL
    assert outcomes[8] == "POST http://host/nli returned 503 (after 3 retries)"
    assert outcomes[9:] == [
        "circuit open for http://host/nli after 3 consecutive failed POSTs; "
        "last error: POST http://host/nli returned 503 (after 3 retries)"
    ] * 2


# -- single-assumption retrieval -------------------------------------------


def _sentence_at(similarity):
    sine = math.sqrt(max(0.0, 1.0 - similarity * similarity))
    return [similarity, sine]


def _retrieval_gateway(pool_sims, nli_letter="B", query="the assumption"):
    embeddings = [{"text": query, "vector": [1.0, 0.0]}]
    rules = []
    pool = []
    for i, sim in enumerate(pool_sims):
        sentence = f"sentence {i} at {sim}"
        pool.append(sentence)
        embeddings.append({"text": sentence, "vector": _sentence_at(sim)})
        letter = nli_letter[i] if isinstance(nli_letter, (list, tuple)) else nli_letter
        rules.append({"template": "nli", "contains": sentence, "response": letter})
    gateway, script = make_gateway(rules=rules, embeddings=embeddings)
    return gateway, script, pool


def test_retrieve_empty_pool_makes_no_calls():
    gateway, script = make_gateway()
    assert retrieve_che(gateway, "a", []) == []
    assert script.call_log == []


def test_retrieve_threshold_gates_before_nli():
    gateway, script, pool = _retrieval_gateway([0.9, 0.2])
    selected = retrieve_che(gateway, "the assumption", pool, tau_che=0.5)
    assert [c.sentence for c in selected] == [pool[0]]
    assert selected[0].similarity == pytest.approx(0.9)
    assert selected[0].nli is NliVerdict.CONTRADICT
    assert selected[0].selected is True
    # the weak sentence never reaches the entailment gate
    nli_calls = script.calls_for("nli")
    assert len(nli_calls) == 1
    assert pool[1] not in nli_calls[0].prompt


def test_retrieve_all_neutral_returns_empty():
    gateway, script, pool = _retrieval_gateway([0.9, 0.8], nli_letter="C")
    assert retrieve_che(gateway, "the assumption", pool, tau_che=0.5) == []
    assert len(script.calls_for("nli")) == 2  # both were similar enough to check


def test_retrieve_results_ranked_by_similarity():
    gateway, _, pool = _retrieval_gateway([0.55, 0.95, 0.75])
    selected = retrieve_che(gateway, "the assumption", pool, tau_che=0.5)
    assert [c.similarity for c in selected] == pytest.approx([0.95, 0.75, 0.55])
    assert [c.sentence for c in selected] == [pool[1], pool[2], pool[0]]


def test_retrieve_top_k_caps_candidates():
    gateway, script, pool = _retrieval_gateway([0.9, 0.8, 0.7, 0.6])
    selected = retrieve_che(gateway, "the assumption", pool, k=2, tau_che=0.5)
    assert [c.similarity for c in selected] == pytest.approx([0.9, 0.8])
    assert len(script.calls_for("nli")) == 2


def test_retrieve_ties_break_by_pool_position():
    # identical vectors: rank falls back to pool order
    gateway, _, pool = _retrieval_gateway([0.8, 0.8, 0.8])
    selected = retrieve_che(gateway, "the assumption", pool, k=1, tau_che=0.5)
    assert [c.sentence for c in selected] == [pool[0]]


def test_retrieve_boundary_similarity_is_kept():
    gateway, _, pool = _retrieval_gateway([0.5])
    selected = retrieve_che(gateway, "the assumption", pool, tau_che=0.5)
    assert len(selected) == 1  # at tau, not strictly above, still admitted


def test_retrieve_entail_and_contradict_both_admit():
    gateway, _, pool = _retrieval_gateway([0.9, 0.8], nli_letter=["A", "B"])
    selected = retrieve_che(gateway, "the assumption", pool, tau_che=0.5)
    assert [c.nli for c in selected] == [NliVerdict.ENTAIL, NliVerdict.CONTRADICT]


def test_retrieve_with_external_classifier_skips_nli_template():
    classifier = ExternalNliClassifier(
        "http://host/nli", post=lambda url, payload: {"verdict": "Entail"}
    )
    gateway, script, pool = _retrieval_gateway([0.9])
    selected = retrieve_che(
        gateway, "the assumption", pool, tau_che=0.5, classifier=classifier
    )
    assert selected[0].nli is NliVerdict.ENTAIL
    assert script.calls_for("nli") == []
    assert [c.kind for c in script.call_log] == ["embedding", "embedding"]


# -- multi-assumption collection -------------------------------------------


def _two_assumption_gateway():
    # shared sentence is closer to the second assumption
    return make_gateway(
        rules=[{"template": "nli", "response": "B"}],
        embeddings=[
            {"text": "first assumption", "vector": [1.0, 0.0]},
            {"text": "second assumption", "vector": [0.0, 1.0]},
            {"text": "shared sentence", "vector": [0.6, 0.8]},
            {"text": "first only sentence", "vector": _sentence_at(0.95)},
        ],
    )


def test_collect_dedups_and_links_shared_sentences():
    gateway, _ = _two_assumption_gateway()
    che = collect_che(
        gateway,
        [critical("first assumption"), critical("second assumption")],
        ["shared sentence", "first only sentence"],
    )
    by_sentence = {c.sentence: c for c in che}
    assert set(by_sentence) == {"shared sentence", "first only sentence"}

    shared = by_sentence["shared sentence"]
    assert shared.linked_assumptions == ("first assumption", "second assumption")
    # primary link follows the higher similarity
    assert shared.assumption == "second assumption"
    assert shared.similarity == pytest.approx(0.8)

    only = by_sentence["first only sentence"]
    assert only.linked_assumptions == ("first assumption",)
    assert only.similarity == pytest.approx(0.95)


def test_collect_order_is_first_selection_order():
    gateway, _ = _two_assumption_gateway()
    che = collect_che(
        gateway,
        [critical("first assumption"), critical("second assumption")],
        ["shared sentence", "first only sentence"],
    )
    # first assumption ranks its pool [0.95, 0.6]: both selected first pass
    assert [c.sentence for c in che] == ["first only sentence", "shared sentence"]


def test_collect_keeps_stronger_primary_regardless_of_assumption_order():
    gateway, _ = _two_assumption_gateway()
    che = collect_che(
        gateway,
        [critical("second assumption"), critical("first assumption")],
        ["shared sentence"],
    )
    assert len(che) == 1
    assert che[0].assumption == "second assumption"
    assert che[0].similarity == pytest.approx(0.8)
    assert che[0].linked_assumptions == ("second assumption", "first assumption")


def test_collect_embeds_every_assumption_in_one_backend_call():
    gateway, script = _two_assumption_gateway()
    pool = ["shared sentence", "first only sentence"]
    for sentence in pool:  # alignment embedded the pool before retrieval
        gateway.embed(sentence)
    calls_before = gateway.counters.backend_calls
    collect_che(gateway, [critical("first assumption"), critical("second assumption")], pool)
    assert [(c.kind, c.prompt) for c in script.call_log[2:4]] == [
        ("embedding", "first assumption"),
        ("embedding", "second assumption"),
    ]
    # the NLI checks keep their order: the first assumption's ranking, then the second's
    assert [c.prompt.count("first assumption") for c in script.call_log[4:]] == [1, 1, 0]
    # one embedding call, three NLI checks; the pool, asked once, was a hit
    assert gateway.counters.backend_calls - calls_before == 4
    assert gateway.counters.embedding_requests == 2 + 2 + 2
    assert gateway.counters.embedding_cache_hits == 2


def test_collect_over_a_pool_alignment_never_embedded_makes_one_embedding_call():
    # an external classifier labels the evidence, so alignment embeds nothing
    classifier = ExternalAlignmentClassifier(
        "http://host/align", post=lambda url, payload: {"label": "Hidden"}
    )
    gateway, script = make_gateway(rules=[{"template": "nli", "response": "B"}], default_dim=4)
    batches = []
    embed = script.embed
    script.embed = lambda texts: batches.append(list(texts)) or embed(texts)
    evidence = ["pool one", "pool two", "pool three"]
    aligned = align_evidence(gateway, "claim", "ruling", evidence, classifier=classifier)
    assert hidden_pool(aligned) == evidence and batches == []
    collect_che(gateway, [critical("first assumption"), critical("second assumption")], evidence)
    assert batches == [["first assumption", "second assumption", *evidence]]


def test_collect_with_an_empty_pool_embeds_nothing():
    gateway, script = _two_assumption_gateway()
    assert collect_che(gateway, [critical("first assumption")], []) == []
    assert script.call_log == []


def test_collect_no_critical_assumptions_is_empty():
    gateway, script = make_gateway()
    assert collect_che(gateway, [], ["s1", "s2"]) == []
    assert script.call_log == []


def test_collect_is_idempotent_under_caching():
    gateway, _ = _two_assumption_gateway()
    assumptions = [critical("first assumption"), critical("second assumption")]
    pool = ["shared sentence", "first only sentence"]
    first = collect_che(gateway, assumptions, pool)
    second = collect_che(gateway, assumptions, pool)
    assert first == second


def test_collect_respects_thresholds_object():
    gateway, _ = _two_assumption_gateway()
    strict = Thresholds(tau_che=0.9, top_k=5)
    che = collect_che(
        gateway,
        [critical("first assumption"), critical("second assumption")],
        ["shared sentence", "first only sentence"],
        thresholds=strict,
    )
    assert [c.sentence for c in che] == ["first only sentence"]


# -- seeded property: threshold and k monotonicity ---------------------------


def _selected_sentences(script, query, pool, tau, k=5):
    gateway = Gateway(backend=script, cache=ResponseCache())
    return {
        c.sentence for c in retrieve_che(gateway, query, pool, k=k, tau_che=tau)
    }


def test_raising_tau_only_shrinks_the_selection():
    taus = (0.0, 0.25, 0.5, 0.75, 0.95)
    for seed in range(120):
        script, query, pool = make_retrieval_fixture(seed, pool_size=8)
        gateway = Gateway(backend=script, cache=ResponseCache())
        previous = None
        for tau in taus:
            selected = {
                c.sentence
                for c in retrieve_che(gateway, query, pool, k=8, tau_che=tau)
            }
            if previous is not None:
                assert selected <= previous, f"seed {seed}, tau {tau}"
            previous = selected


def test_raising_k_only_grows_the_selection():
    for seed in range(60):
        script, query, pool = make_retrieval_fixture(seed, pool_size=8)
        gateway = Gateway(backend=script, cache=ResponseCache())
        small = {c.sentence for c in retrieve_che(gateway, query, pool, k=2, tau_che=0.1)}
        large = {c.sentence for c in retrieve_che(gateway, query, pool, k=6, tau_che=0.1)}
        assert small <= large, f"seed {seed}"


def test_retrieval_invariants_hold_across_seeds():
    for seed in range(60):
        script, query, pool = make_retrieval_fixture(seed, pool_size=10)
        gateway = Gateway(backend=script, cache=ResponseCache())
        selected = retrieve_che(gateway, query, pool, k=5, tau_che=0.4)
        sims = [c.similarity for c in selected]
        assert sims == sorted(sims, reverse=True), f"seed {seed}"
        assert all(s >= 0.4 for s in sims), f"seed {seed}"
        assert all(c.nli is not NliVerdict.NEUTRAL for c in selected), f"seed {seed}"
        assert len(selected) <= 5


def test_retrieval_fixture_is_deterministic_per_seed():
    first = make_retrieval_fixture(7, pool_size=6)
    second = make_retrieval_fixture(7, pool_size=6)
    assert first[1] == second[1]
    assert first[2] == second[2]
    out_a = _selected_sentences(first[0], first[1], first[2], tau=0.3)
    out_b = _selected_sentences(second[0], second[1], second[2], tau=0.3)
    assert out_a == out_b
