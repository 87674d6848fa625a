"""Evidence alignment: cosine geometry, prompt pipeline, refinement."""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tracer.alignment import (
    AlignedEvidence,
    AlignmentLabel,
    ExternalAlignmentClassifier,
    Provenance,
    align_evidence,
    check_presentation,
    check_relevance,
    cosine_similarities,
    cosine_similarity,
    hidden_pool,
    presented_pool,
)
from tracer.config import Thresholds
from tracer.errors import BackendError, DimensionMismatch, UnparseableChoice, ZeroVector
from tracer.gateway import Embedding

from conftest import make_gateway


def emb(*values, model="mock-embed"):
    return Embedding(vector=tuple(float(v) for v in values), model_id=model)


# -- cosine similarity ----------------------------------------------------


def test_cosine_known_values():
    assert cosine_similarity(emb(1, 0), emb(0, 1)) == pytest.approx(0.0)
    assert cosine_similarity(emb(1, 0), emb(1, 0)) == pytest.approx(1.0)
    assert cosine_similarity(emb(1, 0), emb(-1, 0)) == pytest.approx(-1.0)
    assert cosine_similarity(emb(1, 1), emb(1, 0)) == pytest.approx(math.sqrt(0.5))


def test_cosine_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        cosine_similarity(emb(1, 0), emb(1, 0, 0))


def test_cosine_model_mismatch():
    with pytest.raises(DimensionMismatch):
        cosine_similarity(emb(1, 0), emb(1, 0, model="other"))


def test_cosine_zero_vector():
    with pytest.raises(ZeroVector):
        cosine_similarity(emb(0, 0), emb(1, 0))
    with pytest.raises(ZeroVector):
        cosine_similarity(emb(), emb())


def _loop_cosine(u, v):
    """Reference cosine with explicit left-to-right accumulation.

    Not the builtin ``sum``: Python 3.12+ compensates its rounding, so it
    would not pin down one result across interpreter versions.
    """

    def total(values):
        acc = 0
        for x in values:
            acc += x
        return acc

    norm_u = math.sqrt(total(x * x for x in u))
    norm_v = math.sqrt(total(x * x for x in v))
    dot = total(x * y for x, y in zip(u, v))
    return max(-1.0, min(1.0, dot / (norm_u * norm_v)))


@pytest.mark.parametrize("dim", [*range(2, 17), 1536])
def test_cosine_equals_sequential_loop_exactly(dim):
    rng = random.Random(dim)
    for _ in range(25):
        u = [rng.gauss(0.0, 1.0) for _ in range(dim)]
        v = [rng.gauss(0.0, 1.0) for _ in range(dim)]
        result = cosine_similarity(emb(*u), emb(*v))
        assert type(result) is float
        assert result == _loop_cosine(u, v)


def test_cosine_of_negative_zero_products_is_positive_zero():
    result = cosine_similarity(emb(1, 0), emb(-0.0, -1))
    assert result == 0.0
    assert math.copysign(1.0, result) == 1.0


def _rows_with_specials(dim, n_rows, seed):
    """A query and n_rows rows of Gaussian entries with -0.0 and subnormals mixed in."""
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(n_rows + 1, dim))
    specials = np.array([-0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 0.0])
    mask = rng.random(matrix.shape) < 0.2
    matrix[mask] = rng.choice(specials, size=int(mask.sum()))
    vectors = [emb(*row) for row in matrix.tolist()]
    return vectors[0], vectors[1:]


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(min_value=1, max_value=2048),
    n_rows=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(dim=1536, n_rows=6, seed=0)
@example(dim=2048, n_rows=12, seed=1)
@example(dim=1, n_rows=1, seed=2)
def test_cosine_similarities_equal_pairwise_and_loop_bit_for_bit(dim, n_rows, seed):
    query, rows = _rows_with_specials(dim, n_rows, seed)
    try:
        pairwise = [cosine_similarity(query, row) for row in rows]
    except ZeroVector:
        with pytest.raises(ZeroVector):
            cosine_similarities(query, rows)
        return
    batched = cosine_similarities(query, rows)
    assert all(type(value) is float for value in batched)
    assert batched == pairwise
    looped = [_loop_cosine(query.vector.tolist(), row.vector.tolist()) for row in rows]
    assert batched == looped
    # == treats -0.0 and 0.0 alike; the signs must agree too
    assert [math.copysign(1.0, v) for v in batched] == [math.copysign(1.0, v) for v in looped]


@pytest.mark.parametrize(
    "bad,error",
    [
        (emb(1, 0, model="other"), DimensionMismatch),
        (emb(1, 0, 0), DimensionMismatch),
        (emb(0, 0), ZeroVector),
        (emb(-0.0, 5e-324), ZeroVector),
    ],
)
def test_cosine_similarities_bad_row_raises_like_the_pair(bad, error):
    query = emb(1, 2)
    with pytest.raises(error):
        cosine_similarity(query, bad)
    with pytest.raises(error):
        cosine_similarities(query, [emb(2, 1), bad, emb(1, 1)])


def test_cosine_similarities_first_bad_row_decides_the_error():
    query = emb(1, 2)
    with pytest.raises(DimensionMismatch):
        cosine_similarities(query, [emb(1, 0, 0), emb(0, 0)])
    with pytest.raises(ZeroVector):
        cosine_similarities(query, [emb(0, 0), emb(1, 0, 0)])
    with pytest.raises(ZeroVector):
        cosine_similarities(emb(0, 0), [emb(1, 0)])


def test_cosine_similarities_of_negative_zero_products_are_positive_zero():
    values = cosine_similarities(emb(1, 0), [emb(-0.0, -1), emb(1, 1), emb(-0.0, 1)])
    assert values[0] == values[2] == 0.0
    assert math.copysign(1.0, values[0]) == math.copysign(1.0, values[2]) == 1.0


def test_cosine_similarities_of_no_rows_is_empty():
    assert cosine_similarities(emb(1, 0), []) == []


def test_embedding_norm_is_the_sequential_length_and_kept():
    embedding = emb(3, 4)
    assert embedding.norm == 5.0
    assert embedding.norm is embedding.norm


_coords = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    min_size=2,
    max_size=8,
)


def _nonzero(vec):
    return any(abs(x) > 1e-3 for x in vec)


@given(u=_coords.filter(_nonzero))
def test_cosine_self_similarity_is_one(u):
    assert cosine_similarity(emb(*u), emb(*u)) == pytest.approx(1.0, abs=1e-9)


@given(
    pair=st.integers(min_value=2, max_value=8).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                min_size=n,
                max_size=n,
            ).filter(_nonzero),
            st.lists(
                st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                min_size=n,
                max_size=n,
            ).filter(_nonzero),
        )
    )
)
def test_cosine_symmetric_and_bounded(pair):
    u, v = pair
    forward = cosine_similarity(emb(*u), emb(*v))
    backward = cosine_similarity(emb(*v), emb(*u))
    assert forward == pytest.approx(backward, abs=1e-9)
    assert -1.0 <= forward <= 1.0


@given(
    u=_coords.filter(_nonzero),
    scale=st.floats(min_value=1e-2, max_value=1e3),
)
def test_cosine_scale_invariant(u, scale):
    v = [x * scale for x in u]
    assert cosine_similarity(emb(*u), emb(*v)) == pytest.approx(1.0, abs=1e-6)


# -- binary prompt checks -------------------------------------------------


def test_relevance_letter_mapping():
    gateway, _ = make_gateway(
        rules=[{"template": "relevance", "responses": ["A", "B", "A. It covers it."]}]
    )
    assert check_relevance(gateway, "c1", "r", "s") is True
    assert check_relevance(gateway, "c2", "r", "s") is False
    assert check_relevance(gateway, "c3", "r", "s") is True


def test_presentation_letter_mapping():
    gateway, _ = make_gateway(
        rules=[{"template": "presentation", "responses": ["B", "a"]}]
    )
    assert check_presentation(gateway, "c1", "s") is False
    assert check_presentation(gateway, "c2", "s") is True


def test_presentation_unparseable_bubbles_up():
    gateway, _ = make_gateway(
        rules=[{"template": "presentation", "response": "no idea"}]
    )
    with pytest.raises(UnparseableChoice):
        check_presentation(gateway, "c", "s")


# -- similarity refinement ------------------------------------------------


def _refine(similarity, provisional_presented, thresholds=None):
    # place claim at angle 0 and sentence at the requested cosine
    sine = math.sqrt(max(0.0, 1.0 - similarity * similarity))
    gateway, _ = make_gateway(
        rules=[{"template": "presentation", "response": "A" if provisional_presented else "B"}],
        embeddings=[
            {"text": "claim", "vector": [1.0, 0.0]},
            {"text": "sentence", "vector": [similarity, sine]},
        ],
    )
    # no ruling: the sentence goes straight to presentation and refinement
    [aligned] = align_evidence(gateway, "claim", "", ["sentence"], thresholds or Thresholds())
    assert aligned.error is None
    return aligned.label, aligned.similarity


def test_refine_demotes_presented_below_tau_low():
    label, similarity = _refine(0.2, provisional_presented=True)
    assert label is AlignmentLabel.HIDDEN
    assert similarity == pytest.approx(0.2)


def test_refine_keeps_presented_at_tau_low():
    # boundary: only strictly-below demotes
    label, _ = _refine(0.40, provisional_presented=True)
    assert label is AlignmentLabel.PRESENTED


def test_refine_promotes_hidden_at_tau_high():
    label, _ = _refine(0.85, provisional_presented=False)
    assert label is AlignmentLabel.PRESENTED


def test_refine_keeps_hidden_below_tau_high():
    label, similarity = _refine(0.8, provisional_presented=False)
    assert label is AlignmentLabel.HIDDEN
    assert similarity == pytest.approx(0.8)


def test_refine_none_thresholds_disable_refinement():
    off = Thresholds(tau_low=None, tau_high=None)
    assert _refine(0.01, True, off)[0] is AlignmentLabel.PRESENTED
    assert _refine(0.99, False, off)[0] is AlignmentLabel.HIDDEN


# -- full alignment pass --------------------------------------------------


def _pipeline_gateway():
    return make_gateway(
        rules=[
            {"template": "relevance", "contains": "off-topic", "response": "B"},
            {"template": "relevance", "response": "A"},
            {"template": "presentation", "contains": "the claim says", "response": "A"},
            {"template": "presentation", "response": "B"},
        ],
        embeddings=[
            {"text": "claim", "vector": [1.0, 0.0]},
            {"contains": "the claim says", "vector": [0.9, 0.436]},
            {"contains": "hidden fact", "vector": [0.1, 0.995]},
        ],
    )


def test_align_evidence_labels_and_order():
    gateway, _ = _pipeline_gateway()
    evidence = ["the claim says X", "hidden fact Y", "off-topic Z"]
    aligned = align_evidence(gateway, "claim", "our ruling", evidence)
    assert [a.sentence for a in aligned] == evidence  # order preserved
    assert [a.label for a in aligned] == [
        AlignmentLabel.PRESENTED,
        AlignmentLabel.HIDDEN,
        AlignmentLabel.IRRELEVANT,
    ]
    assert all(a.provenance is Provenance.PROMPT_PIPELINE for a in aligned)


def test_align_evidence_irrelevant_skips_downstream_calls():
    gateway, script = _pipeline_gateway()
    align_evidence(gateway, "claim", "our ruling", ["off-topic Z"])
    assert len(script.calls_for("relevance")) == 1
    assert script.calls_for("presentation") == []
    assert [c for c in script.call_log if c.kind == "embedding"] == []


def test_align_evidence_empty_ruling_skips_relevance():
    gateway, script = _pipeline_gateway()
    aligned = align_evidence(gateway, "claim", "", ["hidden fact Y"])
    assert aligned[0].label is AlignmentLabel.HIDDEN
    assert script.calls_for("relevance") == []


def test_align_evidence_captures_per_sentence_errors():
    gateway, _ = _pipeline_gateway()
    # the unfamiliar sentence has no embedding or contains-match: script miss
    aligned = align_evidence(
        gateway, "claim", "our ruling", ["hidden fact Y", "never scripted"]
    )
    assert aligned[0].label is AlignmentLabel.HIDDEN
    assert aligned[0].error is None
    assert aligned[1].label is AlignmentLabel.IRRELEVANT
    assert "MockScriptMiss" in aligned[1].error
    assert aligned[1].provenance is Provenance.PROMPT_PIPELINE


def test_align_evidence_embeds_the_claim_and_every_refined_sentence_in_one_call():
    gateway, script = _pipeline_gateway()
    evidence = ["the claim says X", "hidden fact Y", "off-topic Z", "hidden fact W"]
    aligned = align_evidence(gateway, "claim", "our ruling", evidence)
    assert [a.label for a in aligned] == [
        AlignmentLabel.PRESENTED,
        AlignmentLabel.HIDDEN,
        AlignmentLabel.IRRELEVANT,
        AlignmentLabel.HIDDEN,
    ]
    # every prompt first, in evidence order, then one embedding call
    assert [(c.template, c.prompt.count("hidden fact W")) for c in script.call_log[:7]] == [
        ("relevance", 0),
        ("presentation", 0),
        ("relevance", 0),
        ("presentation", 0),
        ("relevance", 0),
        ("relevance", 1),
        ("presentation", 1),
    ]
    assert [c.prompt for c in script.call_log[7:]] == [
        "claim",
        "the claim says X",
        "hidden fact Y",
        "hidden fact W",
    ]
    assert gateway.counters.backend_calls == 7 + 1
    assert gateway.counters.embedding_requests == 4
    assert gateway.counters.embedding_cache_hits == 0


def test_align_evidence_sentence_without_an_embedding_fails_alone():
    evidence = ["the claim says X", "never scripted", "hidden fact Y"]
    gateway, _ = _pipeline_gateway()
    aligned = align_evidence(gateway, "claim", "our ruling", evidence)

    # each other sentence labelled as when it is aligned on its own
    for position in (0, 2):
        alone, _ = _pipeline_gateway()
        assert [aligned[position]] == align_evidence(alone, "claim", "", [evidence[position]])
    assert [a.label for a in aligned] == [
        AlignmentLabel.PRESENTED,
        AlignmentLabel.IRRELEVANT,
        AlignmentLabel.HIDDEN,
    ]
    assert aligned[1].error == "MockScriptMiss: no mock embedding matches text: 'never scripted'"
    assert aligned[1].similarity is None
    # the failed batch cached nothing; the fallback cached the claim and two sentences
    assert gateway.counters.embedding_requests == 4 + 2 * 3
    assert len(gateway.cache) == 6 + 3


def test_align_evidence_sentence_with_a_non_finite_embedding_fails_alone():
    rules = [
        {"template": "presentation", "contains": "the claim says", "response": "A"},
        {"template": "presentation", "response": "B"},
    ]
    embeddings = [
        {"text": "claim", "vector": [1.0, 0.0]},
        {"text": "the claim says X", "vector": [0.9, 0.436]},
        {"text": "hidden fact", "vector": [math.nan, 0.0]},
        {"text": "hidden fact Y", "vector": [0.1, 0.995]},
    ]
    evidence = ["the claim says X", "hidden fact", "hidden fact Y"]
    gateway, _ = make_gateway(rules=rules, embeddings=embeddings)
    aligned = align_evidence(gateway, "claim", "", evidence)
    # a NaN cosine would read as 1.0 and promote the sentence to Presented
    assert aligned[1] == AlignedEvidence(
        sentence="hidden fact",
        label=AlignmentLabel.IRRELEVANT,
        error="BackendError: the embedding of 'hidden fact' is not finite",
    )
    for position in (0, 2):
        alone, _ = make_gateway(rules=rules, embeddings=embeddings)
        assert [aligned[position]] == align_evidence(alone, "claim", "", [evidence[position]])
    assert [a.label for a in aligned] == [
        AlignmentLabel.PRESENTED,
        AlignmentLabel.IRRELEVANT,
        AlignmentLabel.HIDDEN,
    ]


def test_align_evidence_claim_without_an_embedding_fails_every_refined_sentence():
    gateway, _ = _pipeline_gateway()
    aligned = align_evidence(gateway, "unscripted claim", "", ["hidden fact Y", "hidden fact W"])
    for a in aligned:
        assert a.label is AlignmentLabel.IRRELEVANT
        assert a.error == "MockScriptMiss: no mock embedding matches text: 'unscripted claim'"


def test_align_evidence_empty_input():
    gateway, script = _pipeline_gateway()
    assert align_evidence(gateway, "claim", "r", []) == []
    assert script.call_log == []


def test_external_classifier_replaces_prompt_pipeline():
    posts = []

    def fake_post(url, payload):
        posts.append((url, payload))
        return {"label": "Hidden", "confidence": 0.93}

    classifier = ExternalAlignmentClassifier("http://host/align", post=fake_post)
    gateway, script = _pipeline_gateway()
    aligned = align_evidence(
        gateway, "claim", "our ruling", ["hidden fact Y"], classifier=classifier
    )
    assert aligned[0].label is AlignmentLabel.HIDDEN
    assert aligned[0].similarity == pytest.approx(0.93)
    assert aligned[0].provenance is Provenance.EXTERNAL_CLASSIFIER
    assert script.call_log == []  # no prompt or embedding traffic
    assert posts == [("http://host/align", {"claim": "claim", "sentence": "hidden fact Y"})]


def test_external_classifier_rejects_irrelevant_answer():
    classifier = ExternalAlignmentClassifier(
        "http://host/align", post=lambda url, payload: {"label": "Irrelevant"}
    )
    with pytest.raises(BackendError, match="http://host/align"):
        classifier.classify("c", "s")


@pytest.mark.parametrize(
    "confidence",
    [math.nan, math.inf, -math.inf, True, False, "0.9", None, 10**400],
    ids=["nan", "inf", "-inf", "true", "false", "string", "null", "huge"],
)
def test_external_classifier_confidence_must_be_a_finite_number(confidence):
    answer = {"label": "Hidden", "confidence": confidence}
    classifier = ExternalAlignmentClassifier("http://host/align", post=lambda url, payload: answer)
    with pytest.raises(BackendError, match="http://host/align returned a malformed answer"):
        classifier.classify("c", "s")


@pytest.mark.parametrize(
    "answer,confidence",
    [({"label": "Presented"}, 1.0), ({"label": "Presented", "confidence": 0}, 0.0)],
    ids=["missing", "integer"],
)
def test_external_classifier_confidence_is_a_float(answer, confidence):
    classifier = ExternalAlignmentClassifier("http://host/align", post=lambda url, payload: answer)
    label, got = classifier.classify("c", "s")
    assert label is AlignmentLabel.PRESENTED
    assert got == confidence and type(got) is float


def test_external_classifier_stops_posting_to_a_dead_endpoint():
    posts = []

    def dead_post(url, payload):
        posts.append(payload["sentence"])
        raise BackendError(f"POST {url} failed: connection refused", retries=3)

    classifier = ExternalAlignmentClassifier("http://host/align", post=dead_post)
    gateway, script = _pipeline_gateway()
    sentences = [f"sentence {i}" for i in range(10)]
    aligned = align_evidence(gateway, "claim", "our ruling", sentences, classifier=classifier)
    assert posts == sentences[:3]
    assert [a.sentence for a in aligned] == sentences
    for a in aligned:
        assert a.error.startswith("BackendError: ")
        assert a.provenance is Provenance.EXTERNAL_CLASSIFIER
    for a in aligned[3:]:
        assert "circuit open for http://host/align after 3 consecutive failed POSTs" in a.error
        assert "last error: POST http://host/align failed: connection refused" in a.error
    assert script.call_log == []


# -- pools ----------------------------------------------------------------


def test_pools_partition_by_label():
    aligned = [
        AlignedEvidence("p1", AlignmentLabel.PRESENTED),
        AlignedEvidence("h1", AlignmentLabel.HIDDEN),
        AlignedEvidence("x", AlignmentLabel.IRRELEVANT),
        AlignedEvidence("h2", AlignmentLabel.HIDDEN),
    ]
    assert presented_pool(aligned) == ["p1"]
    assert hidden_pool(aligned) == ["h1", "h2"]
