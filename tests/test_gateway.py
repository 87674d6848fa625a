"""Gateway: templates, parsing, cache, mock backend, call accounting."""

import json
import string
import threading

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tracer.errors import (
    BackendError,
    CacheCorruption,
    EmptyInput,
    MissingBinding,
    MockScriptMiss,
    UnknownBinding,
    UnknownTemplate,
    UnparseableChoice,
)
from tracer.gateway import (
    Decoding,
    Embedding,
    Gateway,
    LiveBackend,
    MockScript,
    PromptTemplate,
    ResponseCache,
    TemplateCatalog,
    embedding_key,
    parse_letter_choice,
    render_template,
)

from conftest import make_gateway


# -- templates -----------------------------------------------------------


def test_render_substitutes_all_placeholders():
    template = PromptTemplate.from_body("t", "Evidence: {evidence}\nClaim: {claim}")
    text = render_template(template, {"evidence": "E", "claim": "C"})
    assert "Evidence: E" in text
    assert "Claim: C" in text
    assert "{evidence}" not in text and "{claim}" not in text


def test_render_missing_binding():
    template = PromptTemplate.from_body("t", "Claim: {claim}")
    with pytest.raises(MissingBinding) as excinfo:
        render_template(template, {})
    assert excinfo.value.name == "claim"


def test_render_unknown_binding():
    template = PromptTemplate.from_body("t", "Claim: {claim}")
    with pytest.raises(UnknownBinding) as excinfo:
        render_template(template, {"claim": "c", "foo": "x"})
    assert excinfo.value.name == "foo"


def test_doubled_braces_are_literal_not_placeholders():
    template = PromptTemplate.from_body("t", "Score in {{0, 1}} for {intent}")
    assert template.required_bindings == frozenset({"intent"})
    assert render_template(template, {"intent": "i"}) == "Score in {0, 1} for i"


def test_bundled_catalog_covers_every_pipeline_template():
    catalog = TemplateCatalog.bundled()
    expected = {
        "relevance",
        "presentation",
        "intent_generation",
        "plausibility",
        "implicity",
        "sufficiency",
        "readability",
        "implicit_questions",
        "assumptions",
        "counterfactual",
        "reassessment",
        "nli",
        "cot_verdict",
    }
    assert expected <= set(catalog.ids())


# every placeholder occurring in a body is required, and vice versa
def test_bundled_templates_satisfy_binding_invariant():
    catalog = TemplateCatalog.bundled()
    for template_id in catalog.ids():
        template = catalog.get(template_id)
        rendered = render_template(
            template, {name: "x" for name in template.required_bindings}
        )
        for name in template.required_bindings:
            assert "{" + name + "}" not in rendered


# -- response cache ------------------------------------------------------


def test_cache_persists_and_reloads(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ResponseCache(path)
    cache.put("k1", "v1")
    cache.put("k2", [1.0, 2.0])
    reloaded = ResponseCache(path)
    assert reloaded.get("k1") == "v1"
    assert reloaded.get("k2").tolist() == [1.0, 2.0]
    assert len(reloaded) == 2
    assert path.read_text(encoding="utf-8") == (
        '{"key": "k1", "value": "v1"}\n{"key": "k2", "vector": "AAAAAAAA8D8AAAAAAAAAQA=="}\n'
    )


_SPECIAL_FLOATS = [-0.0, 5e-324, -2.2250738585072e-308, float("inf"), float("-inf"), float("nan")]


@given(
    dim=st.integers(min_value=0, max_value=2048),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    specials=st.lists(st.sampled_from(_SPECIAL_FLOATS), max_size=8),
)
@example(dim=1536, seed=0, specials=_SPECIAL_FLOATS)
@example(dim=2048, seed=1, specials=[])
def test_cache_vector_round_trip_is_bit_exact(tmp_path_factory, dim, seed, specials):
    # random bytes reach every float64 bit pattern, NaN payloads included
    raw = np.random.default_rng(seed).bytes(8 * dim)
    vector = np.concatenate([np.frombuffer(raw), specials])
    path = tmp_path_factory.mktemp("cache") / "cache.jsonl"
    ResponseCache(path).put("v", vector)
    loaded = ResponseCache(path).get("v")
    assert loaded.dtype == np.float64
    assert loaded.tobytes() == vector.tobytes()


def test_cache_loaded_vector_is_read_only(tmp_path):
    path = tmp_path / "cache.jsonl"
    ResponseCache(path).put("v", [1.0, 2.0])
    loaded = ResponseCache(path).get("v")
    assert not loaded.flags.writeable
    with pytest.raises(ValueError):
        loaded[0] = 3.0


def test_cache_reads_list_form_vectors(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text('{"key": "v", "value": [1.0, -0.0, 2.5]}\n', encoding="utf-8")
    loaded = ResponseCache(path).get("v")
    assert loaded.tolist() == [1.0, -0.0, 2.5]
    assert not loaded.flags.writeable


def test_cache_later_vector_record_wins_over_list_record(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text(
        '{"key": "v", "value": [9.0]}\n'
        '{"key": "w", "value": [4.0]}\n'
        '{"key": "v", "vector": "AAAAAAAA8D8AAAAAAAAAQA=="}\n',
        encoding="utf-8",
    )
    cache = ResponseCache(path)
    assert cache.get("v").tolist() == [1.0, 2.0]
    assert cache.get("w").tolist() == [4.0]


@pytest.mark.parametrize(
    "vector",
    ['"AAAAAAAA8D8=!"', '"AAAAAAAA8D8AAAA="', "[1.0]"],
    ids=["bad-base64", "length-not-multiple-of-8", "not-a-string"],
)
def test_cache_bad_vector_record_is_corruption(tmp_path, vector):
    path = tmp_path / "cache.jsonl"
    path.write_text(
        f'{{"key": "a", "value": "b"}}\n{{"key": "v", "vector": {vector}}}\n', encoding="utf-8"
    )
    with pytest.raises(CacheCorruption) as excinfo:
        ResponseCache(path)
    assert "line 2" in str(excinfo.value)


@pytest.mark.parametrize("torn_value", ["text", [1.0, 2.0, 3.0]], ids=["text", "vector"])
def test_cache_skips_and_cuts_a_torn_last_record(tmp_path, torn_value):
    path = tmp_path / "cache.jsonl"
    cache = ResponseCache(path)
    cache.put("a", "first")
    cache.put("b", [0.5, -1.5])
    cache.put("torn", torn_value)
    whole = path.read_bytes()
    last_line = whole[whole.rindex(b"\n", 0, -1) + 1 :]
    path.write_bytes(whole[: -len(last_line) // 2])  # the writer died mid-append

    reopened = ResponseCache(path)
    assert reopened.get("a") == "first"
    assert reopened.get("b").tolist() == [0.5, -1.5]
    assert reopened.get("torn") is None
    reopened.put("c", "after")

    reloaded = ResponseCache(path)
    assert len(reloaded) == 3
    assert reloaded.get("a") == "first"
    assert reloaded.get("b").tolist() == [0.5, -1.5]
    assert reloaded.get("c") == "after"
    assert path.read_bytes() == whole[: -len(last_line)] + b'{"key": "c", "value": "after"}\n'


def test_cache_keeps_records_appended_after_the_torn_tail_it_loaded(tmp_path):
    path = tmp_path / "cache.jsonl"
    ResponseCache(path).put("a", "first")
    line = b'{"key": "b", "value": "in flight"}\n'
    path.write_bytes(path.read_bytes() + line[:10])  # another writer is mid-append
    cache = ResponseCache(path)
    assert cache.get("b") is None
    with path.open("ab") as other:  # that writer finishes, then appends more
        other.write(line[10:] + b'{"key": "c", "value": "later"}\n')
    cache.put("d", "mine")

    reloaded = ResponseCache(path)
    assert [reloaded.get(k) for k in "abcd"] == ["first", "in flight", "later", "mine"]


def test_cache_keeps_a_record_another_cache_wrote_over_the_same_torn_tail(tmp_path):
    path = tmp_path / "cache.jsonl"
    ResponseCache(path).put("a", "first")
    theirs = b'{"key": "p", "value": "q"}\n'
    torn = b'{"key": "t", "value": "'.ljust(len(theirs), b"x")  # as long as their record
    path.write_bytes(path.read_bytes() + torn)
    mine, other = ResponseCache(path), ResponseCache(path)
    other.put("p", "q")  # cuts the torn tail and appends where it was
    assert path.stat().st_size == len(b'{"key": "a", "value": "first"}\n') + len(torn)
    mine.put("m", "n")

    reloaded = ResponseCache(path)
    assert [reloaded.get(k) for k in "apm"] == ["first", "q", "n"]


def test_cache_appends_after_a_whole_record_missing_its_newline(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text('{"key": "a", "value": "b"}', encoding="utf-8")
    cache = ResponseCache(path)
    assert cache.get("a") == "b"
    cache.put("c", "d")
    reloaded = ResponseCache(path)
    assert reloaded.get("a") == "b"
    assert reloaded.get("c") == "d"


def test_cache_undecodable_middle_line_without_torn_tail_is_still_corruption(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text('{"key": "a", "val\n{"key": "b", "value": "c"}', encoding="utf-8")
    with pytest.raises(CacheCorruption) as excinfo:
        ResponseCache(path)
    assert "line 1" in str(excinfo.value)


def test_cache_later_appends_win(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ResponseCache(path)
    cache.put("k", "old")
    cache.put("k", "new")
    assert ResponseCache(path).get("k") == "new"


def test_cache_corruption_names_the_line(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text('{"key": "a", "value": "b"}\ngarbage\n', encoding="utf-8")
    with pytest.raises(CacheCorruption) as excinfo:
        ResponseCache(path)
    assert "line 2" in str(excinfo.value)


def test_cache_non_numeric_vector_is_corruption(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text('{"key": "a", "value": "b"}\n{"key": "v", "value": ["x", 1.0]}\n', encoding="utf-8")
    with pytest.raises(CacheCorruption) as excinfo:
        ResponseCache(path)
    assert "line 2" in str(excinfo.value)


def test_cache_clear_removes_file(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ResponseCache(path)
    cache.put("k", "v")
    cache.clear()
    assert not path.exists()
    assert len(cache) == 0


def test_cache_put_after_clear_starts_a_fresh_file(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ResponseCache(path)
    cache.put("k", "v")
    cache.clear()
    cache.put("k2", "v2")
    assert path.read_text(encoding="utf-8") == '{"key": "k2", "value": "v2"}\n'


def test_cache_concurrent_writers(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ResponseCache(path)

    def writer(start):
        for i in range(start, start + 50):
            cache.put(f"k{i}", f"v{i}")

    threads = [threading.Thread(target=writer, args=(n * 50,)) for n in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    reloaded = ResponseCache(path)
    assert len(reloaded) == 200
    assert reloaded.get("k123") == "v123"


# -- mock backend --------------------------------------------------------


def test_mock_first_matching_rule_wins():
    script = MockScript.from_dict(
        {
            "rules": [
                {"template": "t", "contains": "special", "response": "S"},
                {"template": "t", "response": "D"},
            ]
        }
    )
    assert script.complete("t", "a special prompt", Decoding()) == "S"
    assert script.complete("t", "a plain prompt", Decoding()) == "D"


def test_mock_response_lists_are_consumed_in_order():
    script = MockScript.from_dict(
        {"rules": [{"template": "t", "responses": ["one", "two"]}]}
    )
    assert script.complete("t", "p", Decoding()) == "one"
    assert script.complete("t", "p", Decoding()) == "two"
    with pytest.raises(MockScriptMiss):
        script.complete("t", "p", Decoding())


def test_mock_miss_raises_rather_than_inventing_output():
    script = MockScript.from_dict({"rules": []})
    with pytest.raises(MockScriptMiss):
        script.complete("relevance", "prompt", Decoding())
    with pytest.raises(MockScriptMiss):
        script.embed("text nobody scripted")


def test_mock_call_log_is_complete_and_ordered():
    script = MockScript.from_dict(
        {
            "rules": [{"template": "t", "response": "R"}],
            "embeddings": [{"text": "e", "vector": [1.0]}],
        }
    )
    script.complete("t", "p1", Decoding())
    script.embed("e")
    script.complete("t", "p2", Decoding())
    assert [c.kind for c in script.call_log] == ["completion", "embedding", "completion"]
    assert [c.prompt for c in script.call_log] == ["p1", "e", "p2"]


def test_mock_default_embedding_is_deterministic_unit_norm():
    script = MockScript.from_dict({"default_embedding": {"dim": 12}})
    v1 = script.embed("some text")
    v2 = script.embed("some text")
    v3 = script.embed("other text")
    assert v1 == v2
    assert v1 != v3
    assert abs(sum(x * x for x in v1) - 1.0) < 1e-9


# -- gateway -------------------------------------------------------------


def test_gateway_complete_renders_and_dispatches():
    gateway, script = make_gateway(rules=[{"template": "relevance", "response": "A"}])
    text = gateway.complete("relevance", claim="c", ruling="r", evidence="e")
    assert text == "A"
    assert len(script.call_log) == 1
    assert "c" in script.call_log[0].prompt


def test_gateway_cache_hit_skips_backend():
    gateway, script = make_gateway(rules=[{"template": "relevance", "response": "A"}])
    first = gateway.complete("relevance", claim="c", ruling="r", evidence="e")
    second = gateway.complete("relevance", claim="c", ruling="r", evidence="e")
    assert first == second == "A"
    assert len(script.call_log) == 1  # second answer came from cache
    assert gateway.counters.completion_cache_hits == 1
    assert gateway.counters.by_template == {"relevance": 1}


def test_gateway_distinct_bindings_are_distinct_requests():
    gateway, script = make_gateway(rules=[{"template": "relevance", "response": "A"}])
    gateway.complete("relevance", claim="c1", ruling="r", evidence="e")
    gateway.complete("relevance", claim="c2", ruling="r", evidence="e")
    assert len(script.call_log) == 2


def test_gateway_persistent_cache_across_instances(tmp_path):
    path = tmp_path / "cache.jsonl"
    gateway, script = make_gateway(
        rules=[{"template": "relevance", "response": "A"}], cache_path=path
    )
    gateway.complete("relevance", claim="c", ruling="r", evidence="e")
    assert len(script.call_log) == 1

    gateway2, script2 = make_gateway(rules=[], cache_path=path)  # no rules needed
    assert gateway2.complete("relevance", claim="c", ruling="r", evidence="e") == "A"
    assert script2.call_log == []


def test_gateway_embed_returns_cached_embedding():
    gateway, script = make_gateway(embeddings=[{"text": "e", "vector": [1.0, 0.0]}])
    first = gateway.embed("e")
    second = gateway.embed("e")
    assert first.vector.tolist() == [1.0, 0.0]
    assert first == second
    assert len(script.call_log) == 1
    assert gateway.counters.embedding_cache_hits == 1


def test_gateway_embed_repeats_return_one_object_and_count_every_request():
    gateway, script = make_gateway(embeddings=[{"text": "e", "vector": [1.0, 0.0]}])
    first = gateway.embed("e")
    for repeat in range(1, 4):
        assert gateway.embed("e") is first
        assert gateway.counters.embedding_requests == repeat + 1
        assert gateway.counters.embedding_cache_hits == repeat
    assert gateway.counters.backend_calls == 1
    assert len(script.call_log) == 1


def test_gateway_embed_after_cache_clear_reaches_the_backend():
    gateway, script = make_gateway(embeddings=[{"text": "e", "vector": [1.0, 0.0]}])
    gateway.embed("e")
    gateway.embed("e")
    gateway.cache.clear()
    assert gateway.embed("e").vector.tolist() == [1.0, 0.0]
    assert gateway.counters.backend_calls == 2
    assert len(script.call_log) == 2
    assert gateway.counters.embedding_requests == 3
    assert gateway.counters.embedding_cache_hits == 1


def test_gateway_embed_answers_what_the_cache_now_holds():
    gateway, _ = make_gateway(embeddings=[{"text": "e", "vector": [1.0, 0.0]}])
    gateway.embed("e")
    gateway.cache.put(embedding_key(gateway.embedding_model_id, "e"), [0.0, 1.0])
    assert gateway.embed("e").vector.tolist() == [0.0, 1.0]
    assert gateway.counters.embedding_cache_hits == 1


class _FlakyEmbedder:
    """Backend whose first embed call fails."""

    model_id = "flaky"

    def __init__(self):
        self.embed_calls = 0

    def complete(self, template_id, prompt, decoding):
        raise BackendError("no completions here")

    def embed(self, text):
        self.embed_calls += 1
        if self.embed_calls == 1:
            raise BackendError("transient")
        return [1.0, 0.0]


def test_gateway_embed_failure_is_retried_on_the_next_call():
    backend = _FlakyEmbedder()
    gateway = Gateway(backend=backend, cache=ResponseCache())
    with pytest.raises(BackendError):
        gateway.embed("e")
    embedding = gateway.embed("e")
    assert embedding.vector.tolist() == [1.0, 0.0]
    assert backend.embed_calls == 2
    assert gateway.counters.backend_calls == 1
    assert gateway.embed("e") == embedding
    assert backend.embed_calls == 2
    assert gateway.counters.embedding_requests == 3
    assert gateway.counters.embedding_cache_hits == 1


def test_gateway_embed_vector_is_the_read_only_cache_entry():
    gateway, _ = make_gateway(embeddings=[{"text": "e", "vector": [1.0, 0.0]}])
    vector = gateway.embed("e").vector
    with pytest.raises(ValueError):
        vector[0] = 5.0
    assert gateway.embed("e").vector.tolist() == [1.0, 0.0]


def test_embedding_freezes_a_copy_of_its_input():
    values = np.array([1.0, 2.0])
    embedding = Embedding(vector=values, model_id="m")
    assert values.flags.writeable
    assert not embedding.vector.flags.writeable
    assert embedding == Embedding(vector=(1.0, 2.0), model_id="m")
    assert embedding != Embedding(vector=(1.0, 2.0), model_id="other")
    assert embedding != Embedding(vector=(1.0, 2.5), model_id="m")


def test_gateway_embed_rejects_empty_text():
    gateway, _ = make_gateway()
    with pytest.raises(EmptyInput):
        gateway.embed("   ")


def test_unknown_template_raises():
    gateway, _ = make_gateway()
    with pytest.raises(UnknownTemplate):
        gateway.complete("never_heard_of_it")


# -- live backend (stubbed transport) -------------------------------------


class _FakeResponse:
    def __init__(self, status_code, payload):
        self.status_code = status_code
        self._payload = payload
        self.text = json.dumps(payload)

    def json(self):
        return self._payload


class _FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = 0
        self.payloads = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls += 1
        self.payloads.append(json)
        item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def _completion_payload(text):
    return {"choices": [{"message": {"content": text}}]}


def test_live_backend_retries_transient_errors_then_succeeds():
    import requests

    session = _FakeSession(
        [
            requests.ConnectionError("down"),
            _FakeResponse(503, {}),
            _FakeResponse(200, _completion_payload("ok")),
        ]
    )
    backend = LiveBackend(
        model_id="m", api_key="k", session=session, sleep=lambda s: None
    )
    assert backend.complete("t", "p", Decoding(0.0, 16)) == "ok"
    assert session.calls == 3


def test_live_backend_gives_up_after_max_retries():
    import requests

    session = _FakeSession([requests.ConnectionError("down")] * 10)
    backend = LiveBackend(
        model_id="m", api_key="k", max_retries=3, session=session, sleep=lambda s: None
    )
    with pytest.raises(BackendError) as excinfo:
        backend.complete("t", "p", Decoding(0.0, 16))
    assert excinfo.value.retries == 3
    assert session.calls == 4  # initial attempt + 3 retries


def test_live_backend_sends_decoding_but_not_template_id():
    session = _FakeSession([_FakeResponse(200, _completion_payload("ok"))])
    backend = LiveBackend(model_id="m", api_key="k", session=session)
    backend.complete("relevance", "the prompt", Decoding(temperature=0.7, max_tokens=32))
    assert session.payloads == [
        {
            "model": "m",
            "messages": [{"role": "user", "content": "the prompt"}],
            "temperature": 0.7,
            "max_tokens": 32,
        }
    ]


def test_live_backend_client_errors_fail_immediately():
    session = _FakeSession([_FakeResponse(401, {"error": "no"})])
    backend = LiveBackend(model_id="m", api_key="k", session=session, sleep=lambda s: None)
    with pytest.raises(BackendError):
        backend.complete("t", "p", Decoding(0.0, 16))
    assert session.calls == 1


def test_live_backend_embeddings_endpoint():
    session = _FakeSession(
        [_FakeResponse(200, {"data": [{"embedding": [0.1, 0.2]}]})]
    )
    backend = LiveBackend(model_id="m", api_key="k", session=session)
    assert backend.embed("t") == [0.1, 0.2]


# -- letter parsing property ---------------------------------------------

# wrappers made of characters that can never read as standalone letters
_wrapper = st.text(
    alphabet=string.whitespace + string.punctuation.replace("<", "").replace(">", ""),
    max_size=10,
)


@given(letter=st.sampled_from("abcd"), prefix=_wrapper, suffix=_wrapper)
def test_letter_choice_total_and_case_insensitive(letter, prefix, suffix):
    text = f"{prefix}{letter}{suffix}"
    assert parse_letter_choice(text, {"A", "B", "C", "D"}) == letter.upper()


@given(case=st.sampled_from(["B", "b", "B.", "b. Yes", "(B)", "Answer: b"]))
def test_letter_choice_lenient_formats(case):
    assert parse_letter_choice(case, {"A", "B"}) == "B"


def test_letter_choice_requires_nonempty_allowed():
    with pytest.raises(ValueError):
        parse_letter_choice("A", set())


def test_letter_choice_failure_carries_text():
    with pytest.raises(UnparseableChoice) as excinfo:
        parse_letter_choice("nothing here", {"A", "B"})
    assert excinfo.value.text == "nothing here"


# -- cache determinism invariant ------------------------------------------


def test_same_request_sequence_replays_identically(tmp_path):
    rules = [
        {"template": "relevance", "response": "A"},
        {"template": "presentation", "response": "B"},
    ]

    def run(cache_path):
        gateway, script = make_gateway(rules=rules, cache_path=cache_path)
        out = [
            gateway.complete("relevance", claim="c", ruling="r", evidence="e"),
            gateway.complete("presentation", claim="c", evidence="e"),
            gateway.complete("relevance", claim="c", ruling="r", evidence="e"),
        ]
        return out, len(script.call_log)

    first_out, first_calls = run(tmp_path / "cache.jsonl")
    second_out, second_calls = run(tmp_path / "cache.jsonl")
    assert first_out == second_out
    assert first_calls == 2
    assert second_calls == 0  # everything served from the persistent cache
