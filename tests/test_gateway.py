"""Gateway: templates, parsing, cache, mock backend, call accounting."""

import base64
import dataclasses
import hashlib
import json
import string
import struct
import threading
import time

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
    GatewayCounters,
    completion_key,
    embedding_key,
    parse_letter_choice,
    render_template,
)

from tracer.gateway.mock import MockRule, _hashed_unit_vector

from conftest import make_gateway


@pytest.fixture(autouse=True)
def _close_test_caches(monkeypatch):
    """Close every cache a test here opened once the test ends.

    Tests write through caches they never close; closing them here keeps
    a run under ``-W error::ResourceWarning`` about the program's handles.
    """
    opened = []
    init = ResponseCache.__init__

    def tracked(self, *args, **kwargs):
        opened.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ResponseCache, "__init__", tracked)
    yield
    for cache in opened:
        cache.close()


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
        '{"key": "k1", "value": "v1"}\n{"key": "k2", "at": 0, "dim": 2}\n'
    )
    assert (tmp_path / "cache.jsonl.vectors").read_bytes() == struct.pack("<2d", 1.0, 2.0)


_SPECIAL_FLOATS = [
    -0.0,
    5e-324,
    -2.2250738585072e-308,
    float("inf"),
    float("-inf"),
    float("nan"),
    # quiet NaNs with a payload, one of them with the sign bit set
    *struct.unpack("<2d", bytes.fromhex("010000000000f87f" "00000000addef8ff")),
]


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
    # the raw bytes sit in the vector file, not in the JSON record
    assert json.loads(path.read_bytes()) == {"key": "v", "at": 0, "dim": len(vector)}
    assert (path.parent / "cache.jsonl.vectors").read_bytes() == vector.astype("<f8").tobytes()


def test_cache_loaded_vector_is_read_only(tmp_path):
    path = tmp_path / "cache.jsonl"
    ResponseCache(path).put("v", [1.0, 2.0])
    loaded = ResponseCache(path).get("v")
    assert not loaded.flags.writeable
    with pytest.raises(ValueError):
        loaded[0] = 3.0


@pytest.mark.parametrize(
    "line",
    [
        '{"key": "v", "vector": "AAAAAAAA8D8AAAAAAAAAQA=="}',
        '{"key": "v", "value": [1.0, -0.0, 2.5]}',
        '{"key": "%s", "value": "A"}' % ("0123456789abcdef" * 4),
    ],
    ids=["base64-vector", "list-of-floats", "hex-key"],
)
def test_cache_refuses_a_line_in_an_earlier_format_and_says_how_to_clear_it(tmp_path, line):
    path = tmp_path / "cache.jsonl"
    path.write_text(f'{{"key": "a", "value": "b"}}\n{line}\n', encoding="utf-8")
    with pytest.raises(CacheCorruption) as excinfo:
        ResponseCache(path)
    assert "line 2" in str(excinfo.value)
    assert "run `tracer cache-clear`" in str(excinfo.value)
    # as a last line without its newline it is a torn append: skipped
    path.write_text(f'{{"key": "a", "value": "b"}}\n{line}', encoding="utf-8")
    cache = ResponseCache(path)
    assert len(cache) == 1 and cache.get("a") == "b"


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
    cache.put("v", [1.0])
    cache.put("v", "text after a vector")
    cache.put("t", "text")
    cache.put("t", [2.0])
    reloaded = ResponseCache(path)
    assert reloaded.get("k") == "new"
    assert reloaded.get("v") == "text after a vector"
    assert reloaded.get("t").tolist() == [2.0]


def test_cache_corruption_names_the_line(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text('{"key": "a", "value": "b"}\ngarbage\n', encoding="utf-8")
    with pytest.raises(CacheCorruption) as excinfo:
        ResponseCache(path)
    assert "line 2" in str(excinfo.value)


@pytest.mark.parametrize("key", ["5", '["k"]', "null"])
def test_cache_record_whose_key_is_not_a_string_is_corruption(tmp_path, key):
    path = tmp_path / "cache.jsonl"
    path.write_text(f'{{"key": "a", "value": "b"}}\n{{"key": {key}, "value": "c"}}\n', encoding="utf-8")
    with pytest.raises(CacheCorruption) as excinfo:
        ResponseCache(path)
    assert "line 2" in str(excinfo.value)


def test_cache_non_numeric_vector_is_corruption(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text('{"key": "a", "value": "b"}\n{"key": "v", "value": ["x", 1.0]}\n', encoding="utf-8")
    with pytest.raises(CacheCorruption) as excinfo:
        ResponseCache(path)
    assert "line 2" in str(excinfo.value)


@pytest.mark.parametrize(
    "value",
    ["5", "1.5", "true", "null", '{"x": 1}', "[[1.0, 2.0], [3.0, 4.0]]", "[true, 1.0]", "[1" + "0" * 400 + "]"],
    ids=["int", "float", "bool", "null", "object", "nested-list", "bool-in-list", "int-past-float64"],
)
def test_cache_value_neither_text_nor_a_flat_list_of_numbers_is_corruption(tmp_path, value):
    path = tmp_path / "cache.jsonl"
    line = f'{{"key": "v", "value": {value}}}'
    path.write_text(f'{{"key": "a", "value": "b"}}\n{line}\n', encoding="utf-8")
    with pytest.raises(CacheCorruption) as excinfo:
        ResponseCache(path)
    assert "line 2" in str(excinfo.value)
    # as a last line without its newline it is a torn append: skipped
    path.write_text(f'{{"key": "a", "value": "b"}}\n{line}', encoding="utf-8")
    cache = ResponseCache(path)
    assert cache.get("a") == "b"
    assert cache.get("v") is None


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
            cache.put(f"e{i}", [float(i)] * (i % 7 + 1))

    threads = [threading.Thread(target=writer, args=(n * 50,)) for n in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    reloaded = ResponseCache(path)
    assert len(reloaded) == 400
    assert reloaded.get("k123") == "v123"
    for i in range(200):
        assert reloaded.get(f"e{i}").tolist() == [float(i)] * (i % 7 + 1)


def test_cache_batches_on_two_threads_each_write_everything_pending_on_exit(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ResponseCache(path)
    first_put, second_put, first_done = threading.Event(), threading.Event(), threading.Event()
    held_when_first_exited = []

    def first():
        with cache.batched():
            cache.put("a", "text a")
            cache.put("av", [1.0, 2.0])
            first_put.set()
            assert second_put.wait(10)
        first_done.set()

    def second():
        assert first_put.wait(10)
        with cache.batched():
            cache.put("b", "text b")
            cache.put("bv", [3.0])
            second_put.set()
            assert first_done.wait(10)
            held_when_first_exited.append(len(ResponseCache(path)))
            cache.put("c", "text c")

    threads = [threading.Thread(target=first), threading.Thread(target=second)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    # the first exit wrote the second block's records too
    assert held_when_first_exited == [4]
    reloaded = ResponseCache(path)
    assert len(reloaded) == 5
    assert [reloaded.get(k) for k in ("a", "b", "c")] == ["text a", "text b", "text c"]
    assert reloaded.get("av").tolist() == [1.0, 2.0]
    assert reloaded.get("bv").tolist() == [3.0]


def test_cache_writes_nothing_inside_a_batch_and_everything_at_its_exit(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ResponseCache(path)
    cache.put("k0", "v0")
    with cache.batched():
        cache.put("k1", "v1")
        cache.put("e1", [1.0, 2.0])
        # every put is answered at once, and nothing new is on disk yet
        assert cache.get("k1") == "v1" and cache.get("e1").tolist() == [1.0, 2.0]
        assert len(ResponseCache(path)) == 1
    assert path.read_text(encoding="utf-8") == (
        '{"key": "k0", "value": "v0"}\n'
        '{"key": "k1", "value": "v1"}\n'
        '{"key": "e1", "at": 0, "dim": 2}\n'
    )


def test_cache_clear_drops_what_a_batch_has_not_written(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ResponseCache(path)
    with cache.batched():
        cache.put("k1", "v1")
        cache.clear()
        cache.put("k2", "v2")
    assert path.read_text(encoding="utf-8") == '{"key": "k2", "value": "v2"}\n'


@given(
    text=st.text(),
    key=st.text(min_size=1),
    dim=st.integers(min_value=0, max_value=4),
)
def test_cache_lines_are_the_json_encoding_of_their_record(tmp_path_factory, text, key, dim):
    path = tmp_path_factory.mktemp("cache") / "cache.jsonl"
    cache = ResponseCache(path)
    with cache.batched():
        cache.put(key + "t", text)
        cache.put(key + "v", [0.5] * dim)
    expected = [
        {"key": key + "t", "value": text},
        {"key": key + "v", "at": 0, "dim": dim},
    ]
    assert path.read_bytes() == b"".join(
        (json.dumps(record, ensure_ascii=False) + "\n").encode("utf-8") for record in expected
    )


def _vector_file(path):
    return path.with_name(path.name + ".vectors")


@pytest.mark.parametrize("orphan_bytes", [24, 5], ids=["whole-vector", "torn-vector"])
def test_cache_vector_bytes_orphaned_by_a_crash_are_never_read(tmp_path, orphan_bytes):
    path = tmp_path / "cache.jsonl"
    ResponseCache(path).put("a", [1.0, 2.0])
    # a writer that died after (or while) writing a vector, before its index record
    with _vector_file(path).open("ab") as dying:
        dying.write(struct.pack("<3d", 3.0, 4.0, 5.0)[:orphan_bytes])

    reopened = ResponseCache(path)
    assert len(reopened) == 1
    assert reopened.get("a").tolist() == [1.0, 2.0]
    reopened.put("c", [-0.0, 6.0])
    last = json.loads(path.read_text(encoding="utf-8").splitlines()[-1])
    assert last == {"key": "c", "at": 16 + orphan_bytes, "dim": 2}

    reloaded = ResponseCache(path)
    assert len(reloaded) == 2
    assert reloaded.get("a").tolist() == [1.0, 2.0]
    assert reloaded.get("c").tobytes() == struct.pack("<2d", -0.0, 6.0)


@pytest.mark.parametrize(
    "vector_bytes, line", [(23, 3), (8, 2), (None, 2)], ids=["last", "first", "no-file"]
)
def test_cache_index_record_past_the_vector_file_end_is_corruption(tmp_path, vector_bytes, line):
    path = tmp_path / "cache.jsonl"
    cache = ResponseCache(path)
    cache.put("a", "text")
    cache.put("v", [1.0, 2.0])
    cache.put("w", [3.0])
    vectors = _vector_file(path)
    if vector_bytes is None:
        vectors.unlink()
    else:
        vectors.write_bytes(vectors.read_bytes()[:vector_bytes])
    with pytest.raises(CacheCorruption) as excinfo:
        ResponseCache(path)
    assert f"line {line} points past the end" in str(excinfo.value)


@pytest.mark.parametrize(
    "index",
    ['"at": -8, "dim": 1', '"at": "0", "dim": 1', '"at": 0, "dim": 1.0', '"at": true, "dim": 1', '"at": 0'],
    ids=["negative", "string", "float", "bool", "no-dim"],
)
def test_cache_malformed_index_record_is_corruption(tmp_path, index):
    path = tmp_path / "cache.jsonl"
    path.write_text(f'{{"key": "a", "value": "b"}}\n{{"key": "v", {index}}}\n', encoding="utf-8")
    _vector_file(path).write_bytes(bytes(64))
    with pytest.raises(CacheCorruption) as excinfo:
        ResponseCache(path)
    assert "line 2" in str(excinfo.value)


def test_cache_two_writers_appending_in_turn_keep_every_vector(tmp_path):
    path = tmp_path / "cache.jsonl"
    writers = [ResponseCache(path), ResponseCache(path)]
    written = {}
    for i in range(8):
        vector = np.random.default_rng(i).standard_normal(i + 1)
        writers[i % 2].put(f"k{i}", vector)
        written[f"k{i}"] = vector
    writers[0].put("k0", [7.0])  # a later record wins
    written["k0"] = np.array([7.0])

    reloaded = ResponseCache(path)
    assert len(reloaded) == len(written)
    for key, vector in written.items():
        assert reloaded.get(key).tobytes() == vector.tobytes()


def test_cache_loaded_vectors_share_one_buffer(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ResponseCache(path)
    cache.put("a", [1.0, 2.0])
    cache.put("b", [3.0])
    reloaded = ResponseCache(path)
    a, b = reloaded.get("a"), reloaded.get("b")
    assert a.base is not None and a.base is b.base
    assert not a.flags.writeable and not b.flags.writeable


def test_cache_clear_keeps_loaded_vectors_readable_and_starts_fresh_files(tmp_path):
    path = tmp_path / "cache.jsonl"
    writer = ResponseCache(path)
    writer.put("a", [1.0, 2.0])
    writer.put("b", [3.0])
    writer.close()
    cache = ResponseCache(path)
    a, b = cache.get("a"), cache.get("b")
    cache.clear()
    assert not path.exists() and not _vector_file(path).exists()
    cache.put("c", [4.0])
    cache.put("t", "text")
    assert path.read_text(encoding="utf-8") == (
        '{"key": "c", "at": 0, "dim": 1}\n{"key": "t", "value": "text"}\n'
    )
    assert _vector_file(path).read_bytes() == struct.pack("<d", 4.0)
    # the views still read the unlinked file's bytes, and still refuse writes
    assert a.tolist() == [1.0, 2.0] and b.tolist() == [3.0]
    for view in (a, b):
        with pytest.raises(ValueError):
            view[0] = 0.0


def _reference_load(path):
    """The loader the C scanner and the mapped vector file replaced.

    ``json.loads`` per line, then one read of the whole vector file;
    kept as the reference the cache's own load must equal. Returns the
    entries and the open tail, or raises the same ``CacheCorruption``.
    """
    entries, refs, open_tail = {}, [], None
    offset = 0
    with path.open("rb") as handle:
        for number, line in enumerate(handle, start=1):
            start, offset = offset, offset + len(line)
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                key = record["key"]
                if type(key) is not str or len(key) == 64:
                    raise TypeError(key)
                if "at" in record:
                    at, dim = record["at"], record["dim"]
                    if type(at) is not int or type(dim) is not int or at < 0 or dim < 0:
                        raise ValueError(at, dim)
                    value = (at, dim)
                    refs.append((number, key, value))
                else:
                    value = record["value"]
                    if type(value) is not str:
                        raise TypeError(value)
            except (ValueError, TypeError, KeyError):
                if line.endswith(b"\n"):
                    raise CacheCorruption(
                        f"{path}: line {number} is not a cache record of this version; "
                        "run `tracer cache-clear` to start a new cache"
                    ) from None
                open_tail = (start, line, False)
                continue
            entries[key] = value
            if not line.endswith(b"\n"):
                open_tail = (start, line, True)
    vectors = _vector_file(path)
    data = vectors.read_bytes() if vectors.exists() else b""
    for number, key, ref in refs:
        at, dim = ref
        if at + 8 * dim > len(data):
            raise CacheCorruption(
                f"{path}: the vector record at line {number} points past "
                f"the end of {vectors} ({len(data)} bytes)"
            )
        if entries[key] is ref:
            entries[key] = np.frombuffer(data, "<f8", count=dim, offset=at)
    return entries, open_tail


def _cache_load(path):
    cache = ResponseCache(path)
    for value in cache._entries.values():
        assert isinstance(value, str) or not value.flags.writeable
    return cache._entries, cache._open_tail


def _load_outcome(load, path):
    try:
        entries, open_tail = load(path)
    except CacheCorruption as error:
        return str(error)
    values = {
        key: value if isinstance(value, str) else (value.dtype == np.float64, value.tobytes())
        for key, value in entries.items()
    }
    return values, open_tail


_KEYS = st.sampled_from(["a", "b", 'q"\\', "\u00e9\u2028", "0" * 64, "f" * 64])
# quotes, backslashes, separators JSON leaves raw, an astral character
# (an escaped surrogate pair once ASCII-escaped) and lone surrogates
_TEXT = st.text(st.sampled_from('"\\/\n\t\u2028\u00e9\U0001f600\ud800\udfff') | st.characters())


@st.composite
def _cache_line(draw):
    """One cache line of any kind earlier or current versions wrote, without its end."""
    key = draw(_KEYS)
    kind = draw(st.sampled_from(["text", "index", "base64", "list", "blank"]))
    if kind == "blank":
        return draw(st.sampled_from([b"", b" ", b"\t "]))
    if kind == "text":
        record = {"key": key, "value": draw(_TEXT)}
    elif kind == "index":
        record = {"key": key, "at": draw(st.integers(0, 40)), "dim": draw(st.integers(0, 4))}
    elif kind == "base64":
        raw = draw(st.binary(max_size=24))
        record = {"key": key, "vector": base64.b64encode(raw[: len(raw) // 8 * 8]).decode()}
    else:
        numbers = st.floats() | st.integers(-(2**53), 2**53)
        record = {"key": key, "value": draw(st.lists(numbers, max_size=4))}
    text = json.dumps(record, ensure_ascii=draw(st.booleans()))
    prefix = draw(st.sampled_from(["", "", " ", "\t", "\ufeff"]))
    suffix = draw(st.sampled_from(["", "", " ", "\t"]))
    # a lone surrogate written raw is not UTF-8, but json.loads reads it
    return (prefix + text + suffix).encode("utf-8", "surrogatepass")


@st.composite
def _cache_file(draw):
    """Cache file bytes, and the vector file's bytes (None: no vector file)."""
    lines = [
        draw(_cache_line()) + draw(st.sampled_from([b"\n", b"\n", b"\r\n"]))
        for _ in range(draw(st.integers(0, 10)))
    ]
    if draw(st.booleans()):
        undecodable = draw(
            st.sampled_from(
                [
                    b"garbage",
                    b'{"key": "a", "val',
                    b'{"key": "a", "value": "\xff"}',  # not UTF-8
                    b'{"key": "a", "value": "b"} x',  # extra data
                    b'{"key": "a", "value": "b"}\x0c',  # not JSON whitespace
                ]
            )
        )
        lines.insert(draw(st.integers(0, len(lines))), undecodable + b"\n")
    tail = draw(st.sampled_from(["none", "unterminated", "torn"]))
    if tail != "none":
        last = draw(_cache_line())
        if tail == "torn":
            last = last[: draw(st.integers(0, len(last)))]
        lines.append(last)
    return b"".join(lines), draw(st.none() | st.binary(max_size=48))


@given(files=_cache_file())
@example(files=(b'{"key": "a", "at": 0, "dim": 0}\n', b""))
@example(files=(b'{"key": "a", "value": "\xed\xa0\x80"}\n{"key": "b", "value": "c"} \r', None))
def test_cache_loads_what_the_json_loads_loader_loaded(tmp_path_factory, files):
    data, vector_bytes = files
    path = tmp_path_factory.mktemp("cache") / "cache.jsonl"
    path.write_bytes(data)
    if vector_bytes is not None:
        _vector_file(path).write_bytes(vector_bytes)
    assert _load_outcome(_cache_load, path) == _load_outcome(_reference_load, path)


# -- cache keys ----------------------------------------------------------

# A request with non-ASCII text, quotes, a backslash and a newline. Its
# keys are pinned so that a CI job on another interpreter proves the
# header does not depend on it.
_AWKWARD_TEXT = 'Claim: "Café" costs 5€ \\ naïve\nEvidence: 東京 \U0001f600'
_BASE64URL = set(string.ascii_letters + string.digits + "-_")


def test_keys_are_pinned_43_character_base64url_digests():
    keys = [
        completion_key("gpt-4o-mini", "reassessment", _AWKWARD_TEXT, 0.0, 512),
        embedding_key("text-embedding-3-small", _AWKWARD_TEXT),
    ]
    assert keys == [
        "BQmOTF8AjCGNbo_3RobNEMlq88_XwEe66s9lwtW5-Ug",
        "MRpoacSNAbxa1XRjGXve0vGRsEGnv-t5JfrMODrkZRc",
    ]
    for key in keys:
        assert len(key) == 43 and set(key) <= _BASE64URL


# arbitrary text, control characters included, with the header's own
# separators and digits drawn often
_key_char = st.one_of(st.sampled_from(" :\n0123456789"), st.characters(codec="utf-8"))
_key_text = st.text(_key_char)
# model id, template id, prompt, temperature, max_tokens
_completion_fields = [
    _key_text,
    _key_text,
    _key_text,
    st.floats(allow_nan=False),
    st.integers(min_value=0, max_value=2**31),
]
_completion_request = st.tuples(*_completion_fields)


@given(request=_completion_request, field=st.integers(0, 4), data=st.data())
def test_completion_key_changes_with_every_field(request, field, data):
    changed = list(request)
    changed[field] = data.draw(
        _completion_fields[field].filter(lambda value: value != request[field])
    )
    assert completion_key(*changed) != completion_key(*request)


@given(request=_completion_request, boundary=st.integers(0, 1), char=_key_char)
def test_completion_key_changes_when_a_character_crosses_a_field_boundary(
    request, boundary, char
):
    left, right = request[boundary], request[boundary + 1]
    moved = list(request)
    moved[boundary], moved[boundary + 1] = left + char, right
    shifted = list(request)
    shifted[boundary], shifted[boundary + 1] = left, char + right
    assert completion_key(*moved) != completion_key(*shifted)


@given(model=_key_text, text=_key_text, other=_key_text)
def test_embedding_key_separates_fields_and_kinds(model, text, other):
    key = embedding_key(model, text)
    if other != text:
        assert embedding_key(model, other) != key
    if other != model:
        assert embedding_key(other, text) != key
    for char in (" ", ":", "\n", "0"):
        assert embedding_key(model + char, text) != embedding_key(model, char + text)
    assert completion_key(model, model, text, 0.0, 512) != key
    assert completion_key(model, "", text, 0.0, 512) != key


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
        script.embed(["text nobody scripted"])


def test_mock_call_log_is_complete_and_ordered():
    script = MockScript.from_dict(
        {
            "rules": [{"template": "t", "response": "R"}],
            "embeddings": [{"text": "e", "vector": [1.0]}],
        }
    )
    script.complete("t", "p1", Decoding())
    script.embed(["e", "e"])
    script.complete("t", "p2", Decoding())
    assert [c.kind for c in script.call_log] == ["completion", "embedding", "embedding", "completion"]
    assert [c.prompt for c in script.call_log] == ["p1", "e", "e", "p2"]


def test_mock_default_embedding_is_deterministic_unit_norm():
    script = MockScript.from_dict({"default_embedding": {"dim": 12}})
    v1, v2, v3 = script.embed(["some text", "some text", "other text"])
    assert v1.tolist() == v2.tolist()
    assert v1.tolist() != v3.tolist()
    assert abs(sum(x * x for x in v1) - 1.0) < 1e-9


def test_mock_texts_matching_one_entry_share_one_read_only_array():
    # parsed from JSON text, so the floats are the ones a script file gives
    script = MockScript.from_dict(
        json.loads(
            '{"embeddings": [{"text": "exact", "vector": [0.1, -2.5e-300, 0.3333333333333333]},'
            ' {"contains": "[x]", "vector": [1, 0.30000000000000004, -0.0]}]}'
        )
    )
    exact, first, second = script.embed(["exact", "[x] one", "two [x]"])
    assert first is second
    assert script.embed(["exact"])[0] is exact
    for vector in (exact, first):
        assert vector.dtype == np.float64
        assert not vector.flags.writeable
        with pytest.raises(ValueError):
            vector[0] = 9.0
    assert exact.tobytes() == struct.pack("<3d", 0.1, -2.5e-300, 0.3333333333333333)
    assert first.tobytes() == struct.pack("<3d", 1.0, 0.30000000000000004, -0.0)
    assert [c.prompt for c in script.call_log] == ["exact", "[x] one", "two [x]", "exact"]


@pytest.mark.parametrize(
    "vector, error",
    [([1.0, "x"], ValueError), ([1.0, None], TypeError), ([[1.0], 0.0], TypeError)],
    ids=["string", "null", "nested"],
)
def test_mock_malformed_vector_fails_at_load(vector, error):
    with pytest.raises(error):
        MockScript.from_dict({"embeddings": [{"contains": "a", "vector": vector}]})


def test_mock_built_directly_checks_its_rules():
    rule = MockRule(template="relevance", contains=None, responses=[5], repeat=True)
    with pytest.raises(TypeError):
        MockScript(rules=[rule])


def test_gateway_embed_over_texts_sharing_an_array_cold_then_warm(tmp_path):
    gateway, script = make_gateway(
        embeddings=[
            {"contains": "[x]", "vector": [1.0, 0.0]},
            {"contains": "[y]", "vector": [0.0, 1.0]},
        ],
        cache_path=tmp_path / "cache.jsonl",
    )
    texts = ["[x] one", "[x] two", "[y] three", "[x] four"]
    expected = {"[x] one": [1.0, 0.0], "[x] two": [1.0, 0.0], "[y] three": [0.0, 1.0], "[x] four": [1.0, 0.0]}
    cold = [gateway.embed(text) for text in texts]
    warm = [gateway.embed(text) for text in texts]
    for text, first, again in zip(texts, cold, warm):
        assert first.vector.tolist() == expected[text]
        assert again is first
    assert gateway.counters.backend_calls == 4
    assert gateway.counters.embedding_cache_hits == 4
    assert len(script.call_log) == 4

    gateway.cache.clear()
    assert gateway.embed("[x] two").vector.tolist() == [1.0, 0.0]
    assert gateway.embed("[y] three").vector.tolist() == [0.0, 1.0]
    assert [c.prompt for c in script.call_log[4:]] == ["[x] two", "[y] three"]
    assert gateway.counters.backend_calls == 6

    # a fresh gateway over the same file reads each text's own vector back
    reloaded, script2 = make_gateway(cache_path=tmp_path / "cache.jsonl")
    assert reloaded.embed("[x] two").vector.tolist() == [1.0, 0.0]
    assert reloaded.embed("[y] three").vector.tolist() == [0.0, 1.0]
    assert script2.call_log == []


def test_gateway_embedding_wraps_the_scripted_array_without_a_copy():
    gateway, script = make_gateway(embeddings=[{"contains": "[x]", "vector": [1.0, 0.0]}])
    shared = script.embed(["[x] probe"])[0]
    one = gateway.embed("[x] one")
    two = gateway.embed("[x] two")
    assert one is not two
    assert one.vector is two.vector is shared


def test_mock_rules_are_consulted_for_the_requested_template_only(monkeypatch):
    consulted = []
    matches = MockRule.matches

    def spy(self, *args):
        consulted.append(self.template)
        return matches(self, *args)

    monkeypatch.setattr(MockRule, "matches", spy)
    script = MockScript.from_dict(
        {
            "rules": [
                {"template": "other", "response": "O"},
                {"template": "t", "contains": "special", "response": "S"},
                {"template": "t", "response": "D"},
            ]
        }
    )
    assert script.complete("t", "a special prompt", Decoding()) == "S"
    assert script.complete("t", "a plain prompt", Decoding()) == "D"
    assert "other" not in consulted
    assert script.complete("other", "a special prompt", Decoding()) == "O"


def test_mock_ordered_responses_run_out_then_the_next_rule_matches():
    script = MockScript.from_dict(
        {
            "rules": [
                {"template": "u", "response": "U"},
                {"template": "t", "responses": ["one", "two"]},
                {"template": "t", "contains": "p", "response": "P"},
                {"template": "t", "responses": ["three"]},
            ]
        }
    )
    answers = [script.complete("t", prompt, Decoding()) for prompt in ["p", "q", "p", "q"]]
    assert answers == ["one", "two", "P", "three"]
    with pytest.raises(MockScriptMiss):
        script.complete("t", "q", Decoding())
    assert [c.template for c in script.call_log] == ["t"] * 4


def test_mock_miss_message_for_an_unknown_template():
    script = MockScript.from_dict({"rules": [{"template": "t", "response": "R"}]})
    with pytest.raises(MockScriptMiss) as excinfo:
        script.complete("zzz", "p" * 100, Decoding())
    assert str(excinfo.value) == (
        f"no mock rule matches template 'zzz'; prompt starts: {'p' * 80!r}"
    )
    assert script.call_log == []


def test_hashed_default_embedding_keeps_its_values():
    assert list(_hashed_unit_vector("the claim", 6)) == [
        0.582438492479936,
        -0.021932830260750727,
        0.13403396270458778,
        0.5142030205576004,
        -0.35823622759226187,
        -0.4995811337170999,
    ]
    assert list(_hashed_unit_vector('Ünïcode "text"', 6)) == [
        -0.2850452139465037,
        0.5313805840237291,
        -0.15132029876172418,
        -0.6932581129316201,
        -0.038709843869278275,
        -0.36246490168506024,
    ]
    wide = _hashed_unit_vector("the claim", 1536)
    assert hashlib.sha256(struct.pack("<1536d", *wide)).hexdigest() == (
        "8ae6922d4d763e297f37caf411309da9a18c5723bf897deb7518555af05c2df9"
    )


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


class _CountingBackend:
    """Answers A, and keeps the most calls it was ever inside at once."""

    def __init__(self):
        self.lock = threading.Lock()
        self.inside = self.peak = 0
        # the first two calls wait for each other, so a cap of two is reached
        self.pair = threading.Barrier(2, timeout=10)

    def complete(self, template_id, prompt, decoding):
        with self.lock:
            self.inside += 1
            self.peak = max(self.peak, self.inside)
        try:
            self.pair.wait()
        except threading.BrokenBarrierError:
            pass
        time.sleep(0.05)
        with self.lock:
            self.inside -= 1
        return "A"


def test_gateway_caps_backend_calls_in_flight():
    backend = _CountingBackend()
    gateway = Gateway(backend=backend, max_in_flight=2)
    threads = [
        threading.Thread(
            target=gateway.complete,
            args=("relevance",),
            kwargs=dict(claim=f"c{i}", ruling="r", evidence="e"),
        )
        for i in range(4)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    assert backend.peak == 2
    assert gateway.counters.backend_calls == 4


@pytest.mark.parametrize("max_in_flight", [0, -1])
def test_gateway_without_a_token_for_the_backend_is_a_value_error(max_in_flight):
    with pytest.raises(ValueError, match="max_in_flight"):
        Gateway(backend=_CountingBackend(), max_in_flight=max_in_flight)


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

    def embed(self, texts):
        self.embed_calls += 1
        if self.embed_calls == 1:
            raise BackendError("transient")
        return [[1.0, 0.0] for _ in texts]


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


_WORDS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]


def _seeded_cache(path, kind):
    """A cache file holding none of the words, or half of them."""
    cache = ResponseCache(path)
    if kind == "half":
        for i, word in enumerate(_WORDS[::2]):
            cache.put(embedding_key("mock", word), [float(i), 1.0, 0.0, 2.0])
    cache.close()
    return ResponseCache(path)


def _embed_run(path, kind, asks):
    """Embeddings, counters, backend calls per ask and the cache files' bytes.

    An ask is a text, sent to ``embed``, or a list of texts, sent to ``embed_many``.
    """
    cache = _seeded_cache(path, kind)
    gateway = Gateway(backend=MockScript.from_dict({"default_embedding": {"dim": 4}}), cache=cache)
    got, calls = [], []
    for ask in asks:
        before = gateway.counters.backend_calls
        if isinstance(ask, list):
            got.extend(gateway.embed_many(ask))
        else:
            got.append(gateway.embed(ask))
        calls.append(gateway.counters.backend_calls - before)
    # a text asked for again afterwards gets the object it got before
    assert all(gateway.embed(text) is embedding for text, embedding in zip(_flat(asks), got))
    cache.close()
    vectors = path.with_name(path.name + ".vectors")
    files = [p.read_bytes() if p.exists() else None for p in (path, vectors)]
    return got, gateway.counters, calls, files


def _flat(asks):
    return [text for ask in asks for text in (ask if isinstance(ask, list) else [ask])]


@given(
    batches=st.lists(st.lists(st.sampled_from(_WORDS), max_size=6), min_size=1, max_size=3),
    kind=st.sampled_from(["empty", "half"]),
)
@example(batches=[["alpha", "beta", "alpha", "beta"], ["beta", "gamma"]], kind="half")
def test_embed_many_equals_the_same_texts_embedded_one_at_a_time(tmp_path_factory, batches, kind):
    directory = tmp_path_factory.mktemp("embed")
    texts = _flat(batches)
    many, many_counters, many_calls, many_files = _embed_run(directory / "m.jsonl", kind, batches)
    one, one_counters, one_calls, one_files = _embed_run(directory / "o.jsonl", kind, texts)
    assert many == one
    # the same text gets the same object, a different text a different one
    for i, first in enumerate(many):
        for j, second in enumerate(many):
            assert (first is second) == (texts[i] == texts[j]) == (one[i] is one[j])
    # the same requests and hits; a batch makes one backend call if any of it missed
    assert dataclasses.replace(many_counters, backend_calls=0) == dataclasses.replace(
        one_counters, backend_calls=0
    )
    ends = [sum(len(batch) for batch in batches[: k + 1]) for k in range(len(batches))]
    starts = [0] + ends[:-1]
    assert many_calls == [int(sum(one_calls[a:b]) > 0) for a, b in zip(starts, ends)]
    assert many_files == one_files


def test_embed_many_sends_each_missed_text_once_in_one_call():
    gateway, script = make_gateway(default_dim=4)
    gateway.embed("beta")
    embeddings = gateway.embed_many(["alpha", "beta", "alpha", "gamma"])
    assert embeddings[0] is embeddings[2]
    assert [c.prompt for c in script.call_log] == ["beta", "alpha", "gamma"]
    assert gateway.counters == GatewayCounters(
        embedding_requests=5, embedding_cache_hits=2, backend_calls=2
    )
    assert gateway.embed_many([]) == []
    assert gateway.counters.backend_calls == 2


def test_embed_many_failure_caches_nothing_and_is_retried(tmp_path):
    path = tmp_path / "cache.jsonl"
    gateway, script = make_gateway(
        embeddings=[{"text": "a", "vector": [1.0]}, {"text": "b", "vector": [2.0]}],
        cache_path=path,
    )
    with pytest.raises(MockScriptMiss):
        gateway.embed_many(["a", "c", "b"])
    assert len(gateway.cache) == 0 and not path.exists()
    assert gateway.counters.backend_calls == 0
    assert [e.vector.tolist() for e in gateway.embed_many(["a", "b"])] == [[1.0], [2.0]]
    assert gateway.counters.backend_calls == 1
    gateway.cache.close()


def test_embed_many_rejects_an_empty_text_before_any_request():
    gateway, script = make_gateway(default_dim=4)
    with pytest.raises(EmptyInput):
        gateway.embed_many(["alpha", " "])
    assert script.call_log == [] and gateway.counters == GatewayCounters()


def test_gateway_completion_that_is_not_unicode_is_a_backend_error_and_not_cached(tmp_path):
    path = tmp_path / "cache.jsonl"
    gateway, _ = make_gateway(
        rules=[{"template": "relevance", "response": "A\ud800"}], cache_path=path
    )
    with pytest.raises(BackendError, match="'relevance' answer is not valid Unicode"):
        gateway.complete("relevance", claim="c", ruling="r", evidence="e")
    assert gateway.counters.backend_calls == 1
    assert len(gateway.cache) == 0 and not path.exists()


def test_gateway_rejects_a_backend_answering_the_wrong_number_of_vectors():
    class Short:
        def embed(self, texts):
            return [[1.0]]

    gateway = Gateway(backend=Short())
    with pytest.raises(BackendError, match="1 vectors for 2 texts"):
        gateway.embed_many(["a", "b"])
    assert len(gateway.cache) == 0


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


def test_gateway_vector_under_a_completion_key_is_corruption():
    gateway, script = make_gateway(rules=[{"template": "relevance", "response": "A"}])
    bindings = dict(claim="c", ruling="r", evidence="e")
    prompt = render_template(gateway.catalog.get("relevance"), bindings)
    decoding = gateway.decoding
    key = completion_key("mock", "relevance", prompt, decoding.temperature, decoding.max_tokens)
    gateway.cache.put(key, [1.0, 2.0])
    with pytest.raises(CacheCorruption, match="vector under the completion key"):
        gateway.complete("relevance", **bindings)
    assert script.call_log == []


def test_gateway_text_under_an_embedding_key_is_corruption(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text(
        json.dumps({"key": embedding_key("mock", "e"), "value": "x"}) + "\n", encoding="utf-8"
    )
    gateway, script = make_gateway(embeddings=[{"text": "e", "vector": [1.0]}], cache_path=path)
    for ask in (gateway.embed, lambda text: gateway.embed_many(["f", text])):
        with pytest.raises(CacheCorruption, match="text under the embedding key"):
            ask("e")
    assert script.call_log == []


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


@pytest.mark.parametrize("content", [None, 5, ["ok"]], ids=["null", "number", "list"])
def test_live_backend_completion_content_that_is_not_text_is_a_backend_error(content):
    session = _FakeSession([_FakeResponse(200, _completion_payload(content))])
    backend = LiveBackend(model_id="m", api_key="k", session=session)
    with pytest.raises(BackendError, match="malformed chat completion response"):
        backend.complete("t", "p", Decoding(0.0, 16))


def test_live_backend_embeddings_endpoint():
    session = _FakeSession(
        [_FakeResponse(200, {"data": [{"index": 0, "embedding": [0.1, 0.2]}]})]
    )
    backend = LiveBackend(model_id="m", api_key="k", session=session)
    [vector] = backend.embed(["t"])
    assert vector.tolist() == [0.1, 0.2]
    assert vector.dtype == np.float64 and not vector.flags.writeable
    assert session.payloads == [{"model": "m", "input": ["t"]}]


def test_live_backend_embeds_a_batch_in_one_post_and_orders_it_by_index():
    rows = [{"index": 2, "embedding": [2.0]}, {"index": 0, "embedding": [0.0]}, {"index": 1, "embedding": [1.0]}]
    session = _FakeSession([_FakeResponse(200, {"data": rows})])
    backend = LiveBackend(model_id="m", embedding_model_id="e", api_key="k", session=session)
    vectors = backend.embed(["a", "b", "c"])
    assert [v.tolist() for v in vectors] == [[0.0], [1.0], [2.0]]
    assert session.payloads == [{"model": "e", "input": ["a", "b", "c"]}]


@pytest.mark.parametrize(
    "indices",
    [[0], [0, 1, 2], [0, 0], [1, 2]],
    ids=["too-few", "too-many", "repeated", "shifted"],
)
def test_live_backend_embedding_rows_that_do_not_match_the_texts_are_a_backend_error(indices):
    rows = [{"index": i, "embedding": [float(i)]} for i in indices]
    session = _FakeSession([_FakeResponse(200, {"data": rows})])
    backend = LiveBackend(model_id="m", api_key="k", session=session)
    with pytest.raises(BackendError, match="indices"):
        backend.embed(["a", "b"])


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
