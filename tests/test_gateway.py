"""Gateway: templates, parsing, cache, mock backend, call accounting."""

import base64
import dataclasses
import errno
import hashlib
import http.server
import json
import math
import os
import string
import struct
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import tracer.gateway
from tracer.config import ABLATION_CONFIGS
from tracer.errors import (
    BackendError,
    CacheCorruption,
    CacheInUse,
    ConfigError,
    EmptyInput,
    MockScriptMiss,
    TracerError,
    UnparseableChoice,
)
from tracer.fixtures import load_scenario_record, make_scenario_gateway
from tracer.gateway import (
    Embedding,
    Endpoint,
    Gateway,
    LiveBackend,
    MockScript,
    ResponseCache,
    GatewayCounters,
    bundled_templates,
    completion_key,
    embedding_key,
    parse_letter_choice,
    render_template,
    unwrap,
)

from tracer.gateway.backends import (
    MAX_RETRIES,
    MAX_TOKENS,
    RETRY_AFTER_CAP_S,
    TEMPERATURE,
    post_json,
)
from tracer.gateway.cache import remove_cache_files
from tracer.gateway.mock import MockRule, _hashed_unit_vector
from tracer.verdict import run_pipeline

from conftest import Call, Recorder, make_gateway


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
    text = render_template("Evidence: {evidence}\nClaim: {claim}", {"evidence": "E", "claim": "C"})
    assert text == "Evidence: E\nClaim: C"


def test_bundled_catalog_covers_every_pipeline_template():
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
    assert expected <= set(bundled_templates())


def _placeholders(body: str) -> frozenset[str]:
    """The names of a body's placeholders, each of which must be bare: no
    index, attribute, format spec or conversion."""
    names = set()
    for _, name, spec, conversion in string.Formatter().parse(body):
        if name is not None:
            assert name.isidentifier() and not spec and not conversion, name
            names.add(name)
    return frozenset(names)


# the check render_template leaves out: run the scenario under every config
# and record each binding set that reaches it, by template
def test_every_stage_binds_exactly_the_placeholders_of_each_shipped_template(monkeypatch):
    templates = bundled_templates()
    template_of = {body: template_id for template_id, body in templates.items()}
    assert len(template_of) == len(templates)
    bound = {}  # template id -> the binding-name sets it was rendered with
    prompts = {}  # template id -> a prompt rendered from it
    render = tracer.gateway.render_template

    def recording(body, bindings):
        assert all(type(value) is str for value in bindings.values()), bindings
        template_id = template_of[body]
        bound.setdefault(template_id, set()).add(frozenset(bindings))
        prompts[template_id] = render(body, bindings)
        return prompts[template_id]

    monkeypatch.setattr(tracer.gateway, "render_template", recording)
    record = load_scenario_record()
    for ablation in ABLATION_CONFIGS.values():
        run_pipeline(make_scenario_gateway(), record, ablation=ablation)
    assert bound == {
        template_id: {_placeholders(body)} for template_id, body in templates.items()
    }
    doubled = [template_id for template_id, body in templates.items() if "{{0, 1}}" in body]
    assert doubled
    for template_id in doubled:
        assert "Choose from {0, 1}:" in prompts[template_id]


# -- response cache ------------------------------------------------------


def test_cache_persists_and_reloads(tmp_path):
    path = tmp_path / "cache.jsonl"
    with ResponseCache(path) as cache:
        cache.put("k1", "v1")
        cache.put("k2", [1.0, 2.0])
    with ResponseCache(path) as reloaded:
        assert reloaded.get("k1") == "v1"
        assert reloaded.get("k2").tolist() == [1.0, 2.0]
        assert len(reloaded) == 2
    assert path.read_text(encoding="utf-8") == (
        '{"key": "k1", "value": "v1"}\n{"key": "k2", "at": 0, "dim": 2}\n'
    )
    assert (tmp_path / "cache.jsonl.vectors").read_bytes() == struct.pack("<2d", 1.0, 2.0)


def test_cache_open_of_a_missing_path_creates_an_empty_cache_file(tmp_path):
    path = tmp_path / "cache.jsonl"
    with ResponseCache(path) as cache:
        assert len(cache) == 0
    assert path.read_bytes() == b""
    assert not _vector_file(path).exists()


def test_cache_second_open_of_a_path_is_in_use_and_the_first_still_serves(tmp_path):
    path = tmp_path / "cache.jsonl"
    with ResponseCache(path) as cache:
        cache.put("a", [1.0, 2.0])
        with pytest.raises(CacheInUse, match=f"cache in use: {path}"):
            ResponseCache(path)
        with pytest.raises(CacheInUse):
            remove_cache_files(path)
        assert cache.get("a").tolist() == [1.0, 2.0]
        cache.put("b", "text")
        assert cache.get("b") == "text"
    assert issubclass(CacheInUse, ConfigError)
    assert path.read_text(encoding="utf-8") == (
        '{"key": "a", "at": 0, "dim": 2}\n{"key": "b", "value": "text"}\n'
    )
    assert _vector_file(path).read_bytes() == struct.pack("<2d", 1.0, 2.0)


def test_cache_closed_or_failed_to_load_releases_its_path(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ResponseCache(path)
    cache.put("a", "b")
    cache.close()
    cache.close()  # a second close does nothing
    with ResponseCache(path) as again:
        assert again.get("a") == "b"
    path.write_text("garbage\n", encoding="utf-8")
    with pytest.raises(CacheCorruption):
        ResponseCache(path)
    remove_cache_files(path)
    assert not path.exists()


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
    with ResponseCache(path) as cache:
        cache.put("v", vector)
    with ResponseCache(path) as cache:
        loaded = cache.get("v")
    assert loaded.dtype == np.float64
    assert loaded.tobytes() == vector.tobytes()
    # the raw bytes sit in the vector file, not in the JSON record
    assert json.loads(path.read_bytes()) == {"key": "v", "at": 0, "dim": len(vector)}
    assert (path.parent / "cache.jsonl.vectors").read_bytes() == vector.astype("<f8").tobytes()


def test_cache_loaded_vector_is_read_only(tmp_path):
    path = tmp_path / "cache.jsonl"
    with ResponseCache(path) as cache:
        cache.put("v", [1.0, 2.0])
    with ResponseCache(path) as cache:
        loaded = cache.get("v")
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
    with ResponseCache(path) as cache:
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
    with ResponseCache(path) as cache:
        cache.put("a", "first")
        cache.put("b", [0.5, -1.5])
        cache.put("torn", torn_value)
    whole = path.read_bytes()
    last_line = whole[whole.rindex(b"\n", 0, -1) + 1 :]
    path.write_bytes(whole[: -len(last_line) // 2])  # the writer died mid-append

    with ResponseCache(path) as reopened:
        # cut off at open
        assert path.read_bytes() == whole[: -len(last_line)]
        assert reopened.get("a") == "first"
        assert reopened.get("b").tolist() == [0.5, -1.5]
        assert reopened.get("torn") is None
        reopened.put("c", "after")

    with ResponseCache(path) as reloaded:
        assert len(reloaded) == 3
        assert reloaded.get("a") == "first"
        assert reloaded.get("b").tolist() == [0.5, -1.5]
        assert reloaded.get("c") == "after"
    assert path.read_bytes() == whole[: -len(last_line)] + b'{"key": "c", "value": "after"}\n'


def test_cache_appends_after_a_whole_record_missing_its_newline(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text('{"key": "a", "value": "b"}', encoding="utf-8")
    with ResponseCache(path) as cache:
        # given its newline at open
        assert path.read_bytes() == b'{"key": "a", "value": "b"}\n'
        assert cache.get("a") == "b"
        cache.put("c", "d")
    with ResponseCache(path) as reloaded:
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
    with ResponseCache(path) as cache:
        cache.put("k", "old")
        cache.put("k", "new")
        cache.put("v", [1.0])
        cache.put("v", "text after a vector")
        cache.put("t", "text")
        cache.put("t", [2.0])
    with ResponseCache(path) as reloaded:
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
    with ResponseCache(path) as cache:
        assert cache.get("a") == "b"
        assert cache.get("v") is None


def test_cache_nested_batch_exit_writes_everything_pending(tmp_path):
    path = tmp_path / "cache.jsonl"
    with ResponseCache(path) as cache, cache.batched():
        cache.put("a", "text a")
        cache.put("av", [1.0, 2.0])
        with cache.batched():
            cache.put("b", "text b")
            cache.put("bv", [3.0])
        # the inner exit wrote the outer block's records too
        assert len(path.read_bytes().splitlines()) == 4
        cache.put("c", "text c")
        assert len(path.read_bytes().splitlines()) == 4
    with ResponseCache(path) as reloaded:
        assert len(reloaded) == 5
        assert [reloaded.get(k) for k in ("a", "b", "c")] == ["text a", "text b", "text c"]
        assert reloaded.get("av").tolist() == [1.0, 2.0]
        assert reloaded.get("bv").tolist() == [3.0]


def test_cache_writes_nothing_inside_a_batch_and_everything_at_its_exit(tmp_path):
    path = tmp_path / "cache.jsonl"
    with ResponseCache(path) as cache:
        cache.put("k0", "v0")
        with cache.batched():
            cache.put("k1", "v1")
            cache.put("e1", [1.0, 2.0])
            # every put is answered at once, and nothing new is on disk yet
            assert cache.get("k1") == "v1" and cache.get("e1").tolist() == [1.0, 2.0]
            assert len(path.read_bytes().splitlines()) == 1
    assert path.read_text(encoding="utf-8") == (
        '{"key": "k0", "value": "v0"}\n'
        '{"key": "k1", "value": "v1"}\n'
        '{"key": "e1", "at": 0, "dim": 2}\n'
    )


@given(
    text=st.text(),
    key=st.text(min_size=1),
    dim=st.integers(min_value=0, max_value=4),
)
def test_cache_lines_are_the_json_encoding_of_their_record(tmp_path_factory, text, key, dim):
    path = tmp_path_factory.mktemp("cache") / "cache.jsonl"
    with ResponseCache(path) as cache, cache.batched():
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
    with ResponseCache(path) as cache:
        cache.put("a", [1.0, 2.0])
    # a writer that died after (or while) writing a vector, before its index record
    with _vector_file(path).open("ab") as dying:
        dying.write(struct.pack("<3d", 3.0, 4.0, 5.0)[:orphan_bytes])

    with ResponseCache(path) as reopened:
        assert len(reopened) == 1
        assert reopened.get("a").tolist() == [1.0, 2.0]
        reopened.put("c", [-0.0, 6.0])
    last = json.loads(path.read_text(encoding="utf-8").splitlines()[-1])
    assert last == {"key": "c", "at": 16 + orphan_bytes, "dim": 2}

    with ResponseCache(path) as reloaded:
        assert len(reloaded) == 2
        assert reloaded.get("a").tolist() == [1.0, 2.0]
        assert reloaded.get("c").tobytes() == struct.pack("<2d", -0.0, 6.0)


def test_cache_vector_write_that_fails_midway_leaves_bytes_that_are_never_read(
    tmp_path, monkeypatch
):
    path = tmp_path / "cache.jsonl"
    write = os.write

    def fill_the_disk(fd, data):
        # the first write lands 8 bytes, the next finds the disk full
        if fill_the_disk.landed:
            raise OSError(errno.ENOSPC, "No space left on device")
        fill_the_disk.landed = write(fd, bytes(data[:8]))
        return fill_the_disk.landed

    fill_the_disk.landed = 0
    with ResponseCache(path) as cache:
        cache.put("t", "text")
        monkeypatch.setattr(os, "write", fill_the_disk)
        with pytest.raises(OSError):
            cache.put("a", [1.0, 2.0])
        monkeypatch.undo()
        cache.put("b", [3.0])
    assert path.read_text(encoding="utf-8") == (
        '{"key": "t", "value": "text"}\n{"key": "b", "at": 8, "dim": 1}\n'
    )
    with ResponseCache(path) as reloaded:
        assert len(reloaded) == 2
        assert reloaded.get("b").tolist() == [3.0]


@pytest.mark.parametrize(
    "vector_bytes, line", [(23, 3), (8, 2), (None, 2)], ids=["last", "first", "no-file"]
)
def test_cache_index_record_past_the_vector_file_end_is_corruption(tmp_path, vector_bytes, line):
    path = tmp_path / "cache.jsonl"
    with ResponseCache(path) as cache:
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


def _assert_no_array_on_disk(cache, written):
    """No vector of ``written`` is held as an array, and each reads back bit-exact."""
    assert not any(isinstance(value, np.ndarray) for value in cache._entries.values())
    for key, vector in written.items():
        got = cache.get(key)
        assert got.dtype == np.float64 and not got.flags.writeable
        assert got.tobytes() == np.asarray(vector, dtype=np.float64).tobytes()


def test_cache_holds_no_array_for_a_vector_on_disk(tmp_path):
    path = tmp_path / "cache.jsonl"
    rng = np.random.default_rng(3)
    written = {f"k{i}": rng.standard_normal(i) for i in range(5)}
    written["subnormal"] = [5e-324, -0.0, math.pi]
    with ResponseCache(path) as cache:
        cache.put("k0", written["k0"])
        cache.put("t", "text")
        with cache.batched():
            for key in ("k1", "k2", "k3", "k4", "subnormal"):
                cache.put(key, written[key])
            # a vector still pending stays an array until the block writes it
            assert isinstance(cache._entries["k1"], np.ndarray)
        _assert_no_array_on_disk(cache, written)
        assert cache.get("t") == "text"
        # a vector is a fresh read each time
        assert cache.get("k3") is not cache.get("k3")
    with ResponseCache(path) as reloaded:
        _assert_no_array_on_disk(reloaded, written)


def test_cache_vector_file_cut_short_after_load_fails_only_the_vectors_it_lost(tmp_path):
    path = tmp_path / "cache.jsonl"
    writer, _ = make_gateway(
        embeddings=[{"text": "a", "vector": [1.0, 2.0]}, {"text": "b", "vector": [3.0]}],
        cache_path=path,
    )
    writer.embed_many(["a", "b"])
    writer.cache.close()
    gateway, script = make_gateway(default_dim=2, cache_path=path)
    with _vector_file(path).open("r+b") as handle:
        handle.truncate(16)
    assert gateway.cache.get(embedding_key("mock", "a")).tolist() == [1.0, 2.0]
    with pytest.raises(CacheCorruption, match="cache.jsonl.vectors ends before the vector"):
        gateway.cache.get(embedding_key("mock", "b"))
    a, b = gateway.embed_many(["a", "b"])
    gateway.cache.close()
    assert a.vector.tolist() == [1.0, 2.0]
    assert isinstance(b, CacheCorruption)
    # a corrupt entry is a hit that fails, as a wrong-kind hit is
    assert script.call_log == []
    assert gateway.counters == GatewayCounters(embedding_requests=2, embedding_cache_hits=2)


def test_pipeline_over_a_vector_file_cut_short_returns_a_report(tmp_path):
    from tracer.fixtures import load_scenario_record, load_scenario_script
    from tracer.verdict import run_pipeline

    path = tmp_path / "cache.jsonl"
    with ResponseCache(path) as cache:
        run_pipeline(Gateway(backend=load_scenario_script(), cache=cache), load_scenario_record())
    with ResponseCache(path) as cache:
        with _vector_file(path).open("r+b") as handle:
            handle.truncate(0)
        report = run_pipeline(
            Gateway(backend=load_scenario_script(), cache=cache), load_scenario_record()
        )
    # the claim fails at alignment, each sentence with its cache error
    assert report.id == load_scenario_record().id and report.failed == "alignment"
    assert report.aligned_evidence and all(
        item.error.startswith("CacheCorruption: ") and "ends before the vector" in item.error
        for item in report.aligned_evidence
    )


# Writes or reads 1,500 1536-wide vectors (18 MB), 10 to a batch, and
# prints how far the process's peak resident set grew, in bytes. The peak
# is VmHWM, that of the process's own memory since it started: ru_maxrss
# would start at the resident set of the process that spawned it (Linux
# carries the mark across fork and exec), which for pytest is far above
# what this child ever reaches.
_VECTOR_MEMORY = """
import sys
import numpy as np
from tracer.gateway import ResponseCache

def peak():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) * 1024 for line in status if line.startswith("VmHWM:"))

mode, path = sys.argv[1:]
cache = ResponseCache(path)
rng = np.random.default_rng(0)
before = peak()
for batch in range(150):
    keys = [f"k{batch * 10 + i}" for i in range(10)]
    if mode == "write":
        with cache.batched():
            for key in keys:
                cache.put(key, rng.standard_normal(1536))
    else:
        assert all(np.isfinite(cache.get(key)).all() for key in keys)
print(peak() - before)
cache.close()
"""


def _vector_memory_growth(mode, path):
    result = subprocess.run(
        [sys.executable, "-c", _VECTOR_MEMORY, mode, str(path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return int(result.stdout)


def test_cache_memory_does_not_grow_with_the_vectors_it_writes(tmp_path):
    assert _vector_memory_growth("write", tmp_path / "cache.jsonl") < 4e6


def test_cache_memory_does_not_grow_with_the_vectors_it_reads(tmp_path):
    path = tmp_path / "cache.jsonl"
    _vector_memory_growth("write", path)
    with ResponseCache(path) as cache:
        assert len(cache) == 1500
    assert _vector_memory_growth("read", path) < 4e6


def _reference_load(path):
    """The loader the C scanner and the mapped vector file replaced.

    ``json.loads`` per line, then one read of the whole vector file;
    kept as the reference the cache's own load must equal. Returns the
    entries and the cache file's bytes once its open tail is repaired,
    or raises the same ``CacheCorruption``.
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
    repaired = path.read_bytes()
    if open_tail is not None:
        start, _, whole = open_tail
        repaired = repaired + b"\n" if whole else repaired[:start]
    return entries, repaired


def _cache_load(path):
    with ResponseCache(path) as cache:
        entries = {key: cache.get(key) for key in cache._entries}
    for value in entries.values():
        assert isinstance(value, str) or not value.flags.writeable
    return entries, path.read_bytes()


def _load_outcome(load, path):
    try:
        entries, repaired = load(path)
    except CacheCorruption as error:
        return str(error)
    values = {
        key: value if isinstance(value, str) else (value.dtype == np.float64, value.tobytes())
        for key, value in entries.items()
    }
    return values, repaired


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
    expected = _load_outcome(_reference_load, path)
    assert _load_outcome(_cache_load, path) == expected
    # a cache that does not load is left as it was
    if isinstance(expected, str):
        assert path.read_bytes() == data


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
    assert script.complete([("t", "a special prompt")]) == ["S"]
    assert script.complete([("t", "a plain prompt")]) == ["D"]


def test_mock_rule_answers_every_match_with_its_one_response():
    script = MockScript.from_dict(
        {
            "rules": [
                {"template": "t", "contains": "first", "response": "one"},
                {"template": "t", "contains": "second", "response": "two"},
            ]
        }
    )
    assert script.complete([("t", "first p")] * 3) == ["one"] * 3
    assert script.complete([("t", "second p"), ("t", "first p")]) == ["two", "one"]
    [miss] = script.complete([("t", "third p")])
    assert isinstance(miss, MockScriptMiss)


def test_mock_script_with_a_responses_list_is_refused_naming_the_rule():
    rules = [
        {"template": "u", "response": "U"},
        {"template": "t", "responses": ["one", "two"]},
    ]
    with pytest.raises(ValueError, match=r"rule 1 \('t'\) has a responses list"):
        MockScript.from_dict({"rules": rules})


def test_mock_miss_raises_rather_than_inventing_output():
    script = Recorder(MockScript.from_dict({"rules": []}))
    [miss] = script.complete([("relevance", "prompt")])
    assert isinstance(miss, MockScriptMiss)
    [miss] = script.embed(["text nobody scripted"])
    assert isinstance(miss, MockScriptMiss)
    assert script.call_log == []


def test_recorder_logs_each_answered_item_in_order():
    recorder = Recorder(
        MockScript.from_dict(
            {
                "rules": [{"template": "t", "response": "R"}],
                "embeddings": [{"text": "e", "vector": [1.0]}],
            }
        )
    )
    recorder.complete([("t", "p1"), ("u", "unscripted")])
    recorder.embed(["e", "unscripted", "e"])
    recorder.complete([("t", "p2")])
    # the misses are not logged
    assert recorder.call_log == [
        Call("completion", "t", "p1"),
        Call("embedding", None, "e"),
        Call("embedding", None, "e"),
        Call("completion", "t", "p2"),
    ]
    assert Gateway(backend=recorder).model_id == "mock"


def test_recorder_logs_nothing_of_a_call_that_raises_and_keeps_the_model_ids():
    class Down:
        model_id, embedding_model_id = "m", "e"

        def complete(self, requests):
            raise BackendError("down")

    recorder = Recorder(Down())
    with pytest.raises(BackendError):
        recorder.complete([("t", "p")])
    assert recorder.call_log == []
    gateway = Gateway(backend=recorder)
    assert (gateway.model_id, gateway.embedding_model_id) == ("m", "e")


def test_mock_default_embedding_is_deterministic_unit_norm():
    script = MockScript.from_dict({"default_embedding": {"dim": 12}})
    v1, v2, v3 = script.embed(["some text", "some text", "other text"])
    assert v1.tolist() == v2.tolist()
    assert v1.tolist() != v3.tolist()
    assert abs(sum(x * x for x in v1) - 1.0) < 1e-9


def test_mock_texts_matching_one_entry_share_one_read_only_array():
    # parsed from JSON text, so the floats are the ones a script file gives
    script = Recorder(
        MockScript.from_dict(
            json.loads(
                '{"embeddings": [{"text": "exact", "vector": [0.1, -2.5e-300, 0.3333333333333333]},'
                ' {"contains": "[x]", "vector": [1, 0.30000000000000004, -0.0]}]}'
            )
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
    [
        ([1.0, "x"], ValueError),
        ([1.0, None], TypeError),
        ([[1.0], 0.0], TypeError),
        ("907", TypeError),
        ({"9.0": 0, "7.0": 1}, TypeError),
        (["9", False], ValueError),
        ([1.0, True], ValueError),
    ],
    ids=["string", "null", "nested", "digit-string", "object", "numeric-string-element",
         "bool-element"],
)
def test_mock_malformed_vector_fails_at_load(vector, error):
    with pytest.raises(error):
        MockScript.from_dict({"embeddings": [{"contains": "a", "vector": vector}]})


def test_mock_vector_of_ints_reads_as_floats():
    script = MockScript.from_dict({"embeddings": [{"text": "a", "vector": [1, 0]}]})
    [vector] = script.embed(["a"])
    assert vector.tolist() == [1.0, 0.0] and vector.dtype == np.float64


def test_gateway_embed_over_texts_sharing_an_array_cold_then_warm(tmp_path):
    path = tmp_path / "cache.jsonl"
    embeddings = [
        {"contains": "[x]", "vector": [1.0, 0.0]},
        {"contains": "[y]", "vector": [0.0, 1.0]},
    ]
    gateway, script = make_gateway(embeddings=embeddings, cache_path=path)
    texts = ["[x] one", "[x] two", "[y] three", "[x] four"]
    expected = {"[x] one": [1.0, 0.0], "[x] two": [1.0, 0.0], "[y] three": [0.0, 1.0], "[x] four": [1.0, 0.0]}
    cold = [gateway.embed(text) for text in texts]
    warm = [gateway.embed(text) for text in texts]
    for text, first, again in zip(texts, cold, warm):
        assert first.vector.tolist() == expected[text]
        assert again == first
    assert gateway.counters.backend_calls == 4
    assert gateway.counters.embedding_cache_hits == 4
    assert len(script.call_log) == 4
    gateway.cache.close()

    # after `tracer cache-clear`, a fresh gateway asks the backend again
    remove_cache_files(path)
    gateway, script = make_gateway(embeddings=embeddings, cache_path=path)
    assert gateway.embed("[x] two").vector.tolist() == [1.0, 0.0]
    assert gateway.embed("[y] three").vector.tolist() == [0.0, 1.0]
    assert [c.prompt for c in script.call_log] == ["[x] two", "[y] three"]
    assert gateway.counters.backend_calls == 2
    gateway.cache.close()

    # a fresh gateway over the same file reads each text's own vector back
    reloaded, script2 = make_gateway(cache_path=path)
    assert reloaded.embed("[x] two").vector.tolist() == [1.0, 0.0]
    assert reloaded.embed("[y] three").vector.tolist() == [0.0, 1.0]
    reloaded.cache.close()
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
    assert script.complete([("t", "a special prompt")]) == ["S"]
    assert script.complete([("t", "a plain prompt")]) == ["D"]
    assert "other" not in consulted
    assert script.complete([("other", "a special prompt")]) == ["O"]


def test_mock_first_matching_rule_answers_whatever_was_asked_before():
    rules = [
        {"template": "u", "response": "U"},
        {"template": "t", "contains": "p", "response": "P"},
        {"template": "t", "contains": "q", "response": "Q"},
        {"template": "t", "contains": "pq", "response": "never: an earlier rule matches"},
    ]
    script = Recorder(MockScript.from_dict({"rules": rules}))
    prompts = ["p", "q", "pq", "p", "r"]
    answers = [script.complete([("t", prompt)])[0] for prompt in prompts]
    assert answers[:4] == ["P", "Q", "P", "P"]
    assert isinstance(answers[4], MockScriptMiss)
    assert [c.template for c in script.call_log] == ["t"] * 4
    # one list is answered as if its prompts had been sent one by one
    fresh = Recorder(MockScript.from_dict({"rules": rules}))
    wave = fresh.complete([("t", prompt) for prompt in prompts])
    assert wave[:4] == answers[:4] and str(wave[4]) == str(answers[4])
    assert fresh.call_log == script.call_log


def test_mock_miss_message_for_an_unknown_template():
    script = Recorder(MockScript.from_dict({"rules": [{"template": "t", "response": "R"}]}))
    [miss] = script.complete([("zzz", "p" * 100)])
    assert isinstance(miss, MockScriptMiss)
    assert str(miss) == (
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
    assert gateway.counters.by_template == {"relevance": 2}  # asked, hits included


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
    gateway.cache.close()
    assert len(script.call_log) == 1

    gateway2, script2 = make_gateway(rules=[], cache_path=path)  # no rules needed
    assert gateway2.complete("relevance", claim="c", ruling="r", evidence="e") == "A"
    gateway2.cache.close()
    assert script2.call_log == []


def test_gateway_embed_returns_cached_embedding():
    gateway, script = make_gateway(embeddings=[{"text": "e", "vector": [1.0, 0.0]}])
    first = gateway.embed("e")
    second = gateway.embed("e")
    assert first.vector.tolist() == [1.0, 0.0]
    assert first == second
    assert len(script.call_log) == 1
    assert gateway.counters.embedding_cache_hits == 1


def test_gateway_embed_repeats_return_equal_embeddings_and_count_every_request():
    gateway, script = make_gateway(embeddings=[{"text": "e", "vector": [1.0, 0.0]}])
    first = gateway.embed("e")
    for repeat in range(1, 4):
        assert gateway.embed("e") == first
        assert gateway.counters.embedding_requests == repeat + 1
        assert gateway.counters.embedding_cache_hits == repeat
    assert gateway.counters.backend_calls == 1
    assert len(script.call_log) == 1


def test_gateway_embed_after_cache_clear_reaches_the_backend(tmp_path):
    path = tmp_path / "cache.jsonl"
    embeddings = [{"text": "e", "vector": [1.0, 0.0]}]
    gateway, script = make_gateway(embeddings=embeddings, cache_path=path)
    gateway.embed("e")
    gateway.embed("e")
    gateway.cache.close()
    assert gateway.counters.backend_calls == 1
    remove_cache_files(path)
    gateway, script = make_gateway(embeddings=embeddings, cache_path=path)
    assert gateway.embed("e").vector.tolist() == [1.0, 0.0]
    gateway.cache.close()
    assert gateway.counters.backend_calls == 1
    assert len(script.call_log) == 1
    assert gateway.counters.embedding_requests == 1
    assert gateway.counters.embedding_cache_hits == 0


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

    def complete(self, requests):
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


def test_complete_many_backend_call_that_raises_fails_every_prompt():
    gateway = Gateway(backend=_FlakyEmbedder(), cache=ResponseCache())
    outcomes = gateway.complete_many(
        [("relevance", dict(claim=claim, ruling="r", evidence="e")) for claim in ("c1", "c2")]
    )
    assert [(type(o), str(o)) for o in outcomes] == [(BackendError, "no completions here")] * 2
    assert gateway.counters.backend_calls == 0
    assert gateway.counters.by_template == {"relevance": 2}
    assert len(gateway.cache) == 0


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
    # a text asked for again afterwards gets an equal embedding
    assert all(gateway.embed(text) == embedding for text, embedding in zip(_flat(asks), got))
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
    # the same text gets an equal embedding, a different text a different one
    for i, first in enumerate(many):
        for j, second in enumerate(many):
            assert (first == second) == (texts[i] == texts[j]) == (one[i] == one[j])
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


def test_complete_many_sends_each_missed_prompt_once_in_one_call():
    gateway, script = make_gateway(
        rules=[
            {"template": "relevance", "contains": "e1", "response": "A"},
            {"template": "presentation", "response": "B"},
        ]
    )
    gateway.complete("presentation", claim="c", evidence="e1")
    asked = ("relevance", dict(claim="c", ruling="r", evidence="e1"))
    missed = ("relevance", dict(claim="c", ruling="r", evidence="e2"))
    cached = ("presentation", dict(claim="c", evidence="e1"))
    outcomes = gateway.complete_many([asked, missed, cached, asked])
    assert [outcomes[0], outcomes[2], outcomes[3]] == ["A", "B", "A"]
    assert isinstance(outcomes[1], MockScriptMiss)
    assert [c.template for c in script.call_log] == ["presentation", "relevance"]
    # by_template counts every prompt asked: hits, repeats and the miss
    assert gateway.counters == GatewayCounters(
        completion_requests=5,
        completion_cache_hits=2,
        backend_calls=2,
        by_template={"presentation": 2, "relevance": 3},
    )
    # the failed prompt cached nothing, so it is asked again
    assert isinstance(gateway.complete_many([missed])[0], MockScriptMiss)
    assert gateway.counters.backend_calls == 3
    assert gateway.complete_many([]) == []
    assert gateway.counters.backend_calls == 3


def test_embed_many_failure_caches_nothing_and_is_retried(tmp_path):
    path = tmp_path / "cache.jsonl"
    gateway, script = make_gateway(
        embeddings=[{"text": "a", "vector": [1.0]}, {"text": "b", "vector": [2.0]}],
        cache_path=path,
    )
    a, c, b = gateway.embed_many(["a", "c", "b"])
    assert isinstance(c, MockScriptMiss)
    assert [a.vector.tolist(), b.vector.tolist()] == [[1.0], [2.0]]
    # only the texts that were answered are cached
    assert sorted(gateway.cache._entries) == sorted(
        embedding_key("mock", text) for text in ("a", "b")
    )
    assert gateway.counters.backend_calls == 1
    [again] = gateway.embed_many(["c"])
    assert isinstance(again, MockScriptMiss)
    assert gateway.counters.backend_calls == 2
    assert [e.vector.tolist() for e in gateway.embed_many(["a", "b"])] == [[1.0], [2.0]]
    assert gateway.counters.backend_calls == 2
    gateway.cache.close()


def test_embed_many_rejects_an_empty_text_before_any_request():
    gateway, script = make_gateway(default_dim=4)
    [blank] = gateway.embed_many([" "])
    assert isinstance(blank, EmptyInput)
    assert script.call_log == [] and gateway.counters == GatewayCounters()
    # beside other texts, only the empty one fails, and it is not requested
    alpha, empty, blank = gateway.embed_many(["alpha", "", " \n"])
    assert alpha == gateway.embed("alpha")
    assert [type(empty), type(blank)] == [EmptyInput, EmptyInput]
    assert [c.prompt for c in script.call_log] == ["alpha"]
    assert gateway.counters == GatewayCounters(
        embedding_requests=2, embedding_cache_hits=1, backend_calls=1
    )


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_embed_many_non_finite_vector_is_a_backend_error_and_caches_nothing(tmp_path, bad):
    path = tmp_path / "cache.jsonl"
    gateway, _ = make_gateway(
        embeddings=[{"text": "fine", "vector": [1.0, 0.0]}, {"text": "bad", "vector": [bad, 0.0]}],
        cache_path=path,
    )
    fine, bad = gateway.embed_many(["fine", "bad"])
    assert isinstance(bad, BackendError)
    assert str(bad) == "the embedding of 'bad' is not finite"
    assert list(gateway.cache._entries) == [embedding_key("mock", "fine")]
    assert gateway.counters.backend_calls == 1
    assert gateway.embed("fine") == fine
    assert gateway.counters.backend_calls == 1
    with pytest.raises(BackendError, match="the embedding of 'bad' is not finite"):
        gateway.embed("bad")
    assert gateway.counters.backend_calls == 2
    gateway.cache.close()


def test_gateway_completion_that_is_not_unicode_is_a_backend_error_and_not_cached(tmp_path):
    path = tmp_path / "cache.jsonl"
    gateway, _ = make_gateway(
        rules=[{"template": "relevance", "response": "A\ud800"}], cache_path=path
    )
    with pytest.raises(BackendError, match="'relevance' answer is not valid Unicode"):
        gateway.complete("relevance", claim="c", ruling="r", evidence="e")
    gateway.cache.close()
    assert gateway.counters.backend_calls == 1
    assert len(gateway.cache) == 0 and path.read_bytes() == b""


def test_gateway_rejects_a_backend_answering_the_wrong_number_of_vectors():
    class Short:
        def embed(self, texts):
            return [[1.0]]

    gateway = Gateway(backend=Short())
    outcomes = gateway.embed_many(["a", "b"])
    for outcome in outcomes:
        assert isinstance(outcome, BackendError)
        assert str(outcome) == "the backend returned 1 outcomes for 2 requests"
    assert len(gateway.cache) == 0
    assert gateway.counters.backend_calls == 0


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
    with pytest.raises(KeyError):
        gateway.complete("never_heard_of_it")


def test_gateway_vector_under_a_completion_key_is_corruption():
    gateway, script = make_gateway(rules=[{"template": "relevance", "response": "A"}])
    bindings = dict(claim="c", ruling="r", evidence="e")
    prompt = render_template(gateway.templates["relevance"], bindings)
    key = completion_key("mock", "relevance", prompt, TEMPERATURE, MAX_TOKENS)
    gateway.cache.put(key, [1.0, 2.0])
    with pytest.raises(CacheCorruption, match="vector under the completion key"):
        gateway.complete("relevance", **bindings)
    assert script.call_log == []


@pytest.mark.parametrize("case", ["hit", "miss", "failed", "corrupt"])
def test_gateway_complete_counts_and_answers_as_complete_many_of_one(case):
    bindings = dict(claim="c", ruling="r", evidence="e")
    seen = []
    for ask in (
        lambda gateway: gateway.complete("relevance", **bindings),
        lambda gateway: unwrap(gateway.complete_many([("relevance", bindings)])[0]),
    ):
        rules = [] if case == "failed" else [{"template": "relevance", "response": "A"}]
        gateway, script = make_gateway(rules=rules)
        prompt = render_template(gateway.templates["relevance"], bindings)
        key = completion_key("mock", "relevance", prompt, TEMPERATURE, MAX_TOKENS)
        if case in ("hit", "corrupt"):
            gateway.cache.put(key, "A" if case == "hit" else [1.0, 2.0])
        try:
            answer = ask(gateway)
        except TracerError as exc:
            answer = (type(exc), str(exc))
        cached = None if case == "corrupt" else gateway.cache.get(key)
        seen.append((answer, gateway.counters, len(script.call_log), cached))
    assert seen[0] == seen[1]
    answer, counters, backend_prompts, cached = seen[0]
    assert counters.completion_requests == 1 and counters.by_template == {"relevance": 1}
    assert counters.completion_cache_hits == (case in ("hit", "corrupt"))
    assert counters.backend_calls == (case in ("miss", "failed"))
    assert backend_prompts == (case == "miss")  # the script logs the prompts it answers
    if case == "failed":
        assert answer[0] is MockScriptMiss
    elif case == "corrupt":
        reason = f"the cache holds a vector under the completion key {key}"
        assert answer == (CacheCorruption, reason)
    else:
        assert answer == "A"
    assert cached == (None if case in ("failed", "corrupt") else "A")


def test_gateway_text_under_an_embedding_key_is_corruption(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text(
        json.dumps({"key": embedding_key("mock", "e"), "value": "x"}) + "\n", encoding="utf-8"
    )
    gateway, script = make_gateway(embeddings=[{"text": "e", "vector": [1.0]}], cache_path=path)
    with pytest.raises(CacheCorruption, match="text under the embedding key"):
        gateway.embed("e")
    f, e = gateway.embed_many(["f", "e"])
    gateway.cache.close()
    assert isinstance(e, CacheCorruption)
    assert "text under the embedding key" in str(e)
    assert isinstance(f, MockScriptMiss)
    assert script.call_log == []


# -- live backend (stubbed transport) -------------------------------------


class _FakeResponse:
    def __init__(self, status_code, payload, headers=None):
        self.status_code = status_code
        self._payload = payload
        self.text = json.dumps(payload)
        self.headers = headers or {}

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


def _live_backend(session, sleep=lambda s: None, **options):
    """A LiveBackend whose endpoints post through ``post_json`` on ``session``."""

    def post(url, payload):
        return post_json(url, payload, session=session, timeout=1.0, sleep=sleep)

    return LiveBackend(model_id="m", api_key="k", base_url="http://host/v1", post=post, **options)


def test_live_backend_retries_transient_errors_then_succeeds():
    import requests

    session = _FakeSession(
        [
            requests.ConnectionError("down"),
            _FakeResponse(503, {}),
            _FakeResponse(200, _completion_payload("ok")),
        ]
    )
    backend = _live_backend(session)
    assert backend.complete([("t", "p")]) == ["ok"]
    assert session.calls == 3


def test_live_backend_gives_up_after_max_retries():
    import requests

    session = _FakeSession([requests.ConnectionError("down")] * 10)
    backend = _live_backend(session)
    [error] = backend.complete([("t", "p")])
    assert isinstance(error, BackendError)
    assert error.retries == 3
    assert session.calls == 4  # initial attempt + 3 retries


def test_live_backend_opens_the_circuit_once_three_requests_used_every_retry():
    import requests

    session = _FakeSession(
        [_FakeResponse(400, {"error": "too long"})]
        + [requests.ConnectionError("down"), _FakeResponse(503, {})] * 6
    )
    sleeps = []
    backend = _live_backend(session, sleeps.append)
    rejected, *down, unsent = backend.complete(
        [("t", "p1"), ("t", "p2"), ("t", "p3"), ("u", "p4"), ("u", "p5")]
    )
    # a rejected prompt fails alone; three that outlast their retries open the circuit
    assert "400" in str(rejected) and rejected.retries == 0
    assert all("503" in str(error) and error.retries == 3 for error in down)
    assert str(unsent) == (
        "circuit open for http://host/v1/chat/completions after 3 consecutive failed POSTs; "
        f"last error: {down[-1]}"
    )
    assert session.calls == 1 + 3 * 4
    assert sleeps == [1.0, 2.0, 4.0] * 3


def test_live_backend_sends_decoding_but_not_template_id():
    session = _FakeSession([_FakeResponse(200, _completion_payload("ok"))])
    backend = _live_backend(session)
    backend.complete([("relevance", "the prompt")])
    assert session.payloads == [
        {
            "model": "m",
            "messages": [{"role": "user", "content": "the prompt"}],
            "temperature": 0.0,
            "max_tokens": 1024,
        }
    ]


def test_live_backend_client_errors_fail_immediately():
    session = _FakeSession([_FakeResponse(401, {"error": "no"})])
    backend = _live_backend(session)
    [error] = backend.complete([("t", "p")])
    assert isinstance(error, BackendError)
    assert session.calls == 1


def test_live_backend_sends_a_list_one_post_per_prompt_and_fails_items_alone():
    session = _FakeSession(
        [
            _FakeResponse(200, _completion_payload("one")),
            _FakeResponse(401, {"error": "no"}),
            _FakeResponse(200, _completion_payload("three")),
        ]
    )
    backend = _live_backend(session)
    first, second, third = backend.complete(
        [("t", "p1"), ("t", "p2"), ("u", "p3")]
    )
    assert (first, third) == ("one", "three")
    assert isinstance(second, BackendError) and "401" in str(second)
    assert [payload["messages"][0]["content"] for payload in session.payloads] == [
        "p1",
        "p2",
        "p3",
    ]


@pytest.mark.parametrize("content", [None, 5, ["ok"]], ids=["null", "number", "list"])
def test_live_backend_completion_content_that_is_not_text_is_a_backend_error(content):
    session = _FakeSession([_FakeResponse(200, _completion_payload(content))])
    backend = _live_backend(session)
    [error] = backend.complete([("t", "p")])
    assert isinstance(error, BackendError)
    assert "returned a malformed answer" in str(error)


def test_live_backend_embeddings_endpoint():
    session = _FakeSession(
        [_FakeResponse(200, {"data": [{"index": 0, "embedding": [0.1, 0.2]}]})]
    )
    backend = _live_backend(session)
    [vector] = backend.embed(["t"])
    assert vector.tolist() == [0.1, 0.2]
    assert vector.dtype == np.float64 and not vector.flags.writeable
    assert session.payloads == [{"model": "m", "input": ["t"]}]


def test_live_backend_embeds_a_batch_in_one_post_and_orders_it_by_index():
    rows = [{"index": 2, "embedding": [2.0]}, {"index": 0, "embedding": [0.0]}, {"index": 1, "embedding": [1.0]}]
    session = _FakeSession([_FakeResponse(200, {"data": rows})])
    backend = _live_backend(session, embedding_model_id="e")
    vectors = backend.embed(["a", "b", "c"])
    assert [v.tolist() for v in vectors] == [[0.0], [1.0], [2.0]]
    assert session.payloads == [{"model": "e", "input": ["a", "b", "c"]}]


def test_live_backend_nan_embedding_is_a_backend_error_at_the_gateway():
    # Python's json reads NaN and Infinity, so a live answer can carry them
    answer = json.loads('{"data": [{"index": 0, "embedding": [NaN, 0.5]}]}')
    session = _FakeSession([_FakeResponse(200, answer)])
    gateway = Gateway(backend=_live_backend(session))
    with pytest.raises(BackendError, match="the embedding of 't' is not finite"):
        gateway.embed("t")
    assert len(gateway.cache) == 0


@pytest.mark.parametrize(
    "row",
    [
        {"index": 0, "embedding": "12"},
        {"index": 0, "embedding": {"1.0": 0, "2.0": 1}},
        {"index": False, "embedding": [1.0, 2.0]},
    ],
    ids=["string", "object", "bool-index"],
)
def test_live_backend_embedding_of_another_shape_is_a_malformed_answer(row):
    session = _FakeSession([_FakeResponse(200, {"data": [row]})])
    gateway = Gateway(backend=_live_backend(session))
    with pytest.raises(BackendError, match="returned a malformed answer"):
        gateway.embed("t")
    assert len(gateway.cache) == 0


@pytest.mark.parametrize(
    "embedding", [["1.5", True, " 2 "], ["1.5"], [True], [" 2 "]],
    ids=["mixed", "numeric-string", "bool", "padded-string"],
)
def test_live_backend_embedding_element_that_is_not_a_number_is_a_malformed_answer(embedding):
    session = _FakeSession([_FakeResponse(200, {"data": [{"index": 0, "embedding": embedding}]})])
    with pytest.raises(BackendError, match="returned a malformed answer"):
        _live_backend(session).embed(["t"])


def test_live_backend_embedding_of_ints_reads_as_floats():
    session = _FakeSession([_FakeResponse(200, {"data": [{"index": 0, "embedding": [1, 0]}]})])
    [vector] = _live_backend(session).embed(["t"])
    assert vector.tolist() == [1.0, 0.0] and vector.dtype == np.float64


@pytest.mark.parametrize(
    "indices",
    [[0], [0, 1, 2], [0, 0], [1, 2]],
    ids=["too-few", "too-many", "repeated", "shifted"],
)
def test_live_backend_embedding_rows_that_do_not_match_the_texts_are_a_backend_error(indices):
    rows = [{"index": i, "embedding": [float(i)]} for i in indices]
    session = _FakeSession([_FakeResponse(200, {"data": rows})])
    backend = _live_backend(session)
    with pytest.raises(BackendError, match="indices"):
        backend.embed(["a", "b"])


@pytest.mark.parametrize(
    "value,wait",
    [
        ("5", 5),
        ("0", 0),
        ("3600", RETRY_AFTER_CAP_S),
        ("Wed, 21 Oct 2015 07:28:00 GMT", 1.0),
        ("soon", 1.0),
        ("-1", 1.0),
        ("2.5", 1.0),
        ("", 1.0),
    ],
    ids=["seconds", "zero", "capped", "http-date", "word", "negative", "fraction", "empty"],
)
@pytest.mark.parametrize("status", [429, 503])
def test_post_json_waits_the_whole_seconds_retry_after_asks_for(status, value, wait):
    session = _FakeSession(
        [
            _FakeResponse(status, {}, {"Retry-After": value}),
            _FakeResponse(status, {}),
            _FakeResponse(200, {"ok": True}),
        ]
    )
    sleeps = []
    answer = post_json("http://host/x", {}, session=session, timeout=1.0, sleep=sleeps.append)
    assert answer == {"ok": True}
    # the step Retry-After does not name keeps its backoff
    assert sleeps == [wait, 2.0]


def test_post_json_ignores_retry_after_on_other_retried_statuses():
    session = _FakeSession(
        [_FakeResponse(502, {}, {"Retry-After": "30"}), _FakeResponse(200, {"ok": True})]
    )
    sleeps = []
    post_json("http://host/x", {}, session=session, timeout=1.0, sleep=sleeps.append)
    assert sleeps == [1.0]


def test_post_json_does_not_wait_after_its_last_attempt():
    session = _FakeSession([_FakeResponse(429, {}, {"Retry-After": "9"})] * 4)
    sleeps = []
    with pytest.raises(BackendError, match="returned 429") as excinfo:
        post_json("http://host/x", {}, session=session, timeout=1.0, sleep=sleeps.append)
    assert excinfo.value.retries == MAX_RETRIES
    assert sleeps == [9, 9, 9]


# -- circuit breaker -------------------------------------------------------


def _giving_up(url):
    return BackendError(f"POST {url} failed: connection refused", retries=MAX_RETRIES)


def test_live_backend_three_give_ups_open_the_chat_circuit_only():
    posts = []

    def post(url, payload):
        posts.append(url)
        if url.endswith("/chat/completions"):
            raise _giving_up(url)
        return {"data": [{"index": 0, "embedding": [1.0]}]}

    backend = LiveBackend(model_id="m", api_key="k", base_url="http://host/v1", post=post)
    outcomes = backend.complete([("t", f"p{i}") for i in range(5)])
    chat = "http://host/v1/chat/completions"
    assert posts == [chat] * 3  # an open circuit sends nothing
    assert [str(error) for error in outcomes[:3]] == [str(_giving_up(chat))] * 3
    assert [str(error) for error in outcomes[3:]] == [
        f"circuit open for {chat} after 3 consecutive failed POSTs; "
        f"last error: {_giving_up(chat)}"
    ] * 2
    [vector] = backend.embed(["t"])
    assert vector.tolist() == [1.0]
    assert posts[3:] == ["http://host/v1/embeddings"]


def test_live_backend_embeddings_keep_their_own_count():
    posts = []

    def post(url, payload):
        posts.append(url.rsplit("/", 1)[-1])
        raise _giving_up(url)

    backend = LiveBackend(model_id="m", api_key="k", base_url="http://host/v1", post=post)
    for _ in range(3):
        [error] = backend.complete([("t", "p")])
        assert "circuit open" not in str(error)
        with pytest.raises(BackendError, match="connection refused"):
            backend.embed(["t"])
    assert posts == ["completions", "embeddings"] * 3
    [error] = backend.complete([("t", "p")])
    assert str(error).startswith("circuit open for http://host/v1/chat/completions after 3 ")
    with pytest.raises(BackendError, match="circuit open for http://host/v1/embeddings after 3 "):
        backend.embed(["t"])
    assert len(posts) == 6


@pytest.mark.parametrize("answer", ["rejected", "malformed"])
def test_live_backend_an_answered_post_resets_the_count(answer):
    chat = "http://host/v1/chat/completions"
    answered = {
        "rejected": BackendError(f"POST {chat} returned 400: too long"),
        "malformed": {"choices": []},
    }[answer]
    replies = iter([_giving_up(chat)] * 2 + [answered] + [_giving_up(chat)] * 3)
    posts = []

    def post(url, payload):
        posts.append(payload["messages"][0]["content"])
        reply = next(replies)
        if isinstance(reply, Exception):
            raise reply
        return reply

    backend = LiveBackend(model_id="m", api_key="k", base_url="http://host/v1", post=post)
    outcomes = backend.complete([("t", f"p{i}") for i in range(7)])
    assert posts == [f"p{i}" for i in range(6)]
    assert ("400" if answer == "rejected" else "returned a malformed answer") in str(outcomes[2])
    assert str(outcomes[6]).startswith("circuit open")


class _UndecodableResponse(_FakeResponse):
    def json(self):
        raise ValueError("Expecting value")


@pytest.mark.parametrize("answer", ["rejected", "undecodable"])
def test_endpoint_an_answer_after_retried_5xx_answers_resets_the_count(answer):
    url = "http://host/x"
    last, message = {
        "rejected": (_FakeResponse(400, "too long"), f'POST {url} returned 400: "too long"'),
        "undecodable": (_UndecodableResponse(200, None), f"POST {url} returned undecodable body"),
    }[answer]
    session = _FakeSession(([_FakeResponse(503, {})] * 3 + [last]) * 4)
    endpoint = Endpoint(
        url,
        post=lambda url, payload: post_json(
            url, payload, session=session, timeout=1.0, sleep=lambda s: None
        ),
    )
    for _ in range(4):
        with pytest.raises(BackendError) as excinfo:
            endpoint.ask({}, lambda data: data)
        assert str(excinfo.value) == f"{message} (after 3 retries)"
        assert excinfo.value.retries == MAX_RETRIES
        assert endpoint.circuit_error() is None
    assert session.calls == 16


class _UnavailableHandler(http.server.BaseHTTPRequestHandler):
    """Answers every POST with a 503, counting them."""

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self.server.posts.append(self.path)
        self.send_response(503)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def log_message(self, *args):
        pass


def test_live_backend_stops_posting_to_an_unavailable_server_over_loopback():
    import requests

    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _UnavailableHandler)
    server.posts = []
    serving = threading.Thread(target=server.serve_forever)
    serving.start()
    session = requests.Session()
    try:
        backend = LiveBackend(
            model_id="m",
            api_key="k",
            base_url=f"http://127.0.0.1:{server.server_address[1]}/v1",
            post=lambda url, payload: post_json(
                url, payload, session=session, timeout=5.0, sleep=lambda s: None
            ),
        )
        outcomes = backend.complete([("t", f"p{i}") for i in range(5)])
    finally:
        session.close()
        server.shutdown()
        server.server_close()
        serving.join()
    # three requests, each sent once and retried three times; the rest never leave
    assert server.posts == ["/v1/chat/completions"] * 12
    assert all("returned 503 (after 3 retries)" in str(error) for error in outcomes[:3])
    assert all(str(error).startswith("circuit open") for error in outcomes[3:])


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
        with gateway.cache:
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
