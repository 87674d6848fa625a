"""Single point of contact with language models.

Everything the pipeline asks of a model flows through one Gateway
object: render a catalog template, check the persistent cache, and only
then touch the configured backend (live HTTP or a scripted mock). The
cache makes temperature-0 runs replayable: a second identical run reads
every answer back without a single backend call.
"""

from __future__ import annotations

import math
import queue
import threading
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..errors import BackendError, CacheCorruption, EmptyInput
from .backends import API_KEY_ENV, Decoding, LiveBackend, api_key_from_env
from .cache import ResponseCache, completion_key, embedding_key, frozen_vector
from .mock import MockCall, MockScript
from .parsing import parse_binary_digit, parse_bracketed, parse_letter_choice
from .templates import PromptTemplate, TemplateCatalog, render_template


def _sequential_sum(values: np.ndarray) -> float:
    """Strictly left-to-right float64 sum, starting from +0.0.

    This is the sum Python 3.11's builtin ``sum`` computes over floats,
    bit for bit. ``np.sum`` sums pairwise and Python 3.12+'s ``sum``
    compensates rounding, so either would move serialized similarities
    in the last bits. The trailing ``+ 0.0`` is the start value: it turns
    an all-negative-zero sum into +0.0 and changes nothing else.
    """
    if values.size == 0:
        return 0.0
    return float(np.add.accumulate(values)[-1]) + 0.0


@dataclass(frozen=True)
class Embedding:
    """An embedding vector and the model that produced it.

    ``vector`` is a read-only float64 array; a list or tuple given to the
    constructor is converted. Arrays from the Gateway are shared with its
    cache, so they are never copied and never written to. ``norm`` is the
    vector's Euclidean length, summed strictly left to right, computed on
    first use and kept.
    """

    vector: np.ndarray
    model_id: str

    def __post_init__(self):
        object.__setattr__(self, "vector", frozen_vector(self.vector))

    @cached_property
    def norm(self) -> float:
        return math.sqrt(_sequential_sum(self.vector * self.vector))

    def __eq__(self, other):
        if not isinstance(other, Embedding):
            return NotImplemented
        return self.model_id == other.model_id and np.array_equal(self.vector, other.vector)


@dataclass
class GatewayCounters:
    completion_requests: int = 0
    completion_cache_hits: int = 0
    embedding_requests: int = 0
    embedding_cache_hits: int = 0
    backend_calls: int = 0
    # per-template backend call counts, for ablation gating checks
    by_template: dict = field(default_factory=dict)


class Gateway:
    """Template rendering + cache + backend, behind one interface.

    ``complete(template_id, **bindings)`` and ``embed(text)`` are the two
    requests, and ``embed_many(texts)`` asks for several embeddings at
    once. The backend is either a MockScript or a LiveBackend; both
    answer ``complete(template_id, prompt, decoding)`` with a string and
    ``embed(texts)`` with one read-only float64 array per text, in order,
    each cached and wrapped without a copy. Every embedding request that
    misses the cache reaches the backend through ``embed(texts)``, one
    call for all the misses of one ``embed_many``. Every completion uses
    the bundled template catalog and the default ``Decoding``; model ids
    come from the backend (``"mock"`` when it names none). A completion
    that is not valid Unicode (a lone surrogate) is a ``BackendError``
    and is not cached. ``counters`` counts every request, cache hit and
    backend call. At most ``max_in_flight`` backend requests run at once
    when callers fan out across threads: a request takes one of that
    many tokens from a queue before it calls the backend and puts it
    back after. A ``max_in_flight`` below 1 is a ``ValueError``.

    A cache hit of the wrong kind, a vector under a completion key or a
    text under an embedding key, is ``CacheCorruption``.
    """

    def __init__(self, backend, cache: ResponseCache | None = None, max_in_flight: int = 4):
        if max_in_flight < 1:
            # no token would ever be free: the first backend call would wait forever
            raise ValueError(f"max_in_flight must be at least 1, got {max_in_flight}")
        self.backend = backend
        self.catalog = TemplateCatalog.bundled()
        # explicit None check: an empty cache is falsy but still the caller's cache
        self.cache = cache if cache is not None else ResponseCache()
        self.model_id = getattr(backend, "model_id", "mock")
        self.embedding_model_id = getattr(backend, "embedding_model_id", self.model_id)
        self.decoding = Decoding()
        self.counters = GatewayCounters()
        # text -> (cache key, the Embedding last returned for it)
        self._embedded: dict[str, tuple[str, Embedding]] = {}
        # in-flight tokens: a queue is a C primitive, cheaper per call
        # than a semaphore, which is written in Python
        self._slots = queue.SimpleQueue()
        for _ in range(max_in_flight):
            self._slots.put(None)
        self._counter_lock = threading.Lock()

    def _call_backend(self, request, *args):
        """``request(*args)`` while holding one of the in-flight tokens."""
        self._slots.get()
        try:
            return request(*args)
        finally:
            self._slots.put(None)

    # -- completions ---------------------------------------------------

    def complete(self, template_id: str, **bindings) -> str:
        """Render the catalog template with the bindings and complete it."""
        prompt = render_template(self.catalog.get(template_id), bindings)
        key = completion_key(
            self.model_id,
            template_id,
            prompt,
            self.decoding.temperature,
            self.decoding.max_tokens,
        )
        cached = self.cache.get(key)
        if cached is not None and not isinstance(cached, str):
            raise CacheCorruption(f"the cache holds a vector under the completion key {key}")
        with self._counter_lock:
            self.counters.completion_requests += 1
            if cached is not None:
                self.counters.completion_cache_hits += 1
        if cached is not None:
            return cached
        text = self._call_backend(self.backend.complete, template_id, prompt, self.decoding)
        with self._counter_lock:
            self.counters.backend_calls += 1
            self.counters.by_template[template_id] = (
                self.counters.by_template.get(template_id, 0) + 1
            )
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as exc:
            # a lone surrogate: valid in JSON, but no cache line can hold it
            raise BackendError(
                f"the {template_id!r} answer is not valid Unicode: {exc}"
            ) from None
        self.cache.put(key, text)
        return text

    # -- embeddings ----------------------------------------------------

    def embed(self, text: str) -> Embedding:
        """Embedding of the text, from the cache or else the backend.

        Every call counts one request, and one cache hit when the cache
        holds the key. A text asked for again gets the same ``Embedding``
        object without recomputing its key, but only while the cache
        still holds that very vector: after ``cache.clear()`` the next
        request goes to the backend again. A failed backend call leaves
        nothing behind, so the next request retries it.
        """
        remembered = self._embedded.get(text)
        if remembered is not None and self.cache.get(remembered[0]) is remembered[1].vector:
            with self._counter_lock:
                self.counters.embedding_requests += 1
                self.counters.embedding_cache_hits += 1
            return remembered[1]
        return self._embed_all([text])[0]

    def embed_many(self, texts) -> list[Embedding]:
        """Embeddings of the texts, in order, with at most one backend call.

        Requests, hits and cache records are those of the same texts
        asked of ``embed`` one at a time, and so are the ``Embedding``
        objects returned: a text asked for earlier in the list is a hit.
        Every text the cache lacks goes to the backend in one call, each
        text once, in the order first asked. If that call fails, nothing
        is cached.
        """
        return self._embed_all(list(texts))

    def _embed_all(self, texts: list[str]) -> list[Embedding]:
        if not all(text and text.strip() for text in texts):
            raise EmptyInput("cannot embed empty text")
        found: dict[str, Embedding] = {}
        missed: dict[str, str] = {}  # text -> the key it is written under
        hits = 0
        for text in texts:
            if text in found or text in missed:
                hits += 1
                continue
            remembered = self._embedded.get(text)
            if remembered is not None:
                key = remembered[0]
            else:
                key = embedding_key(self.embedding_model_id, text)
            cached = self.cache.get(key)
            if cached is None:
                missed[text] = key
                continue
            if not isinstance(cached, np.ndarray):
                raise CacheCorruption(f"the cache holds a text under the embedding key {key}")
            hits += 1
            if remembered is None or cached is not remembered[1].vector:
                remembered = (key, Embedding(vector=cached, model_id=self.embedding_model_id))
                self._embedded[text] = remembered
            found[text] = remembered[1]
        with self._counter_lock:
            self.counters.embedding_requests += len(texts)
            self.counters.embedding_cache_hits += hits
        if missed:
            vectors = self._call_backend(self.backend.embed, list(missed))
            if len(vectors) != len(missed):
                raise BackendError(
                    f"the backend returned {len(vectors)} vectors for {len(missed)} texts"
                )
            with self._counter_lock:
                self.counters.backend_calls += 1
            for (text, key), vector in zip(missed.items(), vectors):
                vector = frozen_vector(vector)
                self.cache.put(key, vector)
                found[text] = Embedding(vector=vector, model_id=self.embedding_model_id)
                self._embedded[text] = (key, found[text])
        return [found[text] for text in texts]


__all__ = [
    "API_KEY_ENV",
    "Decoding",
    "Embedding",
    "Gateway",
    "GatewayCounters",
    "LiveBackend",
    "MockCall",
    "MockScript",
    "PromptTemplate",
    "ResponseCache",
    "TemplateCatalog",
    "api_key_from_env",
    "completion_key",
    "embedding_key",
    "parse_binary_digit",
    "parse_bracketed",
    "parse_letter_choice",
    "render_template",
]
