"""Single point of contact with language models.

Everything the pipeline asks of a model flows through one Gateway
object: render a catalog template, check the persistent cache, and only
then touch the configured backend (live HTTP or a scripted mock). The
cache makes temperature-0 runs replayable: a second identical run reads
every answer back without a single backend call.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..errors import EmptyInput
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

    ``complete(template_id, **bindings)`` and ``embed(text)`` are the only
    two requests. The backend is either a MockScript or a LiveBackend;
    both answer ``complete(template_id, prompt, decoding)`` and
    ``embed(text)``. Every completion uses the bundled template catalog
    and the default ``Decoding``; model ids come from the backend
    (``"mock"`` when it names none). ``counters`` counts every request,
    cache hit and backend call. A bounded semaphore caps in-flight
    backend requests when callers fan out across threads.
    """

    def __init__(self, backend, cache: ResponseCache | None = None, max_in_flight: int = 4):
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
        self._semaphore = threading.BoundedSemaphore(max_in_flight)
        self._counter_lock = threading.Lock()

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
        with self._counter_lock:
            self.counters.completion_requests += 1
            if cached is not None:
                self.counters.completion_cache_hits += 1
        if cached is not None:
            return cached
        with self._semaphore:
            text = self.backend.complete(template_id, prompt, self.decoding)
        with self._counter_lock:
            self.counters.backend_calls += 1
            self.counters.by_template[template_id] = (
                self.counters.by_template.get(template_id, 0) + 1
            )
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
        if not text or not text.strip():
            raise EmptyInput("cannot embed empty text")
        remembered = self._embedded.get(text)
        if remembered is not None:
            key = remembered[0]
        else:
            key = embedding_key(self.embedding_model_id, text)
        cached = self.cache.get(key)
        with self._counter_lock:
            self.counters.embedding_requests += 1
            if cached is not None:
                self.counters.embedding_cache_hits += 1
        if cached is not None:
            if remembered is not None and cached is remembered[1].vector:
                return remembered[1]
            vector = cached
        else:
            with self._semaphore:
                vector = frozen_vector(self.backend.embed(text))
            with self._counter_lock:
                self.counters.backend_calls += 1
            self.cache.put(key, vector)
        embedding = Embedding(vector=vector, model_id=self.embedding_model_id)
        self._embedded[text] = (key, embedding)
        return embedding


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
