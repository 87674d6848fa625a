"""Single point of contact with language models.

Everything the pipeline asks of a model flows through one Gateway
object: fill a bundled template's text with ``str.format_map``, check
the persistent cache, and only then touch the configured backend (live
HTTP or a scripted mock). The cache makes temperature-0 runs replayable:
a second identical run reads every answer back without a single backend
call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import BackendError, CacheCorruption, EmptyInput, TracerError
from .backends import API_KEY_ENV, MAX_TOKENS, TEMPERATURE, Endpoint, LiveBackend, api_key_from_env
from .cache import ResponseCache, completion_key, embedding_key, frozen_vector
from .mock import MockScript
from .parsing import parse_binary_digit, parse_bracketed, parse_letter_choice
from .templates import bundled_templates, render_template


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
    constructor is converted. An array from the Gateway is the cache's
    own while its record is unwritten, shared with every caller, and a
    fresh read of the vector file after; it is never written to. ``norm``
    is the vector's Euclidean length, summed strictly left to right when
    the ``Embedding`` is built.
    """

    vector: np.ndarray
    model_id: str
    norm: float = field(init=False, repr=False)

    def __post_init__(self):
        vector = frozen_vector(self.vector)
        object.__setattr__(self, "vector", vector)
        object.__setattr__(self, "norm", math.sqrt(_sequential_sum(vector * vector)))

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
    # per template, the prompts asked, cache hits included: which templates a config asks
    by_template: dict = field(default_factory=dict)


class Gateway:
    """Template rendering + cache + backend, behind one interface.

    ``complete_many([(template_id, bindings), ...])`` and
    ``embed_many(texts)`` return one outcome per item, in order: the
    answer, or the ``TracerError`` in its place; ``complete`` and
    ``embed`` ask for one item and raise its failure. ``templates`` maps
    each bundled template id to its text, and a prompt is that text's
    ``format_map(bindings)``; an id it lacks is a ``KeyError``. The
    backend, a MockScript or a LiveBackend, answers ``complete([(template_id,
    prompt), ...])`` and ``embed(texts)`` the same way, and the items of
    a list that the cache lacks reach it in one call. A completion's
    cache key records the fixed decoding, ``TEMPERATURE`` and
    ``MAX_TOKENS``. Model ids come from the backend (``"mock"`` when it
    names none). A completion that is not valid Unicode (a lone
    surrogate), a vector with a NaN or infinite value, a cache hit of the
    wrong kind and a cached vector its vector file lost are failures, and
    no failure is cached. ``counters`` counts requests, cache hits,
    backend calls (one per list) and, per template, the prompts asked.

    A Gateway and its cache are used from one thread, which runs one
    claim at a time, so a run sends one backend request at a time.
    """

    def __init__(self, backend, cache: ResponseCache | None = None):
        self.backend = backend
        self.templates = bundled_templates()
        # explicit None check: an empty cache is falsy but still the caller's cache
        self.cache = cache if cache is not None else ResponseCache()
        self.model_id = getattr(backend, "model_id", "mock")
        self.embedding_model_id = getattr(backend, "embedding_model_id", self.model_id)
        self.counters = GatewayCounters()

    def _cached(self, key: str, held: type):
        """``held`` under ``key``, None for a miss, or a ``CacheCorruption``."""
        try:
            cached = self.cache.get(key)
        except CacheCorruption as exc:
            return exc
        if cached is None or isinstance(cached, held):
            return cached
        return CacheCorruption(f"the cache holds {_WRONG_KIND[held]} {key}")

    def _fetch(self, keys: list, items: list, held: type, send, accept) -> tuple[dict, int]:
        """Key -> its cached value or ``TracerError``, and how many of ``keys`` were hits:
        keys ``_cached`` found (corrupt ones too) or asked earlier in the list."""
        found, missed = {}, {}  # key -> outcome, key -> item
        for key, item in zip(keys, items):
            if key in found or key in missed:
                continue
            cached = self._cached(key, held)
            if cached is None:
                missed[key] = item
            else:
                found[key] = cached
        if missed:
            found.update(self._send(missed, send, accept))
        return found, len(keys) - len(missed)

    def _send(self, missed: dict, send, accept) -> dict:
        """Key -> outcome of each missed item, asked of ``send`` in one call; ``accept(item,
        answer)`` returns the value to cache or raises the item's failure, which is not."""
        try:
            answers = send(list(missed.values()))
            if len(answers) != len(missed):
                raise BackendError(
                    f"the backend returned {len(answers)} outcomes for {len(missed)} requests"
                )
        except TracerError as exc:
            answers = [exc] * len(missed)
        else:
            self.counters.backend_calls += 1
        found = {}
        for (key, item), answer in zip(missed.items(), answers):
            try:
                found[key] = accept(item, unwrap(answer))
            except TracerError as exc:
                found[key] = exc
            else:
                self.cache.put(key, found[key])
        return found

    def complete(self, template_id: str, **bindings) -> str:
        """``complete_many`` of one request, raising its failure; a cache hit
        costs one render, one key and one ``cache.get``."""
        prompt = render_template(self.templates[template_id], bindings)
        key = completion_key(self.model_id, template_id, prompt, TEMPERATURE, MAX_TOKENS)
        counters = self.counters
        if template_id in counters.by_template:
            counters.by_template[template_id] += 1
        else:
            counters.by_template[template_id] = 1
        outcome = self._cached(key, str)
        if outcome is None:
            missed = {key: (template_id, prompt)}
            outcome = self._send(missed, self.backend.complete, self._accept_text)[key]
        else:
            counters.completion_cache_hits += 1
        counters.completion_requests += 1
        return unwrap(outcome)

    def complete_many(self, requests) -> list:
        """One outcome per ``(template_id, bindings)``: its completion or a ``TracerError``."""
        prompts = [(tid, render_template(self.templates[tid], b)) for tid, b in requests]
        by_template = self.counters.by_template
        for template_id, _ in prompts:
            # subscripts, not dict.get: no call per prompt on the hot path
            if template_id in by_template:
                by_template[template_id] += 1
            else:
                by_template[template_id] = 1
        keys = [completion_key(self.model_id, *p, TEMPERATURE, MAX_TOKENS) for p in prompts]
        found, hits = self._fetch(keys, prompts, str, self.backend.complete, self._accept_text)
        self.counters.completion_requests += len(keys)
        self.counters.completion_cache_hits += hits
        return [found[key] for key in keys]

    def _accept_text(self, prompt: tuple[str, str], text: str) -> str:
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as exc:
            # a lone surrogate: valid in JSON, but no cache line can hold it
            raise BackendError(f"the {prompt[0]!r} answer is not valid Unicode: {exc}") from None
        return text

    def embed(self, text: str) -> Embedding:
        """The embedding of one text."""
        return unwrap(self.embed_many([text])[0])

    def embed_many(self, texts) -> list:
        """One outcome per text: its ``Embedding`` or a ``TracerError``.

        An empty or blank text is an ``EmptyInput`` outcome of its own; it
        is not a request and reaches neither the cache nor the backend.
        """
        texts = list(texts)
        asked = [text for text in texts if text and text.strip()]
        keys = [embedding_key(self.embedding_model_id, text) for text in asked]
        found, hits = self._fetch(keys, asked, np.ndarray, self.backend.embed, _accept_vector)
        self.counters.embedding_requests += len(keys)
        self.counters.embedding_cache_hits += hits
        for key, value in found.items():
            if isinstance(value, np.ndarray):
                found[key] = Embedding(vector=value, model_id=self.embedding_model_id)
        key_of = dict(zip(asked, keys))
        blank = EmptyInput("cannot embed empty text")
        return [found[key_of[text]] if text in key_of else blank for text in texts]


# what a cache hit of the wrong kind holds, by the kind a request expects
_WRONG_KIND = {
    str: "a vector under the completion key",
    np.ndarray: "a text under the embedding key",
}


def unwrap(outcome):
    """A list request's outcome as its answer: raises it if it is a ``TracerError``."""
    if isinstance(outcome, TracerError):
        raise outcome
    return outcome


def _accept_vector(text: str, vector) -> np.ndarray:
    vector = frozen_vector(vector)
    if not np.isfinite(vector).all():
        # cosine would read NaN as 1.0: min(1.0, nan) is 1.0
        raise BackendError(f"the embedding of {text!r:.80} is not finite")
    return vector


__all__ = [
    "API_KEY_ENV",
    "Embedding",
    "Endpoint",
    "Gateway",
    "GatewayCounters",
    "LiveBackend",
    "MockScript",
    "ResponseCache",
    "api_key_from_env",
    "bundled_templates",
    "completion_key",
    "embedding_key",
    "parse_binary_digit",
    "parse_bracketed",
    "parse_letter_choice",
    "render_template",
    "unwrap",
]
