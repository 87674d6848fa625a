"""HTTP transport, the client of one endpoint, and the live model backend.

``post_json`` is the one HTTP POST of the package. Transport failures
and 5xx/429 statuses are retried with exponential backoff, or, on a 429
or 503, after the whole seconds its ``Retry-After`` names, capped. Any
other non-2xx status fails at once, since repeating a rejected request
cannot change the outcome. Every failure is a ``BackendError``; one the
server answered, a rejected status or an undecodable body, is marked
``answered``.

``Endpoint`` is its one caller: one client per URL, each with its own
kept-alive ``requests.Session``, circuit breaker and malformed-answer
rule, serves the alignment and NLI classifiers and the live model's
``chat/completions`` and ``embeddings``. ``LiveBackend`` speaks the
OpenAI-compatible wire format over the last two. Like the mock, it
answers lists: ``complete`` sends one request per prompt, in order, and
``embed`` one request for all the texts. Every completion is asked at
temperature ``TEMPERATURE`` for at most ``MAX_TOKENS`` tokens. Answers are
read by ``tracer.decoding.decode``: a message content is a string, and an
embedding row an int ``index`` and an ``embedding`` list, each element
of which is a JSON number, not a string or a bool.

``requests`` is imported only when a session is made or a request is
sent, so offline runs never pay for importing it.
"""

from __future__ import annotations

import os
import time

import numpy as np

from ..config import BackendSettings
from ..decoding import decode
from ..errors import BackendError, ConfigError
from .cache import frozen_vector

API_KEY_ENV = "TRACER_API_KEY"
RETRYABLE_STATUSES = frozenset({429, 500, 502, 503, 504})
# the decoding of every completion, recorded in its cache key
TEMPERATURE = 0.0
MAX_TOKENS = 1024
# retries of one POST after its first attempt, and the first backoff, doubled per retry
MAX_RETRIES = 3
BACKOFF_BASE_S = 1.0
# the longest wait a Retry-After header can ask for
RETRY_AFTER_CAP_S = 60
# consecutive POSTs that used every retry, after which an endpoint stops sending
CIRCUIT_BREAKER_FAILURES = 3
# seconds one POST may take
MODEL_TIMEOUT_S = 60.0
CLASSIFIER_TIMEOUT_S = 30.0


def api_key_from_env() -> str:
    key = os.environ.get(API_KEY_ENV, "").strip()
    if not key:
        raise ConfigError(f"{API_KEY_ENV} is not set; required for live backend mode")
    return key


def post_json(url: str, payload: dict, *, session, timeout: float, headers=None, sleep=time.sleep):
    """POST ``payload`` as JSON to ``url`` and return the decoded JSON body.

    ``session`` is anything with a ``requests.Session``-style ``post``.
    """
    import requests

    retries = 0
    while True:
        try:
            response = session.post(url, json=payload, headers=headers, timeout=timeout)
        except requests.RequestException as exc:
            if retries == MAX_RETRIES:
                raise BackendError(f"POST {url} failed: {exc}", retries=retries) from exc
            wait = None
        else:
            if response.status_code not in RETRYABLE_STATUSES:
                break
            if retries == MAX_RETRIES:
                raise BackendError(f"POST {url} returned {response.status_code}", retries=retries)
            wait = _retry_after(response)
        sleep(BACKOFF_BASE_S * 2**retries if wait is None else wait)
        retries += 1
    if response.status_code != 200:
        raise BackendError(
            f"POST {url} returned {response.status_code}: {response.text[:200]}",
            retries=retries,
            answered=True,
        )
    try:
        return response.json()
    except ValueError as exc:
        raise BackendError(
            f"POST {url} returned undecodable body", retries=retries, answered=True
        ) from exc


def _retry_after(response) -> float | None:
    """The capped wait a 429 or 503 asks for in whole seconds; None for an
    HTTP-date or an unreadable value, which leave the backoff step as it is."""
    if response.status_code not in (429, 503):
        return None
    value = response.headers.get("Retry-After", "")
    if not (value.isascii() and value.isdigit()):
        return None
    return min(float(value), RETRY_AFTER_CAP_S)


class Endpoint:
    """The client of one HTTP endpoint.

    ``ask(payload, read)`` POSTs one JSON object through ``post_json`` and
    returns ``read(answer)``. An answer ``read`` rejects with a
    ``LookupError``, ``TypeError`` or ``ValueError`` (a ``DecodeError`` is
    both) is a ``BackendError`` naming the URL and the reader's reason.
    ``post(url, payload)`` replaces the transport in tests.

    The circuit breaker: a POST that ``post_json`` gave up on after using
    every retry counts as failed; any other outcome resets the count, an
    ``answered`` failure (a 4xx or an undecodable body, after retried 5xx
    answers too) and an answer ``read`` rejects included. After
    ``CIRCUIT_BREAKER_FAILURES`` failures in a row the circuit is open:
    every later ``ask`` raises ``circuit_error()`` at once and sends
    nothing.
    """

    def __init__(
        self, url: str, post=None, headers: dict | None = None, timeout=CLASSIFIER_TIMEOUT_S
    ):
        self.url = url
        if post is None:
            import requests

            session = requests.Session()

            def post(url: str, payload: dict):
                return post_json(url, payload, session=session, headers=headers, timeout=timeout)

        self._post = post
        self._failures = 0
        self._last_error: BackendError | None = None

    def circuit_error(self) -> BackendError | None:
        """The error naming the open circuit and the last failure; None while it is closed."""
        if self._failures < CIRCUIT_BREAKER_FAILURES:
            return None
        return BackendError(
            f"circuit open for {self.url} after {self._failures} consecutive "
            f"failed POSTs; last error: {self._last_error}"
        )

    def ask(self, payload: dict, read):
        error = self.circuit_error()
        if error is not None:
            raise error
        try:
            data = self._post(self.url, payload)
        except BackendError as exc:
            gave_up = exc.retries == MAX_RETRIES and not exc.answered
            self._failures = self._failures + 1 if gave_up else 0
            self._last_error = exc
            raise
        self._failures = 0
        try:
            return read(data)
        except (LookupError, TypeError, ValueError) as exc:
            raise BackendError(
                f"{self.url} returned a malformed answer ({type(exc).__name__}: {exc}): "
                f"{data!r:.200}"
            ) from exc


class LiveBackend:
    """Chat completions and embeddings, each through its own ``Endpoint``.

    ``endpoints`` holds the two, chat first.
    """

    def __init__(
        self,
        model_id: str,
        embedding_model_id: str | None = None,
        base_url: str = BackendSettings.base_url,
        api_key: str | None = None,
        post=None,
    ):
        self.model_id = model_id
        self.embedding_model_id = embedding_model_id or model_id
        api_key = api_key if api_key is not None else api_key_from_env()
        headers = {"Authorization": f"Bearer {api_key}", "Content-Type": "application/json"}
        base_url = base_url.rstrip("/")
        self.endpoints = tuple(
            Endpoint(f"{base_url}/{path}", post, headers, MODEL_TIMEOUT_S)
            for path in ("chat/completions", "embeddings")
        )
        self._chat, self._embeddings = self.endpoints

    def complete(self, requests: list[tuple[str, str]]) -> list:
        """A chat completion or ``BackendError`` per ``(template_id, prompt)``, sent in turn."""
        outcomes = []
        for _, prompt in requests:
            payload = {
                "model": self.model_id,
                "messages": [{"role": "user", "content": prompt}],
                "temperature": TEMPERATURE,
                "max_tokens": MAX_TOKENS,
            }
            try:
                outcomes.append(self._chat.ask(payload, _read_content))
            except BackendError as exc:
                outcomes.append(exc)
        return outcomes

    def embed(self, texts: list[str]) -> list[np.ndarray]:
        """One request for all the texts; one vector per text, in their order."""
        payload = {"model": self.embedding_model_id, "input": list(texts)}
        return self._embeddings.ask(payload, lambda data: _read_vectors(data, len(texts)))


def _read_content(data) -> str:
    return decode(str, data["choices"][0]["message"]["content"])


def _read_vectors(data, count: int) -> list[np.ndarray]:
    """The answer's rows put back in order by their ``index``, which must
    run over exactly the texts' positions."""
    rows = sorted(data["data"], key=lambda row: decode(int, row["index"]))
    indices = [row["index"] for row in rows]
    if indices != list(range(count)):
        raise ValueError(f"indices {indices} do not match {count} texts")
    return [frozen_vector(decode(list[float], row["embedding"])) for row in rows]
