"""HTTP transport and the live model backend.

``post_json`` is the one HTTP POST of the package: the live backend and
the external classifiers all send their requests through it. Transport
failures and 5xx/429 statuses are retried with exponential backoff; any
other non-2xx status fails immediately, since repeating a rejected
request cannot change the outcome. Every failure is a ``BackendError``.
Parse failures downstream are never retried here.

``LiveBackend`` speaks the OpenAI-compatible wire format for the two
endpoints the pipeline needs: chat completions and embeddings. Like
the mock, its ``embed`` takes a list of texts and returns one read-only
float64 array per text, all from one request.

``CircuitBreaker`` stops the external classifiers from POSTing to an
endpoint that keeps failing.

``requests`` is imported only when a session is made or a request is
sent, so offline runs never pay for importing it.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from ..errors import BackendError, ConfigError
from .cache import frozen_vector

API_KEY_ENV = "TRACER_API_KEY"
DEFAULT_BASE_URL = "https://api.openai.com/v1"
RETRYABLE_STATUSES = frozenset({429, 500, 502, 503, 504})
DEFAULT_MAX_TOKENS = 1024
# consecutive failed POSTs after which a circuit breaker stops sending
CIRCUIT_BREAKER_FAILURES = 3


@dataclass(frozen=True)
class Decoding:
    temperature: float = 0.0
    max_tokens: int = DEFAULT_MAX_TOKENS


def api_key_from_env() -> str:
    key = os.environ.get(API_KEY_ENV, "").strip()
    if not key:
        raise ConfigError(f"{API_KEY_ENV} is not set; required for live backend mode")
    return key


def post_json(
    url: str,
    payload: dict,
    *,
    headers: dict | None = None,
    session=None,
    timeout: float = 60.0,
    max_retries: int = 3,
    backoff_base: float = 1.0,
    sleep=time.sleep,
):
    """POST ``payload`` as JSON to ``url`` and return the decoded JSON body.

    ``session`` is anything with a ``requests.Session``-style ``post``;
    without one each request goes through ``requests.post``.
    """
    import requests

    send = session.post if session is not None else requests.post
    attempts = 0
    while True:
        attempts += 1
        try:
            response = send(url, json=payload, headers=headers, timeout=timeout)
        except requests.RequestException as exc:
            if attempts > max_retries:
                raise BackendError(f"POST {url} failed: {exc}", retries=attempts - 1) from exc
            sleep(backoff_base * 2 ** (attempts - 1))
            continue
        if response.status_code in RETRYABLE_STATUSES:
            if attempts > max_retries:
                raise BackendError(
                    f"POST {url} returned {response.status_code}", retries=attempts - 1
                )
            sleep(backoff_base * 2 ** (attempts - 1))
            continue
        if response.status_code != 200:
            raise BackendError(
                f"POST {url} returned {response.status_code}: {response.text[:200]}",
                retries=attempts - 1,
            )
        try:
            return response.json()
        except ValueError as exc:
            raise BackendError(
                f"POST {url} returned undecodable body", retries=attempts - 1
            ) from exc


class CircuitBreaker:
    """A ``post(url, payload)`` that gives up on an endpoint that keeps failing.

    Every ``BackendError`` from the wrapped post (raised only after
    ``post_json``'s own retries) counts as one failed POST, and a success
    resets the count. After ``CIRCUIT_BREAKER_FAILURES`` failures in a
    row the circuit stays open: every later call raises ``BackendError``
    at once, naming the open circuit and the last error, and sends
    nothing. A dead endpoint then costs a run that many failed POSTs,
    not a full backoff for every request.
    """

    def __init__(self, post):
        self._post = post
        self._failures = 0
        self._last_error: BackendError | None = None

    def __call__(self, url: str, payload: dict):
        if self._failures >= CIRCUIT_BREAKER_FAILURES:
            raise BackendError(
                f"circuit open for {url} after {self._failures} consecutive failed POSTs; "
                f"last error: {self._last_error}"
            )
        try:
            data = self._post(url, payload)
        except BackendError as exc:
            self._failures += 1
            self._last_error = exc
            raise
        self._failures = 0
        return data


class LiveBackend:
    """HTTP client for chat-completions and embeddings endpoints."""

    def __init__(
        self,
        model_id: str,
        embedding_model_id: str | None = None,
        base_url: str = DEFAULT_BASE_URL,
        api_key: str | None = None,
        max_retries: int = 3,
        backoff_base: float = 1.0,
        timeout: float = 60.0,
        session=None,
        sleep=time.sleep,
    ):
        self.model_id = model_id
        self.embedding_model_id = embedding_model_id or model_id
        self.base_url = base_url.rstrip("/")
        self.api_key = api_key if api_key is not None else api_key_from_env()
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.timeout = timeout
        if session is None:
            import requests

            session = requests.Session()
        self.session = session
        self._sleep = sleep

    def _post(self, endpoint: str, payload: dict) -> dict:
        return post_json(
            f"{self.base_url}/{endpoint}",
            payload,
            headers={
                "Authorization": f"Bearer {self.api_key}",
                "Content-Type": "application/json",
            },
            session=self.session,
            timeout=self.timeout,
            max_retries=self.max_retries,
            backoff_base=self.backoff_base,
            sleep=self._sleep,
        )

    def complete(self, template_id: str, prompt: str, decoding: Decoding) -> str:
        """One chat completion; the template id is not sent."""
        payload = {
            "model": self.model_id,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": decoding.temperature,
            "max_tokens": decoding.max_tokens,
        }
        data = self._post("chat/completions", payload)
        try:
            content = data["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError):
            content = None
        # a null, number or list content is as malformed as a missing one
        if not isinstance(content, str):
            raise BackendError(f"malformed chat completion response: {data!r:.200}")
        return content

    def embed(self, texts: list[str]) -> list[np.ndarray]:
        """One request for all the texts; one vector per text, in their order.

        The answer's rows are put back in order by their ``index``, which
        must run over exactly the texts' positions.
        """
        payload = {"model": self.embedding_model_id, "input": list(texts)}
        data = self._post("embeddings", payload)
        try:
            rows = sorted(data["data"], key=lambda row: row["index"])
            indices = [row["index"] for row in rows]
            vectors = [frozen_vector([float(x) for x in row["embedding"]]) for row in rows]
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise BackendError(f"malformed embedding response: {data!r:.200}") from exc
        if indices != list(range(len(texts))):
            raise BackendError(
                f"embedding response indices {indices} do not match {len(texts)} texts"
            )
        return vectors
