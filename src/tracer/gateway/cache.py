"""Persistent response cache.

An append-only file of JSON records, one per line, each holding a key
digest and the cached value (completion text or embedding vector). The
whole file is read once at open; later appends win on duplicate keys, so
an interrupted run can simply be re-run. Reads are lock-free; writes are
serialized.

Embedding vectors are held in memory as read-only float64 arrays (see
``frozen_vector``) and written back as JSON lists, so the file format is
the same as for plain lists. Every caller that gets a vector shares the
one cached array, which is why it cannot be written to.
"""

from __future__ import annotations

import hashlib
import json
import threading
from pathlib import Path

import numpy as np

from ..errors import CacheCorruption


def completion_key(
    model_id: str, template_id: str, prompt: str, temperature: float, max_tokens: int
) -> str:
    """Digest for a completion request.

    Keyed on the rendered prompt rather than the bindings, so editing a
    template invalidates its cached responses.
    """
    payload = json.dumps(
        {
            "kind": "completion",
            "model": model_id,
            "template": template_id,
            "prompt": prompt,
            "temperature": temperature,
            "max_tokens": max_tokens,
        },
        sort_keys=True,
        ensure_ascii=False,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def embedding_key(model_id: str, text: str) -> str:
    payload = json.dumps(
        {"kind": "embedding", "model": model_id, "text": text},
        sort_keys=True,
        ensure_ascii=False,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def frozen_vector(values) -> np.ndarray:
    """Read-only float64 array of ``values``.

    A read-only float64 array is returned as is; anything else (a list,
    a tuple, a writable array) is copied, so freezing never changes an
    array the caller still holds.
    """
    if isinstance(values, np.ndarray) and values.dtype == np.float64 and not values.flags.writeable:
        return values
    array = np.array(values, dtype=np.float64)
    array.flags.writeable = False
    return array


class ResponseCache:
    """Deterministic response cache, optionally persisted to a file.

    With ``path=None`` the cache is purely in-memory (useful for tests
    and one-shot runs).
    """

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self._entries: dict[str, object] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        if self.path is not None and self.path.exists():
            self._load()

    def _load(self) -> None:
        with self.path.open("r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                    key = record["key"]
                    value = record["value"]
                    if isinstance(value, list):
                        value = frozen_vector(value)
                # ValueError covers both undecodable JSON and a non-numeric vector
                except (ValueError, TypeError, KeyError):
                    raise CacheCorruption(
                        f"{self.path}: undecodable cache record at line {line_number}"
                    ) from None
                self._entries[key] = value

    def get(self, key: str):
        """Cached value for key, or None. Updates hit/miss counters."""
        value = self._entries.get(key)
        with self._lock:
            if value is None:
                self.misses += 1
            else:
                self.hits += 1
        return value

    def put(self, key: str, value) -> None:
        """Store a completion text, or an embedding vector given as any sequence."""
        if not isinstance(value, str):
            value = frozen_vector(value)
        with self._lock:
            self._entries[key] = value
            if self.path is not None:
                record = value if isinstance(value, str) else value.tolist()
                with self.path.open("a", encoding="utf-8") as handle:
                    handle.write(json.dumps({"key": key, "value": record}, ensure_ascii=False))
                    handle.write("\n")

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            if self.path is not None and self.path.exists():
                self.path.unlink()

    def stats(self) -> dict:
        size = self.path.stat().st_size if self.path is not None and self.path.exists() else 0
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "path": str(self.path) if self.path is not None else None,
            "file_bytes": size,
        }

    def __len__(self) -> int:
        return len(self._entries)
