"""Persistent response cache.

An append-only file of JSON records, one per line, each holding a key
digest and the cached value. A completion is ``{"key": k, "value":
"text"}``; an embedding is ``{"key": k, "vector": "<base64>"}``, the
base64 of the vector's little-endian float64 bytes, which round-trips
every bit and encodes and decodes far faster than a list of floats.
Records of the older form ``{"key": k, "value": [floats]}`` are still
read, so existing caches replay, but never written.

The whole file is read once at open; later appends win on duplicate
keys, so an interrupted run can simply be re-run. A last line with no
newline that does not decode is an append torn by a dying writer: it is
skipped, and the first append cuts it off, unless another writer has
appended since the load (the line may then have been an append still in
progress, now whole). Any other undecodable line is ``CacheCorruption``.
Reads are lock-free; writes are serialized through one append handle,
flushed after every record.

Embedding vectors are held in memory as read-only float64 arrays (see
``frozen_vector``). Every caller that gets a vector shares the one
cached array, which is why it cannot be written to.
"""

from __future__ import annotations

import base64
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


def _decode(line: bytes):
    """(key, value) of one cache line; raises ValueError, TypeError or KeyError."""
    record = json.loads(line)
    key = record["key"]
    if "vector" in record:
        raw = base64.b64decode(record["vector"], validate=True)
        return key, frozen_vector(np.frombuffer(raw, dtype="<f8"))
    value = record["value"]
    if isinstance(value, list):
        value = frozen_vector(value)
    return key, value


def _encode(key: str, value) -> bytes:
    if isinstance(value, str):
        record = {"key": key, "value": value}
    else:
        vector = base64.b64encode(value.astype("<f8", copy=False).tobytes()).decode("ascii")
        record = {"key": key, "vector": vector}
    return (json.dumps(record, ensure_ascii=False) + "\n").encode("utf-8")


class ResponseCache:
    """Deterministic response cache, optionally persisted to a file.

    With ``path=None`` the cache is purely in-memory (useful for tests
    and one-shot runs). It counts nothing: requests and hits are counted
    once, by ``Gateway.counters``.
    """

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self._entries: dict[str, object] = {}
        self._lock = threading.Lock()
        self._handle = None
        # the last line when it lacks its newline, as (offset, bytes,
        # whether it decoded): a torn append, or a whole record whose
        # writer died before the newline (older writers wrote them apart)
        self._open_tail: tuple[int, bytes, bool] | None = None
        if self.path is not None and self.path.exists():
            self._load()

    def _load(self) -> None:
        offset = 0
        with self.path.open("rb") as handle:
            for line_number, line in enumerate(handle, start=1):
                start = offset
                offset += len(line)
                if not line.strip():
                    continue
                try:
                    key, value = _decode(line)
                # ValueError covers undecodable JSON, bad base64 and a non-numeric vector
                except (ValueError, TypeError, KeyError):
                    if line.endswith(b"\n"):
                        raise CacheCorruption(
                            f"{self.path}: undecodable cache record at line {line_number}"
                        ) from None
                    self._open_tail = (start, line, False)
                    continue
                self._entries[key] = value
                if not line.endswith(b"\n"):
                    self._open_tail = (start, line, True)

    def _file_ends_with_open_tail(self) -> bool:
        """Whether no other writer has appended to the file since the load."""
        offset, line, _ = self._open_tail
        with self.path.open("rb") as handle:
            handle.seek(offset)
            return handle.read(len(line) + 1) == line

    def _append_handle(self):
        if self._handle is None:
            self._handle = self.path.open("ab")
            if self._open_tail is not None and self._file_ends_with_open_tail():
                offset, _, whole = self._open_tail
                if whole:
                    self._handle.write(b"\n")
                else:
                    self._handle.truncate(offset)
            self._open_tail = None
        return self._handle

    def get(self, key: str):
        """Cached value for key, or None."""
        return self._entries.get(key)

    def put(self, key: str, value) -> None:
        """Store a completion text, or an embedding vector given as any sequence."""
        if not isinstance(value, str):
            value = frozen_vector(value)
        with self._lock:
            self._entries[key] = value
            if self.path is not None:
                handle = self._append_handle()
                handle.write(_encode(key, value))
                handle.flush()

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            if self._handle is not None:
                self._handle.close()
                self._handle = None
            self._open_tail = None
            if self.path is not None and self.path.exists():
                self.path.unlink()

    def stats(self) -> dict:
        size = self.path.stat().st_size if self.path is not None and self.path.exists() else 0
        return {
            "entries": len(self._entries),
            "path": str(self.path) if self.path is not None else None,
            "file_bytes": size,
        }

    def __len__(self) -> int:
        return len(self._entries)
