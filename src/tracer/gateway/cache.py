"""Persistent response cache.

Two append-only files. The cache file holds JSON records, one per line,
each under a key digest. A completion is ``{"key": k, "value": "text"}``.
An embedding is an index record ``{"key": k, "at": offset, "dim": n}``
for ``n`` little-endian float64 values that start ``offset`` bytes into
the vector file, which sits beside the cache file under its name plus
``.vectors``. Raw float64 bytes round-trip every bit and load without
any decoding.

Write order: records are written in batches, one append per file. A
batch is everything put inside a ``batched()`` block, written when the
block exits (``run_pipeline`` wraps each claim in one), or a single put
made outside any block, written at once. The batch's vector bytes go to
the vector file in one write and are flushed, and only then do its
lines go to the cache file, in put order, in one write and one flush.
Each offset is taken from the vector handle's position after that
write, not from a running count, so it stays right when another writer
appends too.

Read order: the whole cache file is read once at open, one line at a
time, each line decoded by the C JSON scanner (a line it cannot settle
goes through ``json.loads``). Then the vector file is mapped read-only,
not copied, and every vector is a read-only view into that one mapping.
The mapping stays valid on POSIX because the vector file is only ever
appended to or unlinked (``clear()``, ``tracer cache-clear``), never
truncated. An index record is written after its bytes, so every record
read has its bytes on disk; one that points past the end of the vector
file is ``CacheCorruption``. Later records win on duplicate keys, so an
interrupted run can simply be re-run.

A line is exactly one of the two records above, with a string key and a
string ``value``. Any other line is ``CacheCorruption`` that names it,
lines in the formats earlier versions wrote included: embeddings as
``{"key": k, "vector": "<base64>"}`` or ``{"key": k, "value":
[floats]}``, and keys of 64 hex characters. Such a cache is not served;
``tracer cache-clear`` removes it.

What a crash leaves: records put inside a block that has not exited
are only in memory, so a run killed inside a claim loses that claim's
records and keeps every finished claim's. A writer that dies between
its two writes leaves vector bytes no record points at; they are never
read, and the next vector lands after them. A writer that dies inside
an append to the cache file leaves a last line with no newline. If it
does not decode it is skipped, and the first append cuts it off, unless
another writer has appended since the load (the line may then have been
an append still in progress, now whole).

A key is the sha256 of a short header (kind, model, and for a
completion its template and decoding) followed by the prompt or text as
raw UTF-8, written as 43 unpadded base64url characters; see
``completion_key``. Reads are lock-free; writes are serialized through
one append handle per file, flushed after every batch.

Embedding vectors are held in memory as read-only float64 arrays (see
``frozen_vector``). Every caller that gets a vector shares the one
cached array, which is why it cannot be written to.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import threading
from contextlib import contextmanager
from json.encoder import encode_basestring
from json.scanner import make_scanner
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ..errors import CacheCorruption


def _digest(header: str, text: str) -> str:
    """sha256 of the header then the text, as 43 unpadded base64url characters."""
    digest = hashlib.sha256((header + text).encode("utf-8")).digest()
    return base64.urlsafe_b64encode(digest)[:43].decode("ascii")


def completion_key(
    model_id: str, template_id: str, prompt: str, temperature: float, max_tokens: int
) -> str:
    """Digest for a completion request.

    Keyed on the rendered prompt rather than the bindings, so editing a
    template invalidates its cached responses. The hashed bytes are a
    one-line header, then the prompt as raw UTF-8. The header names the
    kind and gives each string with its length in characters, so no
    field can run into the next and no character needs escaping: the
    same request hashes to the same bytes on every interpreter.
    """
    return _digest(
        f"completion {len(model_id)}:{model_id} {len(template_id)}:{template_id} "
        f"{float(temperature)!r} {int(max_tokens)}\n",
        prompt,
    )


def embedding_key(model_id: str, text: str) -> str:
    """Digest for an embedding request, hashed as ``completion_key`` is."""
    return _digest(f"embedding {len(model_id)}:{model_id}\n", text)


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


def _vector_path(path: Path) -> Path:
    # its name begins with the cache file's, so tools that copy or remove
    # a cache by name prefix take both files
    return path.with_name(path.name + ".vectors")


def remove_cache_files(path: str | Path) -> None:
    """Delete a cache file and its vector file without reading either."""
    path = Path(path)
    path.unlink(missing_ok=True)
    _vector_path(path).unlink(missing_ok=True)


class _VectorRef(NamedTuple):
    """Where an index record says a vector lies in the vector file."""

    at: int
    dim: int


# The scanner json.loads runs, without the Python around it: encoding
# detection, dispatch and the trailing-whitespace match. Shared as
# json's own default decoder is; it keeps no state between calls.
_scan_once = make_scanner(json.JSONDecoder())


def _parse(line: bytes):
    """``json.loads(line)``, by the C scanner alone when the line allows it.

    That is a UTF-8 line starting with ``{`` whose value ends at its
    newline or at its end: ``json.loads`` would then decode it as UTF-8
    and parse the same text with the same scanner. Any other line (a
    torn record, other whitespace, a byte order mark, text that is not
    UTF-8) goes through ``json.loads`` itself.
    """
    try:
        text = line.decode("utf-8")
        if text.startswith("{"):
            record, end = _scan_once(text, 0)
            if text[end:] in ("", "\n"):
                return record
    # UnicodeDecodeError and JSONDecodeError are ValueErrors; the scanner
    # raises StopIteration where no value starts
    except (ValueError, StopIteration):
        pass
    return json.loads(line)


def _decode(line: bytes):
    """(key, value) of one cache line.

    Raises ValueError, TypeError or KeyError on a line that is not a
    valid record. The value of an index record is a ``_VectorRef``,
    resolved once the vector file is mapped.
    """
    record = _parse(line)
    key = record["key"]
    # 64 characters: the hex digests earlier versions wrote, which no
    # request of this version looks up
    if type(key) is not str or len(key) == 64:
        raise TypeError(f"not a cache key: {key!r}")
    if "at" in record:
        at, dim = record["at"], record["dim"]
        if type(at) is not int or type(dim) is not int or at < 0 or dim < 0:
            raise ValueError(f"bad vector index: at={at!r} dim={dim!r}")
        return key, _VectorRef(at, dim)
    value = record["value"]
    if type(value) is not str:
        raise TypeError("cache value is not a string")
    return key, value


def _map_read_only(path: Path) -> np.ndarray:
    """The file's bytes as a read-only uint8 array over a read-only mapping.

    An empty or missing file has no mapping (``mmap`` refuses length 0)
    and gives an empty array. The handle is closed once the mapping
    exists; the mapping lives as long as the array or a view into it.
    """
    # imported here, so that a run that maps no vector file never loads it
    import mmap

    try:
        with path.open("rb") as handle:
            if os.fstat(handle.fileno()).st_size:
                mapping = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
                return np.frombuffer(mapping, dtype=np.uint8)
    except FileNotFoundError:
        pass
    return np.frombuffer(b"", dtype=np.uint8)


class ResponseCache:
    """Deterministic response cache, optionally persisted to a file.

    With ``path=None`` the cache is purely in-memory (useful for tests
    and one-shot runs). It counts nothing: requests and hits are counted
    once, by ``Gateway.counters``.
    """

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self._vector_path = _vector_path(self.path) if self.path is not None else None
        self._entries: dict[str, object] = {}
        self._lock = threading.Lock()
        self._handle = None
        self._vector_handle = None
        # (key, value) put but not yet written, and the open batched() blocks
        self._pending: list[tuple[str, object]] = []
        self._open_batches = 0
        # the last line when it lacks its newline, as (offset, bytes,
        # whether it decoded): a torn append, or a whole record whose
        # writer died before the newline (older writers wrote them apart)
        self._open_tail: tuple[int, bytes, bool] | None = None
        if self.path is not None and self.path.exists():
            self._load()

    def _load(self) -> None:
        refs: list[tuple[int, str, _VectorRef]] = []
        offset = 0
        with self.path.open("rb") as handle:
            for line_number, line in enumerate(handle, start=1):
                start = offset
                offset += len(line)
                if not line.strip():
                    continue
                try:
                    key, value = _decode(line)
                # ValueError covers undecodable JSON and a bad index,
                # TypeError a key or value of the wrong type
                except (ValueError, TypeError, KeyError):
                    if line.endswith(b"\n"):
                        raise CacheCorruption(
                            f"{self.path}: line {line_number} is not a cache record of "
                            "this version; run `tracer cache-clear` to start a new cache"
                        ) from None
                    self._open_tail = (start, line, False)
                    continue
                self._entries[key] = value
                if isinstance(value, _VectorRef):
                    refs.append((line_number, key, value))
                if not line.endswith(b"\n"):
                    self._open_tail = (start, line, True)
        if refs:
            self._resolve(refs)

    def _resolve(self, refs: list[tuple[int, str, _VectorRef]]) -> None:
        """Replace each index record's placeholder by its vector.

        Mapped after the cache file is read, so the bytes of every record
        read are already in the vector file; bytes appended since are not
        needed. Each vector is a read-only float64 view into the mapping.
        """
        data = _map_read_only(self._vector_path)
        for line_number, key, ref in refs:
            end = ref.at + 8 * ref.dim
            if end > data.size:
                raise CacheCorruption(
                    f"{self.path}: the vector record at line {line_number} points past "
                    f"the end of {self._vector_path} ({data.size} bytes)"
                )
            # unless a later record for the key replaced this one
            if self._entries[key] is ref:
                self._entries[key] = frozen_vector(data[ref.at : end].view("<f8"))

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

    def _write_pending(self) -> None:
        """Append every pending record: its vector bytes first, then its line.

        One write and one flush per file. The lines are those of
        ``json.dumps(record, ensure_ascii=False)``, formatted directly.
        """
        pending, self._pending = self._pending, []
        vectors = [
            value.astype("<f8", copy=False).tobytes()
            for _, value in pending
            if not isinstance(value, str)
        ]
        if vectors:
            if self._vector_handle is None:
                self._vector_handle = self._vector_path.open("ab")
            raw = b"".join(vectors)
            self._vector_handle.write(raw)
            self._vector_handle.flush()
            # the position after the write, not a running count: in append
            # mode the bytes land at the end, after any other writer's
            at = self._vector_handle.tell() - len(raw)
        lines = []
        for key, value in pending:
            key = encode_basestring(key)
            if isinstance(value, str):
                lines.append(f'{{"key": {key}, "value": {encode_basestring(value)}}}\n')
            else:
                lines.append(f'{{"key": {key}, "at": {at}, "dim": {value.size}}}\n')
                at += 8 * value.size
        handle = self._append_handle()
        handle.write("".join(lines).encode("utf-8"))
        handle.flush()

    def get(self, key: str):
        """Cached value for key, or None."""
        return self._entries.get(key)

    def put(self, key: str, value) -> None:
        """Store a completion text, or an embedding vector given as any sequence.

        The value is served at once. Its record is written at once too,
        unless a ``batched()`` block is open; then it is written when the
        block exits.
        """
        if not isinstance(value, str):
            value = frozen_vector(value)
        with self._lock:
            self._entries[key] = value
            if self.path is None:
                return
            self._pending.append((key, value))
            if not self._open_batches:
                self._write_pending()

    @contextmanager
    def batched(self):
        """Hold the records put inside the block, and write them when it exits.

        Every exit writes everything pending, an exit by exception too,
        and also while another thread's block is still open.
        """
        with self._lock:
            self._open_batches += 1
        try:
            yield
        finally:
            with self._lock:
                self._open_batches -= 1
                if self._pending:
                    self._write_pending()

    def close(self) -> None:
        """Close the append handles; the cache still serves, and a later write reopens them."""
        with self._lock:
            self._close_handles()

    def _close_handles(self) -> None:
        for handle in (self._handle, self._vector_handle):
            if handle is not None:
                handle.close()
        self._handle = self._vector_handle = None

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._close_handles()
            self._open_tail = None
            self._pending.clear()
            if self.path is not None:
                remove_cache_files(self.path)

    def stats(self) -> dict:
        """Entry count, cache file path, and the bytes of both files."""
        size = 0
        if self.path is not None:
            size = sum(p.stat().st_size for p in (self.path, self._vector_path) if p.exists())
        return {
            "entries": len(self._entries),
            "path": str(self.path) if self.path is not None else None,
            "file_bytes": size,
        }

    def __len__(self) -> int:
        return len(self._entries)
