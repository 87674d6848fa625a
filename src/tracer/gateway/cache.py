"""Persistent response cache.

Two append-only files. The cache file holds JSON records, one per line,
each under a key digest. A completion is ``{"key": k, "value": "text"}``.
An embedding is an index record ``{"key": k, "at": offset, "dim": n}``
for ``n`` little-endian float64 values that start ``offset`` bytes into
the vector file, which sits beside the cache file under its name plus
``.vectors``. Raw float64 bytes round-trip every bit and load without
any decoding.

One writer: a cache with a path opens its cache file once, creating it
if missing, and holds an exclusive ``flock`` on it until ``close()``. A
second open of the path, in this process or another, raises
``CacheInUse``, and so does ``remove_cache_files`` while the cache is
open.

Write order: records are written in batches, one append per file. A
batch is everything put inside a ``batched()`` block, written when the
block exits (``run_pipeline`` wraps each claim in one), or a single put
made outside any block, written at once. The batch's vector bytes go to
the vector file in one write, and only then do its lines go to the cache
file, in put order, in one write and one flush. Offsets count on from
the vector file's size when the cache opened it.

Read order: the whole cache file is read once at open, one line at a
time, each line decoded by the C JSON scanner (a line it cannot settle
goes through ``json.loads``). Then each index record is checked against
the vector file's size: an index record is written after its bytes, so
every record read has its bytes on disk, and one that points past the
end of the vector file is ``CacheCorruption``. Later records win on
duplicate keys, so an interrupted run can simply be re-run.

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
an append to the cache file leaves a last line with no newline. The
next open repairs it: a line that does not decode is cut off, and a
whole record gets its newline.

A key is the sha256 of a short header (kind, model, and for a
completion its template and decoding) followed by the prompt or text as
raw UTF-8, written as 43 unpadded base64url characters; see
``completion_key``. A cache is used from one thread.

Vectors on disk are not held in memory: the cache keeps where each
one lies, and ``get`` reads its bytes with one positioned read into a
new read-only float64 array (see ``frozen_vector``), so a process's
memory does not grow with the vectors it reads or writes. A vector put
inside an open ``batched()`` block is held as its array until the block
writes it, and a cache without a file holds every array. ``get`` of a
vector the vector file lost, cut short since, raises ``CacheCorruption``.
"""

from __future__ import annotations

import base64
import fcntl
import hashlib
import json
import os
from contextlib import contextmanager, nullcontext, suppress
from json.encoder import encode_basestring
from json.scanner import make_scanner
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ..errors import CacheCorruption, CacheInUse


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
    array the caller still holds. Read-only, because the cache serves the
    array of a vector it has not yet written to every caller that asks.
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


def _locked(path: Path, mode: str):
    """``path`` opened in ``mode`` under an exclusive lock, or ``CacheInUse``."""
    handle = path.open(mode)
    try:
        fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        handle.close()
        raise CacheInUse(f"cache in use: {path} is open in another cache") from None
    return handle


def remove_cache_files(path: str | Path) -> None:
    """Delete a cache file and its vector file without reading either.

    Under the cache file's lock, so a cache in use is left whole.
    """
    path = Path(path)
    try:
        lock = _locked(path, "rb")
    except FileNotFoundError:
        lock = nullcontext()
    with lock:
        path.unlink(missing_ok=True)
        _vector_path(path).unlink(missing_ok=True)


class _VectorRef(NamedTuple):
    """Where a vector lies: ``dim`` float64 values from byte ``at`` of the vector file."""

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
    valid record. The value of an index record is a ``_VectorRef``.
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


class ResponseCache:
    """Deterministic response cache, optionally persisted to a file.

    With ``path=None`` the cache is purely in-memory (useful for tests
    and one-shot runs). It counts nothing: requests and hits are counted
    once, by ``Gateway.counters``. A cache with a path holds its file's
    lock until ``close()`` or the end of a ``with`` block, and is not
    used after.
    """

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self._vector_path = _vector_path(self.path) if self.path is not None else None
        self._entries: dict[str, object] = {}
        self._handle = None
        # the vector file's one descriptor, for reads and appends, and its size
        self._vector_fd: int | None = None
        self._vector_size = 0
        # (key, value) put but not yet written, and the open batched() blocks
        self._pending: list[tuple[str, object]] = []
        self._open_batches = 0
        if self.path is not None:
            self._handle = _locked(self.path, "a+b")
            try:
                self._load()
            except BaseException:
                self.close()
                raise

    def _load(self) -> None:
        refs: list[tuple[int, _VectorRef]] = []
        # the last line when it lacks its newline, as (offset, whether it
        # decoded): a torn append, or a whole record whose writer died
        # before the newline (older writers wrote them apart)
        tail: tuple[int, bool] | None = None
        offset = 0
        self._handle.seek(0)
        for line_number, line in enumerate(self._handle, start=1):
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
                tail = (start, False)
                continue
            self._entries[key] = value
            if isinstance(value, _VectorRef):
                refs.append((line_number, value))
            if not line.endswith(b"\n"):
                tail = (start, True)
        if refs:
            # a vector file that is missing reads as empty
            with suppress(FileNotFoundError):
                self._vectors(create=False)
            for line_number, ref in refs:
                if ref.at + 8 * ref.dim > self._vector_size:
                    raise CacheCorruption(
                        f"{self.path}: the vector record at line {line_number} points past "
                        f"the end of {self._vector_path} ({self._vector_size} bytes)"
                    )
        if tail is not None:
            start, whole = tail
            if whole:
                self._handle.write(b"\n")
                self._handle.flush()
            else:
                self._handle.truncate(start)

    def _vectors(self, create: bool = True) -> int:
        """The vector file's descriptor, opened at load if a record points
        into the file, else at the first vector write."""
        if self._vector_fd is None:
            flags = os.O_RDWR | os.O_APPEND | (os.O_CREAT if create else 0)
            self._vector_fd = os.open(self._vector_path, flags, 0o666)
            # bytes past the last record, left by a crash, are skipped
            self._vector_size = os.fstat(self._vector_fd).st_size
        return self._vector_fd

    def _write_pending(self) -> None:
        """Append every pending record: its vector bytes first, then its line.

        One write per file. The lines are those of
        ``json.dumps(record, ensure_ascii=False)``, formatted directly.
        Each written vector is then held as where it lies, not as its array.
        """
        pending, self._pending = self._pending, []
        vectors = [
            value.astype("<f8", copy=False).tobytes()
            for _, value in pending
            if not isinstance(value, str)
        ]
        if vectors:
            fd = self._vectors()
            raw = b"".join(vectors)
            at = self._vector_size
            try:
                unwritten = memoryview(raw)
                while unwritten:
                    unwritten = unwritten[os.write(fd, unwritten) :]
            except BaseException:
                # the bytes of a failed write are skipped, as a crash's are
                self._vector_size = os.fstat(fd).st_size
                raise
            self._vector_size += len(raw)
        lines = []
        for key, value in pending:
            quoted = encode_basestring(key)
            if isinstance(value, str):
                lines.append(f'{{"key": {quoted}, "value": {encode_basestring(value)}}}\n')
            else:
                lines.append(f'{{"key": {quoted}, "at": {at}, "dim": {value.size}}}\n')
                # unless a later put replaced it
                if self._entries.get(key) is value:
                    self._entries[key] = _VectorRef(at, value.size)
                at += 8 * value.size
        self._handle.write("".join(lines).encode("utf-8"))
        self._handle.flush()

    def get(self, key: str):
        """Cached value for key, or None.

        A vector on disk is read from its vector file into a new read-only
        array. A vector file cut short since that vector was loaded or
        written raises ``CacheCorruption`` naming it.
        """
        value = self._entries.get(key)
        if type(value) is not _VectorRef:
            return value
        size = 8 * value.dim
        data = os.pread(self._vector_fd, size, value.at) if size else b""
        if len(data) < size:
            raise CacheCorruption(
                f"{self._vector_path} ends before the vector of {key} "
                f"({size} bytes at {value.at})"
            )
        return np.frombuffer(data, dtype="<f8")

    def put(self, key: str, value) -> None:
        """Store a completion text, or an embedding vector given as any sequence.

        The value is served at once. Its record is written at once too,
        unless a ``batched()`` block is open; then it is written when the
        block exits.
        """
        if not isinstance(value, str):
            value = frozen_vector(value)
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
        and also the exit of a block nested in another.
        """
        self._open_batches += 1
        try:
            yield
        finally:
            self._open_batches -= 1
            if self._pending:
                self._write_pending()

    def close(self) -> None:
        """Close both files and release the lock; the cache is not used after."""
        if self._vector_fd is not None:
            os.close(self._vector_fd)
            self._vector_fd = None
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> ResponseCache:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

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
