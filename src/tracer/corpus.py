"""Fact-checking corpus handling.

Loads, validates, and transforms claim corpora: consolidating source
ratings into the three-way label scheme, splitting verdict articles into
evidence and ruling segments, and enforcing a temporally disjoint
train/test separation.

Corpus files are line-delimited JSON, one record per line, with keys
``id``, ``claim``, ``date`` (ISO-8601, optional), ``raw_rating``
(optional), ``gold_label`` (optional), ``evidence`` and ``ruling``
(lists of strings, each empty when missing).
"""

from __future__ import annotations

import datetime
import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Sequence

from .decoding import decode
from .errors import EmptyTestDates, ParseError, UnknownRating, ValidationError


class Label(str, Enum):
    """Three-way veracity label. Report layout order: True < Half-True < False."""

    TRUE = "True"
    HALF_TRUE = "Half-True"
    FALSE = "False"


#: Canonical layout order for reports and score tables.
LABELS: tuple[Label, ...] = (Label.TRUE, Label.HALF_TRUE, Label.FALSE)


#: Consolidation of the six source ratings (normalized form -> label).
RATING_MAP: dict[str, Label] = {
    "true": Label.TRUE,
    "mostly true": Label.HALF_TRUE,
    "half true": Label.HALF_TRUE,
    "mostly false": Label.FALSE,
    "false": Label.FALSE,
    "pants on fire": Label.FALSE,
}

#: Paragraph prefixes that open the ruling segment of a verdict article.
DEFAULT_RULING_CUES: tuple[str, ...] = ("our ruling", "our rating")


@dataclass
class ClaimRecord:
    """One claim with its evidence sentences and ruling paragraphs."""

    id: str
    claim: str
    date: datetime.date | None = None
    raw_rating: str | None = None
    gold_label: Label | None = None
    evidence: list[str] = field(default_factory=list, metadata={"optional": True})
    ruling: list[str] = field(default_factory=list, metadata={"optional": True})


def label_counts(records: Sequence[ClaimRecord]) -> dict[Label, int]:
    """Gold-labelled records per label, in layout order."""
    counts = {label: 0 for label in LABELS}
    for record in records:
        if record.gold_label is not None:
            counts[record.gold_label] += 1
    return counts


def normalize_rating(rating: str) -> str:
    """Trim, collapse inner whitespace, and lowercase a source rating."""
    return " ".join(rating.split()).lower()


def consolidate_label(rating: str) -> Label:
    """Map one of the six source ratings onto the three-way label scheme.

    Matching is case-insensitive after trimming and collapsing whitespace.
    Raises UnknownRating for anything outside the six-rating set.
    """
    if not rating or not rating.strip():
        raise ValueError("rating must be non-empty text")
    normalized = normalize_rating(rating)
    try:
        return RATING_MAP[normalized]
    except KeyError:
        raise UnknownRating(rating) from None


def record_from_article(
    record_id: str,
    claim: str,
    paragraphs: Sequence[str],
    *,
    date: datetime.date | None = None,
    raw_rating: str | None = None,
    cues: Sequence[str] = DEFAULT_RULING_CUES,
) -> ClaimRecord:
    """Build a record from a raw verdict article, splitting off the ruling.

    The first paragraph whose normalized prefix matches a cue starts the
    ruling, and belongs to it; the paragraphs before it are the evidence.
    With no cue present, everything is evidence and the ruling is empty.
    """
    if not paragraphs:
        raise ValueError("paragraph list must be non-empty")
    cues = tuple(normalize_rating(c) for c in cues)
    start = next(
        (i for i, p in enumerate(paragraphs) if normalize_rating(p).startswith(cues)),
        len(paragraphs),
    )
    evidence, ruling = list(paragraphs[:start]), list(paragraphs[start:])
    gold = consolidate_label(raw_rating) if raw_rating else None
    return ClaimRecord(
        id=record_id,
        claim=claim,
        date=date,
        raw_rating=raw_rating,
        gold_label=gold,
        evidence=evidence,
        ruling=ruling,
    )


def temporal_filter(
    train: list[ClaimRecord], test: list[ClaimRecord]
) -> tuple[list[ClaimRecord], dict]:
    """``(kept, diagnostics)``: the train records dated outside the test range.

    The range is closed on both ends, at day precision. Undated train
    records are kept and counted in the diagnostics.
    """
    test_dates = [r.date for r in test if r.date is not None]
    if not test_dates:
        raise EmptyTestDates("no test record carries a date")
    lo, hi = min(test_dates), max(test_dates)
    kept = [r for r in train if r.date is None or not lo <= r.date <= hi]
    return kept, {
        "undated_retained": sum(r.date is None for r in train),
        "removed_by_date": len(train) - len(kept),
        "test_range": (lo.isoformat(), hi.isoformat()),
    }


def _validate_record(record: ClaimRecord) -> None:
    if not record.claim or not record.claim.strip():
        raise ValidationError(record.id, "claim text is empty")
    if record.raw_rating is not None:
        if not record.raw_rating.strip():
            raise ValidationError(record.id, "raw_rating is blank")
        expected = consolidate_label(record.raw_rating)
        if record.gold_label is not None and expected is not record.gold_label:
            raise ValidationError(
                record.id,
                f"gold_label {record.gold_label.value!r} does not match "
                f"raw_rating {record.raw_rating!r} (expected {expected.value!r})",
            )


def read_records(path: str | Path, read: Callable) -> dict:
    """``id -> read(value)`` for the JSON value of each non-blank line of a
    record file (corpus, base verdicts or reports), in file order.

    A line that is not UTF-8, is not JSON, whose ``\\u`` escapes give a
    lone surrogate (which no UTF-8 file, cache key or report can hold),
    that ``read`` refuses with a ``ValueError``, or whose record has an
    empty ``id``, is a ParseError naming the path and the line. A repeated
    id is a ValidationError naming it, the path and the line.
    """
    records = {}
    # bytes that are not UTF-8 read as lone surrogates, refused with their line
    with Path(path).open("r", encoding="utf-8", errors="surrogateescape") as handle:
        for line_number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            if not line.isascii():  # an ASCII line holds no surrogate
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise ParseError(path, line_number, "text is not UTF-8") from None
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(path, line_number, f"bad JSON: {exc.msg}") from None
            if "\\" in line and "\\u" in line:  # a fast one-character scan first
                try:
                    json.dumps(payload, ensure_ascii=False).encode("utf-8")
                except UnicodeEncodeError:
                    raise ParseError(path, line_number, "text is not valid Unicode") from None
            try:
                record = read(payload)
            except ValueError as exc:  # a DecodeError is one
                raise ParseError(path, line_number, str(exc)) from None
            if not record.id:
                raise ParseError(path, line_number, "id must be a non-empty string")
            if record.id in records:
                raise ValidationError(record.id, f"duplicate id at {path}: line {line_number}")
            records[record.id] = record
    return records


def load_corpus(path: str | Path) -> list[ClaimRecord]:
    """Load and validate a line-delimited corpus file, read by ``read_records``.

    Once every line is read, the first record that breaks a corpus
    invariant (a blank claim, an unknown or blank rating, a gold label
    its rating contradicts) is a ValidationError naming the record id.
    """
    records = list(read_records(path, lambda value: decode(ClaimRecord, value)).values())
    for record in records:
        _validate_record(record)
    return records


def save_corpus(records: Sequence[ClaimRecord], path: str | Path) -> None:
    """Write records in the canonical line-delimited form.

    A line is the record's fields in declaration order, less those that
    are None, so save -> load -> save is byte-identical.
    """
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        for record in records:
            fields = {name: value for name, value in vars(record).items() if value is not None}
            handle.write(json.dumps(fields, ensure_ascii=False, default=datetime.date.isoformat))
            handle.write("\n")
