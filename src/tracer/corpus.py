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
from typing import Iterator, Sequence

from .decoding import DecodeError, decode
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


def _record_to_dict(record: ClaimRecord) -> dict:
    out: dict = {"id": record.id, "claim": record.claim}
    if record.date is not None:
        out["date"] = record.date.isoformat()
    if record.raw_rating is not None:
        out["raw_rating"] = record.raw_rating
    if record.gold_label is not None:
        out["gold_label"] = record.gold_label.value
    out["evidence"] = list(record.evidence)
    out["ruling"] = list(record.ruling)
    return out


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


def read_json_lines(path: str | Path) -> Iterator[tuple[int, object]]:
    """``(line number, decoded value)`` for each non-blank line of a JSON-lines file.

    A line that is not UTF-8, is not JSON, or whose ``\\u`` escapes give
    a lone surrogate (which no UTF-8 file, cache key or report can hold),
    is a ParseError naming the line.
    """
    # bytes that are not UTF-8 read as lone surrogates, refused with their line
    with Path(path).open("r", encoding="utf-8", errors="surrogateescape") as handle:
        for line_number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise ParseError(line_number, "text is not UTF-8") from None
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(line_number, f"bad JSON: {exc.msg}") from None
            if "\\" in line and "\\u" in line:  # a fast one-character scan first
                try:
                    json.dumps(payload, ensure_ascii=False).encode("utf-8")
                except UnicodeEncodeError:
                    raise ParseError(line_number, "text is not valid Unicode") from None
            yield line_number, payload


def load_corpus(path: str | Path) -> list[ClaimRecord]:
    """Load and validate a line-delimited corpus file.

    Raises ParseError (with the offending line number) for a line that
    does not decode as a ``ClaimRecord`` or has an empty id, and
    ValidationError (naming the record id) for duplicate ids or
    inconsistent labels.
    """
    records: list[ClaimRecord] = []
    seen_ids: set[str] = set()
    for line_number, payload in read_json_lines(path):
        try:
            record = decode(ClaimRecord, payload)
        except DecodeError as exc:
            raise ParseError(line_number, str(exc)) from None
        if not record.id:
            raise ParseError(line_number, "id must be a non-empty string")
        if record.id in seen_ids:
            raise ValidationError(record.id, "duplicate record id")
        seen_ids.add(record.id)
        _validate_record(record)
        records.append(record)
    return records


def save_corpus(records: Sequence[ClaimRecord], path: str | Path) -> None:
    """Write records in the canonical line-delimited form.

    Key order is fixed, so save -> load -> save is byte-identical.
    """
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(_record_to_dict(record), ensure_ascii=False))
            handle.write("\n")
