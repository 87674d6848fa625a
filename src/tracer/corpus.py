"""Fact-checking corpus handling.

Loads, validates, and transforms claim corpora: consolidating source
ratings into the three-way label scheme, splitting verdict articles into
evidence and ruling segments, and enforcing a temporally disjoint
train/test separation.

Corpus files are line-delimited JSON, one record per line, with keys
``id``, ``claim``, ``date`` (ISO-8601, optional), ``raw_rating``
(optional), ``gold_label`` (optional), ``evidence``, ``ruling``.
"""

from __future__ import annotations

import datetime
import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Sequence

from .errors import EmptyTestDates, ParseError, UnknownRating, ValidationError


class Label(str, Enum):
    """Three-way veracity label. Report layout order: True < Half-True < False."""

    TRUE = "True"
    HALF_TRUE = "Half-True"
    FALSE = "False"


#: Canonical layout order for reports and confusion matrices.
LABELS: tuple[Label, ...] = (Label.TRUE, Label.HALF_TRUE, Label.FALSE)


class Split(str, Enum):
    TRAIN = "train"
    DEV = "dev"
    TEST = "test"


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

#: Flag set on records whose article had no recognizable ruling cue.
MISSING_CUE_FLAG = "missing_ruling_cue"


@dataclass
class ClaimRecord:
    """One claim with its evidence sentences and ruling paragraphs.

    ``flags`` carries in-memory diagnostics (e.g. a missing ruling cue)
    and is not part of the file format.
    """

    id: str
    claim: str
    date: datetime.date | None = None
    raw_rating: str | None = None
    gold_label: Label | None = None
    evidence: list[str] = field(default_factory=list)
    ruling: list[str] = field(default_factory=list)
    flags: list[str] = field(default_factory=list)


@dataclass
class Corpus:
    """A validated list of records for one split.

    ``diagnostics`` accumulates load/transform counters (per-label counts,
    undated records retained by the temporal filter, ...). In-memory only.
    """

    split: Split
    records: list[ClaimRecord] = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    def label_counts(self) -> dict[Label, int]:
        counts = {label: 0 for label in LABELS}
        for record in self.records:
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


def split_article(
    paragraphs: Sequence[str],
    cues: Sequence[str] = DEFAULT_RULING_CUES,
) -> tuple[list[str], list[str]]:
    """Split article paragraphs into (evidence, ruling) segments.

    The first paragraph whose normalized prefix matches a cue starts the
    ruling segment; the cue paragraph itself belongs to the ruling. With
    no cue present, everything is evidence and the ruling is empty
    (callers flag the record with MISSING_CUE_FLAG).
    """
    if not paragraphs:
        raise ValueError("paragraph list must be non-empty")
    normalized_cues = tuple(normalize_rating(c) for c in cues)
    for i, paragraph in enumerate(paragraphs):
        head = normalize_rating(paragraph)
        if head.startswith(normalized_cues):
            return list(paragraphs[:i]), list(paragraphs[i:])
    return list(paragraphs), []


def record_from_article(
    record_id: str,
    claim: str,
    paragraphs: Sequence[str],
    *,
    date: datetime.date | None = None,
    raw_rating: str | None = None,
    cues: Sequence[str] = DEFAULT_RULING_CUES,
) -> ClaimRecord:
    """Build a record from a raw verdict article, splitting off the ruling."""
    evidence, ruling = split_article(paragraphs, cues)
    flags = [] if ruling else [MISSING_CUE_FLAG]
    gold = consolidate_label(raw_rating) if raw_rating else None
    return ClaimRecord(
        id=record_id,
        claim=claim,
        date=date,
        raw_rating=raw_rating,
        gold_label=gold,
        evidence=evidence,
        ruling=ruling,
        flags=flags,
    )


def temporal_filter(train: Corpus, test: Corpus) -> Corpus:
    """Drop train records dated within the test split's date range.

    The range is closed on both ends, at day precision. Undated train
    records are retained and counted in the diagnostics.
    """
    test_dates = [r.date for r in test.records if r.date is not None]
    if not test_dates:
        raise EmptyTestDates("no test record carries a date")
    lo, hi = min(test_dates), max(test_dates)

    kept: list[ClaimRecord] = []
    undated = 0
    for record in train.records:
        if record.date is None:
            undated += 1
            kept.append(record)
        elif not (lo <= record.date <= hi):
            kept.append(record)
    return Corpus(
        split=train.split,
        records=kept,
        diagnostics={
            "undated_retained": undated,
            "removed_by_date": len(train.records) - len(kept),
            "test_range": (lo.isoformat(), hi.isoformat()),
        },
    )


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


def _record_from_dict(payload: dict, line_number: int) -> ClaimRecord:
    if not isinstance(payload, dict):
        raise ParseError(line_number, "record is not a JSON object")
    for key in ("id", "claim"):
        if key not in payload:
            raise ParseError(line_number, f"missing required key {key!r}")
    record_id = payload["id"]
    if not isinstance(record_id, str) or not record_id:
        raise ParseError(line_number, "id must be a non-empty string")
    if not isinstance(payload["claim"], str):
        raise ParseError(line_number, "claim must be a string")
    if payload.get("raw_rating") is not None and not isinstance(payload["raw_rating"], str):
        raise ParseError(line_number, "raw_rating must be a string")

    date = None
    if payload.get("date") is not None:
        try:
            date = datetime.date.fromisoformat(payload["date"])
        except (TypeError, ValueError):
            raise ParseError(line_number, f"bad date {payload.get('date')!r}") from None

    gold = None
    if payload.get("gold_label") is not None:
        try:
            gold = Label(payload["gold_label"])
        except ValueError:
            raise ParseError(
                line_number, f"unknown gold_label {payload.get('gold_label')!r}"
            ) from None

    evidence = payload.get("evidence", [])
    ruling = payload.get("ruling", [])
    for name, value in (("evidence", evidence), ("ruling", ruling)):
        if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
            raise ParseError(line_number, f"{name} must be a list of strings")

    return ClaimRecord(
        id=record_id,
        claim=payload["claim"],
        date=date,
        raw_rating=payload.get("raw_rating"),
        gold_label=gold,
        evidence=list(evidence),
        ruling=list(ruling),
    )


def _validate_record(record: ClaimRecord) -> None:
    if not record.claim or not record.claim.strip():
        raise ValidationError(record.id, "claim text is empty")
    if record.raw_rating is not None and record.gold_label is not None:
        expected = consolidate_label(record.raw_rating)
        if expected is not record.gold_label:
            raise ValidationError(
                record.id,
                f"gold_label {record.gold_label.value!r} does not match "
                f"raw_rating {record.raw_rating!r} (expected {expected.value!r})",
            )


def load_corpus(path: str | Path, split: Split | str = Split.TEST) -> Corpus:
    """Load and validate a line-delimited corpus file.

    Raises ParseError (with the offending line number) for undecodable
    lines, a lone surrogate among them, and ValidationError (naming the
    record id) for duplicate ids or inconsistent labels. Per-label
    counts land in corpus.diagnostics.
    """
    split = Split(split)
    path = Path(path)
    records: list[ClaimRecord] = []
    seen_ids: set[str] = set()
    with path.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(line_number, f"bad JSON: {exc.msg}") from None
            # a \u escape can decode to a lone surrogate, which no UTF-8 file,
            # cache key or report can hold
            if "\\u" in line:
                try:
                    json.dumps(payload, ensure_ascii=False).encode("utf-8")
                except UnicodeEncodeError:
                    raise ParseError(line_number, "text is not valid Unicode") from None
            record = _record_from_dict(payload, line_number)
            if record.id in seen_ids:
                raise ValidationError(record.id, "duplicate record id")
            seen_ids.add(record.id)
            _validate_record(record)
            records.append(record)
    corpus = Corpus(split=split, records=records)
    corpus.diagnostics["label_counts"] = {
        label.value: n for label, n in corpus.label_counts().items()
    }
    corpus.diagnostics["n_records"] = len(records)
    return corpus


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write a corpus in the canonical line-delimited form.

    Key order is fixed, so save -> load -> save is byte-identical.
    """
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        for record in corpus.records:
            handle.write(json.dumps(_record_to_dict(record), ensure_ascii=False))
            handle.write("\n")
