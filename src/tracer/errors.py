"""Exception hierarchy shared across the pipeline.

Every failure mode that callers are expected to branch on gets its own
class; generic misuse (bad arguments, violated preconditions) raises
plain ValueError.
"""

from __future__ import annotations


class TracerError(Exception):
    """Base class for all package-specific errors."""


# ---------------------------------------------------------------------------
# Corpus handling


class UnknownRating(TracerError):
    """A source rating that does not normalize to one of the six known ones."""

    def __init__(self, rating: str):
        super().__init__(f"unknown rating: {rating!r}")
        self.rating = rating


class ParseError(TracerError):
    """A corpus or report file line that cannot be decoded."""

    def __init__(self, line_number: int, reason: str):
        super().__init__(f"line {line_number}: {reason}")
        self.line_number = line_number
        self.reason = reason


class ValidationError(TracerError):
    """A decoded record that violates a corpus invariant."""

    def __init__(self, record_id: str, reason: str):
        super().__init__(f"record {record_id!r}: {reason}")
        self.record_id = record_id
        self.reason = reason


class EmptyTestDates(TracerError):
    """Temporal filtering requested against a test split with no dates."""


# ---------------------------------------------------------------------------
# Model gateway


class BackendError(TracerError):
    """Transport or status failure talking to a model backend.

    ``answered`` marks a failure the server answered, a rejected status or
    an undecodable body, which no retry could change.
    """

    def __init__(self, message: str, retries: int = 0, answered: bool = False):
        super().__init__(f"{message} (after {retries} retries)" if retries else message)
        self.retries = retries
        self.answered = answered


class MockScriptMiss(BackendError):
    """A mock-backed request that no script rule matches."""


class CacheCorruption(TracerError):
    """A cache line this version does not read, a record past the end of the
    vector file, a cached vector the vector file was cut short before, or a
    cache hit of the wrong kind."""


# ---------------------------------------------------------------------------
# Vector geometry


class DimensionMismatch(TracerError):
    """Cosine similarity over vectors of unequal length or model."""


class ZeroVector(TracerError):
    """Cosine similarity is undefined for a zero-norm vector."""


# ---------------------------------------------------------------------------
# Structured-response parsing


class UnparseableChoice(TracerError):
    """No allowed option letter could be found in a completion."""

    def __init__(self, text: str, allowed=()):
        shown = text if len(text) <= 120 else text[:117] + "..."
        super().__init__(f"no letter from {sorted(allowed)} in completion {shown!r}")
        self.text = text
        self.allowed = frozenset(allowed)


class NoItemsFound(TracerError):
    """A completion from which no bracketed items could be extracted."""

    def __init__(self, text: str):
        shown = text if len(text) <= 120 else text[:117] + "..."
        super().__init__(f"no bracketed items in completion {shown!r}")
        self.text = text


class UnparseableDigit(TracerError):
    """A quality-criterion completion that is not a bare 0 or 1."""

    def __init__(self, criterion: str, text: str):
        super().__init__(f"criterion {criterion!r}: expected 0 or 1, got {text!r}")
        self.criterion = criterion
        self.text = text


# ---------------------------------------------------------------------------
# Intent / causality / verdict stages


class UnevaluatedAssumption(TracerError):
    """Critical-assumption selection requires every causal effect to be set."""


class EmptyJustification(TracerError):
    """A base verdict arrived without the justification re-assessment needs."""


# ---------------------------------------------------------------------------
# Evaluation / CLI


class EmptyInput(TracerError):
    """Metrics requested over zero claims."""


class MissingPrediction(TracerError):
    """Strict scoring found a gold claim with no prediction."""

    def __init__(self, record_id: str):
        super().__init__(f"no prediction for gold claim {record_id!r}")
        self.record_id = record_id


class ConfigError(TracerError):
    """An invalid or incomplete run configuration."""


class CacheInUse(ConfigError):
    """A cache file another open cache holds, in this process or another."""
