"""Strict parsers for structured model responses.

Model outputs drift; these parsers are lenient about harmless decoration
(casing, trailing punctuation, surrounding rationale) and strict about
everything else. A response that cannot be parsed raises, it is never
silently coerced.
"""

from __future__ import annotations

import re
from typing import Collection

from ..errors import NoItemsFound, UnparseableChoice, UnparseableDigit

# A single letter not glued to other letters/digits, e.g. "B", "a.", "(C)".
_LETTER_TOKEN = re.compile(r"(?<![A-Za-z0-9])([A-Za-z])(?![A-Za-z0-9])")

# an item in angle brackets, which holds no bracket itself
BRACKETED = re.compile(r"<([^<>]*)>")

_DIGIT_TOKEN = re.compile(r"(?<![0-9.])([0-9])(?![0-9.])")


def parse_letter_choice(text: str, allowed: Collection[str]) -> str:
    """The first standalone letter in ``text`` that ``allowed`` holds, uppercased.

    ``allowed`` holds uppercase letters: a set, or a map keyed by them.
    Accepts "B", "b", "B.", "B. Yes", "Answer: B", "(b)". Raises
    UnparseableChoice when no standalone allowed letter occurs.
    """
    if not allowed:
        raise ValueError("allowed letter set must be non-empty")
    for match in _LETTER_TOKEN.finditer(text):
        letter = match.group(1).upper()
        if letter in allowed:
            return letter
    raise UnparseableChoice(text, allowed)


def parse_bracketed(text: str, separator: str | None = None) -> list[str]:
    """Extract the items a completion enclosed in angle brackets, in order.

    With a separator, the span from the first "<" to the last ">" is
    split on it first, which recovers items the model forgot to bracket
    individually (e.g. "<a>||b||<c>"). Surrounding rationale text is
    ignored either way. Items never contain bracket characters.
    """
    items: list[str]
    if separator is not None:
        start = text.find("<")
        end = text.rfind(">")
        if start == -1 or end <= start:
            raise NoItemsFound(text)
        region = text[start : end + 1]
        items = [part.strip().strip("<>").strip() for part in region.split(separator)]
    else:
        items = [match.group(1).strip() for match in BRACKETED.finditer(text)]
    items = [item for item in items if item]
    if not items:
        raise NoItemsFound(text)
    return items


def parse_binary_digit(text: str, criterion: str = "score") -> int:
    """Parse a completion that must be a bare 0 or 1.

    A single unambiguous digit token is accepted even with light
    decoration ("1.", "Score: 0"); anything else raises UnparseableDigit.
    """
    bare = re.fullmatch(r"([01])\.?", text.strip())
    if bare:
        return int(bare.group(1))
    digits = _DIGIT_TOKEN.findall(text)
    if len(digits) != 1 or digits[0] not in ("0", "1"):
        raise UnparseableDigit(criterion, text)
    return int(digits[0])
