"""Scripted offline backend.

A mock script is a JSON document describing canned completions and
embeddings. Completion rules are matched in order against the template
id and, optionally, a substring of the rendered prompt; the first match
wins; a request scans only its own template's rules, grouped at load.
A rule answers every prompt it matches with its one ``response``, so an
answer never depends on which prompts came before it. The script keeps
nothing per request.

The script is decoded once, at load, by ``tracer.decoding.decode``,
into the dataclasses below. A vector must be a list, and each element is
a JSON number, not a string or a bool; a template, ``contains``,
response or embedding ``text`` must be a string (a null ``contains`` or
``text`` is the same as none), and ``default_embedding`` is null or an
object with an integer ``dim``. A value that is not is a ``DecodeError``
(both ``TypeError`` and ``ValueError``), as is a missing ``template``,
``response``, ``vector`` or ``dim``. A rule with a ``responses`` key (the
ordered form this format once had) is ``ValueError`` naming the rule, and
so is a ``dim`` below 1. Each vector becomes one read-only float64 array
that every text its entry matches shares.

Script format::

    {
      "rules": [
        {"template": "relevance", "response": "A"},
        {"template": "presentation", "contains": "part-time", "response": "B"},
        {"template": "counterfactual", "response": "C"}
      ],
      "embeddings": [
        {"text": "exact text to embed", "vector": [1.0, 0.0]},
        {"contains": "snippet", "vector": [0.0, 1.0]}
      ],
      "default_embedding": {"dim": 8}
    }

An unmatched item gets a MockScriptMiss rather than invented output;
a silent fallback would let a test pass on text the script never
anticipated. The optional default_embedding block enables a
deterministic hashed fallback vector for texts the script does not
enumerate (unit norm, seeded from the text itself).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..decoding import decode
from ..errors import ConfigError, MockScriptMiss
from .cache import frozen_vector


@dataclass
class MockRule:
    template: str
    response: str
    contains: str | None = None

    def matches(self, prompt: str) -> bool:
        """Whether this rule answers the prompt; the template is matched by the caller."""
        return self.contains is None or self.contains in prompt


@dataclass
class MockEmbedding:
    vector: list[float]  # read as a list, kept as one read-only float64 array
    text: str | None = None
    contains: str | None = None

    def __post_init__(self):
        self.vector = frozen_vector(self.vector)


@dataclass
class DefaultEmbedding:
    dim: int


def _hashed_unit_vector(text: str, dim: int) -> np.ndarray:
    # Deterministic pseudo-embedding: bytes of the digest, recentred and
    # normalized. Distinct texts land on distinct directions. The raw
    # values are half-integers, so the sum of squares is exact.
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    raw = [digest[i % len(digest)] - 127.5 for i in range(dim)]
    norm = math.sqrt(sum(x * x for x in raw))
    return frozen_vector([x / norm for x in raw])


@dataclass
class MockScript:
    """Deterministic scripted backend; its fields are a script file's keys."""

    rules: list[MockRule] = field(default_factory=list, metadata={"optional": True})
    embeddings: list[MockEmbedding] = field(default_factory=list, metadata={"optional": True})
    default_embedding: DefaultEmbedding | None = None

    def __post_init__(self):
        # template id -> its rules, in script order
        self._rules_by_template: dict[str, list[MockRule]] = {}
        for rule in self.rules:
            self._rules_by_template.setdefault(rule.template, []).append(rule)

    @classmethod
    def from_dict(cls, data) -> "MockScript":
        """The script a JSON document holds, or a ``ValueError`` (see the module's doc)."""
        rules = data.get("rules") if isinstance(data, dict) else None
        for index, entry in enumerate(rules if isinstance(rules, list) else ()):
            if isinstance(entry, dict) and "responses" in entry:
                raise ValueError(
                    f"rule {index} ({entry.get('template')!r}) has a responses list, which "
                    "is not read: give each answer a rule of its own, told apart by contains"
                )
        script = decode(cls, data)
        if script.default_embedding and script.default_embedding.dim < 1:
            dim = script.default_embedding.dim
            raise ValueError(f"default_embedding's dim must be a positive integer, not {dim}")
        return script

    @classmethod
    def from_file(cls, path: str | Path) -> "MockScript":
        """The script a JSON file holds, or a ``ConfigError`` naming the file."""
        try:
            with Path(path).open("r", encoding="utf-8") as handle:
                return cls.from_dict(json.load(handle))
        except OSError as exc:
            raise ConfigError(f"cannot read mock script {path}: {exc}") from exc
        except ValueError as exc:  # bad JSON or bad values: a DecodeError is one
            raise ConfigError(f"mock script {path} is malformed: {exc}") from exc

    def complete(self, requests: list[tuple[str, str]]) -> list:
        """For each ``(template_id, prompt)``, the first matching rule's response."""
        return [self._response_for(template_id, prompt) for template_id, prompt in requests]

    def _response_for(self, template_id: str, prompt: str) -> str | MockScriptMiss:
        for rule in self._rules_by_template.get(template_id, ()):
            if rule.matches(prompt):
                return rule.response
        return MockScriptMiss(
            f"no mock rule matches template {template_id!r}; prompt starts: {prompt[:80]!r}"
        )

    def embed(self, texts: list[str]) -> list:
        """Each text's first matching entry's array, shared, or the hashed default."""
        return [self._vector_for(text) for text in texts]

    def _vector_for(self, text: str) -> np.ndarray | MockScriptMiss:
        for entry in self.embeddings:
            if entry.text == text or (entry.contains is not None and entry.contains in text):
                return entry.vector
        if self.default_embedding is None:
            return MockScriptMiss(f"no mock embedding matches text: {text[:80]!r}")
        return _hashed_unit_vector(text, self.default_embedding.dim)
