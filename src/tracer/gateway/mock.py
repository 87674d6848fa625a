"""Scripted offline backend.

A mock script is a JSON document describing canned completions and
embeddings. Completion rules are matched in order against the template
id and, optionally, a substring of the rendered prompt; the first match
wins; a request scans only its own template's rules, grouped at load.
A rule answers every prompt it matches with its one ``response``, so an
answer never depends on which prompts came before it. The script keeps
nothing per request.

Each vector is parsed and checked once, at load (it must be a list, and
``float()`` runs on every element, so a bad one is ``ValueError`` or
``TypeError`` there), into one read-only float64 array that every text
its entry matches shares.
The other fields are checked at load too: a root or a
``default_embedding`` that is not an object, a template, a
``contains``, a response or an embedding's ``text`` that is not a
string is ``TypeError``, a rule with a ``responses`` key (the ordered
form this format once had) is ``ValueError`` naming the rule, and a
``dim`` that is not a positive integer is ``ValueError``.

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

from ..errors import MockScriptMiss
from .cache import frozen_vector


@dataclass
class MockRule:
    template: str
    contains: str | None
    response: str

    def matches(self, prompt: str) -> bool:
        """Whether this rule answers the prompt; the template is matched by the caller."""
        return self.contains is None or self.contains in prompt


def _require_str(value, what: str) -> None:
    if not isinstance(value, str):
        raise TypeError(f"{what} must be a string, not {value!r}")


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
    """Deterministic scripted backend for completions and embeddings."""

    rules: list[MockRule] = field(default_factory=list)
    embeddings: list[dict] = field(default_factory=list)
    default_embedding_dim: int | None = None
    # template id -> its rules, in script order
    _rules_by_template: dict[str, list[MockRule]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for rule in self.rules:
            _require_str(rule.template, "a rule's template")
            if rule.contains is not None:
                _require_str(rule.contains, "a rule's contains")
            _require_str(rule.response, f"a {rule.template!r} response")
        for entry in self.embeddings:
            for name in ("text", "contains"):
                if name in entry:
                    _require_str(entry[name], f"an embedding's {name}")
            vector = entry["vector"]
            if type(vector) is not list:
                raise TypeError(f"an embedding's vector must be a list, not {vector!r:.80}")
        dim = self.default_embedding_dim
        if dim is not None and (type(dim) is not int or dim < 1):
            raise ValueError(f"default_embedding's dim must be a positive integer, not {dim!r}")
        self.embeddings = [
            {**entry, "vector": frozen_vector([float(x) for x in entry["vector"]])}
            for entry in self.embeddings
        ]
        self._rules_by_template = {}
        for rule in self.rules:
            self._rules_by_template.setdefault(rule.template, []).append(rule)

    @classmethod
    def from_dict(cls, data: dict) -> "MockScript":
        if not isinstance(data, dict):
            raise TypeError(f"a mock script must be an object, not {data!r}")
        rules = []
        for index, entry in enumerate(data.get("rules", [])):
            if "responses" in entry:
                raise ValueError(
                    f"rule {index} ({entry.get('template')!r}) has a responses list, which "
                    "is not read: give each answer a rule of its own, told apart by contains"
                )
            rules.append(MockRule(entry["template"], entry.get("contains"), entry["response"]))
        default = data.get("default_embedding") or {}
        if not isinstance(default, dict):
            raise TypeError(f"default_embedding must be an object, not {default!r}")
        return cls(
            rules=rules,
            embeddings=list(data.get("embeddings", [])),
            default_embedding_dim=default.get("dim"),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "MockScript":
        with Path(path).open("r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

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
            if ("text" in entry and entry["text"] == text) or (
                "contains" in entry and entry["contains"] in text
            ):
                return entry["vector"]
        if self.default_embedding_dim is None:
            return MockScriptMiss(f"no mock embedding matches text: {text[:80]!r}")
        return _hashed_unit_vector(text, self.default_embedding_dim)
