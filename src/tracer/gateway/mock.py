"""Scripted offline backend.

A mock script is a JSON document describing canned completions and
embeddings. Completion rules are matched in order against the template
id and, optionally, a substring of the rendered prompt; the first match
wins; a request scans only its own template's rules, grouped at load.
A rule may carry a single response (returned every time) or a response
list consumed one call at a time. Every served completion, and every
text of a served ``embed`` call, is appended to ``call_log`` so tests
can assert exact call counts and ordering.

Each vector is parsed and checked once, at load (``float()`` on every
element, so a bad one is ``ValueError`` or ``TypeError`` there), into
one read-only float64 array that every text its entry matches shares.
The other fields are checked at load too: a template, a ``contains``,
a response or an embedding's ``text`` that is not a string, or an
empty ``responses`` list, is ``TypeError``.

Script format::

    {
      "rules": [
        {"template": "relevance", "response": "A"},
        {"template": "presentation", "contains": "part-time", "response": "B"},
        {"template": "counterfactual", "responses": ["C", "A"]}
      ],
      "embeddings": [
        {"text": "exact text to embed", "vector": [1.0, 0.0]},
        {"contains": "snippet", "vector": [0.0, 1.0]}
      ],
      "default_embedding": {"dim": 8}
    }

Unmatched requests raise MockScriptMiss rather than inventing output;
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
from .backends import Decoding
from .cache import frozen_vector


@dataclass
class MockRule:
    template: str
    contains: str | None
    responses: list[str]
    repeat: bool
    served: int = 0

    def matches(self, prompt: str) -> bool:
        """Whether this rule answers the prompt; the template is matched by the caller."""
        if self.contains is not None and self.contains not in prompt:
            return False
        return self.repeat or self.served < len(self.responses)

    def next_response(self) -> str:
        if self.repeat:
            response = self.responses[0]
        else:
            response = self.responses[self.served]
        self.served += 1
        return response


@dataclass
class MockCall:
    """One request actually served by the backend (cache hits bypass it)."""

    kind: str
    template: str | None
    prompt: str


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
    call_log: list[MockCall] = field(default_factory=list)
    # template id -> its rules, in script order
    _rules_by_template: dict[str, list[MockRule]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for rule in self.rules:
            _require_str(rule.template, "a rule's template")
            if rule.contains is not None:
                _require_str(rule.contains, "a rule's contains")
            if not rule.responses:
                raise TypeError(f"the {rule.template!r} rule has no response")
            for response in rule.responses:
                _require_str(response, f"a {rule.template!r} response")
        for entry in self.embeddings:
            for name in ("text", "contains"):
                if name in entry:
                    _require_str(entry[name], f"an embedding's {name}")
        self.embeddings = [
            {**entry, "vector": frozen_vector([float(x) for x in entry["vector"]])}
            for entry in self.embeddings
        ]
        self._rules_by_template = {}
        for rule in self.rules:
            self._rules_by_template.setdefault(rule.template, []).append(rule)

    @classmethod
    def from_dict(cls, data: dict) -> "MockScript":
        rules = []
        for entry in data.get("rules", []):
            if "responses" in entry:
                responses = entry["responses"]
                if not isinstance(responses, list):
                    raise TypeError(f"a rule's responses must be a list, not {responses!r}")
                repeat = False
            else:
                responses = [entry["response"]]
                repeat = True
            rules.append(
                MockRule(
                    template=entry["template"],
                    contains=entry.get("contains"),
                    responses=responses,
                    repeat=repeat,
                )
            )
        default = data.get("default_embedding") or {}
        return cls(
            rules=rules,
            embeddings=list(data.get("embeddings", [])),
            default_embedding_dim=default.get("dim"),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "MockScript":
        with Path(path).open("r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    def complete(self, template_id: str, prompt: str, decoding: Decoding) -> str:
        """The first matching rule's next response; decoding is ignored."""
        for rule in self._rules_by_template.get(template_id, ()):
            if rule.matches(prompt):
                response = rule.next_response()
                self.call_log.append(MockCall(kind="completion", template=template_id, prompt=prompt))
                return response
        raise MockScriptMiss(
            f"no mock rule matches template {template_id!r}; prompt starts: {prompt[:80]!r}"
        )

    def embed(self, texts: list[str]) -> list[np.ndarray]:
        """For each text, the first matching entry's array, shared, or the hashed default.

        A text nothing matches raises ``MockScriptMiss`` before any text
        is logged.
        """
        vectors = [self._vector_for(text) for text in texts]
        self.call_log.extend(
            MockCall(kind="embedding", template=None, prompt=text) for text in texts
        )
        return vectors

    def _vector_for(self, text: str) -> np.ndarray:
        for entry in self.embeddings:
            if ("text" in entry and entry["text"] == text) or (
                "contains" in entry and entry["contains"] in text
            ):
                return entry["vector"]
        if self.default_embedding_dim is None:
            raise MockScriptMiss(f"no mock embedding matches text: {text[:80]!r}")
        return _hashed_unit_vector(text, self.default_embedding_dim)

    def calls_for(self, template_id: str) -> list[MockCall]:
        return [c for c in self.call_log if c.template == template_id]
