"""Shared test helpers: quick scripted gateways and seeded builders."""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import pytest

from tracer.corpus import LABELS, Label
from tracer.errors import TracerError
from tracer.fixtures import SCENARIO_EXPECTED, SCENARIO_MOCK, data_path
from tracer.gateway import Gateway, MockScript, ResponseCache
from tracer.verdict import VerdictReport, load_reports

#: Malformed model responses, one entry per case, for the parser robustness suite.
MALFORMED_RESPONSES = Path(__file__).parent / "data" / "malformed_responses.json"


class Call(NamedTuple):
    """One item a backend answered: a completion's template and prompt, or a text."""

    kind: str  # "completion" or "embedding"
    template: str | None
    prompt: str


class Recorder:
    """A backend that logs each item the backend it wraps answers, in order.

    An item answered with a ``TracerError`` is not logged, nor is any item
    of a call that raises. Every other attribute, ``model_id`` and
    ``embedding_model_id`` among them, is the wrapped backend's.
    """

    def __init__(self, backend):
        self.backend = backend
        self.call_log: list[Call] = []

    def __getattr__(self, name):
        return getattr(self.backend, name)

    def complete(self, requests):
        answers = self.backend.complete(requests)
        self._log("completion", requests, answers)
        return answers

    def embed(self, texts):
        answers = self.backend.embed(texts)
        self._log("embedding", [(None, text) for text in texts], answers)
        return answers

    def _log(self, kind, items, answers):
        self.call_log += [
            Call(kind, template, prompt)
            for (template, prompt), answer in zip(items, answers)
            if not isinstance(answer, TracerError)
        ]


def load_expected_report() -> VerdictReport:
    """The scenario's committed report, as ``python -m tracer.fixtures regenerate`` wrote it."""
    return load_reports(data_path(SCENARIO_EXPECTED))[0]


def load_malformed_responses() -> list[dict]:
    return json.loads(MALFORMED_RESPONSES.read_text(encoding="utf-8"))


def make_gateway(
    rules=None, embeddings=None, default_dim=None, cache_path=None
) -> tuple[Gateway, Recorder]:
    """Gateway over an inline mock script; returns its recorder for call_log asserts."""
    script = MockScript.from_dict(
        {
            "rules": rules or [],
            "embeddings": embeddings or [],
            **({"default_embedding": {"dim": default_dim}} if default_dim else {}),
        }
    )
    recorder = Recorder(script)
    return Gateway(backend=recorder, cache=ResponseCache(cache_path)), recorder


def served(recorder: Recorder, template_id: str) -> list:
    """The recorder's ``call_log`` entries for one template, in order."""
    return [call for call in recorder.call_log if call.template == template_id]


def synthetic_script(dim: int) -> dict:
    """The scenario's mock rules, able to answer any ``generate_synthetic_corpus`` claim.

    Every text embeds to its hashed ``dim``-wide default vector, and an NLI
    check the scenario does not name answers A.
    """
    script = json.loads(data_path(SCENARIO_MOCK).read_text(encoding="utf-8"))
    script["embeddings"] = []
    script["default_embedding"] = {"dim": dim}
    script["rules"].append({"template": "nli", "response": "A"})
    return script


@dataclass
class RandomFixture:
    gold: list[Label]
    pred: list[Label]
    pool: list[str]


def generate_random_fixture(seed: int, n: int) -> RandomFixture:
    """Seeded gold/prediction label lists plus a synthetic sentence pool."""
    rng = random.Random(seed)
    return RandomFixture(
        gold=[rng.choice(LABELS) for _ in range(n)],
        pred=[rng.choice(LABELS) for _ in range(n)],
        pool=[f"synthetic evidence sentence {seed}-{i}" for i in range(n)],
    )


def make_retrieval_fixture(seed: int, pool_size: int) -> tuple[MockScript, str, list[str]]:
    """Scripted backend for retrieval property tests.

    The probe query embeds to the unit x-axis; pool sentences embed to
    random unit vectors in the upper half-plane, so similarities spread
    across (-1, 1). Each sentence gets a random entailment verdict.
    Everything is deterministic per seed.
    """
    rng = random.Random(seed)
    query = f"probe assumption {seed}"
    pool = [f"pool sentence {seed}-{i}" for i in range(pool_size)]
    embeddings = [{"text": query, "vector": [1.0, 0.0]}]
    rules = []
    for sentence in pool:
        angle = rng.uniform(0.0, math.pi)
        embeddings.append(
            {"text": sentence, "vector": [math.cos(angle), math.sin(angle)]}
        )
        rules.append(
            {"template": "nli", "contains": sentence, "response": rng.choice("ABC")}
        )
    script = MockScript.from_dict({"rules": rules, "embeddings": embeddings})
    return script, query, pool


@pytest.fixture
def scenario_gateway():
    from tracer.fixtures import make_scenario_gateway

    return make_scenario_gateway()
