"""Shared test helpers: quick scripted gateways."""

from __future__ import annotations

import json

import pytest

from tracer.fixtures import SCENARIO_MOCK, data_path
from tracer.gateway import Gateway, MockScript, ResponseCache


def make_gateway(
    rules=None, embeddings=None, default_dim=None, cache_path=None
) -> tuple[Gateway, MockScript]:
    """Gateway over an inline mock script; returns the script for call_log asserts."""
    script = MockScript.from_dict(
        {
            "rules": rules or [],
            "embeddings": embeddings or [],
            **({"default_embedding": {"dim": default_dim}} if default_dim else {}),
        }
    )
    return Gateway(backend=script, cache=ResponseCache(cache_path)), script


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


@pytest.fixture
def scenario_gateway():
    from tracer.fixtures import make_scenario_gateway

    return make_scenario_gateway()
