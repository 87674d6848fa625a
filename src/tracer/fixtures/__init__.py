"""Shipped test assets.

A single end-to-end scenario (claim record, mock script, committed
expected report ``data/scenario_expected.jsonl``) and a seeded synthetic
corpus generator. The expected report is what ``tracer run`` writes for
the scenario's claim under its mock script; README's "Tests" section
gives the command that regenerates it.
"""

from __future__ import annotations

import datetime
import random
from importlib import resources
from pathlib import Path

from ..corpus import ClaimRecord, consolidate_label, load_corpus
from ..gateway import Gateway, MockScript, ResponseCache

_RATING_CYCLE = ("True", "Mostly True", "Half True", "Mostly False", "False", "Pants on Fire")


def data_path(name: str) -> Path:
    return Path(resources.files("tracer.fixtures").joinpath("data", name))


SCENARIO_CLAIM = "scenario_claim.jsonl"
SCENARIO_MOCK = "scenario_mock.json"


def load_scenario_record() -> ClaimRecord:
    return load_corpus(data_path(SCENARIO_CLAIM))[0]


def load_scenario_script() -> MockScript:
    """The scenario's scripted backend."""
    return MockScript.from_file(data_path(SCENARIO_MOCK))


def make_scenario_gateway() -> Gateway:
    return Gateway(backend=load_scenario_script(), cache=ResponseCache())


def generate_synthetic_corpus(seed: int, n: int) -> list[ClaimRecord]:
    """Deterministic well-formed corpus for round-trip and ingest tests."""
    rng = random.Random(seed)
    records = []
    for i in range(n):
        rating = _RATING_CYCLE[i % len(_RATING_CYCLE)]
        year = rng.choice((2018, 2019, 2020))
        month = rng.randrange(1, 13)
        day = rng.randrange(1, 29)
        n_evidence = rng.randrange(2, 5)
        records.append(
            ClaimRecord(
                id=f"syn-{seed}-{i:03d}",
                claim=f"Synthetic claim number {i} about statistic {rng.randrange(1000)}.",
                date=datetime.date(year, month, day),
                raw_rating=rating,
                gold_label=consolidate_label(rating),
                evidence=[
                    f"Synthetic evidence {i}.{j} with detail {rng.randrange(1000)}."
                    for j in range(n_evidence)
                ],
                ruling=[
                    "Our ruling",
                    f"Synthetic ruling paragraph for claim {i}.",
                ],
            )
        )
    return records


__all__ = [
    "SCENARIO_CLAIM",
    "SCENARIO_MOCK",
    "data_path",
    "generate_synthetic_corpus",
    "load_scenario_record",
    "load_scenario_script",
    "make_scenario_gateway",
]
