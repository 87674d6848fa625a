"""Shipped assets and seeded generators."""

import pytest

from tracer.corpus import Label, load_corpus, save_corpus
from tracer.fixtures import (
    MALFORMED_RESPONSES,
    SCENARIO_CLAIM,
    SCENARIO_EXPECTED,
    SCENARIO_MOCK,
    data_path,
    generate_random_fixture,
    generate_synthetic_corpus,
    load_expected_report,
    load_malformed_responses,
    load_scenario_record,
    load_scenario_script,
    make_retrieval_fixture,
    make_scenario_gateway,
)
from tracer.fixtures.__main__ import main as fixtures_main
from tracer.gateway import Decoding


def test_all_shipped_files_exist():
    for name in (SCENARIO_CLAIM, SCENARIO_MOCK, SCENARIO_EXPECTED, MALFORMED_RESPONSES):
        assert data_path(name).is_file(), name


def test_scenario_record_shape():
    record = load_scenario_record()
    assert record.id == "scenario-001"
    assert record.gold_label is Label.HALF_TRUE
    assert len(record.evidence) == 4
    assert record.ruling


def test_scenario_script_is_fresh_per_load():
    first = load_scenario_script()
    second = load_scenario_script()
    first.complete("relevance", "anything", Decoding())
    assert first.call_log and not second.call_log


def test_scenario_gateways_are_independent():
    a = make_scenario_gateway()
    b = make_scenario_gateway()
    a.complete("relevance", claim="c", ruling="r", evidence="e")
    assert a.counters.backend_calls == 1
    assert b.counters.backend_calls == 0


def test_expected_report_matches_scenario_ids():
    report = load_expected_report()
    record = load_scenario_record()
    assert report.id == record.id
    assert report.final_verdict.label is Label.HALF_TRUE


def test_malformed_corpus_covers_every_parser():
    entries = load_malformed_responses()
    assert len(entries) >= 30
    kinds = {entry["kind"] for entry in entries}
    assert kinds == {
        "letter",
        "bracketed",
        "bracketed_sep",
        "digit",
        "questions",
        "assumptions",
        "cot",
        "reassess",
    }
    names = [entry["name"] for entry in entries]
    assert len(names) == len(set(names))
    for entry in entries:
        outcomes = [
            k
            for k in ("expect_error", "expect_value", "expect_items", "expect_count", "expect_label")
            if k in entry
        ]
        assert outcomes, f"{entry['name']} declares no expected outcome"


# -- seeded generators -------------------------------------------------------


def test_random_fixture_is_seed_deterministic():
    a = generate_random_fixture(11, n=30)
    b = generate_random_fixture(11, n=30)
    assert a.gold == b.gold
    assert a.pred == b.pred
    assert a.pool == b.pool


def test_random_fixture_seeds_differ():
    a = generate_random_fixture(1, n=30)
    b = generate_random_fixture(2, n=30)
    assert (a.gold, a.pred) != (b.gold, b.pred)


def test_random_fixture_size_zero():
    fixture = generate_random_fixture(0, n=0)
    assert fixture.gold == [] and fixture.pred == [] and fixture.pool == []


def test_synthetic_corpus_round_trips(tmp_path):
    corpus = generate_synthetic_corpus(seed=9, n=18)
    assert len(corpus.records) == 18
    assert len({r.id for r in corpus.records}) == 18
    path = tmp_path / "syn.jsonl"
    save_corpus(corpus, path)
    loaded = load_corpus(path)
    assert [r.id for r in loaded.records] == [r.id for r in corpus.records]
    assert [r.gold_label for r in loaded.records] == [r.gold_label for r in corpus.records]


def test_synthetic_corpus_is_seed_deterministic(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_corpus(generate_synthetic_corpus(seed=4, n=10), a)
    save_corpus(generate_synthetic_corpus(seed=4, n=10), b)
    assert a.read_bytes() == b.read_bytes()


def test_synthetic_corpus_cycles_all_three_labels():
    corpus = generate_synthetic_corpus(seed=2, n=6)
    assert {r.gold_label for r in corpus.records} == set(Label)


def test_retrieval_fixture_shape():
    script, query, pool = make_retrieval_fixture(seed=3, pool_size=7)
    assert len(pool) == 7
    assert script.embed([query])[0].tolist() == [1.0, 0.0]
    for vector in script.embed(pool):
        assert len(vector) == 2
        assert sum(x * x for x in vector) == pytest.approx(1.0)


# -- maintainer entry point ----------------------------------------------------


def test_fixtures_main_rejects_unknown_args(capsys):
    assert fixtures_main([]) == 1
    assert fixtures_main(["frobnicate"]) == 1
    err = capsys.readouterr().err
    assert "regenerate" in err
