"""Acceptance gate: one test per shipped guarantee.

Run with -v to get one pass/fail line per criterion. Each test is
self-contained and runs offline; the official-dataset distribution check
skips unless the operator points TRACER_OFFICIAL_DATA_DIR at the real
corpus files.
"""

import json
import math
import os
import random
import time
from pathlib import Path

import pytest

from tracer.alignment import cosine_similarity
from tracer.causality import Assumption
from tracer.cli import main as cli_main
from tracer.che import collect_che
from tracer.config import Thresholds
from tracer.corpus import (
    LABELS,
    ClaimRecord,
    Label,
    consolidate_label,
    label_counts,
    load_corpus,
    save_corpus,
)
from tracer.errors import UnknownRating
from tracer.fixtures import (
    SCENARIO_CLAIM,
    SCENARIO_MOCK,
    data_path,
    generate_synthetic_corpus,
    load_scenario_record,
    make_scenario_gateway,
)
from tracer.gateway import Embedding, Gateway, MockScript, ResponseCache
from tracer.metrics import score_labels
from tracer.verdict import load_reports, run_pipeline, save_reports

from conftest import (
    SCENARIO_EXPECTED,
    Recorder,
    generate_random_fixture,
    load_malformed_responses,
    make_retrieval_fixture,
    served,
)
from test_parser_robustness import _RUNNERS, _expected_error


# 1. Label schema ------------------------------------------------------------


def test_label_consolidation_is_exhaustive_and_strict():
    started = time.perf_counter()
    expected = {
        "True": Label.TRUE,
        "Mostly True": Label.HALF_TRUE,
        "Half True": Label.HALF_TRUE,
        "Mostly False": Label.FALSE,
        "False": Label.FALSE,
        "Pants on Fire": Label.FALSE,
    }
    for rating, label in expected.items():
        assert consolidate_label(rating) is label
        assert consolidate_label(rating.upper()) is label
        assert consolidate_label(f"  {rating.lower()}  ") is label
    for unknown in ("Almost True", "Half", "Pants", "True!", "barely false"):
        with pytest.raises(UnknownRating):
            consolidate_label(unknown)
    with pytest.raises(ValueError):
        consolidate_label("   ")
    assert time.perf_counter() - started < 1.0


# 2. Metrics oracle equivalence -----------------------------------------------


def _recount(gold, pred):
    tp = {label: 0 for label in LABELS}
    fp = {label: 0 for label in LABELS}
    fn = {label: 0 for label in LABELS}
    hits = 0
    for g, p in zip(gold, pred):
        if g == p:
            hits += 1
            tp[g] += 1
        else:
            fp[p] += 1
            fn[g] += 1
    out = {"accuracy": hits / len(gold), "per_class": {}}
    for label in LABELS:
        precision = tp[label] / (tp[label] + fp[label]) if tp[label] + fp[label] else 0.0
        recall = tp[label] / (tp[label] + fn[label]) if tp[label] + fn[label] else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        out["per_class"][label] = (precision, recall, f1)
    out["macro_f1"] = sum(v[2] for v in out["per_class"].values()) / len(LABELS)
    return out


def test_metrics_match_brute_force_recount_across_200_seeds():
    started = time.perf_counter()
    for seed in range(200):
        fixture = generate_random_fixture(seed, n=(seed % 41) + 1)
        report = score_labels(fixture.gold, fixture.pred)
        oracle = _recount(fixture.gold, fixture.pred)
        assert abs(report.accuracy - oracle["accuracy"]) < 1e-9
        assert abs(report.macro_f1 - oracle["macro_f1"]) < 1e-9
        for label in LABELS:
            got = report.per_class[label]
            want = oracle["per_class"][label]
            assert abs(got["precision"] - want[0]) < 1e-9
            assert abs(got["recall"] - want[1]) < 1e-9
            assert abs(got["f1"] - want[2]) < 1e-9
    assert time.perf_counter() - started < 5.0


# 3. End-to-end scenario --------------------------------------------------------


def test_shipped_scenario_reproduces_committed_report_byte_for_byte(tmp_path):
    started = time.perf_counter()
    report = run_pipeline(make_scenario_gateway(), load_scenario_record())

    assert report.base_verdict.label is Label.TRUE
    assert report.final_verdict.label is Label.HALF_TRUE
    assert len(report.che) == 2
    che_text = " ".join(c.sentence for c in report.che)
    assert "part-time" in che_text
    assert "participation" in che_text

    out = tmp_path / "scenario.jsonl"
    with out.open("w", encoding="utf-8") as handle:
        save_reports(handle, [report])
    assert out.read_bytes() == data_path(SCENARIO_EXPECTED).read_bytes()
    assert time.perf_counter() - started < 10.0


# 4. Label preservation when nothing critical is hidden ---------------------------


def _preservation_script(nli="B", counterfactual="C", all_presented=False):
    rules = [
        {"template": "relevance", "response": "A"},
        {"template": "presentation", "contains": "E1", "response": "A"},
        {
            "template": "presentation",
            "response": "A" if all_presented else "B",
        },
        {"template": "cot_verdict", "response": "Base reasoning.\nAnswer: A"},
        {"template": "intent_generation", "response": "Because. <I.>"},
        {"template": "plausibility", "response": "1"},
        {"template": "implicity", "response": "1"},
        {"template": "sufficiency", "response": "1"},
        {"template": "readability", "response": "1"},
        {"template": "implicit_questions", "response": "<Q1?>"},
        {"template": "assumptions", "response": "Thinking. <A1.>"},
        {"template": "counterfactual", "response": counterfactual},
        {"template": "nli", "response": nli},
        {"template": "reassessment", "response": "C"},
    ]
    embeddings = [
        {"text": "C.", "vector": [1.0, 0.0]},
        {"text": "E1 presented.", "vector": [0.9, 0.4358898943540673]},
        {"text": "E2 hidden.", "vector": [0.9, 0.4358898943540673]},
        {"text": "A1.", "vector": [0.2, 0.9797958971132712]},
    ]
    return {"rules": rules, "embeddings": embeddings}


def test_empty_che_always_preserves_base_label_without_reassessment():
    record = ClaimRecord(
        id="p-1",
        claim="C.",
        evidence=["E1 presented.", "E2 hidden."],
        ruling=["Our ruling", "R."],
    )
    fixtures = {
        "neutral nli": dict(script=_preservation_script(nli="C"), thresholds=Thresholds()),
        "no critical assumption": dict(
            script=_preservation_script(counterfactual="A"), thresholds=Thresholds()
        ),
        "similarity below threshold": dict(
            script=_preservation_script(), thresholds=Thresholds(tau_che=0.99)
        ),
        "empty hidden pool": dict(
            script=_preservation_script(all_presented=True), thresholds=Thresholds()
        ),
    }
    for name, fixture in fixtures.items():
        script = Recorder(MockScript.from_dict(fixture["script"]))
        gateway = Gateway(backend=script, cache=ResponseCache())
        report = run_pipeline(gateway, record, thresholds=fixture["thresholds"])
        assert report.che == [], name
        assert report.final_verdict.label is report.base_verdict.label, name
        assert report.final_verdict.reassessed is False, name
        assert served(script, "reassessment") == [], name


# 5. Ablation gating ----------------------------------------------------------------


def test_ablation_configs_gate_stage_calls_exactly(tmp_path, capsys):
    record = ClaimRecord(
        id="g-1",
        claim="C.",
        evidence=["E1 presented.", "E2 hidden."],
        ruling=["Our ruling", "R."],
    )
    script_dict = {
        "rules": [
            {"template": "relevance", "response": "A"},
            {"template": "presentation", "contains": "E1", "response": "A"},
            {"template": "presentation", "response": "B"},
            {"template": "cot_verdict", "response": "Base reasoning.\nAnswer: A"},
            {"template": "intent_generation", "response": "Because. <I.>"},
            {"template": "plausibility", "response": "1"},
            {"template": "implicity", "response": "1"},
            {"template": "sufficiency", "response": "1"},
            {"template": "readability", "response": "1"},
            {"template": "implicit_questions", "response": "<Q1?> <Q2?>"},
            {"template": "assumptions", "response": "Thinking. <A1. || A2.>"},
            {"template": "counterfactual", "response": "C"},
            {"template": "nli", "response": "B"},
            {"template": "reassessment", "response": "B"},
        ],
        "embeddings": [
            {"text": "C.", "vector": [1.0, 0.0]},
            {"text": "E1 presented.", "vector": [0.9, 0.4358898943540673]},
            {"text": "E2 hidden.", "vector": [0.2, 0.9797958971132712]},
            {"text": "A1.", "vector": [0.2, 0.9797958971132712]},
            {"text": "A2.", "vector": [0.3, 0.9539392014169456]},
            {"text": "I.", "vector": [0.2, 0.9797958971132712]},
        ],
    }
    corpus, script = tmp_path / "corpus.jsonl", tmp_path / "script.json"
    save_corpus([record], corpus)
    script.write_text(json.dumps(script_dict), encoding="utf-8")
    argv = ["ablate", "--corpus", str(corpus), "--mock", str(script)]
    assert cli_main([*argv, "--output", str(tmp_path / "ab.jsonl")]) == 0
    capsys.readouterr()

    def asked(name):
        manifest = json.loads((tmp_path / f"ab.{name}.jsonl.manifest.json").read_text())
        return manifest["counters"]["by_template"]

    # every prompt a config asks counts, whether the shared cache or the backend answers it
    cfg1 = asked("cfg1")
    assert set(cfg1) == {"relevance", "presentation", "cot_verdict"}

    cfg2 = asked("cfg2")
    assert "counterfactual" not in cfg2
    assert "assumptions" not in cfg2
    assert "implicit_questions" not in cfg2
    assert cfg2["intent_generation"] == 1
    assert cfg2["reassessment"] == 1

    cfg3 = asked("cfg3")
    assert "counterfactual" not in cfg3
    assert cfg3["assumptions"] == 1

    cfg4 = asked("cfg4")
    [report] = load_reports(tmp_path / "ab.cfg4.jsonl")
    n_assumptions = len(report.causal_argument.assumptions)
    assert n_assumptions == 2
    assert cfg4["counterfactual"] == n_assumptions


# 6. Parser robustness ---------------------------------------------------------------


def test_malformed_model_responses_fail_loud_or_truncate():
    entries = load_malformed_responses()
    assert len(entries) >= 20
    failures = []
    for entry in entries:
        runner = _RUNNERS[entry["kind"]]
        try:
            result = runner(entry)
        except Exception as exc:  # noqa: BLE001 - verified against the fixture
            if "expect_error" not in entry:
                failures.append(f"{entry['name']}: unexpected {type(exc).__name__}")
            elif not isinstance(exc, _expected_error(entry)):
                failures.append(
                    f"{entry['name']}: {type(exc).__name__} instead of {entry['expect_error']}"
                )
            continue
        if "expect_error" in entry:
            failures.append(f"{entry['name']}: parsed instead of raising")
            continue
        if "expect_value" in entry and result != entry["expect_value"]:
            failures.append(f"{entry['name']}: wrong value {result!r}")
        if "expect_items" in entry and result != entry["expect_items"]:
            failures.append(f"{entry['name']}: wrong items {result!r}")
        if "expect_count" in entry and len(result) != entry["expect_count"]:
            failures.append(f"{entry['name']}: wrong count {len(result)}")
        if "expect_label" in entry and result.label is not Label(entry["expect_label"]):
            failures.append(f"{entry['name']}: silently wrong label {result.label}")
        if "expect_reassessed" in entry and result.reassessed is not entry["expect_reassessed"]:
            failures.append(f"{entry['name']}: wrong reassessed flag")
    assert not failures, "\n".join(failures)


# 7. Determinism and caching -----------------------------------------------------------


def test_repeated_cli_runs_hit_cache_and_agree_on_digest(tmp_path):
    cache = tmp_path / "cache.jsonl"
    output = tmp_path / "reports.jsonl"
    manifests = []
    for tag in ("first", "second"):
        manifest = tmp_path / f"{tag}.manifest.json"
        code = cli_main(
            [
                "run",
                "--corpus",
                str(data_path(SCENARIO_CLAIM)),
                "--mock",
                str(data_path(SCENARIO_MOCK)),
                "--output",
                str(output),
                "--cache",
                str(cache),
                "--manifest",
                str(manifest),
            ]
        )
        assert code == 0
        manifests.append(json.loads(manifest.read_text()))
    first, second = manifests
    assert first["report_digest"] == second["report_digest"]
    assert first["counters"]["backend_calls"] > 0
    assert second["counters"]["backend_calls"] == 0


# 8. Similarity properties ---------------------------------------------------------------


def test_cosine_properties_and_retrieval_threshold_monotonicity():
    rng = random.Random(20240817)

    def vector(dim):
        while True:
            values = [rng.uniform(-10.0, 10.0) for _ in range(dim)]
            if math.sqrt(sum(x * x for x in values)) > 1e-6:
                return values

    for _ in range(1000):
        dim = rng.randrange(2, 17)
        u = vector(dim)
        v = vector(dim)
        eu = Embedding(vector=tuple(u), model_id="m")
        ev = Embedding(vector=tuple(v), model_id="m")
        assert abs(cosine_similarity(eu, eu) - 1.0) < 1e-9
        assert abs(cosine_similarity(eu, ev) - cosine_similarity(ev, eu)) < 1e-9
        scale = rng.uniform(0.1, 10.0)
        scaled = Embedding(vector=tuple(x * scale for x in v), model_id="m")
        assert abs(cosine_similarity(eu, scaled) - cosine_similarity(eu, ev)) < 1e-9

    for seed in range(100):
        script, query, pool = make_retrieval_fixture(seed, pool_size=6)
        gateway = Gateway(backend=script, cache=ResponseCache())
        previous = None
        for tau in (0.2, 0.5, 0.8):
            selected = {
                c.sentence
                for c in collect_che(
                    gateway, [Assumption(query)], pool, Thresholds(top_k=6, tau_che=tau)
                )
            }
            if previous is not None:
                assert selected <= previous, f"seed {seed}, tau {tau}"
            previous = selected


# 9. Corpus round-trip ----------------------------------------------------------------------


def test_corpus_ingest_emit_ingest_is_fixpoint(tmp_path, capsys):
    raw = tmp_path / "raw.jsonl"
    once = tmp_path / "once.jsonl"
    twice = tmp_path / "twice.jsonl"
    save_corpus(generate_synthetic_corpus(seed=50, n=50), raw)

    assert cli_main(["ingest", "--input", str(raw), "--output", str(once)]) == 0
    assert cli_main(["ingest", "--input", str(once), "--output", str(twice)]) == 0
    capsys.readouterr()

    assert once.read_bytes() == twice.read_bytes()
    reloaded = load_corpus(twice)
    assert len(reloaded) == 50


_OFFICIAL_DATA_ENV = "TRACER_OFFICIAL_DATA_DIR"

# per-split (True, Half-True, False) counts of the full benchmark corpus
_OFFICIAL_DISTRIBUTION = {
    "train": (1352, 4564, 6078),
    "dev": (64, 195, 741),
    "test": (93, 406, 1501),
}


@pytest.mark.skipif(
    _OFFICIAL_DATA_ENV not in os.environ,
    reason=f"set {_OFFICIAL_DATA_ENV} to the benchmark corpus directory to enable",
)
def test_official_corpus_label_distribution_when_provided():
    root = Path(os.environ[_OFFICIAL_DATA_ENV])
    for split, (n_true, n_half, n_false) in _OFFICIAL_DISTRIBUTION.items():
        counts = label_counts(load_corpus(root / f"{split}.jsonl"))
        assert counts[Label.TRUE] == n_true, split
        assert counts[Label.HALF_TRUE] == n_half, split
        assert counts[Label.FALSE] == n_false, split
