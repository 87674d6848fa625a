"""Scoring: per-class PRF from (gold, predicted) counts, macro-F1, ablation harness."""

import json
import random
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tracer.cli import main
from tracer.corpus import LABELS, ClaimRecord, Label, save_corpus
from tracer.errors import EmptyInput, MissingPrediction
from tracer.metrics import format_table, prediction, score_labels, score_reports
from tracer.verdict import BaseVerdict, FinalVerdict, VerdictReport, VerdictSource, load_reports

from conftest import generate_random_fixture

T, H, F = Label.TRUE, Label.HALF_TRUE, Label.FALSE


# -- worked example ----------------------------------------------------------
# gold (T, H, H, F) vs pred (T, H, F, H): one exact hit per class except
# False, whose only instance was called Half-True.


def test_counts_pair_each_gold_label_with_its_prediction():
    # one claim in each of the (gold, predicted) cells (T, T), (T, H),
    # (H, H), (F, T), (F, F), (F, H): a class's precision reads the claims
    # predicted as it, its recall the claims whose gold it is
    report = score_labels([T, T, H, F, F, F], [T, H, H, T, F, H])
    assert report.n == 6
    assert report.accuracy == pytest.approx(3 / 6)
    assert report.per_class[T]["precision"] == pytest.approx(1 / 2)
    assert report.per_class[T]["recall"] == pytest.approx(1 / 2)
    assert report.per_class[H]["precision"] == pytest.approx(1 / 3)
    assert report.per_class[H]["recall"] == 1.0
    assert report.per_class[F]["precision"] == 1.0
    assert report.per_class[F]["recall"] == pytest.approx(1 / 3)


def test_worked_example_metrics():
    report = score_labels([T, H, H, F], [T, H, F, H])
    assert report.accuracy == pytest.approx(0.5)
    assert report.n == 4
    assert report.per_class[T] == {"precision": 1.0, "recall": 1.0, "f1": 1.0}
    assert report.per_class[H]["precision"] == pytest.approx(0.5)
    assert report.per_class[H]["recall"] == pytest.approx(0.5)
    assert report.f1_half_true == pytest.approx(0.5)
    assert report.per_class[F] == {"precision": 0.0, "recall": 0.0, "f1": 0.0}
    assert report.macro_f1 == pytest.approx((1.0 + 0.5 + 0.0) / 3)


def test_perfect_predictions():
    gold = [T, H, F, T, H, F]
    report = score_labels(gold, list(gold))
    assert report.accuracy == 1.0
    assert report.macro_f1 == 1.0
    assert report.f1_half_true == 1.0


def test_single_class_macro_averages_all_three_labels():
    report = score_labels([T, T, T], [T, T, T])
    assert report.accuracy == 1.0
    # absent labels contribute zero F1 by definition, not NaN
    assert report.macro_f1 == pytest.approx(1.0 / 3)


def test_zero_denominator_class_scores_zero():
    report = score_labels([T, T], [T, T])
    assert report.per_class[F] == {"precision": 0.0, "recall": 0.0, "f1": 0.0}
    assert report.per_class[H] == {"precision": 0.0, "recall": 0.0, "f1": 0.0}


def test_all_wrong_predictions():
    report = score_labels([T, H, F], [H, F, T])
    assert report.accuracy == 0.0
    assert report.macro_f1 == 0.0


def test_length_mismatch_rejected():
    with pytest.raises(ValueError, match="gold has 2 labels, predictions have 1"):
        score_labels([T, H], [T])


def test_empty_input_rejected():
    with pytest.raises(EmptyInput):
        score_labels([], [])


# -- brute-force oracle over seeded fixtures ----------------------------------


def _oracle(gold, pred):
    tp = {label: 0 for label in LABELS}
    fp = {label: 0 for label in LABELS}
    fn = {label: 0 for label in LABELS}
    correct = 0
    for g, p in zip(gold, pred):
        if g == p:
            correct += 1
            tp[g] += 1
        else:
            fp[p] += 1
            fn[g] += 1
    per = {}
    for label in LABELS:
        precision = tp[label] / (tp[label] + fp[label]) if tp[label] + fp[label] else 0.0
        recall = tp[label] / (tp[label] + fn[label]) if tp[label] + fn[label] else 0.0
        f1 = (
            2 * precision * recall / (precision + recall)
            if precision + recall
            else 0.0
        )
        per[label] = (precision, recall, f1)
    macro = sum(v[2] for v in per.values()) / len(LABELS)
    return correct / len(gold), per, macro


def test_matches_brute_force_oracle_across_seeds():
    for seed in range(200):
        fixture = generate_random_fixture(seed, n=(seed % 37) + 1)
        report = score_labels(fixture.gold, fixture.pred)
        accuracy, per, macro = _oracle(fixture.gold, fixture.pred)
        assert report.accuracy == pytest.approx(accuracy, abs=1e-9), f"seed {seed}"
        assert report.macro_f1 == pytest.approx(macro, abs=1e-9), f"seed {seed}"
        for label in LABELS:
            got = report.per_class[label]
            assert got["precision"] == pytest.approx(per[label][0], abs=1e-9)
            assert got["recall"] == pytest.approx(per[label][1], abs=1e-9)
            assert got["f1"] == pytest.approx(per[label][2], abs=1e-9)
        assert report.f1_half_true == pytest.approx(per[H][2], abs=1e-9)


def test_metrics_are_permutation_invariant():
    fixture = generate_random_fixture(42, n=60)
    baseline = score_labels(fixture.gold, fixture.pred).as_dict()
    pairs = list(zip(fixture.gold, fixture.pred))
    for seed in range(10):
        random.Random(seed).shuffle(pairs)
        shuffled = score_labels([g for g, _ in pairs], [p for _, p in pairs]).as_dict()
        assert shuffled == baseline


_pairs = st.lists(
    st.tuples(st.sampled_from(LABELS), st.sampled_from(LABELS)),
    min_size=1,
    max_size=60,
)


@given(pairs=_pairs)
def test_metric_bounds_property(pairs):
    gold = [g for g, _ in pairs]
    pred = [p for _, p in pairs]
    report = score_labels(gold, pred)
    assert 0.0 <= report.accuracy <= 1.0
    assert 0.0 <= report.macro_f1 <= 1.0
    for label in LABELS:
        row = report.per_class[label]
        assert 0.0 <= row["precision"] <= 1.0
        assert 0.0 <= row["recall"] <= 1.0
        # harmonic mean lies between its arguments
        assert row["f1"] <= max(row["precision"], row["recall"]) + 1e-12
        assert row["f1"] >= min(row["precision"], row["recall"]) - 1e-12


@given(pairs=_pairs)
def test_accuracy_is_micro_recall(pairs):
    gold = [g for g, _ in pairs]
    pred = [p for _, p in pairs]
    report = score_labels(gold, pred)
    recalled = sum(report.per_class[label]["recall"] * gold.count(label) for label in LABELS)
    assert report.accuracy == pytest.approx(recalled / len(gold))
    assert report.accuracy == pytest.approx(sum(g == p for g, p in pairs) / len(gold))


# -- table rendering -----------------------------------------------------------


def test_format_table_contains_every_figure():
    report = score_labels([T, H, H, F], [T, H, F, H])
    table = format_table(report)
    for label in LABELS:
        assert label.value in table
    assert "accuracy      0.500" in table
    assert "macro_f1      0.500" in table
    assert "f1_half_true  0.500" in table
    assert "n             4" in table
    assert table.endswith("n_failed      0")


# -- scoring reports against gold ------------------------------------------------


def _gold(record_id, label):
    return ClaimRecord(id=record_id, claim="c", gold_label=label)


def _report(record_id, label, failed=None):
    return VerdictReport(
        id=record_id,
        aligned_evidence=[],
        intent=None,
        causal_argument=None,
        che=[],
        base_verdict=BaseVerdict(label, "j", VerdictSource.COT),
        final_verdict=FinalVerdict(label=label, reassessed=False),
        failed=failed,
    )


def _predictions(reports):
    return {report.id: prediction(report) for report in reports}


def test_score_reports_pairs_by_id_whatever_the_report_order():
    records = [_gold("a", T), _gold("b", H), _gold("c", F)]
    reports = [_report("c", H), _report("a", T), _report("b", H)]
    assert score_reports(records, _predictions(reports)) == score_labels([T, H, F], [T, H, H])


def test_score_reports_ignores_reports_of_other_ids_and_unlabeled_records():
    records = [_gold("a", T), ClaimRecord(id="u", claim="c"), _gold("b", H)]
    reports = [_report("x", F), _report("a", T), _report("u", F), _report("b", H)]
    assert score_reports(records, _predictions(reports)) == score_labels([T, H], [T, H])


def test_score_reports_names_the_first_gold_id_without_a_report():
    records = [_gold("a", T), _gold("b", H), _gold("c", F)]
    with pytest.raises(MissingPrediction) as raised:
        score_reports(records, _predictions([_report("a", T)]))
    assert raised.value.record_id == "b"


def test_score_reports_leaves_failed_claims_out_and_counts_them():
    records = [_gold("a", F), _gold("b", H), _gold("c", F), _gold("d", T)]
    reports = [
        _report("a", F, failed="alignment"),
        _report("b", H),
        _report("c", F, failed="base_verdict"),
        _report("d", T),
    ]
    metrics = score_reports(records, _predictions(reports))
    assert metrics.n == 2
    assert metrics.n_failed == 2
    assert metrics.accuracy == 1.0
    assert metrics.as_dict()["n_failed"] == 2
    assert format_table(metrics).endswith("n             2\nn_failed      2")


def test_score_reports_when_every_gold_claim_failed_has_only_counts():
    records = [_gold("a", F), ClaimRecord(id="u", claim="c"), _gold("b", H)]
    reports = [
        _report("a", F, failed="alignment"),
        _report("u", F),
        _report("b", F, failed="base_verdict"),
    ]
    metrics = score_reports(records, _predictions(reports))
    assert metrics.n == 0
    assert metrics.n_failed == 2
    assert metrics.as_dict() == {
        "accuracy": None,
        "per_class": {},
        "macro_f1": None,
        "f1_half_true": None,
        "n": 0,
        "n_failed": 2,
    }
    assert format_table(metrics) == "n             0\nn_failed      2"


def test_score_reports_without_gold_is_none():
    records = [ClaimRecord(id="u", claim="c")]
    assert score_reports(records, _predictions([_report("u", T)])) is None
    assert score_reports([], {}) is None


# -- ablation harness ------------------------------------------------------------

_ABLATION_SCRIPT = {
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
        {"template": "implicit_questions", "response": "<Q1?>"},
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


def _records(gold=Label.HALF_TRUE):
    return [
        ClaimRecord(
            id="t-1",
            claim="C.",
            date=None,
            raw_rating="Half True",
            gold_label=gold,
            evidence=["E1 presented.", "E2 hidden."],
            ruling=["Our ruling", "R."],
        )
    ]


def _ablate(tmp_path, capsys, records, *extra) -> tuple[dict, str]:
    """``tracer ablate`` over the records: per config its (manifest, reports), and stdout."""
    corpus, script = tmp_path / "corpus.jsonl", tmp_path / "script.json"
    save_corpus(records, corpus)
    script.write_text(json.dumps(_ABLATION_SCRIPT), encoding="utf-8")
    argv = ["ablate", "--corpus", str(corpus), "--mock", str(script)]
    code = main([*argv, "--output", str(tmp_path / "ab.jsonl"), *extra])
    out = capsys.readouterr().out
    assert code == 0
    results = {}
    for path in sorted(tmp_path.glob("ab.*.jsonl")):
        manifest = json.loads(Path(f"{path}.manifest.json").read_text(encoding="utf-8"))
        results[path.name.split(".")[1]] = (manifest, load_reports(path))
    return results, out


def test_ablate_covers_all_configs_by_default(tmp_path, capsys):
    results, _ = _ablate(tmp_path, capsys, _records())
    assert list(results) == ["cfg1", "cfg2", "cfg3", "cfg4"]
    for name, (manifest, reports) in results.items():
        assert manifest["ablation"] == name
        assert [report.id for report in reports] == ["t-1"]


def test_ablate_asked_counts_reflect_gating(tmp_path, capsys):
    results, _ = _ablate(tmp_path, capsys, _records())
    cfg1, cfg2, cfg3, cfg4 = (
        results[name][0]["counters"]["by_template"] for name in ("cfg1", "cfg2", "cfg3", "cfg4")
    )

    assert "intent_generation" not in cfg1
    assert "reassessment" not in cfg1

    assert cfg2["intent_generation"] == 1
    assert "assumptions" not in cfg2
    assert "counterfactual" not in cfg2
    assert cfg2["reassessment"] == 1

    assert cfg3["assumptions"] == 1
    assert "counterfactual" not in cfg3
    assert cfg3["nli"] == 2  # both assumptions treated critical

    assert cfg4["counterfactual"] == 2  # one do-operation per assumption
    assert cfg4["reassessment"] == 1


def test_ablate_reports_score_against_gold(tmp_path, capsys):
    records = _records(gold=Label.HALF_TRUE)
    results, _ = _ablate(tmp_path, capsys, records)
    # base CoT says True; the full pipeline revises to Half-True
    assert score_reports(records, _predictions(results["cfg1"][1])).accuracy == 0.0
    assert score_reports(records, _predictions(results["cfg4"][1])).accuracy == 1.0


def test_ablate_without_gold_labels_prints_no_scores(tmp_path, capsys):
    records = _records()
    records[0] = ClaimRecord(
        id=records[0].id,
        claim=records[0].claim,
        date=None,
        raw_rating=None,
        gold_label=None,
        evidence=records[0].evidence,
        ruling=records[0].ruling,
    )
    results, out = _ablate(tmp_path, capsys, records)
    assert all(
        score_reports(records, _predictions(reports)) is None for _, reports in results.values()
    )
    assert all(len(reports) == 1 for _, reports in results.values())
    assert "accuracy" not in out and "n_failed" not in out


def test_ablate_subset_of_configs(tmp_path, capsys):
    results, out = _ablate(tmp_path, capsys, _records(), "--configs", "cfg1,cfg4")
    assert list(results) == ["cfg1", "cfg4"]
    assert [line for line in out.splitlines() if line.startswith("==")] == [
        "== cfg1 ==",
        "== cfg4 ==",
    ]
