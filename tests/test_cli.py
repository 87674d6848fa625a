"""Command line: subcommands, output shapes, exit codes, manifests."""

import dataclasses
import gc
import hashlib
import json
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import tracer.cli
from tracer.cli import main
from tracer.config import ABLATION_CONFIGS
from tracer.corpus import Corpus, Split, save_corpus
from tracer.fixtures import (
    SCENARIO_CLAIM,
    SCENARIO_EXPECTED,
    SCENARIO_MOCK,
    data_path,
    generate_synthetic_corpus,
    load_scenario_record,
)
from tracer.gateway import ResponseCache

from conftest import synthetic_script

SCENARIO_CORPUS = str(data_path(SCENARIO_CLAIM))
SCENARIO_SCRIPT = str(data_path(SCENARIO_MOCK))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- ingest ----------------------------------------------------------------


def test_ingest_prints_label_summary(capsys, tmp_path):
    corpus_path = tmp_path / "corpus.jsonl"
    save_corpus(generate_synthetic_corpus(seed=3, n=12), corpus_path)
    code, out, _ = run_cli(capsys, "ingest", "--input", str(corpus_path))
    assert code == 0
    assert "True=2 HalfTrue=4 False=6" in out
    assert "records=12" in out


def test_ingest_reemission_is_canonical_fixpoint(capsys, tmp_path):
    raw = tmp_path / "raw.jsonl"
    once = tmp_path / "once.jsonl"
    twice = tmp_path / "twice.jsonl"
    save_corpus(generate_synthetic_corpus(seed=5, n=8), raw)

    code, out, _ = run_cli(capsys, "ingest", "--input", str(raw), "--output", str(once))
    assert code == 0
    assert f"wrote {once}" in out

    code, _, _ = run_cli(capsys, "ingest", "--input", str(once), "--output", str(twice))
    assert code == 0
    assert once.read_bytes() == twice.read_bytes()


def test_ingest_malformed_line_exits_one_naming_the_line(capsys, tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"id": "a", "claim": "fine", "evidence": [], "ruling": []}\n{broken\n',
        encoding="utf-8",
    )
    code, _, err = run_cli(capsys, "ingest", "--input", str(path))
    assert code == 1
    assert "line 2" in err


@pytest.mark.parametrize(
    "fields,message",
    [
        ('"claim": 5', "claim must be a string"),
        ('"claim": "c", "raw_rating": 3, "gold_label": "True"', "raw_rating must be a string"),
        ('"claim": "c", "raw_rating": ["True"]', "raw_rating must be a string"),
    ],
)
@pytest.mark.parametrize("command", ["ingest", "run"])
def test_non_string_claim_or_rating_exits_one_naming_the_line(
    capsys, tmp_path, command, fields, message
):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "claim": "fine"}\n{"id": "b", ' + fields + "}\n", encoding="utf-8")
    if command == "ingest":
        argv = ["ingest", "--input", str(path)]
    else:
        output = str(tmp_path / "r.jsonl")
        argv = ["run", "--corpus", str(path), "--mock", SCENARIO_SCRIPT, "--output", output]
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert f"error: line 2: {message}" in err


def test_ingest_missing_file_exits_one(capsys, tmp_path):
    code, _, err = run_cli(capsys, "ingest", "--input", str(tmp_path / "absent.jsonl"))
    assert code == 1
    assert "error" in err


def test_ingest_duplicate_id_exits_two(capsys, tmp_path):
    path = tmp_path / "dup.jsonl"
    row = '{"id": "a", "claim": "c", "evidence": [], "ruling": []}\n'
    path.write_text(row + row, encoding="utf-8")
    code, _, err = run_cli(capsys, "ingest", "--input", str(path))
    assert code == 2
    assert "duplicate" in err


# -- run --------------------------------------------------------------------


def _run_scenario(capsys, tmp_path, *extra):
    out_path = tmp_path / "reports.jsonl"
    code, out, err = run_cli(
        capsys,
        "run",
        "--corpus",
        SCENARIO_CORPUS,
        "--mock",
        SCENARIO_SCRIPT,
        "--output",
        str(out_path),
        *extra,
    )
    return code, out, err, out_path


def test_run_offline_revises_scenario_to_half_true(capsys, tmp_path):
    code, out, _, out_path = _run_scenario(capsys, tmp_path)
    assert code == 0
    assert "scenario-001: Half-True" in out
    assert "report digest: " in out
    assert "accuracy      1.000" in out  # gold label is Half-True
    assert out_path.exists()

    digest_line = next(l for l in out.splitlines() if l.startswith("report digest: "))
    digest = digest_line.split(": ", 1)[1]
    assert digest == hashlib.sha256(out_path.read_bytes()).hexdigest()

    manifest = json.loads((tmp_path / "reports.jsonl.manifest.json").read_text())
    assert manifest["ablation"] == "cfg4"
    assert manifest["backend_mode"] == "mock"
    assert manifest["n_claims"] == 1
    assert manifest["report_digest"] == digest


def test_run_is_deterministic_and_cached(capsys, tmp_path):
    cache = tmp_path / "cache.jsonl"

    def one_run(tag):
        out_path = tmp_path / f"reports-{tag}.jsonl"
        manifest_path = tmp_path / f"manifest-{tag}.json"
        code, out, _ = run_cli(
            capsys,
            "run",
            "--corpus",
            SCENARIO_CORPUS,
            "--mock",
            SCENARIO_SCRIPT,
            "--output",
            str(out_path),
            "--cache",
            str(cache),
            "--manifest",
            str(manifest_path),
        )
        assert code == 0
        return out_path.read_bytes(), json.loads(manifest_path.read_text())

    first_bytes, first_manifest = one_run("a")
    second_bytes, second_manifest = one_run("b")
    assert first_bytes == second_bytes
    assert first_manifest["report_digest"] == second_manifest["report_digest"]
    assert first_manifest["counters"]["backend_calls"] > 0
    assert second_manifest["counters"]["backend_calls"] == 0  # pure cache replay


# `tracer run` that dies, as a SIGKILL would, when its third claim starts
_RUN_KILLED_AT_CLAIM_3 = """
import os, sys
import tracer.cli

run_pipeline = tracer.cli.run_pipeline
started = 0

def dying_run_pipeline(*args, **kwargs):
    global started
    started += 1
    if started == 3:
        os._exit(9)
    return run_pipeline(*args, **kwargs)

tracer.cli.run_pipeline = dying_run_pipeline
sys.exit(tracer.cli.main(sys.argv[1:]))
"""


def test_run_killed_at_a_claim_keeps_exactly_the_finished_claims_records(capsys, tmp_path):
    script = tmp_path / "synthetic.json"
    script.write_text(json.dumps(synthetic_script(8)), encoding="utf-8")
    records = generate_synthetic_corpus(seed=31, n=5).records
    first_two, whole = tmp_path / "first-two.jsonl", tmp_path / "whole.jsonl"
    save_corpus(Corpus(split=Split.TEST, records=records[:2]), first_two)
    save_corpus(Corpus(split=Split.TEST, records=records), whole)

    def run_args(corpus, cache, tag):
        return [
            "run",
            "--corpus",
            str(corpus),
            "--mock",
            str(script),
            "--output",
            str(tmp_path / f"{tag}-reports.jsonl"),
            "--cache",
            str(cache),
            "--manifest",
            str(tmp_path / f"{tag}.manifest.json"),
        ]

    def run(corpus, cache, tag):
        code, _, _ = run_cli(capsys, *run_args(corpus, cache, tag))
        assert code == 0
        return json.loads((tmp_path / f"{tag}.manifest.json").read_text())["report_digest"]

    first_two_cache, whole_cache = tmp_path / "first-two-cache", tmp_path / "whole-cache"
    run(first_two, first_two_cache, "first-two")
    digest = run(whole, whole_cache, "whole")

    killed_cache = tmp_path / "killed-cache"
    result = subprocess.run(
        [sys.executable, "-c", _RUN_KILLED_AT_CLAIM_3, *run_args(whole, killed_cache, "killed")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 9, result.stderr
    for suffix in ("", ".vectors"):
        left = Path(f"{killed_cache}{suffix}").read_bytes()
        assert left == Path(f"{first_two_cache}{suffix}").read_bytes(), suffix
        assert Path(f"{whole_cache}{suffix}").read_bytes().startswith(left), suffix
    assert len(ResponseCache(killed_cache)) == len(ResponseCache(first_two_cache)) > 0
    # the rerun answers claims 1-2 from the cache and finishes the rest
    assert run(whole, killed_cache, "rerun") == digest


def _record_pipeline_calls(monkeypatch) -> list:
    """Wrap ``tracer.cli.run_pipeline``; returns the list its calls land in."""
    calls = []
    run_pipeline = tracer.cli.run_pipeline

    def recording_run_pipeline(*args, **kwargs):
        calls.append(args)
        return run_pipeline(*args, **kwargs)

    monkeypatch.setattr(tracer.cli, "run_pipeline", recording_run_pipeline)
    return calls


def _scenario_copies(tmp_path, ids) -> str:
    """A corpus of scenario claims under the given ids, in that order."""
    record = load_scenario_record()
    path = tmp_path / "copies.jsonl"
    records = [dataclasses.replace(record, id=record_id) for record_id in ids]
    save_corpus(Corpus(split=Split.TEST, records=records), path)
    return str(path)


# the benchmark times each claim by wrapping tracer.cli.run_pipeline, so
# every claim of a run must reach it there, as a positional (gateway, record)
def test_run_calls_cli_run_pipeline_once_per_record_in_corpus_order(
    capsys, monkeypatch, tmp_path
):
    ids = ["c-3", "c-1", "c-2"]
    calls = _record_pipeline_calls(monkeypatch)
    code, out, _ = run_cli(
        capsys,
        "run",
        "--corpus",
        _scenario_copies(tmp_path, ids),
        "--mock",
        SCENARIO_SCRIPT,
        "--output",
        str(tmp_path / "reports.jsonl"),
    )
    assert code == 0
    assert [record.id for _, record in calls] == ids
    assert len({id(gateway) for gateway, _ in calls}) == 1
    assert [line.split(":")[0] for line in out.splitlines()[:3]] == ids


def test_ablate_calls_cli_run_pipeline_once_per_record_per_config(
    capsys, monkeypatch, tmp_path
):
    ids = ["c-3", "c-1"]
    calls = _record_pipeline_calls(monkeypatch)
    code, _, _ = run_cli(
        capsys, "ablate", "--corpus", _scenario_copies(tmp_path, ids), "--mock", SCENARIO_SCRIPT
    )
    assert code == 0
    assert [record.id for _, record in calls] == ids * len(ABLATION_CONFIGS)
    # one fresh gateway per config, shared by that config's records
    gateways = [gateway for gateway, _ in calls]
    assert len(set(map(id, gateways))) == len(ABLATION_CONFIGS)
    assert all(a is b for a, b in zip(gateways[::2], gateways[1::2]))


_SCENARIO_COLD_COUNTERS = {
    "backend_calls": 23,
    "by_template": {
        "assumptions": 1,
        "cot_verdict": 1,
        "counterfactual": 2,
        "implicit_questions": 1,
        "implicity": 1,
        "intent_generation": 1,
        "nli": 2,
        "plausibility": 1,
        "presentation": 4,
        "readability": 1,
        "reassessment": 1,
        "relevance": 4,
        "sufficiency": 1,
    },
    "completion_cache_hits": 0,
    "completion_requests": 21,
    "embedding_cache_hits": 3,
    "embedding_requests": 10,
}
_SCENARIO_WARM_COUNTERS = {
    "backend_calls": 0,
    "by_template": {},
    "completion_cache_hits": 21,
    "completion_requests": 21,
    "embedding_cache_hits": 10,
    "embedding_requests": 10,
}


def test_run_manifest_counters_are_exact(capsys, tmp_path):
    cache = str(tmp_path / "cache.jsonl")
    for tag, expected in (("cold", _SCENARIO_COLD_COUNTERS), ("warm", _SCENARIO_WARM_COUNTERS)):
        manifest_path = tmp_path / f"manifest-{tag}.json"
        code, _, _, _ = _run_scenario(
            capsys, tmp_path, "--cache", cache, "--manifest", str(manifest_path)
        )
        assert code == 0
        assert json.loads(manifest_path.read_text())["counters"] == expected, tag


def test_run_base_only_ablation_keeps_base_label(capsys, tmp_path):
    code, out, _, _ = _run_scenario(capsys, tmp_path, "--ablation", "cfg1")
    assert code == 0
    assert "scenario-001: True" in out
    manifest = json.loads((tmp_path / "reports.jsonl.manifest.json").read_text())
    assert manifest["ablation"] == "cfg1"
    assert "reassessment" not in manifest["counters"]["by_template"]



@pytest.mark.parametrize("bad_line", ["[]", "null"])
def test_run_bad_base_verdict_record_exits_one_naming_the_line(capsys, tmp_path, bad_line):
    verdicts = tmp_path / "verdicts.jsonl"
    verdicts.write_text(
        '{"id": "scenario-001", "label": "True", "justification": "j"}\n' + bad_line + "\n",
        encoding="utf-8",
    )
    code, _, err, _ = _run_scenario(capsys, tmp_path, "--base-verdicts", str(verdicts))
    assert code == 1
    assert "error: line 2: bad external verdict record" in err


def test_run_corpus_with_a_lone_surrogate_exits_one_naming_the_line(capsys, tmp_path):
    record = json.loads(Path(SCENARIO_CORPUS).read_text(encoding="utf-8").splitlines()[0])
    record["claim"] = "CLAIM"
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps(record).replace("CLAIM", "jobs \\ud800") + "\n", encoding="utf-8")
    code, _, err = run_cli(
        capsys, "run", "--corpus", str(corpus), "--mock", SCENARIO_SCRIPT,
        "--output", str(tmp_path / "r.jsonl"),
    )
    assert code == 1
    assert "error: line 1: text is not valid Unicode" in err


@pytest.mark.filterwarnings("error::ResourceWarning")
def test_run_closes_its_cache_files(capsys, tmp_path):
    cache = tmp_path / "cache.jsonl"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        code, _, err, _ = _run_scenario(capsys, tmp_path, "--cache", str(cache))
        gc.collect()
    assert code == 0, err
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_run_without_corpus_exits_one(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "run", "--mock", SCENARIO_SCRIPT, "--output", str(tmp_path / "r.jsonl")
    )
    assert code == 1
    assert "no corpus" in err


def test_run_live_without_key_fails_fast(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("TRACER_API_KEY", raising=False)
    code, _, err = run_cli(
        capsys,
        "run",
        "--live",
        "--corpus",
        SCENARIO_CORPUS,
        "--output",
        str(tmp_path / "r.jsonl"),
    )
    assert code == 1
    assert "TRACER_API_KEY" in err


def test_run_missing_mock_script_exits_one(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        "run",
        "--corpus",
        SCENARIO_CORPUS,
        "--mock",
        str(tmp_path / "absent.json"),
        "--output",
        str(tmp_path / "r.jsonl"),
    )
    assert code == 1
    assert "mock script" in err


@pytest.mark.parametrize("backend", ["live-without-key", "malformed-mock"])
def test_run_reports_a_backend_error_before_a_cache_that_does_not_load(
    capsys, tmp_path, monkeypatch, backend
):
    cache = tmp_path / "cache.jsonl"
    cache.write_text("garbage\n", encoding="utf-8")
    if backend == "live-without-key":
        monkeypatch.delenv("TRACER_API_KEY", raising=False)
        flags, message = ["--live"], "TRACER_API_KEY"
    else:
        script = tmp_path / "bad.json"
        script.write_text('{"rules": 5}', encoding="utf-8")
        flags, message = ["--mock", str(script)], f"mock script {script} is malformed"
    code, _, err = run_cli(
        capsys,
        "run",
        *flags,
        "--corpus",
        SCENARIO_CORPUS,
        "--cache",
        str(cache),
        "--output",
        str(tmp_path / "r.jsonl"),
    )
    assert code == 1, err
    assert message in err
    assert "cache record" not in err


@pytest.mark.parametrize(
    "config_text,message",
    [
        ("backend:\n  key_env: OTHER_KEY\n", "unknown backend keys: key_env"),
        ("paths:\n  templates: prompts\n", "unknown path keys: templates"),
    ],
    ids=["backend.key_env", "paths.templates"],
)
def test_run_config_rejects_keys_that_would_be_ignored(capsys, tmp_path, config_text, message):
    config = tmp_path / "run.yaml"
    config.write_text(config_text, encoding="utf-8")
    code, _, err = run_cli(
        capsys,
        "run",
        "--config",
        str(config),
        "--corpus",
        SCENARIO_CORPUS,
        "--mock",
        SCENARIO_SCRIPT,
        "--output",
        str(tmp_path / "r.jsonl"),
    )
    assert code == 1
    assert message in err


@pytest.mark.parametrize(
    "config_text,key",
    [
        ("thresholds:\n  top_k: 2.5\n", "top_k"),
        ("thresholds:\n  max_questions: 1.5\n", "max_questions"),
        ("thresholds:\n  assumption_max_number: true\n", "assumption_max_number"),
        ("thresholds:\n  tau_low: x\n", "tau_low"),
        ("thresholds:\n  tau_high: false\n", "tau_high"),
        ("thresholds:\n  tau_che: null\n", "tau_che"),
        ("backend:\n  concurrency: '2'\n", "concurrency"),
        ("backend:\n  concurrency: true\n", "concurrency"),
        ("backend:\n  model_id: 5\n", "model_id"),
        ("backend:\n  base_url: [x]\n", "base_url"),
        ("backend:\n  embedding_model_id: 5\n", "embedding_model_id"),
        ("paths:\n  cache: 5\n", "cache_path"),
        ("reassess_true_only: 'false'\n", "reassess_true_only"),
    ],
    ids=[
        "top_k-float",
        "max_questions-float",
        "assumption_max_number-bool",
        "tau_low-string",
        "tau_high-bool",
        "tau_che-null",
        "concurrency-string",
        "concurrency-bool",
        "model_id-int",
        "base_url-list",
        "embedding_model_id-int",
        "cache-int",
        "reassess_true_only-string",
    ],
)
def test_run_config_value_of_the_wrong_type_exits_one_before_any_claim(
    capsys, tmp_path, config_text, key
):
    config = tmp_path / "run.yaml"
    config.write_text(config_text, encoding="utf-8")
    code, out, err, out_path = _run_scenario(capsys, tmp_path, "--config", str(config))
    assert code == 1, err
    assert f"error: {key} must be " in err
    assert out == "" and not out_path.exists()


def test_run_config_that_is_not_yaml_exits_one(capsys, tmp_path):
    config = tmp_path / "run.yaml"
    config.write_text("backend: [unclosed\n", encoding="utf-8")
    code, out, err = run_cli(
        capsys, "run", "--config", str(config), "--output", str(tmp_path / "r.jsonl")
    )
    assert code == 1
    assert f"config file {config} is not valid YAML" in err
    assert out == ""


@pytest.mark.parametrize("bad", ['"x"', "null", "[1.0]"], ids=["string", "null", "nested"])
def test_run_malformed_mock_vector_exits_one_before_any_claim(capsys, tmp_path, bad):
    script = json.loads(Path(SCENARIO_SCRIPT).read_text(encoding="utf-8"))
    script["embeddings"].insert(0, {"contains": "a", "vector": "__BAD__"})
    bad_script = tmp_path / "bad.json"
    bad_script.write_text(
        json.dumps(script).replace('"__BAD__"', f"[1.0, {bad}]"), encoding="utf-8"
    )
    out_path = tmp_path / "r.jsonl"
    code, out, err = run_cli(
        capsys,
        "run",
        "--corpus",
        SCENARIO_CORPUS,
        "--mock",
        str(bad_script),
        "--output",
        str(out_path),
    )
    assert code == 1
    assert f"mock script {bad_script} is malformed" in err
    assert out == ""
    assert not out_path.exists()


@pytest.mark.parametrize(
    "section, entry",
    [
        ("rules", {"template": 5, "response": "A"}),
        ("rules", {"template": "relevance", "contains": 5, "response": "A"}),
        ("rules", {"template": "relevance", "response": 5}),
        ("rules", {"template": "relevance", "responses": ["A", None]}),
        ("rules", {"template": "relevance", "responses": []}),
        ("rules", {"template": "relevance", "responses": "AB"}),
        ("embeddings", {"contains": 5, "vector": [1.0]}),
        ("embeddings", {"text": ["a"], "vector": [1.0]}),
    ],
    ids=[
        "template",
        "contains",
        "response",
        "responses-item",
        "responses-empty",
        "responses-string",
        "embedding-contains",
        "embedding-text",
    ],
)
def test_run_malformed_mock_rule_or_embedding_exits_one_before_any_claim(
    capsys, tmp_path, section, entry
):
    script = json.loads(Path(SCENARIO_SCRIPT).read_text(encoding="utf-8"))
    script[section].insert(0, entry)
    bad_script = tmp_path / "bad.json"
    bad_script.write_text(json.dumps(script), encoding="utf-8")
    out_path = tmp_path / "r.jsonl"
    code, out, err = run_cli(
        capsys,
        "run",
        "--corpus",
        SCENARIO_CORPUS,
        "--mock",
        str(bad_script),
        "--output",
        str(out_path),
    )
    assert code == 1
    assert f"mock script {bad_script} is malformed" in err
    assert out == ""
    assert not out_path.exists()


def _scenario_script_without(tmp_path, template):
    script = json.loads(Path(SCENARIO_SCRIPT).read_text(encoding="utf-8"))
    script["rules"] = [rule for rule in script["rules"] if rule["template"] != template]
    path = tmp_path / f"without-{template}.json"
    path.write_text(json.dumps(script), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "missing, stage", [("relevance", "alignment"), ("cot_verdict", "base_verdict")]
)
def test_run_and_eval_count_a_failed_claim_instead_of_scoring_it(
    capsys, tmp_path, missing, stage
):
    out_path = tmp_path / "r.jsonl"
    code, out, _ = run_cli(
        capsys,
        "run",
        "--corpus",
        SCENARIO_CORPUS,
        "--mock",
        _scenario_script_without(tmp_path, missing),
        "--output",
        str(out_path),
    )
    assert code == 0
    report = json.loads(out_path.read_text(encoding="utf-8"))
    assert report["stages"][-1]["stage"] == stage
    assert report["stages"][-1]["status"] == "failed"
    assert out.startswith(f"scenario-001: failed at {stage}\nreport digest: ")
    assert "n             0\nn_failed      1\n" in out
    assert "accuracy" not in out

    metrics_path = tmp_path / "metrics.json"
    code, out, _ = run_cli(
        capsys,
        "eval",
        "--report",
        str(out_path),
        "--gold",
        SCENARIO_CORPUS,
        "--output",
        str(metrics_path),
    )
    assert code == 0
    assert out == f"n             0\nn_failed      1\nwrote {metrics_path}\n"
    written = json.loads(metrics_path.read_text(encoding="utf-8"))
    assert (written["n"], written["n_failed"], written["accuracy"]) == (0, 1, None)


# -- eval ---------------------------------------------------------------------


def test_eval_perfect_report(capsys, tmp_path):
    code, _, _, report_path = _run_scenario(capsys, tmp_path)
    assert code == 0
    metrics_path = tmp_path / "metrics.json"
    code, out, _ = run_cli(
        capsys,
        "eval",
        "--report",
        str(report_path),
        "--gold",
        SCENARIO_CORPUS,
        "--output",
        str(metrics_path),
    )
    assert code == 0
    assert "accuracy      1.000" in out
    written = json.loads(metrics_path.read_text())
    assert written["accuracy"] == 1.0
    assert written["n"] == 1
    assert written["n_failed"] == 0
    assert written["per_class"]["Half-True"]["f1"] == 1.0


def test_eval_missing_prediction_exits_two(capsys, tmp_path):
    code, _, _, report_path = _run_scenario(capsys, tmp_path)
    assert code == 0
    gold = tmp_path / "gold.jsonl"
    save_corpus(generate_synthetic_corpus(seed=1, n=2), gold)
    code, _, err = run_cli(
        capsys, "eval", "--report", str(report_path), "--gold", str(gold)
    )
    assert code == 2
    assert "no prediction for gold claim" in err
    assert "syn-1-000" in err


def test_eval_unlabeled_gold_exits_two(capsys, tmp_path):
    code, _, _, report_path = _run_scenario(capsys, tmp_path)
    assert code == 0
    gold = tmp_path / "gold.jsonl"
    gold.write_text(
        '{"id": "scenario-001", "claim": "c", "evidence": [], "ruling": []}\n',
        encoding="utf-8",
    )
    code, _, err = run_cli(capsys, "eval", "--report", str(report_path), "--gold", str(gold))
    assert code == 2
    assert "no labeled records" in err


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda record: {**record, "final_verdict": {**record["final_verdict"], "label": "Maybe"}},
        lambda record: {**record, "stages": None},
        lambda record: None,
    ],
    ids=["unknown-label", "null-stages", "null-record"],
)
def test_eval_bad_report_record_exits_one_naming_the_line(capsys, tmp_path, corrupt):
    code, _, _, report_path = _run_scenario(capsys, tmp_path)
    assert code == 0
    record = corrupt(json.loads(report_path.read_text(encoding="utf-8")))
    report_path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "eval", "--report", str(report_path), "--gold", SCENARIO_CORPUS)
    assert code == 1
    assert "error: line 1: bad report record" in err



def test_eval_unsupported_schema_version_names_the_line(capsys, tmp_path):
    report_path = tmp_path / "reports.jsonl"
    report_path.write_text('\n{"schema_version": 2}\n', encoding="utf-8")
    code, _, err = run_cli(capsys, "eval", "--report", str(report_path), "--gold", SCENARIO_CORPUS)
    assert code == 1
    assert "error: line 2: unsupported report schema version: 2" in err


# -- ablate ----------------------------------------------------------------------


def test_ablate_reports_gating_per_config(capsys, tmp_path):
    out_path = tmp_path / "ablation.json"
    code, out, _ = run_cli(
        capsys,
        "ablate",
        "--corpus",
        SCENARIO_CORPUS,
        "--mock",
        SCENARIO_SCRIPT,
        "--output",
        str(out_path),
    )
    assert code == 0
    for name in ("cfg1", "cfg2", "cfg3", "cfg4"):
        assert f"== {name} ==" in out
    payload = json.loads(out_path.read_text())
    assert set(payload) == {"cfg1", "cfg2", "cfg3", "cfg4"}
    assert "intent_generation" not in payload["cfg1"]["call_counts"]
    assert "assumptions" not in payload["cfg2"]["call_counts"]
    assert "counterfactual" not in payload["cfg3"]["call_counts"]
    assert payload["cfg4"]["call_counts"]["counterfactual"] == 2
    assert payload["cfg4"]["metrics"]["accuracy"] == 1.0
    assert payload["cfg1"]["metrics"]["accuracy"] == 0.0


# tracer ablate's stdout, less its last line, and its --output bytes on
# the scenario corpus and script
_ABLATE_STDOUT = Path(__file__).parent / "data" / "scenario_ablate_stdout.txt"
_ABLATE_OUTPUT = Path(__file__).parent / "data" / "scenario_ablate.json"


def test_ablate_stdout_and_output_bytes_are_pinned(capsys, tmp_path):
    out_path = tmp_path / "ablation.json"
    code, out, _ = run_cli(
        capsys,
        "ablate",
        "--corpus",
        SCENARIO_CORPUS,
        "--mock",
        SCENARIO_SCRIPT,
        "--output",
        str(out_path),
    )
    assert code == 0
    assert out == _ABLATE_STDOUT.read_text(encoding="utf-8") + f"wrote {out_path}\n"
    assert out_path.read_bytes() == _ABLATE_OUTPUT.read_bytes()


def test_ablate_unknown_config_exits_one(capsys):
    code, _, err = run_cli(
        capsys,
        "ablate",
        "--corpus",
        SCENARIO_CORPUS,
        "--mock",
        SCENARIO_SCRIPT,
        "--configs",
        "cfg1,cfg9",
    )
    assert code == 1
    assert "cfg9" in err


def test_ablate_repeated_config_exits_one_naming_it(capsys, monkeypatch):
    calls = _record_pipeline_calls(monkeypatch)
    code, out, err = run_cli(
        capsys,
        "ablate",
        "--corpus",
        SCENARIO_CORPUS,
        "--mock",
        SCENARIO_SCRIPT,
        "--configs",
        "cfg1,cfg3,cfg1,cfg2,cfg3",
    )
    assert code == 1
    assert "repeated ablation configs: cfg1, cfg3" in err
    assert out == ""
    assert calls == []


# -- cache utilities ---------------------------------------------------------------


def test_cache_stats_and_clear(capsys, tmp_path):
    cache = tmp_path / "cache.jsonl"
    _run_scenario(capsys, tmp_path, "--cache", str(cache))

    code, out, _ = run_cli(capsys, "cache-stats", "--cache", str(cache))
    assert code == 0
    stats = json.loads(out)
    assert stats["entries"] > 0
    assert stats["path"] == str(cache)
    assert set(stats) == {"entries", "path", "file_bytes"}

    code, out, _ = run_cli(capsys, "cache-clear", "--cache", str(cache))
    assert code == 0
    assert f"cleared {cache}" in out
    assert not cache.exists()

    code, out, _ = run_cli(capsys, "cache-stats", "--cache", str(cache))
    assert code == 0
    assert json.loads(out)["entries"] == 0


def test_cache_stats_and_manifest_count_the_vector_file(capsys, tmp_path):
    cache = tmp_path / "cache.jsonl"
    vectors = tmp_path / "cache.jsonl.vectors"
    code, _, _, _ = _run_scenario(capsys, tmp_path, "--cache", str(cache))
    assert code == 0
    assert vectors.stat().st_size > 0

    code, out, _ = run_cli(capsys, "cache-stats", "--cache", str(cache))
    assert code == 0
    stats = json.loads(out)
    assert stats["file_bytes"] == cache.stat().st_size + vectors.stat().st_size
    manifest = json.loads((tmp_path / "reports.jsonl.manifest.json").read_text())
    assert manifest["cache"] == stats


@pytest.mark.parametrize("cache_file_too", [True, False], ids=["both", "orphan-vectors"])
def test_cache_clear_removes_the_vector_file(capsys, tmp_path, cache_file_too):
    cache = tmp_path / "cache.jsonl"
    vectors = tmp_path / "cache.jsonl.vectors"
    _run_scenario(capsys, tmp_path, "--cache", str(cache))
    if not cache_file_too:  # a crash before the first index record was written
        cache.unlink()
    code, _, _ = run_cli(capsys, "cache-clear", "--cache", str(cache))
    assert code == 0
    assert not cache.exists()
    assert not vectors.exists()


def _corrupt_middle_line(cache, vectors):
    lines = cache.read_bytes().splitlines(keepends=True)
    lines[1] = b"garbage\n"
    cache.write_bytes(b"".join(lines))


def _cut_vector_file_short(cache, vectors):
    vectors.write_bytes(vectors.read_bytes()[:-8])


@pytest.mark.parametrize("damage", [_corrupt_middle_line, _cut_vector_file_short])
def test_cache_clear_removes_a_cache_that_does_not_load(capsys, tmp_path, damage):
    cache = tmp_path / "cache.jsonl"
    vectors = tmp_path / "cache.jsonl.vectors"
    _run_scenario(capsys, tmp_path, "--cache", str(cache))
    damage(cache, vectors)
    code, _, err = run_cli(capsys, "cache-stats", "--cache", str(cache))
    assert code == 2, err  # the damage is real: the cache no longer loads

    code, _, _ = run_cli(capsys, "cache-clear", "--cache", str(cache))
    assert code == 0
    assert not cache.exists()
    assert not vectors.exists()


# The scenario's cache in the format written before the vector file:
# 64-hex-character keys, base64 and list-of-floats vector records.
_BASE64_SCENARIO_CACHE = Path(__file__).parent / "data" / "scenario_cache_base64.jsonl"


def test_run_refuses_a_cache_in_an_earlier_format_until_it_is_cleared(capsys, tmp_path):
    cache = tmp_path / "cache.jsonl"
    shutil.copyfile(_BASE64_SCENARIO_CACHE, cache)

    code, out, err, out_path = _run_scenario(capsys, tmp_path, "--cache", str(cache))
    assert code == 2
    assert "line 1" in err and "tracer cache-clear" in err
    assert out == "" and not out_path.exists()
    assert cache.read_bytes() == _BASE64_SCENARIO_CACHE.read_bytes()
    assert not (tmp_path / "cache.jsonl.vectors").exists()

    code, _, _ = run_cli(capsys, "cache-clear", "--cache", str(cache))
    assert code == 0
    assert not cache.exists()


def _vector_under_a_completion_key(records):
    text = next(r for r in records if "value" in r)
    vector = next(r for r in records if "at" in r)
    records[records.index(text)] = {**vector, "key": text["key"]}
    return "the cache holds a vector under the completion key"


def _text_under_an_embedding_key(records):
    vector = next(r for r in records if "at" in r)
    records[records.index(vector)] = {"key": vector["key"], "value": "x"}
    return "the cache holds a text under the embedding key"


@pytest.mark.parametrize("swap", [_vector_under_a_completion_key, _text_under_an_embedding_key])
def test_run_records_a_cache_hit_of_the_wrong_kind_on_the_claim(capsys, tmp_path, swap):
    cache = tmp_path / "cache.jsonl"
    _run_scenario(capsys, tmp_path, "--cache", str(cache))
    records = [json.loads(line) for line in cache.read_text(encoding="utf-8").splitlines()]
    message = swap(records)
    cache.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")

    code, out, err, out_path = _run_scenario(capsys, tmp_path, "--cache", str(cache))
    # the error is recorded where it struck, and the run goes on to its end
    assert code == 0, err
    assert "report digest: " in out
    assert message in out_path.read_text(encoding="utf-8")


# -- parser behavior ------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["ingest", "--help"],
        ["run", "--help"],
        ["eval", "--help"],
        ["ablate", "--help"],
        ["cache-stats", "--help"],
        ["cache-clear", "--help"],
    ],
)
def test_help_exits_zero(capsys, argv):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "usage:" in out


def test_no_command_exits_one(capsys):
    assert main([]) == 1
    assert "usage:" in capsys.readouterr().err


def test_unknown_flag_exits_one(capsys):
    assert main(["ingest", "--input", "x", "--bogus"]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_command_exits_one(capsys):
    assert main(["frobnicate"]) == 1


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "tracer.cli", "--help"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0
    assert "usage: tracer" in result.stdout


def test_importing_the_cli_imports_neither_requests_nor_yaml():
    # requests is most of the import time of an offline run; only the live
    # backend and the external classifiers need it, and they import it late.
    # yaml is needed only to read a config file.
    code = "import sys, tracer.cli; print('requests' in sys.modules, 'yaml' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "False"]


def test_package_exports_run_ablation_without_importing_the_cli():
    # ``python -m tracer.cli`` would warn and run a second copy of the
    # module if importing the package had already imported it
    code = "import sys, tracer; print('tracer.cli' in sys.modules, tracer.run_ablation.__module__)"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "tracer.cli"]
