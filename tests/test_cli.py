"""Command line: subcommands, output shapes, exit codes, manifests."""

import hashlib
import json
import subprocess
import sys

import pytest

from tracer.cli import main
from tracer.corpus import save_corpus
from tracer.fixtures import (
    SCENARIO_CLAIM,
    SCENARIO_MOCK,
    data_path,
    generate_synthetic_corpus,
)

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


_SCENARIO_COLD_COUNTERS = {
    "backend_calls": 28,
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
    "embedding_cache_hits": 9,
    "embedding_requests": 16,
}
_SCENARIO_WARM_COUNTERS = {
    "backend_calls": 0,
    "by_template": {},
    "completion_cache_hits": 21,
    "completion_requests": 21,
    "embedding_cache_hits": 16,
    "embedding_requests": 16,
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

    entries = stats["entries"]
    code, out, _ = run_cli(capsys, "cache-clear", "--cache", str(cache))
    assert code == 0
    assert f"cleared {entries} entries" in out
    assert not cache.exists()

    code, out, _ = run_cli(capsys, "cache-stats", "--cache", str(cache))
    assert code == 0
    assert json.loads(out)["entries"] == 0


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


def test_importing_the_cli_does_not_import_requests():
    # requests is most of the import time of an offline run; only the live
    # backend and the external classifiers need it, and they import it late
    result = subprocess.run(
        [sys.executable, "-c", "import sys, tracer.cli; print('requests' in sys.modules)"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
