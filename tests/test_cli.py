"""Command line: subcommands, output shapes, exit codes, manifests."""

import dataclasses
import gc
import hashlib
import http.server
import json
import os
import shutil
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import pytest

import tracer.cli
from tracer.cli import main
from tracer.config import ABLATION_CONFIGS, RUN_OPTIONS
from tracer.corpus import save_corpus
from tracer.fixtures import (
    SCENARIO_CLAIM,
    SCENARIO_MOCK,
    data_path,
    generate_synthetic_corpus,
    load_scenario_record,
)
from tracer.gateway import ResponseCache

from conftest import SCENARIO_EXPECTED, synthetic_script

SCENARIO_CORPUS = str(data_path(SCENARIO_CLAIM))
SCENARIO_SCRIPT = str(data_path(SCENARIO_MOCK))
# the scenario's report as version 1 of the format wrote it
_V1_REPORT = Path(__file__).parent / "data" / "scenario_report_v1.jsonl"


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
        ('"claim": 5', "claim: expected str, got 5"),
        ('"claim": "c", "raw_rating": 3, "gold_label": "True"', "raw_rating: expected str, got 3"),
        ('"claim": "c", "raw_rating": ["True"]', "raw_rating: expected str, got ['True']"),
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
    assert f"error: {path}: line 2: {message}" in err


def test_ingest_a_line_that_is_not_utf8_exits_one_naming_the_line(capsys, tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b'{"id": "a", "claim": "fine"}\n{"id": "b", "claim": "caf\xff"}\n')
    code, out, err = run_cli(capsys, "ingest", "--input", str(path))
    assert code == 1
    assert err == f"error: {path}: line 2: text is not UTF-8\n"
    assert out == ""


@pytest.mark.parametrize("rating", ["", "  "])
def test_ingest_a_blank_rating_beside_a_gold_label_exits_two_naming_the_record(
    capsys, tmp_path, rating
):
    path = tmp_path / "blank.jsonl"
    row = {"id": "b", "claim": "c", "raw_rating": rating, "gold_label": "True"}
    path.write_text('{"id": "a", "claim": "fine"}\n' + json.dumps(row) + "\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "ingest", "--input", str(path))
    assert code == 2
    assert err == "error: record 'b': raw_rating is blank\n"


@pytest.mark.parametrize(
    "rating, message",
    [("", "record 'b': raw_rating is blank"), ("  ", "record 'b': raw_rating is blank"),
     ("Bogus", "unknown rating: 'Bogus'")],
)
def test_ingest_a_bad_rating_without_a_gold_label_exits_two(capsys, tmp_path, rating, message):
    path = tmp_path / "bad.jsonl"
    row = {"id": "b", "claim": "c", "raw_rating": rating}
    path.write_text('{"id": "a", "claim": "fine"}\n' + json.dumps(row) + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "ingest", "--input", str(path))
    assert code == 2
    assert err == f"error: {message}\n"
    assert out == ""


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


def test_ingest_has_no_split_flag(capsys, tmp_path):
    # a corpus file carries no split, and ingest wrote the same bytes for every one
    corpus_path = tmp_path / "corpus.jsonl"
    save_corpus(generate_synthetic_corpus(seed=3, n=2), corpus_path)
    code, _, err = run_cli(capsys, "ingest", "--input", str(corpus_path), "--split", "train")
    assert code == 1
    assert "unrecognized arguments: --split train" in err


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
    records = generate_synthetic_corpus(seed=31, n=5)
    first_two, whole = tmp_path / "first-two.jsonl", tmp_path / "whole.jsonl"
    save_corpus(records[:2], first_two)
    save_corpus(records, whole)

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
    with ResponseCache(killed_cache) as killed, ResponseCache(first_two_cache) as first:
        assert len(killed) == len(first) > 0
    # the report holds the finished claims' lines, and no manifest says the run ended
    kept = (tmp_path / "killed-reports.jsonl").read_bytes()
    assert kept == (tmp_path / "first-two-reports.jsonl").read_bytes()
    assert (tmp_path / "whole-reports.jsonl").read_bytes().startswith(kept)
    assert not (tmp_path / "killed.manifest.json").exists()
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
    save_corpus(records, path)
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
        capsys,
        "ablate",
        "--corpus",
        _scenario_copies(tmp_path, ids),
        "--mock",
        SCENARIO_SCRIPT,
        "--output",
        str(tmp_path / "ab.jsonl"),
    )
    assert code == 0
    assert [record.id for _, record in calls] == ids * len(ABLATION_CONFIGS)
    # one gateway, and so one cache, for every config
    assert len({id(gateway) for gateway, _ in calls}) == 1


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
    # alignment embeds the claim and its 4 sentences; CHE reuses the 3
    # hidden ones and embeds only its 2 critical assumptions
    "embedding_cache_hits": 0,
    "embedding_requests": 7,
}
# by_template counts the prompts asked, so a warm run's equals the cold run's
_SCENARIO_WARM_COUNTERS = {
    "backend_calls": 0,
    "by_template": _SCENARIO_COLD_COUNTERS["by_template"],
    "completion_cache_hits": 21,
    "completion_requests": 21,
    "embedding_cache_hits": 7,
    "embedding_requests": 7,
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



@pytest.mark.parametrize(
    "bad_line,reason",
    [
        pytest.param("[]", "expected an object, got []", id="[]"),
        pytest.param("null", "expected an object, got None", id="null"),
        pytest.param(
            '{"id": 7, "label": "True", "justification": "j"}',
            "id: expected str, got 7",
            id="number-id",
        ),
        pytest.param(
            '{"id": "", "label": "True", "justification": "j"}',
            "id must be a non-empty string",
            id="empty-id",
        ),
        pytest.param(
            '{"id": "other", "label": "True", "justification": "   "}',
            "base verdicts must carry a justification; re-assessment depends on it",
            id="blank-justification",
        ),
    ],
)
def test_run_bad_base_verdict_record_exits_one_naming_the_line(
    capsys, tmp_path, bad_line, reason
):
    verdicts = tmp_path / "verdicts.jsonl"
    verdicts.write_text(
        '{"id": "scenario-001", "label": "True", "justification": "j"}\n' + bad_line + "\n",
        encoding="utf-8",
    )
    code, out, err, out_path = _run_scenario(capsys, tmp_path, "--base-verdicts", str(verdicts))
    assert code == 1
    assert err == f"error: {verdicts}: line 2: {reason}\n"
    # refused before any claim runs
    assert "scenario-001" not in out
    assert not out_path.exists()


@pytest.mark.parametrize("kind", ["corpus", "base-verdicts", "reports"])
def test_a_repeated_id_exits_two_naming_the_file_and_line(capsys, tmp_path, kind):
    line = {
        "corpus": Path(SCENARIO_CORPUS).read_text(encoding="utf-8"),
        "base-verdicts": '{"id": "scenario-001", "label": "True", "justification": "j"}\n',
        "reports": data_path(SCENARIO_EXPECTED).read_text(encoding="utf-8"),
    }[kind]
    path = tmp_path / "records.jsonl"
    path.write_text(line + "\n" + line, encoding="utf-8")
    argv = {
        "corpus": ["ingest", "--input", str(path)],
        "base-verdicts": ["run", "--corpus", SCENARIO_CORPUS, "--mock", SCENARIO_SCRIPT,
                          "--base-verdicts", str(path), "--output", str(tmp_path / "r.jsonl")],
        "reports": ["eval", "--report", str(path), "--gold", SCENARIO_CORPUS],
    }[kind]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    # the blank line counts
    assert err == f"error: record 'scenario-001': duplicate id at {path}: line 3\n"
    assert out == ""
    assert sorted(path.name for path in tmp_path.iterdir()) == ["records.jsonl"]


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
    assert f"error: {corpus}: line 1: text is not valid Unicode" in err


def test_run_base_verdicts_not_utf8_exits_one_before_any_claim(capsys, tmp_path):
    verdicts = tmp_path / "verdicts.jsonl"
    verdicts.write_bytes(
        b'{"id": "x", "label": "False", "justification": "fine"}\n'
        b'{"id": "scenario-001", "label": "True", "justification": "ok \xff reasons"}\n'
    )
    code, out, err, out_path = _run_scenario(capsys, tmp_path, "--base-verdicts", str(verdicts))
    assert code == 1
    assert f"error: {verdicts}: line 2: text is not UTF-8" in err
    assert "scenario-001" not in out
    assert not out_path.exists()


def test_run_base_verdicts_with_a_lone_surrogate_exits_one_before_any_claim(capsys, tmp_path):
    verdicts = tmp_path / "verdicts.jsonl"
    verdicts.write_text(
        '{"id": "x", "label": "False", "justification": "fine"}\n'
        '{"id": "scenario-001", "label": "True", "justification": "ok \\ud800 reasons"}\n',
        encoding="utf-8",
    )
    code, out, err, out_path = _run_scenario(capsys, tmp_path, "--base-verdicts", str(verdicts))
    assert code == 1
    assert f"error: {verdicts}: line 2: text is not valid Unicode" in err
    assert "scenario-001" not in out
    assert not out_path.exists()


@pytest.mark.filterwarnings("error::ResourceWarning")
def test_run_closes_its_cache_files(capsys, tmp_path):
    cache = tmp_path / "cache.jsonl"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        code, _, err, _ = _run_scenario(capsys, tmp_path, "--cache", str(cache))
        gc.collect()
    assert code == 0, err
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []


# One cold mock run in a fresh interpreter: prints how far its peak
# resident set (VmHWM, which the child's own pages set; ru_maxrss would
# start at pytest's) rose over the run.
_RUN_MEMORY = """
import contextlib, os, sys
from tracer.cli import main

def peak():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) * 1024 for line in status if line.startswith("VmHWM:"))

before = peak()
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
    assert main(sys.argv[1:]) == 0
print(peak() - before)
"""


def _run_memory_growth(tmp_path, n):
    corpus, script = tmp_path / f"corpus-{n}.jsonl", tmp_path / "script.json"
    save_corpus(generate_synthetic_corpus(seed=7, n=n), corpus)
    script.write_text(json.dumps(synthetic_script(8)), encoding="utf-8")
    argv = ["run", "--corpus", corpus, "--mock", script, "--output", tmp_path / f"r-{n}.jsonl"]
    argv += ["--cache", tmp_path / f"cache-{n}.jsonl"]
    result = subprocess.run(
        [sys.executable, "-c", _RUN_MEMORY, *map(str, argv)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return int(result.stdout)


def test_cold_mock_run_memory_grows_only_with_what_the_run_keeps(tmp_path):
    # the peak rises about 3.4 KB per extra claim (Python 3.11, Linux),
    # mostly the cache's index; a run that kept every report until its loop
    # ended made it 11.3 KB, and a mock that also kept every prompt and text
    # it answered 27.3 KB
    n = 100
    growth = _run_memory_growth(tmp_path, 4 * n) - _run_memory_growth(tmp_path, n)
    assert growth / (3 * n) < 8 * 1024


def test_run_without_corpus_exits_one(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "run", "--mock", SCENARIO_SCRIPT, "--output", str(tmp_path / "r.jsonl")
    )
    assert code == 1
    assert "no corpus" in err


@pytest.mark.parametrize("option", ["--output", "--manifest"])
def test_run_with_nowhere_to_write_exits_one_before_any_claim(capsys, tmp_path, option):
    paths = {"--output": tmp_path / "reports.jsonl", "--manifest": tmp_path / "m.json"}
    paths[option] = tmp_path / "missing" / "o.json"
    code, out, err = run_cli(
        capsys,
        "run",
        "--corpus",
        SCENARIO_CORPUS,
        "--mock",
        SCENARIO_SCRIPT,
        "--cache",
        str(tmp_path / "cache.jsonl"),
        *[str(part) for pair in paths.items() for part in pair],
    )
    assert code == 1
    assert err == f"error: the directory of {paths[option]} does not exist\n"
    # no claim ran: nothing printed, and no report, manifest or cache written
    assert out == "" and list(tmp_path.iterdir()) == []


# each run's output flags after its inputs (corpus.jsonl, script.json,
# verdicts.jsonl, cache.jsonl), as names in the run's directory
@pytest.mark.parametrize(
    "command, flags",
    [
        pytest.param("run", ["--output", "corpus.jsonl"], id="report-over-corpus"),
        pytest.param("run", ["--output", "link.jsonl"], id="report-over-a-link-to-the-corpus"),
        pytest.param("run", ["--output", "script.json"], id="report-over-mock-script"),
        pytest.param("run", ["--output", "verdicts.jsonl"], id="report-over-base-verdicts"),
        pytest.param("run", ["--output", "cache.jsonl"], id="report-over-cache"),
        pytest.param("run", ["--output", "cache.jsonl.vectors"], id="report-over-vectors"),
        pytest.param("run", ["--output", "r.jsonl", "--manifest", "r.jsonl"],
                     id="manifest-over-report"),
        pytest.param("run", ["--output", "r.jsonl", "--manifest", "cache.jsonl"],
                     id="manifest-over-cache"),
        pytest.param("ablate", ["--output", "ab.jsonl", "--corpus", "ab.cfg2.jsonl"],
                     id="config-report-over-corpus"),
        pytest.param("ablate", ["--output", "ab.jsonl", "--corpus", "ab.cfg1.jsonl.manifest.json"],
                     id="config-manifest-over-corpus"),
    ],
)
def test_an_output_that_is_an_input_or_another_output_exits_one_before_any_claim(
    capsys, tmp_path, command, flags
):
    corpus = Path(SCENARIO_CORPUS).read_bytes()
    for name in ("corpus.jsonl", "ab.cfg2.jsonl", "ab.cfg1.jsonl.manifest.json"):
        (tmp_path / name).write_bytes(corpus)
    (tmp_path / "link.jsonl").symlink_to(tmp_path / "corpus.jsonl")
    shutil.copy(SCENARIO_SCRIPT, tmp_path / "script.json")
    (tmp_path / "verdicts.jsonl").write_text(
        '{"id": "scenario-001", "label": "True", "justification": "j"}\n', encoding="utf-8"
    )
    (tmp_path / "cache.jsonl").write_bytes(b"")
    before = {path: path.read_bytes() for path in tmp_path.iterdir()}
    inputs = ["--corpus", "corpus.jsonl", "--mock", "script.json",
              "--base-verdicts", "verdicts.jsonl", "--cache", "cache.jsonl"]
    argv = [part if part.startswith("--") else str(tmp_path / part) for part in inputs + flags]
    code, out, err = run_cli(capsys, command, *argv)
    assert code == 1
    assert err.startswith("error: ") and " is the same file as " in err
    # no claim ran, and no file was written or created
    assert out == ""
    assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before


@pytest.mark.parametrize("route", ["flags", "config-file"])
def test_a_live_run_that_names_a_mock_script_exits_one_before_any_claim(
    capsys, tmp_path, monkeypatch, route
):
    # the live backend would not read the script
    monkeypatch.delenv("TRACER_API_KEY", raising=False)
    if route == "flags":
        flags = ["--live", "--mock", SCENARIO_SCRIPT]
    else:
        live = {"backend": {"mode": "live", "mock_script": SCENARIO_SCRIPT}}
        flags = ["--config", _write_config(tmp_path / "live.yaml", **live)]
    code, out, err = run_cli(
        capsys, "run", *flags, "--corpus", SCENARIO_CORPUS,
        "--output", str(tmp_path / "r.jsonl"), "--cache", str(tmp_path / "cache.jsonl"),
    )
    assert code == 1
    assert err == "error: live mode reads no mock_script: drop it, or run in mock mode\n"
    assert out == "" and sorted(path.name for path in tmp_path.iterdir()) == (
        ["live.yaml"] if route == "config-file" else []
    )


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
        ("ablation: [cfg1]\n", "ablation"),
        ("ablation: {a: 1}\n", "ablation"),
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
        "ablation-list",
        "ablation-mapping",
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


@pytest.mark.parametrize("value", ["0", "-3"])
def test_run_concurrency_below_one_exits_one_before_any_claim(capsys, tmp_path, value):
    code, out, err, out_path = _run_scenario(capsys, tmp_path, "--concurrency", value)
    assert code == 1
    assert f"error: concurrency must be positive, got {value}" in err
    assert out == "" and not out_path.exists()


@pytest.mark.parametrize("value", ["1", "8"])
def test_run_gives_the_scenario_digest_at_any_concurrency(capsys, tmp_path, value):
    code, out, err, out_path = _run_scenario(capsys, tmp_path, "--concurrency", value)
    assert code == 0, err
    expected = hashlib.sha256(data_path(SCENARIO_EXPECTED).read_bytes()).hexdigest()
    assert f"report digest: {expected}" in out
    manifest = json.loads((tmp_path / "reports.jsonl.manifest.json").read_text())
    assert manifest["report_digest"] == expected


def test_run_config_that_is_not_yaml_exits_one(capsys, tmp_path):
    config = tmp_path / "run.yaml"
    config.write_text("backend: [unclosed\n", encoding="utf-8")
    code, out, err = run_cli(
        capsys, "run", "--config", str(config), "--output", str(tmp_path / "r.jsonl")
    )
    assert code == 1
    assert f"config file {config} is not valid YAML" in err
    assert out == ""


def _write_config(path: Path, **data) -> str:
    # JSON is YAML, so the config file needs no YAML writer
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "flags",
    [
        ["--corpus", SCENARIO_CORPUS, "--base-verdicts", "MISSING"],
        ["--corpus", SCENARIO_CORPUS, "--base-verdicts", "VERDICTS"],
        ["--config", "CONFIG"],
        ["--corpus", ""],
    ],
    ids=["missing-base-verdicts", "base-verdict-without-justification", "file-empty-corpus",
         "flag-empty-corpus"],
)
def test_run_input_error_leaves_no_cache_file(capsys, tmp_path, flags):
    verdicts = tmp_path / "verdicts.jsonl"
    verdicts.write_text('{"id": "scenario-001", "label": "True"}\n', encoding="utf-8")
    placeholders = {
        "MISSING": str(tmp_path / "missing.jsonl"),
        "VERDICTS": str(verdicts),
        "CONFIG": _write_config(tmp_path / "run.yaml", paths={"corpus": ""}),
    }
    flags = [placeholders.get(flag, flag) for flag in flags]
    cache = tmp_path / "cache.jsonl"
    code, out, err = run_cli(
        capsys, "run", "--mock", SCENARIO_SCRIPT, "--output", str(tmp_path / "r.jsonl"),
        "--cache", str(cache), *flags,
    )
    assert code == 1, err
    assert out == ""
    assert not cache.exists()
    assert not (tmp_path / "r.jsonl").exists()


@pytest.mark.parametrize("route", ["flag", "file"])
@pytest.mark.parametrize(
    "key,flag",
    [
        ("base_url", "--base-url"),
        ("alignment_endpoint", "--alignment-endpoint"),
        ("nli_endpoint", "--nli-endpoint"),
    ],
)
@pytest.mark.parametrize("url", ["localhost:9", "ftp://host/x", "http://", "http://[::1"])
def test_run_url_that_is_not_http_exits_one_naming_the_key(
    capsys, tmp_path, key, flag, route, url
):
    if route == "flag":
        extra = [flag, url]
    else:
        extra = ["--config", _write_config(tmp_path / "run.yaml", backend={key: url})]
    code, out, err, out_path = _run_scenario(capsys, tmp_path, *extra)
    assert code == 1, err
    assert f"error: {key} must be an http or https URL with a host, got {url!r}" in err
    assert out == "" and not out_path.exists()


def test_every_run_option_sets_the_same_config_by_flag_and_by_file(tmp_path):
    verdicts = tmp_path / "verdicts.jsonl"
    verdicts.write_text("", encoding="utf-8")
    script = shutil.copy(SCENARIO_SCRIPT, tmp_path / "script.json")
    # one value per config key, none of them the default
    values = {
        "paths.corpus": SCENARIO_CORPUS,
        "paths.output": str(tmp_path / "r.jsonl"),
        "paths.cache": str(tmp_path / "c.jsonl"),
        "paths.base_verdicts": str(verdicts),
        "backend.mock_script": str(script),
        "backend.mode": "live",
        "backend.model_id": "m",
        "backend.embedding_model_id": "e",
        "backend.base_url": "http://127.0.0.1:9/v1",
        "backend.concurrency": 2,
        "backend.alignment_endpoint": "http://127.0.0.1:9/align",
        "backend.nli_endpoint": "https://nli.example/check",
        "thresholds.tau_low": 0.25,
        "thresholds.tau_high": 0.75,
        "thresholds.tau_che": -0.5,
        "thresholds.top_k": 2,
        "thresholds.assumption_max_number": 4,
        "thresholds.max_questions": 6,
        "reassess_true_only": True,
    }
    assert set(values) == {option.key for option in RUN_OPTIONS}
    parser = tracer.cli.build_parser()

    def config_of(*argv):
        return tracer.cli._assemble_run_config(parser.parse_args(argv))

    # the mock backend needs a script: both routes start from a file naming
    # one, but for the live mode, which names none
    base = {"backend": {"mock_script": SCENARIO_SCRIPT}}
    base_file = _write_config(tmp_path / "base.yaml", **base)
    for option in RUN_OPTIONS:
        value = values[option.key]
        bare = not isinstance(option.parse, type)
        flag = [option.flag] if bare else [option.flag, str(value)]
        section, _, name = option.key.rpartition(".")
        start = {} if option.key == "backend.mode" else base
        start_file = _write_config(tmp_path / "start.yaml", **start)
        data = json.loads(json.dumps(start))
        (data.setdefault(section, {}) if section else data)[name] = value
        by_file = config_of("run", "--config", _write_config(tmp_path / "f.yaml", **data))
        assert by_file != config_of("run", "--config", base_file), option.key
        # the flag exists on both commands, and sets what the key sets
        for command in ("run", "ablate"):
            assert config_of(command, "--config", start_file, *flag) == by_file, (command, option)


def test_a_flag_overrides_its_key_in_the_config_file(tmp_path):
    config = _write_config(tmp_path / "run.yaml", thresholds={"top_k": 1, "tau_che": 0.9})
    args = ["run", "--config", config, "--mock", SCENARIO_SCRIPT, "--k", "3"]
    config = tracer.cli._assemble_run_config(tracer.cli.build_parser().parse_args(args))
    assert (config.thresholds.top_k, config.thresholds.tau_che) == (3, 0.9)


def test_run_from_a_config_file_writes_the_flag_runs_report(capsys, tmp_path):
    # values that each change the scenario's report
    flags = ["--tau-low", "0.95", "--tau-high", "0.9", "--tau-che", "0.99", "--k", "1",
             "--max-assumptions", "1", "--max-questions", "1", "--reassess-true-only"]
    code, out, err, by_flags = _run_scenario(capsys, tmp_path, *flags)
    assert code == 0, err
    expected = hashlib.sha256(data_path(SCENARIO_EXPECTED).read_bytes()).hexdigest()
    assert f"report digest: {expected}" not in out
    thresholds = {
        "tau_low": 0.95,
        "tau_high": 0.9,
        "tau_che": 0.99,
        "top_k": 1,
        "assumption_max_number": 1,
        "max_questions": 1,
    }
    config = _write_config(
        tmp_path / "run.yaml",
        backend={"mock_script": SCENARIO_SCRIPT},
        paths={"corpus": SCENARIO_CORPUS, "output": str(tmp_path / "from-file.jsonl")},
        thresholds=thresholds,
        reassess_true_only=True,
    )
    code, _, err = run_cli(capsys, "run", "--config", config)
    assert code == 0, err
    assert (tmp_path / "from-file.jsonl").read_bytes() == by_flags.read_bytes()


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
        ("rules", {"template": "relevance", "responses": ["A", "B"]}),
        ("embeddings", {"contains": 5, "vector": [1.0]}),
        ("embeddings", {"text": ["a"], "vector": [1.0]}),
        ("embeddings", {"contains": "a", "vector": "907"}),
        ("embeddings", {"contains": "a", "vector": {"1.0": 0}}),
        ("embeddings", {"contains": "a", "vector": ["9", False]}),
    ],
    ids=[
        "template",
        "contains",
        "response",
        "responses",
        "embedding-contains",
        "embedding-text",
        "embedding-vector-string",
        "embedding-vector-object",
        "embedding-vector-elements",
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
        "--cache",
        str(tmp_path / "cache.jsonl"),
    )
    assert code == 1
    assert f"mock script {bad_script} is malformed" in err
    assert not (tmp_path / "cache.jsonl").exists()
    if "responses" in entry:  # the ordered form is refused by name
        assert "rule 0 ('relevance') has a responses list" in err
    assert out == ""
    assert not out_path.exists()


@pytest.mark.parametrize(
    "script",
    [
        [],
        {"default_embedding": [8]},
        {"default_embedding": {"dim": "8"}},
        {"default_embedding": {"dim": 2.5}},
        {"default_embedding": {"dim": True}},
        {"default_embedding": {"dim": 0}},
        {"default_embedding": {"dim": -3}},
    ],
    ids=["root-list", "default-list", "dim-string", "dim-float", "dim-bool", "dim-zero",
         "dim-negative"],
)
def test_run_mock_script_of_the_wrong_shape_exits_one_before_any_claim(
    capsys, tmp_path, script
):
    if isinstance(script, dict):
        script = {**json.loads(Path(SCENARIO_SCRIPT).read_text(encoding="utf-8")), **script}
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
    assert code == 1, err
    assert f"error: mock script {bad_script} is malformed" in err
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


class _ClassifierHandler(http.server.BaseHTTPRequestHandler):
    """Both external classifiers: the first scenario sentence is Presented,
    every other one Hidden, and every NLI pair a contradiction."""

    protocol_version = "HTTP/1.1"  # keep-alive, so a reused connection shows as one port

    def do_POST(self):
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.server.posts.append((self.path, self.client_address[1], payload))
        if self.path == "/align":
            presented = payload["sentence"] == self.server.evidence[0]
            answer = {"label": "Presented" if presented else "Hidden", "confidence": 0.9}
        else:
            answer = {"verdict": "Contradict"}
        body = json.dumps(answer).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_run_with_both_classifiers_over_loopback_keeps_one_connection_each(capsys, tmp_path):
    record = json.loads(Path(SCENARIO_CORPUS).read_text(encoding="utf-8"))
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _ClassifierHandler)
    server.posts, server.evidence = [], record["evidence"]
    serving = threading.Thread(target=server.serve_forever)
    serving.start()
    try:
        base = f"http://127.0.0.1:{server.server_address[1]}"
        endpoints = ["--alignment-endpoint", f"{base}/align", "--nli-endpoint", f"{base}/nli"]
        code, out, err, out_path = _run_scenario(capsys, tmp_path, *endpoints)
    finally:
        server.shutdown()
        server.server_close()
        serving.join()
    assert code == 0, err
    report = json.loads(out_path.read_text(encoding="utf-8"))
    align = [(port, payload) for path, port, payload in server.posts if path == "/align"]
    nli = [(port, payload) for path, port, payload in server.posts if path == "/nli"]
    assert len(align) + len(nli) == len(server.posts)
    assert [payload for _, payload in align] == [
        {"claim": record["claim"], "sentence": sentence} for sentence in record["evidence"]
    ]
    assert [a["provenance"] for a in report["aligned_evidence"]] == ["ExternalClassifier"] * 4
    assumptions = {a["text"] for a in report["causal_argument"]["assumptions"]}
    assert nli and all(
        payload["premise"] in record["evidence"][1:] and payload["hypothesis"] in assumptions
        for _, payload in nli
    )
    assert {c["nli"] for c in report["che"]} == {"Contradict"}
    # one kept-alive connection per classifier
    align_ports, nli_ports = {port for port, _ in align}, {port for port, _ in nli}
    assert len(align_ports) == len(nli_ports) == 1 and align_ports != nli_ports


class _UnavailableHandler(http.server.BaseHTTPRequestHandler):
    """Answers every POST with a 503 that asks for no wait."""

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self.server.posts.append(self.path)
        self.send_response(503)
        self.send_header("Retry-After", "0")
        self.send_header("Content-Length", "0")
        self.end_headers()

    def log_message(self, *args):
        pass


def _dead_claims(tmp_path) -> Path:
    """Two copies of the scenario claim, ``dead-0`` and ``dead-1``."""
    record = json.loads(Path(SCENARIO_CORPUS).read_text(encoding="utf-8"))
    corpus = tmp_path / "claims.jsonl"
    corpus.write_text(
        "".join(json.dumps(dict(record, id=f"dead-{i}")) + "\n" for i in range(2)),
        encoding="utf-8",
    )
    return corpus


def test_run_against_an_unavailable_model_exits_one_and_keeps_its_reports(
    capsys, tmp_path, monkeypatch
):
    corpus = _dead_claims(tmp_path)
    monkeypatch.setenv("TRACER_API_KEY", "dummy")
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _UnavailableHandler)
    server.posts = []
    serving = threading.Thread(target=server.serve_forever)
    serving.start()
    out_path = tmp_path / "reports.jsonl"
    base = f"http://127.0.0.1:{server.server_address[1]}/v1"
    try:
        code, out, err = run_cli(
            capsys,
            "run",
            "--live",
            "--base-url",
            base,
            "--corpus",
            str(corpus),
            "--output",
            str(out_path),
        )
    finally:
        server.shutdown()
        server.server_close()
        serving.join()
    assert code == 1
    assert f"error: circuit open for {base}/chat/completions after 3 " in err
    # the circuit opened inside dead-0, so the run stopped before dead-1
    reports = [json.loads(line) for line in out_path.read_text(encoding="utf-8").splitlines()]
    assert [(r["id"], bool(r["failed"])) for r in reports] == [("dead-0", True)]
    assert "dead-0: failed at " in out and "dead-1" not in out
    assert f"report digest: {hashlib.sha256(out_path.read_bytes()).hexdigest()}" in out
    assert "n_failed" not in out  # a stopped run is not scored
    manifest = json.loads((tmp_path / "reports.jsonl.manifest.json").read_text())
    assert manifest["n_claims"] == 1
    # three requests, each sent once and retried three times; the rest never leave
    assert server.posts == ["/v1/chat/completions"] * 12


def test_ablate_stops_at_the_config_that_ends_with_a_circuit_open(capsys, tmp_path, monkeypatch):
    corpus = _dead_claims(tmp_path)
    (tmp_path / "out").mkdir()
    monkeypatch.setenv("TRACER_API_KEY", "dummy")
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _UnavailableHandler)
    server.posts = []
    serving = threading.Thread(target=server.serve_forever)
    serving.start()
    base = f"http://127.0.0.1:{server.server_address[1]}/v1"
    try:
        code, out, err = run_cli(
            capsys,
            "ablate",
            "--live",
            "--base-url",
            base,
            "--corpus",
            str(corpus),
            "--output",
            str(tmp_path / "out" / "ab.jsonl"),
        )
    finally:
        server.shutdown()
        server.server_close()
        serving.join()
    assert code == 1
    assert f"error: circuit open for {base}/chat/completions after 3 " in err
    assert "== cfg1 ==" in out and "== cfg2 ==" not in out
    assert sorted(path.name for path in (tmp_path / "out").iterdir()) == [
        "ab.cfg1.jsonl",
        "ab.cfg1.jsonl.manifest.json",
    ]
    # cfg1 stopped after dead-0, the claim in which the circuit opened
    reports = (tmp_path / "out" / "ab.cfg1.jsonl").read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["id"] for line in reports] == ["dead-0"]
    manifest = json.loads((tmp_path / "out" / "ab.cfg1.jsonl.manifest.json").read_text())
    assert manifest["n_claims"] == 1
    # cfg1's three failed requests; dead-1, cfg2 and later never start
    assert server.posts == ["/v1/chat/completions"] * 12


def test_offline_run_does_not_import_requests(tmp_path):
    out_path = tmp_path / "reports.jsonl"
    argv = ["run", "--corpus", SCENARIO_CORPUS, "--mock", SCENARIO_SCRIPT]
    argv += ["--output", str(out_path)]
    code = (
        "import sys; from tracer.cli import main; "
        f"code = main({argv!r}); print(code, 'requests' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "0 False"
    assert out_path.exists()


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
    assert metrics_path.read_text() == (
        '{\n'
        '  "accuracy": 1.0,\n'
        '  "f1_half_true": 1.0,\n'
        '  "macro_f1": 0.3333333333333333,\n'
        '  "n": 1,\n'
        '  "n_failed": 0,\n'
        '  "per_class": {\n'
        '    "False": {\n'
        '      "f1": 0.0,\n'
        '      "precision": 0.0,\n'
        '      "recall": 0.0\n'
        '    },\n'
        '    "Half-True": {\n'
        '      "f1": 1.0,\n'
        '      "precision": 1.0,\n'
        '      "recall": 1.0\n'
        '    },\n'
        '    "True": {\n'
        '      "f1": 0.0,\n'
        '      "precision": 0.0,\n'
        '      "recall": 0.0\n'
        '    }\n'
        '  }\n'
        '}\n'
    )


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
    "corrupt, reason",
    [
        (
            lambda record: {
                **record, "final_verdict": {**record["final_verdict"], "label": "Maybe"}
            },
            "final_verdict: label: expected Label, got 'Maybe'",
        ),
        (lambda record: {**record, "stages": None}, "stages: expected a list, got None"),
        (lambda record: None, "unsupported report schema version: None"),
    ],
    ids=["unknown-label", "null-stages", "null-record"],
)
def test_eval_bad_report_record_exits_one_naming_the_line(capsys, tmp_path, corrupt, reason):
    code, _, _, report_path = _run_scenario(capsys, tmp_path)
    assert code == 0
    record = corrupt(json.loads(report_path.read_text(encoding="utf-8")))
    report_path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "eval", "--report", str(report_path), "--gold", SCENARIO_CORPUS)
    assert code == 1
    assert err == f"error: {report_path}: line 1: {reason}\n"


def test_eval_empty_report_id_exits_one_naming_the_line(capsys, tmp_path):
    line = json.loads(data_path(SCENARIO_EXPECTED).read_text(encoding="utf-8"))
    report_path = tmp_path / "reports.jsonl"
    report_path.write_text(json.dumps({**line, "id": ""}) + "\n", encoding="utf-8")
    code, out, err = run_cli(
        capsys, "eval", "--report", str(report_path), "--gold", SCENARIO_CORPUS
    )
    assert code == 1
    assert err == f"error: {report_path}: line 1: id must be a non-empty string\n"
    assert out == ""


def test_eval_bad_gold_line_names_the_gold_file_and_the_key(capsys, tmp_path):
    code, _, _, report_path = _run_scenario(capsys, tmp_path)
    assert code == 0
    gold = tmp_path / "gold.jsonl"
    gold.write_text('{"id": "a", "claim": "fine"}\n{"id": "b", "claim": 5}\n', encoding="utf-8")
    code, out, err = run_cli(capsys, "eval", "--report", str(report_path), "--gold", str(gold))
    assert code == 1
    assert err == f"error: {gold}: line 2: claim: expected str, got 5\n"
    assert out == ""


def test_eval_report_with_a_lone_surrogate_exits_one_naming_the_line(capsys, tmp_path):
    # such a report could be scored, but saving it again would fail
    code, _, _, report_path = _run_scenario(capsys, tmp_path)
    assert code == 0
    record = json.loads(report_path.read_text(encoding="utf-8"))
    record["base_verdict"]["justification"] = "JUSTIFICATION"
    line = json.dumps(record).replace("JUSTIFICATION", "ok \\ud800 reasons")
    report_path.write_text("\n" + line + "\n", encoding="utf-8")
    code, out, err = run_cli(
        capsys, "eval", "--report", str(report_path), "--gold", SCENARIO_CORPUS
    )
    assert code == 1
    assert f"error: {report_path}: line 2: text is not valid Unicode" in err
    assert out == ""


def test_eval_report_not_utf8_exits_one_naming_the_line(capsys, tmp_path):
    code, _, _, report_path = _run_scenario(capsys, tmp_path)
    assert code == 0
    line = report_path.read_bytes().replace(b"scenario-001", b"scenario-\xff", 1)
    report_path.write_bytes(b"\n" + line)
    code, out, err = run_cli(
        capsys, "eval", "--report", str(report_path), "--gold", SCENARIO_CORPUS
    )
    assert code == 1
    assert err == f"error: {report_path}: line 2: text is not UTF-8\n"
    assert out == ""


def test_eval_unsupported_schema_version_names_the_line(capsys, tmp_path):
    report_path = tmp_path / "reports.jsonl"
    report_path.write_text('\n{"schema_version": 3}\n', encoding="utf-8")
    code, _, err = run_cli(capsys, "eval", "--report", str(report_path), "--gold", SCENARIO_CORPUS)
    assert code == 1
    assert f"error: {report_path}: line 2: unsupported report schema version: 3" in err


def test_eval_repeated_report_id_exits_two_naming_the_file_and_line(capsys, tmp_path):
    code, _, _, report_path = _run_scenario(capsys, tmp_path)
    assert code == 0
    line = json.loads(report_path.read_text(encoding="utf-8"))
    assert line["final_verdict"]["label"] == "Half-True"
    second = {**line, "final_verdict": {**line["final_verdict"], "label": "False"}}
    report_path.write_text(
        json.dumps(line) + "\n" + json.dumps(second) + "\n", encoding="utf-8"
    )
    code, out, err = run_cli(
        capsys, "eval", "--report", str(report_path), "--gold", SCENARIO_CORPUS
    )
    assert code == 2
    assert err == f"error: record 'scenario-001': duplicate id at {report_path}: line 2\n"
    assert out == ""


def test_eval_reads_a_version_1_report_as_its_version_2_form(capsys, tmp_path):
    code, _, _, report_path = _run_scenario(capsys, tmp_path)
    assert code == 0
    tables = []
    for path in (report_path, _V1_REPORT):
        code, out, _ = run_cli(capsys, "eval", "--report", str(path), "--gold", SCENARIO_CORPUS)
        assert code == 0
        tables.append(out)
    assert tables[0] == tables[1]
    assert "n             1" in tables[0]


# -- ablate ----------------------------------------------------------------------


def _ablate(capsys, tmp_path, *extra, corpus=SCENARIO_CORPUS, script=SCENARIO_SCRIPT):
    """``tracer ablate --output <tmp_path>/ab.jsonl``: exit code, stdout and stderr."""
    return run_cli(
        capsys,
        "ablate",
        "--corpus",
        corpus,
        "--mock",
        script,
        "--output",
        str(tmp_path / "ab.jsonl"),
        *extra,
    )


def _manifest(path) -> dict:
    return json.loads(Path(f"{path}.manifest.json").read_text(encoding="utf-8"))


def test_ablate_writes_reports_and_a_manifest_per_config(capsys, tmp_path):
    code, out, _ = _ablate(capsys, tmp_path)
    assert code == 0
    names = ["cfg1", "cfg2", "cfg3", "cfg4"]
    assert [line for line in out.splitlines() if line.startswith("== ")] == [
        f"== {name} ==" for name in names
    ]
    asked = {}
    for name in names:
        report = tmp_path / f"ab.{name}.jsonl"
        manifest = _manifest(report)
        assert manifest["ablation"] == name
        assert manifest["report_digest"] == hashlib.sha256(report.read_bytes()).hexdigest()
        asked[name] = manifest["counters"]["by_template"]
    assert not (tmp_path / "ab.jsonl").exists()
    assert "intent_generation" not in asked["cfg1"]
    assert "assumptions" not in asked["cfg2"]
    assert "counterfactual" not in asked["cfg3"]
    assert asked["cfg4"]["counterfactual"] == 2
    # what the summary file held, tracer eval reads from each config's report
    for name, accuracy in (("cfg1", "0.000"), ("cfg4", "1.000")):
        report = str(tmp_path / f"ab.{name}.jsonl")
        code, out, _ = run_cli(capsys, "eval", "--report", report, "--gold", SCENARIO_CORPUS)
        assert code == 0
        assert f"accuracy      {accuracy}" in out


def test_ablate_sends_each_prompt_of_the_scenario_once_across_configs(capsys, tmp_path):
    code, _, _ = _ablate(capsys, tmp_path)
    assert code == 0
    manifests = [_manifest(tmp_path / f"ab.{name}.jsonl") for name in sorted(ABLATION_CONFIGS)]
    # tracer run --ablation cfgN sends 10, 18, 21 and 23 lists: 72 in all
    assert [m["counters"]["backend_calls"] for m in manifests] == [10, 8, 6, 2]
    assert sum(m["counters"]["backend_calls"] for m in manifests) == 26


@pytest.mark.parametrize("cached", [False, True], ids=["memory", "file-cache"])
@pytest.mark.parametrize("corpus", ["scenario", "synthetic"])
def test_ablate_reports_equal_tracer_run_per_config(capsys, tmp_path, corpus, cached):
    if corpus == "scenario":
        corpus_path, script = SCENARIO_CORPUS, SCENARIO_SCRIPT
    else:
        corpus_path, script = str(tmp_path / "corpus.jsonl"), str(tmp_path / "script.json")
        save_corpus(generate_synthetic_corpus(seed=41, n=6), corpus_path)
        Path(script).write_text(json.dumps(synthetic_script(8)), encoding="utf-8")
    cache = ["--cache", str(tmp_path / "ablate-cache.jsonl")] if cached else []
    code, _, err = _ablate(capsys, tmp_path, *cache, corpus=corpus_path, script=script)
    assert code == 0, err
    for name in sorted(ABLATION_CONFIGS):
        alone = tmp_path / f"run.{name}.jsonl"
        cache = ["--cache", str(tmp_path / f"run-{name}-cache.jsonl")] if cached else []
        argv = ["run", "--corpus", corpus_path, "--mock", script, "--output", str(alone)]
        code, _, err = run_cli(capsys, *argv, "--ablation", name, *cache)
        assert code == 0, err
        assert (tmp_path / f"ab.{name}.jsonl").read_bytes() == alone.read_bytes(), name


# tracer ablate's stdout on the scenario corpus and script, with the
# output directory written as <out>
_ABLATE_STDOUT = Path(__file__).parent / "data" / "scenario_ablate_stdout.txt"


def test_ablate_stdout_is_pinned(capsys, tmp_path):
    code, out, _ = _ablate(capsys, tmp_path)
    assert code == 0
    assert out.replace(str(tmp_path), "<out>") == _ABLATE_STDOUT.read_text(encoding="utf-8")


def test_ablate_takes_neither_ablation_nor_manifest(capsys, tmp_path):
    for option in (["--ablation", "cfg1"], ["--manifest", str(tmp_path / "m.json")]):
        code, out, err = _ablate(capsys, tmp_path, *option)
        assert code == 1
        assert f"unrecognized arguments: {' '.join(option)}" in err
        assert out == ""


@pytest.mark.parametrize("ablation", ["cfg1", "cfg2"])
def test_ablate_refuses_a_config_file_that_sets_ablation(capsys, tmp_path, ablation):
    # ablate runs what --configs names, so the file's key would do nothing
    config, work = tmp_path / "ab.yaml", tmp_path / "work"
    config.write_text(f"ablation: {ablation}\n", encoding="utf-8")
    work.mkdir()
    cache = str(work / "cache.jsonl")
    code, out, err = _ablate(
        capsys, work, "--config", str(config), "--configs", "cfg1", "--cache", cache
    )
    assert code == 1
    assert err == (
        f"error: config file {config} sets ablation, which tracer ablate does not take "
        "(name the configs with --configs)\n"
    )
    # no claim ran: nothing printed, and no report, manifest or cache written
    assert out == "" and list(work.iterdir()) == []


def test_ablate_with_nowhere_to_write_exits_one_before_any_claim(capsys, tmp_path):
    cache = str(tmp_path / "cache.jsonl")
    code, out, err = _ablate(capsys, tmp_path / "missing", "--cache", cache)
    assert code == 1
    assert err == f"error: the directory of {tmp_path / 'missing' / 'ab.cfg1.jsonl'} does not exist\n"
    assert out == "" and list(tmp_path.iterdir()) == []


def test_ablate_with_no_config_named_exits_one(capsys, tmp_path):
    code, out, err = _ablate(capsys, tmp_path, "--configs", ",")
    assert code == 1
    assert "no ablation configs given" in err
    assert out == ""


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
    assert not cache.exists()


# Holds a cache open until its stdin closes.
_HOLD_CACHE = """
import sys
from tracer.gateway import ResponseCache

with ResponseCache(sys.argv[1]):
    print("open", flush=True)
    sys.stdin.read()
"""


def test_cache_held_by_another_process_fails_run_ablate_and_clear(capsys, tmp_path):
    cache = tmp_path / "cache.jsonl"
    vectors = tmp_path / "cache.jsonl.vectors"
    code, _, _, _ = _run_scenario(capsys, tmp_path, "--cache", str(cache))
    assert code == 0
    before = cache.read_bytes(), vectors.read_bytes()
    holder = subprocess.Popen(
        [sys.executable, "-c", _HOLD_CACHE, str(cache)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        assert holder.stdout.readline() == "open\n"
        for command in (["run"], ["ablate", "--configs", "cfg1"]):
            output = tmp_path / "second.jsonl"
            code, out, err = run_cli(
                capsys,
                *command,
                "--corpus",
                SCENARIO_CORPUS,
                "--mock",
                SCENARIO_SCRIPT,
                "--output",
                str(output),
                "--cache",
                str(cache),
            )
            assert code == 1, err
            assert err == f"error: cache in use: {cache} is open in another cache\n"
            assert out == "" and list(tmp_path.glob("second*")) == []
        code, out, err = run_cli(capsys, "cache-clear", "--cache", str(cache))
        assert code == 1 and "cache in use" in err and out == ""
        assert (cache.read_bytes(), vectors.read_bytes()) == before
    finally:
        holder.stdin.close()
        holder.wait(timeout=60)
        holder.stdout.close()
    assert holder.returncode == 0
    # the lock went with the process
    code, _, _ = run_cli(capsys, "cache-clear", "--cache", str(cache))
    assert code == 0 and not cache.exists() and not vectors.exists()


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


# Prints OPENBLAS_NUM_THREADS as it is when numpy is first looked up, then
# the thread count after the import.
_BLAS_THREADS_AT_NUMPY = """
import os, sys

class Recorder:
    seen = []

    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not self.seen:
            self.seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
        return None

sys.meta_path.insert(0, Recorder())
import tracer.cli
threads = "-"
if os.path.exists("/proc/self/status"):
    with open("/proc/self/status") as status:
        threads = next(l.split()[1] for l in status if l.startswith("Threads:"))
print(Recorder.seen, threads)
"""

# the variables OpenBLAS reads for its thread count, in the order it reads them
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _blas_threads_at_numpy(**env):
    # this process may hold the variable already: importing tracer.cli sets it
    environ = {k: v for k, v in os.environ.items() if k not in _BLAS_THREAD_VARIABLES}
    result = subprocess.run(
        [sys.executable, "-c", _BLAS_THREADS_AT_NUMPY],
        capture_output=True,
        text=True,
        timeout=60,
        env={**environ, **env},
    )
    assert result.returncode == 0, result.stderr
    seen, threads = result.stdout.rsplit(" ", 1)
    return seen, threads.strip()


def test_the_cli_asks_openblas_for_one_thread_before_numpy_loads():
    # the program makes no BLAS call, so a pool would only cost start-up time
    seen, _ = _blas_threads_at_numpy()
    assert seen == "['1']"


def test_the_cli_keeps_an_openblas_thread_count_already_set():
    seen, _ = _blas_threads_at_numpy(OPENBLAS_NUM_THREADS="3")
    assert seen == "['3']"


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2,
    reason="OpenBLAS starts no pool on one CPU; /proc/self/status is Linux's",
)
def test_importing_the_cli_starts_no_thread():
    _, threads = _blas_threads_at_numpy()
    assert threads == "1"
