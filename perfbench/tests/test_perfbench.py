"""Tests of the benchmark itself: inputs, span arithmetic, checks, names.

    python3 -m pytest perfbench/tests
"""

import json
import math
from pathlib import Path

import pytest

import inputs
import run
import tracing

REPO = Path(__file__).resolve().parents[2]


def _read(directory: Path) -> tuple[bytes, bytes]:
    return (directory / "corpus.jsonl").read_bytes(), (directory / "mock.json").read_bytes()


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    first = inputs.generate(7, 16, tmp_path / "a", n_claims=4)
    second = inputs.generate(7, 16, tmp_path / "b", n_claims=4)
    assert _read(tmp_path / "a") == _read(tmp_path / "b")
    assert first == second
    inputs.generate(8, 16, tmp_path / "c", n_claims=4)
    assert _read(tmp_path / "c")[0] != _read(tmp_path / "a")[0]


def test_width_changes_vectors_but_not_texts(tmp_path):
    inputs.generate(7, 8, tmp_path / "narrow", n_claims=4)
    inputs.generate(7, 1536, tmp_path / "wide", n_claims=4)
    narrow, wide = _read(tmp_path / "narrow"), _read(tmp_path / "wide")
    assert narrow[0] == wide[0]
    rules = lambda raw: json.loads(raw)["rules"]  # noqa: E731
    assert rules(narrow[1]) == rules(wide[1])
    assert narrow[1] != wide[1]


@pytest.mark.parametrize("dim", [8, 1536])
def test_embeddings_have_the_designed_cosines(tmp_path, dim):
    inputs.generate(3, dim, tmp_path, n_claims=1)
    vectors = {
        e["contains"]: e["vector"]
        for e in json.loads((tmp_path / "mock.json").read_text())["embeddings"]
    }

    def cos(a, b):
        u, v = vectors[a], vectors[b]
        dot = sum(x * y for x, y in zip(u, v))
        return dot / math.sqrt(sum(x * x for x in u) * sum(y * y for y in v))

    assert all(len(v) == dim for v in vectors.values())
    assert cos("[clm]", "[pre]") == pytest.approx(0.8)
    assert cos("[clm]", "[near]") == pytest.approx(0.2)
    assert cos("[clm]", "[far]") == pytest.approx(0.2)
    assert cos("[asm-1]", "[near]") == pytest.approx(0.9)
    for i in range(1, inputs.N_ASSUMPTIONS + 1):
        assert abs(cos(f"[asm-{i}]", "[far]")) < 1e-9
        if i > 1:
            assert abs(cos(f"[asm-{i}]", "[near]")) < 1e-9


def test_every_claim_has_the_same_evidence_roles(tmp_path):
    roles = inputs.generate(5, 8, tmp_path, n_claims=3)
    expected = sorted(role for role, _, count in inputs.ROLES for _ in range(count))
    assert [sorted(r.values()) for r in roles.values()] == [expected] * 3


def _span(name, start, end, parent):
    return [name, start, end, parent, "c1", False]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("claim", 0.0, 10.0, -1),
        _span("a", 1.0, 3.0, 0),
        _span("b", 2.0, 5.0, 0),  # overlaps a: together they cover 1..5
        _span("c", 6.0, 12.0, 0),  # runs past its parent: only 6..10 counts
        _span("d", 1.5, 2.5, 1),
    ]
    assert tracing.self_times(spans) == pytest.approx([2.0, 1.0, 3.0, 6.0, 1.0])


def test_self_times_of_a_nested_tree_account_for_the_root():
    spans = [
        _span("claim", 0.0, 10.0, -1),
        _span("align", 1.0, 4.0, 0),
        _span("embed", 1.5, 2.0, 1),
        _span("cosine", 2.0, 3.5, 1),
        _span("che", 5.0, 9.0, 0),
        _span("other-claim", 11.0, 12.0, -1),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(3.0)
    accounting = tracing.claim_accounting(spans, selfs)
    assert accounting == {0: pytest.approx(0.0), 5: pytest.approx(0.0)}


def test_recorder_nests_spans_and_marks_failures():
    ticks = iter(range(100))
    recorder = tracing.Recorder(clock=lambda: float(next(ticks)))

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x

    inner = recorder.wrap("inner", inner)
    outer = recorder.wrap("outer", lambda x: inner(x) + inner(-1 if x else 1))
    with pytest.raises(ValueError):
        outer(1)
    names = [(s[tracing.NAME], s[tracing.PARENT], s[tracing.FAILED]) for s in recorder.spans]
    assert names == [("outer", -1, True), ("inner", 0, False), ("inner", 0, True)]


def _bench_json() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text())


def test_benchmark_json_names_and_units_match_the_code():
    spec = _bench_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.fixture
def bench(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    return run.Bench(REPO, "cold-latency", seed=2, n_claims=3)


def test_small_run_prints_the_benchmark_json_metric_names(bench):
    runs = bench.measure(seconds=0, trace=True)
    assert bench.problems == []
    assert [r["traced"] for r in runs] == [False, True]
    spec = _bench_json()
    end_to_end = run.summarize(bench, runs, trace=False)
    per_layer = run.summarize(bench, runs, trace=True)
    assert end_to_end["correct"] and per_layer["correct"]
    assert list(end_to_end["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert list(per_layer["metrics"]) == [m["name"] for m in spec["per_layer"]]
    layers = {name: metric["value"] for name, metric in per_layer["metrics"].items()}
    assert layers["gateway.complete_calls"] == 35 * bench.n
    assert layers["che.nli_calls"] == 2 * bench.n
    assert layers["failed_claim_share"] == 0.0
    assert runs[1]["claim_unaccounted_s"] < 1e-9


def test_check_fails_a_run_with_missing_or_wrong_claims(bench):
    done = bench.run_child(trace=False, cache=bench.cache)
    assert bench.problems == []
    report = bench.work / f"{done['tag']}.report.jsonl"
    lines = report.read_text().splitlines()

    short = dict(done, claims=done["claims"][:-1])
    bench.check(short, report, bench.cache)
    assert "claim hook saw 2 claims" in bench.problems[-1]

    report.write_text("\n".join(lines[:-1]) + "\n")
    bench.check(dict(done), report, bench.cache)
    assert "report has 2 lines" in bench.problems[-1]

    row = json.loads(lines[0])
    row["final_verdict"]["label"] = "True"
    report.write_text("\n".join([json.dumps(row), *lines[1:]]) + "\n")
    bench.check(dict(done), report, bench.cache)
    assert "1 claims differ from reference.json" in bench.problems[-1]


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "warm-1536", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""
