"""Scoring and stage ablation: what each pipeline stage buys."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from tracer.cli import main
from tracer.config import ABLATION_CONFIGS
from tracer.corpus import Label, load_corpus
from tracer.fixtures import SCENARIO_CLAIM, SCENARIO_MOCK, data_path
from tracer.metrics import format_table, prediction, score_labels, score_reports
from tracer.verdict import load_reports

T, H, F = Label.TRUE, Label.HALF_TRUE, Label.FALSE

print("Scoring predicted labels against gold:")
gold = [T, H, H, F, F, T]
pred = [T, H, F, F, H, T]
print(format_table(score_labels(gold, pred)))

print()
print("Ablation over the shipped scenario (one claim, gold Half-True).")
print("One `tracer ablate` runs every config over one gateway and one cache:")
corpus = str(data_path(SCENARIO_CLAIM))
records = load_corpus(corpus)
with tempfile.TemporaryDirectory() as out:
    output = Path(out) / "ab.jsonl"
    argv = ["ablate", "--corpus", corpus, "--mock", str(data_path(SCENARIO_MOCK))]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*argv, "--output", str(output)]) == 0
    for name, config in sorted(ABLATION_CONFIGS.items()):
        reports_path = Path(out) / f"ab.{name}.jsonl"
        reports = load_reports(reports_path)
        counters = json.loads(Path(f"{reports_path}.manifest.json").read_text())["counters"]
        stages = (
            f"intent={'on' if config.intent else 'off'} "
            f"assumptions={'on' if config.assumptions else 'off'} "
            f"causality={'on' if config.causality else 'off'}"
        )
        predictions = {report.id: prediction(report) for report in reports}
        accuracy = score_reports(records, predictions).accuracy
        print(f"  {name}: {stages}")
        print(f"    final={reports[0].final_verdict.label.value}  accuracy={accuracy:.0%}")
        print(f"    asked={counters['by_template']}")
        hits = f"{counters['completion_cache_hits']}/{counters['completion_requests']}"
        print(f"    backend lists={counters['backend_calls']}  completions from the cache={hits}")
