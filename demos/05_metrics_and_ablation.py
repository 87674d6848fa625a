"""Scoring and stage ablation: what each pipeline stage buys."""

from tracer.cli import run_ablation
from tracer.corpus import Label
from tracer.fixtures import (
    SCENARIO_MOCK,
    data_path,
    load_scenario_record,
)
from tracer.gateway import Gateway, MockScript, ResponseCache
from tracer.metrics import format_table, score_labels

T, H, F = Label.TRUE, Label.HALF_TRUE, Label.FALSE

print("Scoring predicted labels against gold:")
gold = [T, H, H, F, F, T]
pred = [T, H, F, F, H, T]
print(format_table(score_labels(gold, pred)))

print()
print("Ablation over the shipped scenario (one claim, gold Half-True):")
record = load_scenario_record()


def factory():
    return Gateway(
        backend=MockScript.from_file(data_path(SCENARIO_MOCK)), cache=ResponseCache()
    )


results = run_ablation([record], gateway_factory=factory)
for name, result in results.items():
    config = result.config
    stages = (
        f"intent={'on' if config.intent else 'off'} "
        f"assumptions={'on' if config.assumptions else 'off'} "
        f"causality={'on' if config.causality else 'off'}"
    )
    final = result.reports[0].final_verdict.label.value
    print(f"  {name}: {stages}")
    print(f"    final={final}  accuracy={result.metrics.accuracy:.0%}")
    print(f"    calls={result.call_counts}")
