"""The full pipeline on the shipped scenario: a half-truth caught."""

from tracer.fixtures import load_scenario_record, make_scenario_gateway
from tracer.verdict import run_pipeline

record = load_scenario_record()
report = run_pipeline(make_scenario_gateway(), record)

print(f"Claim: {record.claim}")
print()
print(f"Base verdict:  {report.base_verdict.label.value}")
print(f"  {report.base_verdict.justification[:90]}...")
print()
print(f"Inferred intent: {report.intent.text}")
print(f"  quality: {vars(report.intent.quality)}")
print()
print("Assumptions and the effect of negating each one:")
for assumption in report.causal_argument.assumptions:
    print(f"  [{assumption.causal_effect.value}] {assumption.text}")
print()
print("Critical hidden evidence:")
for candidate in report.che:
    print(f"  ({candidate.nli.value}, sim {candidate.similarity:.2f}) {candidate.sentence}")
print()
print(f"Final verdict: {report.final_verdict.label.value} "
      f"(reassessed={report.final_verdict.reassessed})")
print()
print("Stage trace:")
for trace in report.stages:
    print(f"  {trace.stage:<13} {trace.status:<8} {trace.detail or ''}")
