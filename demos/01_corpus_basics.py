"""Corpus handling: ratings, article splitting, temporal separation."""

import datetime

from tracer.corpus import consolidate_label, record_from_article, temporal_filter
from tracer.fixtures import generate_synthetic_corpus

print("Six source ratings collapse onto three labels:")
for rating in ("True", "Mostly True", "Half True", "Mostly False", "False", "Pants on Fire"):
    print(f"  {rating:<14} -> {consolidate_label(rating).value}")

print()
print("A verdict article splits at its ruling cue:")
paragraphs = [
    "The senator said the budget doubled.",
    "Independent figures show a 12 percent rise.",
    "Our ruling",
    "The claim overstates the change. We rate it False.",
]
record = record_from_article(
    "demo-001",
    "The budget doubled.",
    paragraphs,
    date=datetime.date(2020, 3, 1),
    raw_rating="False",
)
print(f"  evidence: {record.evidence}")
print(f"  ruling:   {record.ruling}")
print(f"  label:    {record.gold_label.value}")

print()
print("Temporal filtering drops training claims inside the test date range:")
train = generate_synthetic_corpus(seed=1, n=40)
test = generate_synthetic_corpus(seed=2, n=10)
test_dates = [r.date for r in test]
print(f"  test range: {min(test_dates)} .. {max(test_dates)}")
kept, diagnostics = temporal_filter(train, test)
print(f"  train records: {len(train)} -> {len(kept)}")
print(f"  diagnostics:   {diagnostics}")
