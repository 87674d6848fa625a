"""Spans around the calls into each layer of `tracer`, kept in memory.

The wrappers are installed from outside the program, in the namespaces
where callers look the functions up: ``verdict.py`` imports
``align_evidence`` by name, so the span goes on
``tracer.verdict.align_evidence``; ``che.py`` imports
``cosine_similarity`` by name, so CHE cosines are told apart from
alignment cosines by patching ``tracer.che`` and ``tracer.alignment``
separately. Methods are patched on their class.

A span is ``(name, start, end, parent, claim, failed)``: ``parent`` is
the index of the span that was open when this one started (-1 for
none), ``claim`` the id of the claim being processed, ``failed`` whether
the call raised. The program runs claims on one thread, so an open-span
stack gives the parent.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path

NAME, START, END, PARENT, CLAIM, FAILED = range(6)


class Recorder:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.embedded: set[tuple[str | None, str]] = set()
        self._stack: list[int] = []
        self._claim: str | None = None

    def wrap(self, name, fn, observe=None, claim_of=None):
        """fn with a span around every call.

        observe(args, kwargs, result) runs after a successful call, outside
        the span, to count outcomes; claim_of(args, kwargs) names the claim
        a root span belongs to.
        """
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = recorder._stack
            previous_claim = recorder._claim
            if claim_of is not None:
                recorder._claim = claim_of(args, kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, recorder._claim, False]
            stack.append(len(recorder.spans))
            recorder.spans.append(span)
            span[START] = recorder.clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                span[END] = recorder.clock()
                stack.pop()
                recorder._claim = previous_claim
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, observe=None, claim_of=None) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), observe, claim_of))

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span))
                handle.write("\n")


def install(recorder: Recorder) -> None:
    """Wrap the public functions of every layer of an imported `tracer`."""
    import tracer.alignment
    import tracer.causality
    import tracer.che
    import tracer.cli
    import tracer.gateway
    import tracer.intent
    import tracer.verdict
    from tracer.gateway import Gateway, MockScript, ResponseCache

    counts = recorder.counts

    def count_hit(args, kwargs, value):
        counts["cache_hits"] += value is not None

    def note_embed(args, kwargs, result):
        recorder.embedded.add((recorder._claim, args[1]))

    def note_quality(args, kwargs, scores):
        counts["intent_accepted"] += scores.accepted

    def note_critical(args, kwargs, critical):
        counts["critical"] += len(critical)
        counts["assumptions_evaluated"] += len(args[0].assumptions)

    def note_che(args, kwargs, selected):
        counts["che_selected"] += len(selected)

    def note_claim(args, kwargs, report):
        counts["reassessed"] += report.final_verdict.reassessed

    patch = recorder.patch
    patch(tracer.cli, "load_corpus", "corpus.load")
    patch(tracer.cli, "save_reports", "verdict.save_reports")
    patch(
        tracer.cli, "run_pipeline", "verdict.run_pipeline", note_claim,
        claim_of=lambda args, kwargs: args[1].id,
    )
    patch(ResponseCache, "__init__", "gateway.cache.load")
    patch(ResponseCache, "get", "gateway.cache.get", count_hit)
    patch(ResponseCache, "put", "gateway.cache.put")
    patch(Gateway, "complete", "gateway.complete")
    patch(Gateway, "embed", "gateway.embed", note_embed)
    patch(tracer.gateway, "render_template", "gateway.templates.render")
    patch(tracer.gateway, "completion_key", "gateway.key")
    patch(tracer.gateway, "embedding_key", "gateway.key")
    patch(MockScript, "complete", "gateway.mock.complete")
    patch(MockScript, "embed", "gateway.mock.embed")
    patch(tracer.verdict, "align_evidence", "alignment.align_evidence")
    patch(tracer.alignment, "cosine_similarity", "alignment.cosine")
    patch(tracer.verdict, "cot_verify", "verdict.cot_verify")
    patch(tracer.verdict, "reassess_with_argument", "verdict.reassess")
    patch(tracer.verdict, "generate_intent", "intent.generate")
    patch(tracer.verdict, "score_quality", "intent.score_quality", note_quality)
    patch(tracer.verdict, "generate_implicit_questions", "causality.questions")
    patch(tracer.verdict, "infer_assumptions", "causality.assumptions")
    patch(tracer.verdict, "evaluate_all", "causality.counterfactual")
    patch(tracer.verdict, "select_critical_assumptions", "causality.select", note_critical)
    patch(tracer.verdict, "collect_che", "che.collect", note_che)
    patch(tracer.che, "cosine_similarity", "che.cosine")
    patch(tracer.che, "nli_check", "che.nli")
    for module in (tracer.alignment, tracer.che, tracer.verdict, tracer.causality, tracer.intent):
        for parser in ("parse_letter_choice", "parse_bracketed", "parse_binary_digit"):
            if hasattr(module, parser):
                patch(module, parser, "gateway.parsing")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    result = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start, child_end = max(child_start, reach), min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                reach = child_end
        result.append((end - start) - covered)
    return result


def claim_accounting(spans, selfs: list[float]) -> dict[int, float]:
    """For each root span: its duration minus the self times of its whole tree.

    Zero (to rounding) when every child lies inside its parent and
    siblings do not overlap, i.e. when the claim's self time together
    with the self times of the layers under it accounts for the claim.
    """
    root_of: list[int] = []
    sums: dict[int, float] = defaultdict(float)
    for index, span in enumerate(spans):
        root = index if span[PARENT] < 0 else root_of[span[PARENT]]
        root_of.append(root)
        sums[root] += selfs[index]
    return {root: (spans[root][END] - spans[root][START]) - total for root, total in sums.items()}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(recorder: Recorder, selfs: list[float], n_claims: int) -> dict[str, float]:
    """Per-layer totals over one traced run, named as in BENCHMARK.json."""
    spans = recorder.spans
    total: dict[str, float] = defaultdict(float)
    self_total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    failures: dict[str, int] = defaultdict(int)
    for span, own in zip(spans, selfs):
        name = span[NAME]
        total[name] += span[END] - span[START]
        self_total[name] += own
        calls[name] += 1
        failures[name] += span[FAILED]
    counts = recorder.counts
    return {
        "corpus.load_s": total["corpus.load"],
        "gateway.cache.load_s": total["gateway.cache.load"],
        "gateway.cache.put_calls": calls["gateway.cache.put"],
        "gateway.cache.put_s": total["gateway.cache.put"],
        "gateway.cache.hit_ratio": _ratio(counts["cache_hits"], calls["gateway.cache.get"]),
        "gateway.complete_calls": calls["gateway.complete"],
        "gateway.embed_calls": calls["gateway.embed"],
        "gateway.embed_unique_ratio": _ratio(len(recorder.embedded), calls["gateway.embed"]),
        "gateway.complete_self_s": self_total["gateway.complete"],
        "gateway.embed_self_s": self_total["gateway.embed"],
        "gateway.key_s": total["gateway.key"],
        "gateway.templates.render_s": total["gateway.templates.render"],
        "gateway.mock.calls": calls["gateway.mock.complete"] + calls["gateway.mock.embed"],
        "gateway.mock.busy_s": total["gateway.mock.complete"] + total["gateway.mock.embed"],
        "gateway.parsing.s": total["gateway.parsing"],
        "gateway.parsing.failures": failures["gateway.parsing"],
        "alignment.s": total["alignment.align_evidence"],
        "alignment.cosine_calls": calls["alignment.cosine"],
        "alignment.cosine_s": total["alignment.cosine"],
        "verdict.cot_s": total["verdict.cot_verify"],
        "verdict.reassess_s": total["verdict.reassess"],
        "verdict.reassessed_ratio": _ratio(counts["reassessed"], n_claims),
        "verdict.save_reports_s": total["verdict.save_reports"],
        "verdict.run_pipeline_self_s": self_total["verdict.run_pipeline"],
        "intent.s": total["intent.generate"] + total["intent.score_quality"],
        "intent.accept_ratio": _ratio(counts["intent_accepted"], calls["intent.score_quality"]),
        "causality.questions_s": total["causality.questions"],
        "causality.assumptions_s": total["causality.assumptions"],
        "causality.counterfactual_s": total["causality.counterfactual"],
        "causality.critical_ratio": _ratio(counts["critical"], counts["assumptions_evaluated"]),
        "che.s": total["che.collect"],
        "che.cosine_calls": calls["che.cosine"],
        "che.cosine_s": total["che.cosine"],
        "che.nli_calls": calls["che.nli"],
        "che.select_ratio": _ratio(counts["che_selected"], calls["che.nli"]),
    }


def self_time_by_span(spans, selfs: list[float]) -> dict[str, float]:
    """Total self time per span name, for the per-layer breakdown."""
    out: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, selfs):
        out[span[NAME]] += own
    return dict(out)
