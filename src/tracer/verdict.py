"""Base verification and verdict re-assessment.

A base verifier (a chain-of-thought prompt, or any external system's
verdict file) assigns the initial three-way label with a justification.
The re-assessment stage then confronts that justification with the
critical hidden evidence and the causal argument, and may revise the
label. When nothing critical was hidden, the base label stands untouched
and no re-assessment prompt is ever rendered.

run_pipeline wires every stage together for one claim and emits a
complete, replayable trace of what happened.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .alignment import (
    AlignedEvidence,
    AlignmentLabel,
    ExternalAlignmentClassifier,
    Provenance,
    align_evidence,
    hidden_pool,
)
from .causality import (
    Assumption,
    CausalArgument,
    CausalEffect,
    ImplicitQuestion,
    build_causal_graph,
    evaluate_all,
    generate_implicit_questions,
    infer_assumptions,
    select_critical_assumptions,
    serialize_argument,
)
from .che import CheCandidate, ExternalNliClassifier, NliVerdict, collect_che
from .config import FULL_PIPELINE, AblationConfig, Thresholds
from .corpus import ClaimRecord, Label, _check_unicode
from .errors import (
    EmptyJustification,
    ParseError,
    TracerError,
    UnparseableChoice,
)
from .gateway import Gateway, parse_letter_choice
from .intent import IntentRecord, IntentSource, QualityScores, generate_intent, score_quality

REPORT_SCHEMA_VERSION = 1

VERDICT_LETTERS = {
    "A": Label.TRUE,
    "B": Label.HALF_TRUE,
    "C": Label.FALSE,
}
UNVERIFIABLE_LETTER = "D"


class VerdictSource(str, Enum):
    COT = "CoT"
    EXTERNAL = "External"


@dataclass(frozen=True)
class BaseVerdict:
    label: Label
    justification: str
    source: VerdictSource

    def __post_init__(self):
        if not self.justification.strip():
            raise EmptyJustification(
                "base verdicts must carry a justification; re-assessment depends on it"
            )


@dataclass(frozen=True)
class FinalVerdict:
    label: Label
    reassessed: bool
    raw_choice: str | None = None
    fallback_reason: str | None = None


@dataclass
class StageTrace:
    stage: str
    status: str  # "ok" | "skipped" | "failed"
    detail: str | None = None


@dataclass
class VerdictReport:
    """Full trace of one claim through the pipeline."""

    id: str
    aligned_evidence: list[AlignedEvidence]
    intent: IntentRecord | None
    intent_quality: QualityScores | None
    causal_argument: CausalArgument | None
    che: list[CheCandidate]
    base_verdict: BaseVerdict
    final_verdict: FinalVerdict
    stages: list[StageTrace] = field(default_factory=list)


# -- base verification -------------------------------------------------

_ANSWER_MARKER = re.compile(r"answer\s*:", re.IGNORECASE)


def cot_verify(gateway: Gateway, claim: str, evidence: list[str]) -> BaseVerdict:
    """Chain-of-thought base verdict: reasoning steps, then a letter.

    The completion's final "Answer:" marker splits justification from
    the verdict letter. Reasoning must be present; a bare letter with no
    steps cannot feed re-assessment.
    """
    completion = gateway.complete("cot_verdict", claim=claim, evidence="\n".join(evidence))
    markers = list(_ANSWER_MARKER.finditer(completion))
    if markers:
        last = markers[-1]
        reasoning = completion[: last.start()].strip()
        choice_text = completion[last.end() :]
    else:
        reasoning = ""
        choice_text = completion
    letter = parse_letter_choice(choice_text, set(VERDICT_LETTERS))
    if not reasoning:
        raise EmptyJustification("chain-of-thought completion contains no reasoning steps")
    return BaseVerdict(
        label=VERDICT_LETTERS[letter], justification=reasoning, source=VerdictSource.COT
    )


def load_base_verdicts(path: str | Path) -> dict[str, BaseVerdict]:
    """External verdicts, one JSON record per line; a bad or repeated one is a ``ParseError``."""
    verdicts: dict[str, BaseVerdict] = {}
    with Path(path).open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
                _check_unicode(line, row, line_number)
                record_id = row["id"]
                if not isinstance(record_id, str) or not record_id:
                    raise ValueError("id must be a non-empty string")
                if record_id in verdicts:
                    raise ValueError(f"duplicate id {record_id!r}")
                verdicts[record_id] = BaseVerdict(
                    label=Label(row["label"]),
                    justification=row["justification"],
                    source=VerdictSource.EXTERNAL,
                )
            except (AttributeError, KeyError, TypeError, ValueError, EmptyJustification) as exc:
                raise ParseError(line_number, f"bad external verdict record: {exc}") from exc
    return verdicts


# -- re-assessment ------------------------------------------------------


def reassess_with_argument(
    gateway: Gateway, base: BaseVerdict, che: list[CheCandidate], argument_text: str
) -> FinalVerdict:
    """Core re-assessment: confront the base verdict with CHE.

    With no critical hidden evidence there is nothing to confront: the
    base label is preserved and no prompt is rendered. Option D and
    unparseable answers also keep the base label, with the reason
    recorded rather than silently inventing a label.
    """
    if not che:
        return FinalVerdict(label=base.label, reassessed=False)
    evidence_block = "\n".join(c.sentence for c in che)
    completion = gateway.complete(
        "reassessment",
        evidence=evidence_block,
        argument=argument_text,
        justification=base.justification,
    )
    try:
        letter = parse_letter_choice(completion, set(VERDICT_LETTERS) | {UNVERIFIABLE_LETTER})
    except UnparseableChoice as exc:
        return FinalVerdict(
            label=base.label,
            reassessed=False,
            fallback_reason=f"UnparseableChoice: {exc.text[:80]!r}",
        )
    if letter == UNVERIFIABLE_LETTER:
        return FinalVerdict(
            label=base.label,
            reassessed=True,
            raw_choice=letter,
            fallback_reason="Unverifiable",
        )
    return FinalVerdict(label=VERDICT_LETTERS[letter], reassessed=True, raw_choice=letter)


# -- pipeline ------------------------------------------------------------


class _ClaimFailed(Exception):
    """A foundation stage's failure: the claim ends, with this detail."""


@dataclass
class _ClaimRun:
    """What the stages of one claim read and write besides its report."""

    gateway: Gateway
    record: ClaimRecord
    thresholds: Thresholds
    ablation: AblationConfig
    reassess_true_only: bool
    base_verdicts: dict[str, BaseVerdict] | None
    alignment_classifier: ExternalAlignmentClassifier | None
    nli_classifier: ExternalNliClassifier | None
    report: VerdictReport
    # The alignment stage sets both pools.
    relevant: list[str] = field(default_factory=list)
    hidden: list[str] = field(default_factory=list)
    questions: list[ImplicitQuestion] = field(default_factory=list)
    # Retrieval queries: the intent stage sets the intent itself, and the
    # assumptions and causality stages replace it when they run.
    queries: list[Assumption] = field(default_factory=list)
    # Truncation notes, written as extra rows after the current stage's.
    notes: list[str] = field(default_factory=list)


def _alignment_stage(run: _ClaimRun) -> tuple[str, str]:
    record = run.record
    aligned = align_evidence(
        run.gateway,
        record.claim,
        "\n".join(record.ruling),
        record.evidence,
        run.thresholds,
        run.alignment_classifier,
    )
    run.report.aligned_evidence = aligned
    errors = sum(1 for a in aligned if a.error)
    run.hidden = hidden_pool(aligned)
    detail = (
        f"presented={sum(1 for a in aligned if a.label is AlignmentLabel.PRESENTED)} "
        f"hidden={len(run.hidden)} "
        f"irrelevant={sum(1 for a in aligned if a.label is AlignmentLabel.IRRELEVANT)}"
        + (f" errors={errors}" if errors else "")
    )
    if aligned and errors == len(aligned):
        # a verdict on no aligned evidence would be scored as a real prediction
        raise _ClaimFailed(f"every evidence sentence failed: {detail}")
    run.relevant = [a.sentence for a in aligned if a.label is not AlignmentLabel.IRRELEVANT]
    return "failed" if errors else "ok", detail


def _base_verdict_stage(run: _ClaimRun) -> tuple[str, str]:
    report = run.report
    if run.base_verdicts is not None:
        if run.record.id not in run.base_verdicts:
            raise _ClaimFailed("no external verdict for this claim")
        report.base_verdict, detail = run.base_verdicts[run.record.id], "external"
    else:
        try:
            report.base_verdict = cot_verify(run.gateway, run.record.claim, run.relevant)
        except TracerError as exc:
            raise _ClaimFailed(f"{type(exc).__name__}: {exc}") from exc
        detail = "CoT"
    report.final_verdict = FinalVerdict(label=report.base_verdict.label, reassessed=False)
    return "ok", detail


def _intent_stage(run: _ClaimRun) -> tuple[str, str]:
    report, claim = run.report, run.record.claim
    report.intent = generate_intent(run.gateway, claim, run.relevant)
    report.intent_quality = score_quality(run.gateway, claim, report.intent.text)
    if not report.intent_quality.accepted:
        return "failed", "quality filter rejected the intent: " + json.dumps(
            report.intent_quality.as_dict()
        )
    run.queries = [Assumption(text=report.intent.text)]
    return "ok", f"low_context={report.intent.low_context}"


def _questions_stage(run: _ClaimRun) -> tuple[str, str]:
    run.questions = generate_implicit_questions(
        run.gateway,
        run.record.claim,
        run.report.intent.text,
        run.hidden,
        max_questions=run.thresholds.max_questions,
        diagnostics=run.notes,
    )
    return "ok", f"n={len(run.questions)}"


def _assumptions_stage(run: _ClaimRun) -> tuple[str, str]:
    report, claim = run.report, run.record.claim
    assumptions = infer_assumptions(
        run.gateway,
        claim,
        report.intent.text,
        run.questions,
        max_n=run.thresholds.assumption_max_number,
        diagnostics=run.notes,
    )
    report.causal_argument = build_causal_graph(claim, report.intent.text, assumptions)
    run.queries = list(report.causal_argument.assumptions)
    return "ok", f"n={len(assumptions)}"


def _causality_stage(run: _ClaimRun) -> tuple[str, str]:
    if not run.ablation.causality:
        return "skipped", "ablation: all assumptions treated critical"
    report = run.report
    report.causal_argument = evaluate_all(run.gateway, report.causal_argument)
    run.queries = select_critical_assumptions(report.causal_argument)
    return "ok", f"critical={len(run.queries)}/{len(report.causal_argument.assumptions)}"


def _che_stage(run: _ClaimRun) -> tuple[str, str]:
    report = run.report
    report.che = collect_che(
        run.gateway, run.queries, run.hidden, run.thresholds, run.nli_classifier
    )
    query = " (intent query)" if report.causal_argument is None else ""
    return "ok", f"selected={len(report.che)}{query}"


def _reassessment_stage(run: _ClaimRun) -> tuple[str, str]:
    report = run.report
    if run.reassess_true_only and report.base_verdict.label is not Label.TRUE:
        return "skipped", "restricted to True base verdicts"
    # Without assumptions the argument is the intent resting on the claim alone.
    argument = report.causal_argument or CausalArgument(
        intent=report.intent.text, claim=run.record.claim, assumptions=()
    )
    report.final_verdict = reassess_with_argument(
        run.gateway, report.base_verdict, report.che, serialize_argument(argument)
    )
    if not report.che:
        return "skipped", "no critical hidden evidence"
    detail = f"choice={report.final_verdict.raw_choice}"
    if report.final_verdict.fallback_reason:
        detail += f" fallback={report.final_verdict.fallback_reason}"
    return "ok", detail


# Every stage of a claim in its fixed order. Each entry names the stage,
# the AblationConfig switch that turns it on (None: always on), the
# function that runs it and the reason every later stage is skipped with
# if it fails (None: later stages run anyway). The two foundation stages,
# alignment and base verdict, end the claim instead when they cannot
# produce anything to build on. Causality is switched on with the
# assumptions and reads its own switch, because without counterfactuals
# every assumption counts as critical.
_STAGE_ORDER = (
    ("alignment", None, _alignment_stage, None),
    ("base_verdict", None, _base_verdict_stage, None),
    ("intent", "intent", _intent_stage, "intent unavailable"),
    ("questions", "assumptions", _questions_stage, "questions unavailable"),
    ("assumptions", "assumptions", _assumptions_stage, "assumptions unavailable"),
    ("causality", "assumptions", _causality_stage, "causality unavailable"),
    ("che", "intent", _che_stage, "hidden evidence unavailable"),
    ("reassessment", "intent", _reassessment_stage, None),
)


def run_pipeline(
    gateway: Gateway,
    record: ClaimRecord,
    thresholds: Thresholds = Thresholds(),
    ablation: AblationConfig = FULL_PIPELINE,
    reassess_true_only: bool = False,
    base_verdicts: dict[str, BaseVerdict] | None = None,
    alignment_classifier: ExternalAlignmentClassifier | None = None,
    nli_classifier: ExternalNliClassifier | None = None,
) -> VerdictReport:
    """Run one claim end to end under an ablation configuration.

    Every stage runs in one loop over ``_STAGE_ORDER``, and the trace
    gets a row per stage. Never raises for a single claim's sake: a hard
    failure in any TRACER stage downgrades the claim to its base verdict
    and the trace says which stage failed and why. Only the two
    foundation stages can fail the claim outright: alignment, when the
    claim has evidence and every sentence failed, and base verification.
    Either ends the claim with a failed row and a False verdict carrying
    the reason, and no later stage runs.

    The cache records of the claim's new answers are written together
    when it ends (``ResponseCache.batched``): when this returns, or
    raises, they are on disk.
    """
    with gateway.cache.batched():
        report = VerdictReport(
            id=record.id,
            aligned_evidence=[],
            intent=None,
            intent_quality=None,
            causal_argument=None,
            che=[],
            base_verdict=BaseVerdict(
                label=Label.FALSE, justification="(unset)", source=VerdictSource.COT
            ),
            final_verdict=FinalVerdict(label=Label.FALSE, reassessed=False),
        )
        run = _ClaimRun(
            gateway, record, thresholds, ablation, reassess_true_only,
            base_verdicts, alignment_classifier, nli_classifier, report
        )
        unavailable = None
        try:
            for stage, switch, run_stage, reason in _STAGE_ORDER:
                if unavailable is not None:
                    status, detail = "skipped", unavailable
                elif switch is not None and not getattr(ablation, switch):
                    status, detail = "skipped", "ablation"
                else:
                    try:
                        status, detail = run_stage(run)
                    except TracerError as exc:
                        status, detail = "failed", f"{type(exc).__name__}: {exc}"
                    if status == "failed":
                        unavailable = reason
                report.stages.append(StageTrace(stage, status, detail))
                report.stages.extend(StageTrace(stage, "ok", note) for note in run.notes)
                run.notes.clear()
        except _ClaimFailed as exc:  # ends the claim at `stage`
            detail = str(exc)
            report.stages.append(StageTrace(stage, "failed", detail))
            report.base_verdict = BaseVerdict(
                Label.FALSE, f"(unavailable: {detail})", VerdictSource.COT
            )
            report.final_verdict = FinalVerdict(
                Label.FALSE, reassessed=False, fallback_reason=detail
            )
        return report


# -- report serialization ------------------------------------------------


def _aligned_to_dict(a: AlignedEvidence) -> dict:
    row = {"sentence": a.sentence, "label": a.label.value, "provenance": a.provenance.value}
    if a.similarity is not None:
        row["similarity"] = a.similarity
    if a.error is not None:
        row["error"] = a.error
    return row


def _aligned_from_dict(row: dict) -> AlignedEvidence:
    return AlignedEvidence(
        sentence=row["sentence"],
        label=AlignmentLabel(row["label"]),
        similarity=row.get("similarity"),
        provenance=Provenance(row["provenance"]),
        error=row.get("error"),
    )


def report_to_dict(report: VerdictReport) -> dict:
    intent = None
    if report.intent is not None:
        intent = {
            "text": report.intent.text,
            "rationale": report.intent.rationale,
            "source": report.intent.source.value,
            "low_context": report.intent.low_context,
        }
        if report.intent_quality is not None:
            intent["quality"] = report.intent_quality.as_dict()
    argument = None
    if report.causal_argument is not None:
        argument = {
            "intent": report.causal_argument.intent,
            "claim": report.causal_argument.claim,
            "assumptions": [
                {
                    "text": a.text,
                    "causal_effect": a.causal_effect.value if a.causal_effect else None,
                    "flags": list(a.flags),
                }
                for a in report.causal_argument.assumptions
            ],
        }
    final = {"label": report.final_verdict.label.value, "reassessed": report.final_verdict.reassessed}
    if report.final_verdict.raw_choice is not None:
        final["raw_choice"] = report.final_verdict.raw_choice
    if report.final_verdict.fallback_reason is not None:
        final["fallback_reason"] = report.final_verdict.fallback_reason
    stages = []
    for trace in report.stages:
        row = {"stage": trace.stage, "status": trace.status}
        if trace.detail is not None:
            row["detail"] = trace.detail
        stages.append(row)
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "id": report.id,
        "aligned_evidence": [_aligned_to_dict(a) for a in report.aligned_evidence],
        "intent": intent,
        "causal_argument": argument,
        "che": [
            {
                "sentence": c.sentence,
                "assumption": c.assumption,
                "similarity": c.similarity,
                "nli": c.nli.value,
                "selected": c.selected,
                "linked_assumptions": list(c.linked_assumptions),
            }
            for c in report.che
        ],
        "base_verdict": {
            "label": report.base_verdict.label.value,
            "justification": report.base_verdict.justification,
            "source": report.base_verdict.source.value,
        },
        "final_verdict": final,
        "stages": stages,
    }


def report_from_dict(data: dict) -> VerdictReport:
    if data.get("schema_version") != REPORT_SCHEMA_VERSION:
        raise ParseError(0, f"unsupported report schema version: {data.get('schema_version')}")
    intent = None
    quality = None
    if data["intent"] is not None:
        block = data["intent"]
        intent = IntentRecord(
            text=block["text"],
            rationale=block["rationale"],
            source=IntentSource(block["source"]),
            low_context=block["low_context"],
        )
        if "quality" in block:
            quality = QualityScores(**block["quality"])
    argument = None
    if data["causal_argument"] is not None:
        block = data["causal_argument"]
        argument = CausalArgument(
            intent=block["intent"],
            claim=block["claim"],
            assumptions=tuple(
                Assumption(
                    text=a["text"],
                    causal_effect=CausalEffect(a["causal_effect"])
                    if a["causal_effect"]
                    else None,
                    flags=tuple(a["flags"]),
                )
                for a in block["assumptions"]
            ),
        )
    final_block = data["final_verdict"]
    return VerdictReport(
        id=data["id"],
        aligned_evidence=[_aligned_from_dict(row) for row in data["aligned_evidence"]],
        intent=intent,
        intent_quality=quality,
        causal_argument=argument,
        che=[
            CheCandidate(
                sentence=c["sentence"],
                assumption=c["assumption"],
                similarity=c["similarity"],
                nli=NliVerdict(c["nli"]),
                selected=c["selected"],
                linked_assumptions=tuple(c["linked_assumptions"]),
            )
            for c in data["che"]
        ],
        base_verdict=BaseVerdict(
            label=Label(data["base_verdict"]["label"]),
            justification=data["base_verdict"]["justification"],
            source=VerdictSource(data["base_verdict"]["source"]),
        ),
        final_verdict=FinalVerdict(
            label=Label(final_block["label"]),
            reassessed=final_block["reassessed"],
            raw_choice=final_block.get("raw_choice"),
            fallback_reason=final_block.get("fallback_reason"),
        ),
        stages=[
            StageTrace(row["stage"], row["status"], row.get("detail"))
            for row in data["stages"]
        ],
    )


def save_reports(path: str | Path, reports: list[VerdictReport]) -> None:
    with Path(path).open("w", encoding="utf-8") as handle:
        for report in reports:
            handle.write(json.dumps(report_to_dict(report), ensure_ascii=False))
            handle.write("\n")


def load_reports(path: str | Path) -> list[VerdictReport]:
    reports = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                reports.append(report_from_dict(json.loads(line)))
            except ParseError as exc:
                raise ParseError(line_number, exc.reason) from exc
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise ParseError(line_number, f"bad report record: {exc}") from exc
    return reports


__all__ = [
    "BaseVerdict",
    "FinalVerdict",
    "REPORT_SCHEMA_VERSION",
    "StageTrace",
    "VERDICT_LETTERS",
    "VerdictReport",
    "VerdictSource",
    "cot_verify",
    "load_base_verdicts",
    "load_reports",
    "reassess_with_argument",
    "report_from_dict",
    "report_to_dict",
    "run_pipeline",
    "save_reports",
]
