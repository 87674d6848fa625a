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
import typing
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path

from .alignment import (
    AlignedEvidence,
    AlignmentLabel,
    align_evidence,
    hidden_pool,
)
from .causality import (
    Assumption,
    CausalArgument,
    ImplicitQuestion,
    evaluate_all,
    generate_implicit_questions,
    infer_assumptions,
    select_critical_assumptions,
    serialize_argument,
)
from .che import CheCandidate, collect_che
from .config import FULL_PIPELINE, AblationConfig, Thresholds
from .corpus import ClaimRecord, Label, read_records
from .decoding import decode
from .errors import EmptyJustification, TracerError, UnparseableChoice
from .gateway import Embedding, Endpoint, Gateway, parse_letter_choice
from .intent import IntentRecord, generate_intent, score_quality

REPORT_SCHEMA_VERSION = 2

VERDICT_LETTERS = {
    "A": Label.TRUE,
    "B": Label.HALF_TRUE,
    "C": Label.FALSE,
}
UNVERIFIABLE_LETTER = "D"
_REASSESSMENT_LETTERS = {*VERDICT_LETTERS, UNVERIFIABLE_LETTER}


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
    """Full trace of one claim through the pipeline.

    ``failed`` names the foundation stage that ended the claim; such a
    claim has no prediction, and its False verdicts are placeholders.
    """

    id: str
    aligned_evidence: list[AlignedEvidence]
    intent: IntentRecord | None
    causal_argument: CausalArgument | None
    che: list[CheCandidate]
    base_verdict: BaseVerdict
    final_verdict: FinalVerdict
    failed: str | None = None
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
    letter = parse_letter_choice(choice_text, VERDICT_LETTERS)
    if not reasoning:
        raise EmptyJustification("chain-of-thought completion contains no reasoning steps")
    return BaseVerdict(
        label=VERDICT_LETTERS[letter], justification=reasoning, source=VerdictSource.COT
    )


@dataclass
class _ExternalVerdict:
    id: str
    label: Label
    justification: str

    def __post_init__(self):
        self.verdict = BaseVerdict(self.label, self.justification, VerdictSource.EXTERNAL)


def load_base_verdicts(path: str | Path) -> dict[str, BaseVerdict]:
    """External verdicts by claim id, one JSON record per line, read by ``read_records``."""
    lines = read_records(path, lambda value: decode(_ExternalVerdict, value))
    return {claim_id: line.verdict for claim_id, line in lines.items()}


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
        letter = parse_letter_choice(completion, _REASSESSMENT_LETTERS)
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
    alignment_classifier: Endpoint | None
    nli_classifier: Endpoint | None
    report: VerdictReport
    # The alignment stage sets both pools, and the embeddings of the
    # sentences it refined, by sentence, which CHE reuses.
    relevant: list[str] = field(default_factory=list)
    hidden: list[str] = field(default_factory=list)
    embeddings: dict[str, Embedding] = field(default_factory=dict)
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
        run.embeddings,
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
    # recorded before the checks, so that it stays when they fail
    intent = report.intent = generate_intent(run.gateway, claim, run.relevant)
    quality = score_quality(run.gateway, claim, intent.text)
    report.intent = replace(intent, quality=quality)
    if not quality.accepted:
        return "failed", "quality filter rejected the intent: " + json.dumps(vars(quality))
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
    report.causal_argument = CausalArgument(
        intent=report.intent.text, claim=claim, assumptions=tuple(assumptions)
    )
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
        run.gateway, run.queries, run.hidden, run.thresholds, run.nli_classifier, run.embeddings
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
    alignment_classifier: Endpoint | None = None,
    nli_classifier: Endpoint | None = None,
) -> VerdictReport:
    """Run one claim end to end under an ablation configuration.

    Every stage runs in one loop over ``_STAGE_ORDER``, and the trace
    gets a row per stage. Never raises for a single claim's sake: a hard
    failure in any TRACER stage downgrades the claim to its base verdict
    and the trace says which stage failed and why. Only the two
    foundation stages can fail the claim outright: alignment, when the
    claim has evidence and every sentence failed, and base verification.
    Either ends the claim with a failed row, ``failed`` naming the stage
    and a False verdict carrying the reason, and no later stage runs.

    The cache records of the claim's new answers are written together
    when it ends (``ResponseCache.batched``): when this returns, or
    raises, they are on disk.
    """
    with gateway.cache.batched():
        report = VerdictReport(
            id=record.id,
            aligned_evidence=[],
            intent=None,
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
            report.failed = stage
            report.stages.append(StageTrace(stage, "failed", detail))
            report.base_verdict = BaseVerdict(
                Label.FALSE, f"(unavailable: {detail})", VerdictSource.COT
            )
            report.final_verdict = FinalVerdict(
                Label.FALSE, reassessed=False, fallback_reason=detail
            )
        return report


# -- report serialization ------------------------------------------------
#
# A report line is its dataclasses: every field in declaration order,
# nulls included, nested dataclasses alike. A report dataclass has no
# slots and no attribute but its fields, so its ``vars`` are its fields
# in that order. Enums are str subclasses and tuples become lists, so
# json needs no other hook.


def _dumps(report: VerdictReport) -> str:
    line = {"schema_version": REPORT_SCHEMA_VERSION, **vars(report)}
    return json.dumps(line, default=vars, ensure_ascii=False)


def _v1_failed(stages: list[StageTrace]) -> str | None:
    # Version 1 did not record ``failed``: a claim failed when it has no
    # ok base verdict row, at its last failed foundation stage.
    if any(t.stage == "base_verdict" and t.status == "ok" for t in stages):
        return None
    failed = [
        t.stage
        for t in stages
        if t.stage in ("alignment", "base_verdict") and t.status == "failed"
    ]
    return failed[-1] if failed else "base_verdict"


def report_from_dict(data: dict) -> VerdictReport:
    """A report line of this schema version or of version 1; a ``ValueError`` for any other."""
    version = data.get("schema_version") if type(data) is dict else None
    if type(version) is not int or version not in (1, REPORT_SCHEMA_VERSION):
        raise ValueError(f"unsupported report schema version: {version}")
    report = decode(VerdictReport, data)
    if version == 1:
        report.failed = _v1_failed(report.stages)
    return report


def save_reports(handle: typing.TextIO, reports: list[VerdictReport]) -> None:
    """Append one line per report to an open text file, flushing after each.

    A run calls it at each claim's end, so a run that dies keeps the line
    of every claim it finished.
    """
    for report in reports:
        handle.write(_dumps(report))
        handle.write("\n")
        handle.flush()


def load_reports(path: str | Path) -> list[VerdictReport]:
    """Reports, one JSON line each, read by ``read_records``."""
    return list(read_records(path, report_from_dict).values())


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
    "run_pipeline",
    "save_reports",
]
