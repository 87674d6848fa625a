"""Omission-aware fact verification toolkit.

Half-truths pass ordinary fact checks: every stated figure is accurate,
and the misleading part is what went unsaid. This package re-assesses
such claims by splitting evidence into what the claim presents and what
it hides, recovering the claim's intended message, testing which unstated
assumptions that message depends on, retrieving the hidden evidence that
bears on those assumptions, and revising the verdict accordingly.

All model interaction flows through a gateway with a deterministic
scripted backend and a persistent cache, so the whole pipeline runs and
replays offline.
"""

from .alignment import (
    AlignedEvidence,
    AlignmentLabel,
    align_evidence,
    cosine_similarity,
)
from .causality import (
    Assumption,
    CausalArgument,
    CausalEffect,
    build_causal_graph,
    evaluate_all,
    generate_implicit_questions,
    infer_assumptions,
    select_critical_assumptions,
    serialize_argument,
)
from .che import CheCandidate, NliVerdict, collect_che, nli_check
from .config import (
    ABLATION_CONFIGS,
    AblationConfig,
    BackendSettings,
    RunConfig,
    Thresholds,
    load_config,
)
from .corpus import (
    LABELS,
    ClaimRecord,
    Corpus,
    Label,
    Split,
    consolidate_label,
    load_corpus,
    save_corpus,
    split_article,
    temporal_filter,
)
from .errors import TracerError
from .gateway import (
    Embedding,
    Gateway,
    LiveBackend,
    MockScript,
    PromptTemplate,
    ResponseCache,
    TemplateCatalog,
)
from .intent import (
    IntentRecord,
    QualityScores,
    generate_intent,
    score_quality,
)
from .metrics import (
    ConfusionMatrix,
    MetricsReport,
    confusion_matrix,
    per_class_prf,
    score_labels,
    score_reports,
    summarize,
)
from .verdict import (
    BaseVerdict,
    FinalVerdict,
    VerdictReport,
    cot_verify,
    run_pipeline,
)

__version__ = "0.1.0"


def __getattr__(name):
    # run_ablation lives in tracer.cli, imported on first use: importing it
    # here would load it twice under ``python -m tracer.cli``
    if name == "run_ablation":
        from .cli import run_ablation
        return run_ablation
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ABLATION_CONFIGS",
    "AblationConfig",
    "AlignedEvidence",
    "AlignmentLabel",
    "Assumption",
    "BackendSettings",
    "BaseVerdict",
    "CausalArgument",
    "CausalEffect",
    "CheCandidate",
    "ClaimRecord",
    "ConfusionMatrix",
    "Corpus",
    "Embedding",
    "FinalVerdict",
    "Gateway",
    "IntentRecord",
    "LABELS",
    "Label",
    "LiveBackend",
    "MetricsReport",
    "MockScript",
    "NliVerdict",
    "PromptTemplate",
    "QualityScores",
    "ResponseCache",
    "RunConfig",
    "Split",
    "TemplateCatalog",
    "Thresholds",
    "TracerError",
    "VerdictReport",
    "align_evidence",
    "build_causal_graph",
    "collect_che",
    "confusion_matrix",
    "consolidate_label",
    "cosine_similarity",
    "cot_verify",
    "evaluate_all",
    "generate_implicit_questions",
    "generate_intent",
    "infer_assumptions",
    "load_config",
    "load_corpus",
    "nli_check",
    "per_class_prf",
    "run_ablation",
    "run_pipeline",
    "save_corpus",
    "score_labels",
    "score_quality",
    "score_reports",
    "select_critical_assumptions",
    "serialize_argument",
    "split_article",
    "summarize",
    "temporal_filter",
    "__version__",
]
