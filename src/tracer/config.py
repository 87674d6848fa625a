"""Run configuration: thresholds, ablation gating, backend settings.

Lives apart from the pipeline modules so that alignment, retrieval and
the evaluation harness can all share one Thresholds/AblationConfig
vocabulary without importing each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

from .errors import ConfigError


def _require(name: str, value, kinds: tuple, what: str) -> None:
    """ConfigError naming the key unless the value is one of the kinds; a bool never is."""
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ConfigError(f"{name} must be {what}, got {value!r}")


@dataclass(frozen=True)
class Thresholds:
    """Every tunable cutoff in one place.

    tau_low / tau_high gate the similarity refinement of evidence
    alignment; either may be None to disable that direction. tau_che and
    top_k govern hidden-evidence retrieval. Caps on questions and
    assumptions bound prompt fan-out per claim.
    """

    tau_low: float | None = 0.40
    tau_high: float | None = 0.85
    tau_che: float = 0.5
    top_k: int = 5
    assumption_max_number: int = 3
    max_questions: int = 3

    def validate(self) -> None:
        for name in ("tau_low", "tau_high", "tau_che"):
            value = getattr(self, name)
            if value is None and name != "tau_che":
                continue
            _require(name, value, (int, float), "a number")
            if not -1.0 <= value <= 1.0:
                raise ConfigError(f"{name} must lie in [-1, 1], got {value}")
        for name in ("top_k", "assumption_max_number", "max_questions"):
            value = getattr(self, name)
            _require(name, value, (int,), "an integer")
            if value < 1:
                raise ConfigError(f"{name} must be positive, got {value}")


@dataclass(frozen=True)
class AblationConfig:
    """Which pipeline stages are live.

    Stages are monotone: assumptions need an intent to attach to, and
    counterfactual causality needs assumptions to test. With assumptions
    off but intent on, retrieval queries the intent text directly; with
    causality off, every assumption counts as critical.
    """

    name: str
    intent: bool
    assumptions: bool
    causality: bool

    def __post_init__(self):
        if self.assumptions and not self.intent:
            raise ConfigError(f"{self.name}: assumptions stage requires the intent stage")
        if self.causality and not self.assumptions:
            raise ConfigError(f"{self.name}: causality stage requires the assumptions stage")


ABLATION_CONFIGS = {
    "cfg1": AblationConfig("cfg1", intent=False, assumptions=False, causality=False),
    "cfg2": AblationConfig("cfg2", intent=True, assumptions=False, causality=False),
    "cfg3": AblationConfig("cfg3", intent=True, assumptions=True, causality=False),
    "cfg4": AblationConfig("cfg4", intent=True, assumptions=True, causality=True),
}

FULL_PIPELINE = ABLATION_CONFIGS["cfg4"]


@dataclass(frozen=True)
class BackendSettings:
    mode: str = "mock"  # "mock" or "live"
    base_url: str = "https://api.openai.com/v1"
    model_id: str = "gpt-4o-mini"
    embedding_model_id: str | None = None
    concurrency: int = 4
    mock_script: str | None = None

    def validate(self) -> None:
        for name in ("mode", "base_url", "model_id"):
            _require(name, getattr(self, name), (str,), "a string")
        for name in ("embedding_model_id", "mock_script"):
            _require(name, getattr(self, name), (str, type(None)), "a string")
        _require("concurrency", self.concurrency, (int,), "an integer")
        if self.mode not in ("mock", "live"):
            raise ConfigError(f"backend mode must be 'mock' or 'live', got {self.mode!r}")
        if self.mode == "mock" and not self.mock_script:
            raise ConfigError("mock mode requires a mock script path")
        if self.concurrency < 1:
            raise ConfigError(f"concurrency must be positive, got {self.concurrency}")


@dataclass(frozen=True)
class RunConfig:
    backend: BackendSettings = BackendSettings()
    thresholds: Thresholds = Thresholds()
    ablation: AblationConfig = FULL_PIPELINE
    reassess_true_only: bool = False
    corpus_path: str | None = None
    cache_path: str | None = None
    output_path: str | None = None

    def validate(self) -> None:
        self.backend.validate()
        self.thresholds.validate()
        for name in ("corpus_path", "cache_path", "output_path"):
            _require(name, getattr(self, name), (str, type(None)), "a string")
        if not isinstance(self.reassess_true_only, bool):
            raise ConfigError(
                f"reassess_true_only must be true or false, got {self.reassess_true_only!r}"
            )
        for label, path in (
            ("corpus", self.corpus_path),
            ("mock script", self.backend.mock_script),
        ):
            if path is not None and not Path(path).exists():
                raise ConfigError(f"{label} path does not exist: {path}")


_THRESHOLD_KEYS = ("tau_low", "tau_high", "tau_che", "top_k", "assumption_max_number", "max_questions")
_BACKEND_KEYS = (
    "mode",
    "base_url",
    "model_id",
    "embedding_model_id",
    "concurrency",
    "mock_script",
)


def _section(data: dict, key: str) -> dict:
    value = data.get(key, {})
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"config section {key!r} must be a mapping")
    return value


def config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    known = {"backend", "thresholds", "ablation", "reassess_true_only", "paths"}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")

    backend_data = _section(data, "backend")
    bad = set(backend_data) - set(_BACKEND_KEYS)
    if bad:
        raise ConfigError(f"unknown backend keys: {', '.join(sorted(bad))}")
    backend = replace(BackendSettings(), **backend_data)

    threshold_data = _section(data, "thresholds")
    bad = set(threshold_data) - set(_THRESHOLD_KEYS)
    if bad:
        raise ConfigError(f"unknown threshold keys: {', '.join(sorted(bad))}")
    thresholds = replace(Thresholds(), **threshold_data)

    ablation_name = data.get("ablation", "cfg4")
    if ablation_name not in ABLATION_CONFIGS:
        raise ConfigError(
            f"unknown ablation config {ablation_name!r}; expected one of "
            f"{', '.join(sorted(ABLATION_CONFIGS))}"
        )

    paths = _section(data, "paths")
    bad = set(paths) - {"corpus", "cache", "output"}
    if bad:
        raise ConfigError(f"unknown path keys: {', '.join(sorted(bad))}")

    return RunConfig(
        backend=backend,
        thresholds=thresholds,
        ablation=ABLATION_CONFIGS[ablation_name],
        reassess_true_only=data.get("reassess_true_only", False),
        corpus_path=paths.get("corpus"),
        cache_path=paths.get("cache"),
        output_path=paths.get("output"),
    )


def load_config(path: str | Path) -> RunConfig:
    """Read a YAML run configuration file."""
    # imported here, so that a run without a config file never pays for it
    import yaml

    try:
        with Path(path).open("r", encoding="utf-8") as handle:
            data = yaml.safe_load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
    return config_from_dict(data or {})


__all__ = [
    "ABLATION_CONFIGS",
    "AblationConfig",
    "BackendSettings",
    "FULL_PIPELINE",
    "RunConfig",
    "Thresholds",
    "config_from_dict",
    "load_config",
]
