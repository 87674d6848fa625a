"""Run configuration: thresholds, ablation gating, backend settings.

Lives apart from the pipeline modules so that alignment, retrieval and
the evaluation harness can all share one Thresholds/AblationConfig
vocabulary without importing each other.

Each run option is one row of ``RUN_OPTIONS``: the command line builds
its flag from the row, and a flag given overrides the row's config file
key before ``config_from_dict`` builds and checks the result.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path
from typing import get_args, get_type_hints
from urllib.parse import urlsplit

from .decoding import DecodeError, decode
from .errors import ConfigError


# key: "section.name" in a config file, or a top-level name; parse: the
# flag's argparse type, or the constant that the bare flag stands for
RunOption = namedtuple("RunOption", "key flag parse help")


RUN_OPTIONS = tuple(
    RunOption(*row)
    for row in (
        ("paths.corpus", "--corpus", str, "corpus file"),
        ("paths.output", "--output", str, "verdict report destination"),
        ("paths.cache", "--cache", str, "persistent response cache file"),
        ("paths.base_verdicts", "--base-verdicts", str, "external base-verdict file (skips CoT)"),
        ("backend.mock_script", "--mock", str, "mock script; selects the offline backend"),
        ("backend.mode", "--live", "live", "use the live HTTP backend"),
        ("backend.model_id", "--model", str, "live model identifier"),
        ("backend.embedding_model_id", "--embedding-model", str, "live embedding model id"),
        ("backend.base_url", "--base-url", str, "live backend base URL"),
        # checked, then met at any value, since a run sends one request at a
        # time; it stays while perfbench/run.py's TRACER_ARGS pass it
        ("backend.concurrency", "--concurrency", int, "max in-flight backend requests"),
        ("backend.alignment_endpoint", "--alignment-endpoint", str, "alignment classifier URL"),
        ("backend.nli_endpoint", "--nli-endpoint", str, "NLI classifier URL"),
        ("thresholds.tau_low", "--tau-low", float, "alignment demotion threshold"),
        ("thresholds.tau_high", "--tau-high", float, "alignment promotion threshold"),
        ("thresholds.tau_che", "--tau-che", float, "retrieval similarity threshold"),
        ("thresholds.top_k", "--k", int, "retrieval candidates per assumption"),
        ("thresholds.assumption_max_number", "--max-assumptions", int, "assumption cap per claim"),
        ("thresholds.max_questions", "--max-questions", int, "question cap per claim"),
        ("reassess_true_only", "--reassess-true-only", True, "re-assess only True base verdicts"),
    )
)

# every key a config file may hold: one per run option, and the stage
# gating that `tracer run --ablation` sets (`tracer ablate` takes --configs)
CONFIG_KEYS = frozenset(option.key for option in RUN_OPTIONS) | {"ablation"}
_SECTIONS = ("backend", "paths", "thresholds")

# what a field of each type must be, as a type error says it
_KINDS = {str: "a non-empty string", int: "an integer", float: "a number", bool: "true or false"}


def _check_fields(settings) -> None:
    """ConfigError naming the first field whose value its type hint does not allow.

    Types are read as ``decode`` reads them (a bool is no number, a float
    takes an int, ``X | None`` takes None), and a string must not be empty.
    Every int field is a count, so positive; every float field is a
    similarity threshold, so in [-1, 1].
    """
    for name, hint in get_type_hints(type(settings)).items():
        kind, *optional = get_args(hint) or (hint,)
        value = getattr(settings, name)
        if kind not in _KINDS or (value is None and optional):
            continue
        try:  # an empty string is refused as a null is
            decode(kind, None if value == "" else value)
        except DecodeError:
            raise ConfigError(f"{name} must be {_KINDS[kind]}, got {value!r}") from None
        if kind is int and value < 1:
            raise ConfigError(f"{name} must be positive, got {value}")
        if kind is float and not -1.0 <= value <= 1.0:
            raise ConfigError(f"{name} must lie in [-1, 1], got {value}")


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
    alignment_endpoint: str | None = None
    nli_endpoint: str | None = None


def _is_http_url(url: str) -> bool:
    try:
        parts = urlsplit(url)
    except ValueError:  # a malformed IPv6 host
        return False
    return parts.scheme in ("http", "https") and bool(parts.hostname)


@dataclass(frozen=True)
class RunConfig:
    backend: BackendSettings = BackendSettings()
    thresholds: Thresholds = Thresholds()
    ablation: AblationConfig = FULL_PIPELINE
    reassess_true_only: bool = False
    corpus_path: str | None = None
    cache_path: str | None = None
    output_path: str | None = None
    base_verdicts_path: str | None = None

    def validate(self) -> None:
        """ConfigError naming the first value its field does not allow."""
        backend = self.backend
        for settings in (backend, self.thresholds, self):
            _check_fields(settings)
        if backend.mode not in ("mock", "live"):
            raise ConfigError(f"backend mode must be 'mock' or 'live', got {backend.mode!r}")
        if backend.mode == "mock" and not backend.mock_script:
            raise ConfigError("mock mode requires a mock script path")
        for name in ("base_url", "alignment_endpoint", "nli_endpoint"):
            url = getattr(backend, name)
            if url is not None and not _is_http_url(url):
                raise ConfigError(f"{name} must be an http or https URL with a host, got {url!r}")
        for label, path in (
            ("corpus", self.corpus_path),
            ("base verdicts", self.base_verdicts_path),
            ("mock script", backend.mock_script),
        ):
            if path is not None and not Path(path).exists():
                raise ConfigError(f"{label} path does not exist: {path}")


def config_from_dict(data: dict, overrides: dict | None = None) -> RunConfig:
    """The checked RunConfig of a config file's mapping, with ``overrides``
    (keys of ``CONFIG_KEYS``, such as ``"thresholds.top_k"``) laid over it."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    data = dict(data)
    for section in _SECTIONS:
        value = data.get(section)
        if value is not None and not isinstance(value, dict):
            raise ConfigError(f"config section {section!r} must be a mapping")
        data[section] = dict(value or {})
    for key, value in (overrides or {}).items():
        section, _, name = key.rpartition(".")
        (data[section] if section else data)[name] = value
    # "backend" is a top-level name, "paths.corpus" a name in section "paths"
    names = [key.rpartition(".") for key in CONFIG_KEYS.union(_SECTIONS)]
    for section in ("", *_SECTIONS):
        known = {name for in_section, _, name in names if in_section == section}
        unknown = set(data[section] if section else data) - known
        if unknown:
            word = section.removesuffix("s") or "config"
            raise ConfigError(f"unknown {word} keys: {', '.join(sorted(map(str, unknown)))}")

    ablation = data.get("ablation", "cfg4")
    if not isinstance(ablation, str):
        raise ConfigError(f"ablation must be a config name, got {ablation!r}")
    if ablation not in ABLATION_CONFIGS:
        raise ConfigError(
            f"unknown ablation config {ablation!r}; expected one of "
            f"{', '.join(sorted(ABLATION_CONFIGS))}"
        )
    config = RunConfig(
        backend=BackendSettings(**data["backend"]),
        thresholds=Thresholds(**data["thresholds"]),
        ablation=ABLATION_CONFIGS[ablation],
        reassess_true_only=data.get("reassess_true_only", False),
        **{f"{name}_path": value for name, value in data["paths"].items()},
    )
    config.validate()
    return config


def read_config_file(path: str | Path) -> dict:
    """The mapping a YAML run configuration file holds; ``config_from_dict`` checks it."""
    # imported here, so that a run without a config file never pays for it
    import yaml

    try:
        with Path(path).open("r", encoding="utf-8") as handle:
            data = yaml.safe_load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
    return data or {}


__all__ = [
    "ABLATION_CONFIGS",
    "AblationConfig",
    "BackendSettings",
    "CONFIG_KEYS",
    "FULL_PIPELINE",
    "RUN_OPTIONS",
    "RunConfig",
    "Thresholds",
    "config_from_dict",
    "read_config_file",
]
