"""Operator command line.

    tracer ingest      validate a corpus file and re-emit it canonically
    tracer run         run the pipeline end to end over a corpus
    tracer eval        score a verdict report against gold labels
    tracer ablate      run every stage-gating configuration and compare
    tracer cache-stats show persistent cache entries and the size of its files
    tracer cache-clear drop the persistent cache and its vector file

Exit codes: 0 success; 1 usage, configuration, or unreadable input;
2 inconsistent data (duplicate ids, missing predictions, empty scoring
sets). Per-claim pipeline failures never fail the run: they are recorded
inside the report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .alignment import ExternalAlignmentClassifier
from .che import ExternalNliClassifier
from .config import ABLATION_CONFIGS, AblationConfig, BackendSettings, RunConfig, load_config
from .corpus import ClaimRecord, Label, load_corpus, save_corpus
from .errors import ConfigError, EmptyInput, ParseError, TracerError
from .gateway import Gateway, LiveBackend, MockScript, ResponseCache, api_key_from_env
from .gateway.cache import remove_cache_files
from .metrics import MetricsReport, failed_stage, format_table, score_reports
from .verdict import VerdictReport, load_base_verdicts, load_reports, run_pipeline, save_reports


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the documented
    # contract reserves 2 for data errors
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tracer", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    ingest = sub.add_parser("ingest", help="validate and re-emit a corpus")
    ingest.add_argument("--input", required=True, help="corpus file, one JSON record per line")
    ingest.add_argument("--output", help="write the validated corpus here")
    ingest.add_argument("--split", default="test", choices=["train", "dev", "test"])

    run = sub.add_parser("run", help="run the pipeline over a corpus")
    run.add_argument("--config", help="YAML run configuration file")
    run.add_argument("--corpus", help="corpus file (overrides config)")
    run.add_argument("--output", help="verdict report destination (overrides config)")
    run.add_argument("--mock", help="mock script path; selects the offline backend")
    run.add_argument("--cache", help="persistent response cache file")
    run.add_argument("--ablation", choices=sorted(ABLATION_CONFIGS), help="stage gating")
    run.add_argument("--live", action="store_true", help="use the live HTTP backend")
    run.add_argument("--model", help="live model identifier")
    run.add_argument("--base-url", help="live backend base URL")
    run.add_argument("--concurrency", type=int, help="max in-flight backend requests")
    run.add_argument("--tau-low", type=float, help="alignment demotion threshold")
    run.add_argument("--tau-high", type=float, help="alignment promotion threshold")
    run.add_argument("--tau-che", type=float, help="retrieval similarity threshold")
    run.add_argument("--k", type=int, help="retrieval candidates per assumption")
    run.add_argument("--max-assumptions", type=int, help="assumption cap per claim")
    run.add_argument(
        "--reassess-true-only",
        action="store_true",
        help="re-assess only claims with a True base verdict",
    )
    run.add_argument("--base-verdicts", help="external base-verdict file (skips the CoT step)")
    run.add_argument("--alignment-endpoint", help="external alignment classifier URL")
    run.add_argument("--nli-endpoint", help="external NLI classifier URL")
    run.add_argument("--manifest", help="run manifest destination (default: <output>.manifest.json)")

    evaluate = sub.add_parser("eval", help="score a report against gold")
    evaluate.add_argument("--report", required=True, help="verdict report file")
    evaluate.add_argument("--gold", required=True, help="corpus file with gold labels")
    evaluate.add_argument("--output", help="write metrics as JSON here")

    ablate = sub.add_parser("ablate", help="run all ablation configs")
    ablate.add_argument("--corpus", required=True)
    ablate.add_argument("--mock", required=True, help="mock script path")
    ablate.add_argument(
        "--configs",
        default=",".join(sorted(ABLATION_CONFIGS)),
        help="comma-separated config names",
    )
    ablate.add_argument("--output", help="write per-config results as JSON here")

    stats = sub.add_parser("cache-stats", help="show cache entries and the size of its files")
    stats.add_argument("--cache", required=True)

    clear = sub.add_parser("cache-clear", help="drop the cache file and its vector file")
    clear.add_argument("--cache", required=True)

    return parser


# -- run configuration assembly -----------------------------------------


def _assemble_run_config(args) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig()

    backend = config.backend
    if args.mock:
        backend = replace(backend, mode="mock", mock_script=args.mock)
    if args.live:
        backend = replace(backend, mode="live")
    if args.model:
        backend = replace(backend, model_id=args.model)
    if args.base_url:
        backend = replace(backend, base_url=args.base_url)
    if args.concurrency is not None:
        backend = replace(backend, concurrency=args.concurrency)

    thresholds = config.thresholds
    overrides = {
        "tau_low": args.tau_low,
        "tau_high": args.tau_high,
        "tau_che": args.tau_che,
        "top_k": args.k,
        "assumption_max_number": args.max_assumptions,
    }
    thresholds = replace(
        thresholds, **{k: v for k, v in overrides.items() if v is not None}
    )

    return replace(
        config,
        backend=backend,
        thresholds=thresholds,
        ablation=ABLATION_CONFIGS[args.ablation] if args.ablation else config.ablation,
        reassess_true_only=args.reassess_true_only or config.reassess_true_only,
        corpus_path=args.corpus or config.corpus_path,
        cache_path=args.cache or config.cache_path,
        output_path=args.output or config.output_path,
    )


def _load_mock_script(path: str) -> MockScript:
    try:
        return MockScript.from_file(path)
    except OSError as exc:
        raise ConfigError(f"cannot read mock script {path}: {exc}") from exc
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"mock script {path} is malformed: {exc}") from exc


def _build_gateway(settings: BackendSettings, cache_path: str | None) -> Gateway:
    cache = ResponseCache(cache_path)
    if settings.mode == "mock":
        backend = _load_mock_script(settings.mock_script)
    else:
        backend = LiveBackend(
            model_id=settings.model_id,
            embedding_model_id=settings.embedding_model_id,
            base_url=settings.base_url,
            # fail before any work when the key is missing
            api_key=api_key_from_env(),
        )
    return Gateway(backend=backend, cache=cache, max_in_flight=settings.concurrency)


# -- running a corpus ----------------------------------------------------


def run_corpus(
    gateway: Gateway, records: Iterable[ClaimRecord], **options
) -> Iterator[VerdictReport]:
    """Yield one report per record, in corpus order.

    ``options`` go to ``run_pipeline``, looked up as this module's global
    so that a wrapper put in its place sees every claim.
    """
    for record in records:
        yield run_pipeline(gateway, record, **options)


@dataclass
class AblationResult:
    config: AblationConfig
    reports: list[VerdictReport]
    metrics: MetricsReport | None
    call_counts: dict  # per-template backend completion calls


def run_ablation(
    records: Sequence[ClaimRecord],
    configs: Sequence[AblationConfig] | None = None,
    *,
    gateway_factory: Callable[[], Gateway],
) -> dict[str, AblationResult]:
    """Run the pipeline once per ablation configuration (all by default).

    Each configuration gets a fresh gateway (and therefore fresh call
    counters and cache) from the factory, so per-template call counts
    attribute cleanly to that configuration's gating.
    """
    if configs is None:
        configs = [ABLATION_CONFIGS[name] for name in sorted(ABLATION_CONFIGS)]
    results: dict[str, AblationResult] = {}
    for config in configs:
        gateway = gateway_factory()
        try:
            reports = list(run_corpus(gateway, records, ablation=config))
        finally:
            gateway.cache.close()
        results[config.name] = AblationResult(
            config=config,
            reports=reports,
            metrics=score_reports(records, reports),
            call_counts=dict(sorted(gateway.counters.by_template.items())),
        )
    return results


# -- command handlers ----------------------------------------------------


def cmd_ingest(args) -> int:
    corpus = load_corpus(args.input, split=args.split)
    counts = corpus.label_counts()
    print(
        f"True={counts[Label.TRUE]} "
        f"HalfTrue={counts[Label.HALF_TRUE]} "
        f"False={counts[Label.FALSE]}"
    )
    print(f"records={len(corpus.records)}")
    if args.output:
        save_corpus(corpus, args.output)
        print(f"wrote {args.output}")
    return 0


def cmd_run(args) -> int:
    config = _assemble_run_config(args)
    config.validate()
    if config.corpus_path is None:
        raise ConfigError("no corpus given (use --corpus or a config file)")
    if config.output_path is None:
        raise ConfigError("no output path given (use --output or a config file)")

    gateway = _build_gateway(config.backend, config.cache_path)
    try:
        corpus = load_corpus(config.corpus_path)
        base_verdicts = load_base_verdicts(args.base_verdicts) if args.base_verdicts else None
        alignment_classifier = (
            ExternalAlignmentClassifier(args.alignment_endpoint)
            if args.alignment_endpoint
            else None
        )
        nli_classifier = ExternalNliClassifier(args.nli_endpoint) if args.nli_endpoint else None

        reports = []
        for report in run_corpus(
            gateway,
            corpus.records,
            thresholds=config.thresholds,
            ablation=config.ablation,
            reassess_true_only=config.reassess_true_only,
            base_verdicts=base_verdicts,
            alignment_classifier=alignment_classifier,
            nli_classifier=nli_classifier,
        ):
            reports.append(report)
            stage = failed_stage(report)
            verdict = f"failed at {stage}" if stage else report.final_verdict.label.value
            print(f"{report.id}: {verdict}")

        save_reports(config.output_path, reports)
        digest = hashlib.sha256(Path(config.output_path).read_bytes()).hexdigest()
        print(f"report digest: {digest}")

        metrics = score_reports(corpus.records, reports)
        if metrics is not None:
            print(format_table(metrics))

        manifest_path = args.manifest or f"{config.output_path}.manifest.json"
        manifest = {
            "ablation": config.ablation.name,
            "backend_mode": config.backend.mode,
            "n_claims": len(reports),
            "report_digest": digest,
            "counters": asdict(gateway.counters),
            "cache": gateway.cache.stats(),
        }
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"manifest: {manifest_path}")
        return 0
    finally:
        gateway.cache.close()


def cmd_eval(args) -> int:
    reports = load_reports(args.report)
    metrics = score_reports(load_corpus(args.gold).records, reports)
    if metrics is None:
        raise EmptyInput("gold corpus contains no labeled records")
    print(format_table(metrics))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(metrics.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.output}")
    return 0


def cmd_ablate(args) -> int:
    names = [name.strip() for name in args.configs.split(",") if name.strip()]
    unknown = [name for name in names if name not in ABLATION_CONFIGS]
    if unknown:
        raise ConfigError(f"unknown ablation configs: {', '.join(unknown)}")
    repeated = [name for name in dict.fromkeys(names) if names.count(name) > 1]
    if repeated:
        raise ConfigError(f"repeated ablation configs: {', '.join(repeated)}")
    results = run_ablation(
        load_corpus(args.corpus).records,
        configs=[ABLATION_CONFIGS[name] for name in names],
        gateway_factory=lambda: Gateway(backend=_load_mock_script(args.mock), cache=ResponseCache()),
    )
    payload = {}
    for name in names:
        result = results[name]
        payload[name] = {
            "metrics": result.metrics.as_dict() if result.metrics else None,
            "call_counts": result.call_counts,
        }
        print(f"== {name} ==")
        print(f"calls: {json.dumps(result.call_counts, sort_keys=True)}")
        if result.metrics:
            print(format_table(result.metrics))
        print()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.output}")
    return 0


def cmd_cache_stats(args) -> int:
    cache = ResponseCache(args.cache)
    print(json.dumps(cache.stats(), indent=2, sort_keys=True))
    return 0


def cmd_cache_clear(args) -> int:
    # reads neither file, so a cache too damaged to load can still be dropped
    remove_cache_files(args.cache)
    print(f"cleared {args.cache}")
    return 0


_HANDLERS = {
    "ingest": cmd_ingest,
    "run": cmd_run,
    "eval": cmd_eval,
    "ablate": cmd_ablate,
    "cache-stats": cmd_cache_stats,
    "cache-clear": cmd_cache_clear,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code or 0
    try:
        return _HANDLERS[args.command](args)
    except (ConfigError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TracerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
