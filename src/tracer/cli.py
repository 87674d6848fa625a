"""Operator command line.

    tracer ingest      validate a corpus file and re-emit it canonically
    tracer run         run the pipeline end to end over a corpus
    tracer eval        score a verdict report against gold labels
    tracer ablate      run the pipeline once per stage-gating configuration
    tracer cache-stats show persistent cache entries and the size of its files
    tracer cache-clear drop the persistent cache and its vector file

``run`` and ``ablate`` take ``--config`` and one flag per row of
``config.RUN_OPTIONS``; a flag given overrides its key in the file.
``ablate`` is ``run`` once per configuration, over one Gateway and one
cache, so a prompt that several configurations ask reaches the backend
once. Each configuration writes ``<stem>.<cfg><suffix>`` (``--output
ab.jsonl`` gives ``ab.cfg1.jsonl``, ...) and its manifest; ``ablate``
refuses a config file that sets ``ablation``.

A run writes each claim's report line as the claim ends, keeping only
its predicted label to score, and writes the manifest last: a run that
dies keeps every finished claim's line and has no manifest.

Exit codes: 0 success; 1 usage, configuration (a report or manifest
path whose directory does not exist, or that is the same file as an
input or another output, checked before any claim), or unreadable input,
or a run that stops at the first claim after which an HTTP endpoint's
circuit is open, keeping the reports of the claims it ran (``ablate``
runs no later configuration); 2 inconsistent data (an id repeated in a
record file, missing predictions, empty scoring sets). Other per-claim
pipeline failures never fail the run: they are recorded inside the
report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

# The program makes no BLAS call, and OpenBLAS starts its thread pool when
# it loads, at numpy's first import (below); a value already set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .config import (
    ABLATION_CONFIGS, CONFIG_KEYS, RUN_OPTIONS, AblationConfig, RunConfig, config_from_dict,
    read_config_file,
)
from .corpus import Label, label_counts, load_corpus, save_corpus
from .errors import ConfigError, EmptyInput, ParseError, TracerError
from .gateway import Endpoint, Gateway, GatewayCounters, LiveBackend, MockScript, ResponseCache
from .gateway.cache import remove_cache_files, vector_path
from .metrics import format_table, prediction, score_reports
from .verdict import load_base_verdicts, load_reports, run_pipeline, save_reports


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

    run = sub.add_parser("run", help="run the pipeline over a corpus")
    _add_run_options(run)
    run.add_argument("--ablation", choices=sorted(ABLATION_CONFIGS), help="stage gating")
    run.add_argument("--manifest", help="run manifest destination (default: <output>.manifest.json)")

    evaluate = sub.add_parser("eval", help="score a report against gold")
    evaluate.add_argument("--report", required=True, help="verdict report file")
    evaluate.add_argument("--gold", required=True, help="corpus file with gold labels")
    evaluate.add_argument("--output", help="write metrics as JSON here")

    ablate = sub.add_parser("ablate", help="run the pipeline once per ablation config")
    _add_run_options(ablate)
    configs = ",".join(sorted(ABLATION_CONFIGS))
    ablate.add_argument("--configs", default=configs, help="comma-separated config names")
    ablate.set_defaults(manifest=None)

    stats = sub.add_parser("cache-stats", help="show cache entries and the size of its files")
    stats.add_argument("--cache", required=True)

    clear = sub.add_parser("cache-clear", help="drop the cache file and its vector file")
    clear.add_argument("--cache", required=True)

    return parser


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    """The options ``run`` and ``ablate`` share: ``--config`` and one flag per run option."""
    parser.add_argument("--config", help="YAML run configuration file (flags override it)")
    for key, flag, parse, text in RUN_OPTIONS:
        if isinstance(parse, type):
            parser.add_argument(flag, dest=key, type=parse, help=text)
        else:  # a bare flag, standing for its constant
            parser.add_argument(flag, dest=key, action="store_const", const=parse, help=text)


# -- run configuration assembly -----------------------------------------


def _assemble_run_config(args) -> RunConfig:
    """The config file's values with each flag given laid over its key, built and checked."""
    data = {} if args.config is None else read_config_file(args.config)
    # ablate runs the configs --configs names: the file's ablation would do nothing
    if args.command == "ablate" and isinstance(data, dict) and "ablation" in data:
        raise ConfigError(
            f"config file {args.config} sets ablation, which tracer ablate does not take "
            "(name the configs with --configs)"
        )
    overrides = {
        key: value for key, value in vars(args).items() if key in CONFIG_KEYS and value is not None
    }
    if "backend.mock_script" in overrides:
        overrides.setdefault("backend.mode", "mock")
    return config_from_dict(data, overrides)


def _build_gateway(config: RunConfig) -> Gateway:
    # the backend first: a configuration error outranks a cache that does not load
    settings = config.backend
    if settings.mode == "mock":
        backend = MockScript.from_file(settings.mock_script)
    else:
        # reads TRACER_API_KEY, so a missing key fails before any work
        backend = LiveBackend(
            model_id=settings.model_id,
            embedding_model_id=settings.embedding_model_id,
            base_url=settings.base_url,
        )
    return Gateway(backend=backend, cache=ResponseCache(config.cache_path))


# -- command handlers ----------------------------------------------------


def cmd_ingest(args) -> int:
    records = load_corpus(args.input)
    counts = label_counts(records)
    print(
        f"True={counts[Label.TRUE]} "
        f"HalfTrue={counts[Label.HALF_TRUE]} "
        f"False={counts[Label.FALSE]}"
    )
    print(f"records={len(records)}")
    if args.output:
        save_corpus(records, args.output)
        print(f"wrote {args.output}")
    return 0


def cmd_run(args) -> int:
    return _run(args, None)


def _config_output(path: str, name: str) -> str:
    """Where ``ablate`` writes one config's reports: ``ab.jsonl`` -> ``ab.cfg1.jsonl``."""
    path = Path(path)
    return str(path.with_name(f"{path.stem}.{name}{path.suffix}"))


def _file_digest(path: str) -> str:
    """The sha256 of a file, read in fixed-size chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _run(args, ablations: list[AblationConfig] | None) -> int:
    """``run`` (``ablations`` None: the configured one) or ``ablate``.

    The Gateway, corpus, base verdicts and endpoints are built once; the
    claim loop runs once per config, each on fresh counters. It opens
    that config's report file before the first claim, writes each
    claim's line at its end, then writes the manifest. The first claim
    after which an endpoint's circuit is open ends the run: the manifest
    of the claims run so far is written, nothing is scored, it exits 1.
    """
    config = _assemble_run_config(args)
    if config.corpus_path is None:
        raise ConfigError("no corpus given (use --corpus or a config file)")
    if config.output_path is None:
        raise ConfigError("no output path given (use --output or a config file)")
    outputs = (
        [(config.ablation, config.output_path)]
        if ablations is None
        else [(cfg, _config_output(config.output_path, cfg.name)) for cfg in ablations]
    )
    runs = [(cfg, path, args.manifest or f"{path}.manifest.json") for cfg, path in outputs]
    written = [path for run in runs for path in run[1:]]  # each report, then its manifest
    # a report or manifest with nowhere to go would lose the claims run before it
    for path in written:
        if not Path(path).parent.is_dir():
            raise ConfigError(f"the directory of {path} does not exist")
    # an output written over an input, or over another output, would destroy it
    inputs = [config.corpus_path, config.base_verdicts_path, config.backend.mock_script]
    if config.cache_path is not None:
        inputs += [config.cache_path, vector_path(Path(config.cache_path))]
    named = written + [path for path in inputs if path is not None]
    resolved = [Path(path).resolve() for path in named]
    for i, path in enumerate(resolved):
        if path in resolved[:i]:
            raise ConfigError(f"{named[i]} is the same file as {named[resolved.index(path)]}")

    # the inputs load before the Gateway opens its cache file, which opening
    # creates, so that a bad input leaves no cache file behind
    records = load_corpus(config.corpus_path)
    base_verdicts = config.base_verdicts_path and load_base_verdicts(config.base_verdicts_path)
    gateway = _build_gateway(config)
    with gateway.cache:
        urls = (config.backend.alignment_endpoint, config.backend.nli_endpoint)
        classifiers = [url and Endpoint(url) for url in urls]
        alignment_classifier, nli_classifier = classifiers
        endpoints = [endpoint for endpoint in classifiers if endpoint is not None]
        if isinstance(gateway.backend, LiveBackend):
            endpoints += gateway.backend.endpoints
        options = dict(
            thresholds=config.thresholds,
            reassess_true_only=config.reassess_true_only,
            base_verdicts=base_verdicts,
            alignment_classifier=alignment_classifier,
            nli_classifier=nli_classifier,
        )

        for ablation, output_path, manifest_path in runs:
            if ablations is not None:
                print(f"== {ablation.name} ==")
            gateway.counters = GatewayCounters()
            # what the run keeps of each claim once its line is written
            predictions: dict[str, Label | None] = {}
            errors = []
            with open(output_path, "w", encoding="utf-8") as out:
                for record in records:
                    # a global lookup, so that a wrapper put in its place sees every claim
                    report = run_pipeline(gateway, record, ablation=ablation, **options)
                    save_reports(out, [report])
                    predictions[report.id] = prediction(report)
                    stage = report.failed
                    verdict = f"failed at {stage}" if stage else report.final_verdict.label.value
                    print(f"{report.id}: {verdict}")
                    del report  # nothing of it outlives its line
                    # an open circuit would fail every later claim unasked: stop here
                    errors = list(
                        filter(None, (endpoint.circuit_error() for endpoint in endpoints))
                    )
                    if errors:
                        break

            digest = _file_digest(output_path)
            print(f"report digest: {digest}")

            # a stopped run lacks the predictions of the claims it did not reach
            metrics = None if errors else score_reports(records, predictions)
            if metrics is not None:
                print(format_table(metrics))

            manifest = {
                "ablation": ablation.name,
                "backend_mode": config.backend.mode,
                "n_claims": len(predictions),
                "report_digest": digest,
                "counters": asdict(gateway.counters),
                "cache": gateway.cache.stats(),
            }
            with open(manifest_path, "w", encoding="utf-8") as handle:
                json.dump(manifest, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"manifest: {manifest_path}")
            for error in errors:
                print(f"error: {error}", file=sys.stderr)
            if errors:
                return 1
        return 0


def cmd_eval(args) -> int:
    predictions = {report.id: prediction(report) for report in load_reports(args.report)}
    metrics = score_reports(load_corpus(args.gold), predictions)
    if metrics is None:
        raise EmptyInput("gold corpus contains no labeled records")
    print(format_table(metrics))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(vars(metrics), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.output}")
    return 0


def cmd_ablate(args) -> int:
    names = [name.strip() for name in args.configs.split(",") if name.strip()]
    if not names:
        raise ConfigError("no ablation configs given")
    unknown = [name for name in names if name not in ABLATION_CONFIGS]
    if unknown:
        raise ConfigError(f"unknown ablation configs: {', '.join(unknown)}")
    repeated = [name for name in dict.fromkeys(names) if names.count(name) > 1]
    if repeated:
        raise ConfigError(f"repeated ablation configs: {', '.join(repeated)}")
    return _run(args, [ABLATION_CONFIGS[name] for name in names])


def cmd_cache_stats(args) -> int:
    stats = {"entries": 0, "path": str(Path(args.cache)), "file_bytes": 0}
    # opening a missing cache would create it
    if Path(args.cache).exists():
        with ResponseCache(args.cache) as cache:
            stats = cache.stats()
    print(json.dumps(stats, indent=2, sort_keys=True))
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
