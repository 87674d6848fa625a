"""End-to-end and per-layer benchmark of `tracer run`.

    python3 perfbench/run.py --workload warm-1536 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. It generates the workload's corpus and
mock script from the seed, then starts `tracer.cli.main(["run", ...])`
in a fresh child process again and again until --seconds are used: one
client, claims in corpus order, cfg4, a file cache, --concurrency 2.
Each run's report is checked against reference.json. The last line of
standard output is one JSON object: with --trace 0 it holds the
end-to-end metrics of untraced runs; with --trace 1 it alternates
untraced and traced runs and holds the per-layer metrics of the traced
ones, and the tracing overhead. The exit code is 0 only when every
check passed; see README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import compileall
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
WORK = HERE / "_work"
DEADLINE_S = 170.0


@dataclass(frozen=True)
class Workload:
    dim: int
    warm: bool
    sleep_s: float


WORKLOADS = {
    # The cache is primed by an untimed run and copied in before each run:
    # read-only and CPU-bound, cosine and the JSON cache load dominate.
    "warm-1536": Workload(dim=1536, warm=True, sleep_s=0.0),
    # Same inputs, empty cache: every request misses, so each vector is
    # generated by the mock and JSON-encoded into the cache.
    "cold-1536": Workload(dim=1536, warm=False, sleep_s=0.0),
    # Narrow vectors and 1 ms per mock call: round trips dominate, which
    # is what concurrent execution would hide.
    "cold-latency": Workload(dim=8, warm=False, sleep_s=0.001),
}

TRACER_ARGS = [
    "--ablation", "cfg4",
    "--concurrency", "2",
    "--max-assumptions", str(inputs.N_ASSUMPTIONS),
]

END_TO_END = {
    "claims_per_s": "claims/s",
    "claim_ms_p95": "ms",
    "setup_s": "s",
    "wall_s": "s",
    "cache_mb": "MB",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "corpus.load_s": "s",
    "gateway.cache.load_s": "s",
    "gateway.cache.put_calls": "count",
    "gateway.cache.put_s": "s",
    "gateway.cache.hit_ratio": "ratio",
    "gateway.complete_calls": "count",
    "gateway.embed_calls": "count",
    "gateway.embed_unique_ratio": "ratio",
    "gateway.complete_self_s": "s",
    "gateway.embed_self_s": "s",
    "gateway.key_s": "s",
    "gateway.templates.render_s": "s",
    "gateway.mock.calls": "count",
    "gateway.mock.busy_s": "s",
    "gateway.mock.sleep_overshoot_s": "s",
    "gateway.parsing.s": "s",
    "gateway.parsing.failures": "count",
    "alignment.s": "s",
    "alignment.cosine_calls": "count",
    "alignment.cosine_s": "s",
    "verdict.cot_s": "s",
    "verdict.reassess_s": "s",
    "verdict.reassessed_ratio": "ratio",
    "verdict.save_reports_s": "s",
    "verdict.report_bytes": "bytes",
    "verdict.run_pipeline_self_s": "s",
    "intent.s": "s",
    "intent.accept_ratio": "ratio",
    "causality.questions_s": "s",
    "causality.assumptions_s": "s",
    "causality.counterfactual_s": "s",
    "causality.critical_ratio": "ratio",
    "che.s": "s",
    "che.cosine_calls": "count",
    "che.cosine_s": "s",
    "che.nli_calls": "count",
    "che.select_ratio": "ratio",
    "backend_calls_per_claim": "calls",
    "failed_claim_share": "ratio",
    "trace.overhead_s": "s",
}

# Per-layer metrics that must repeat exactly from run to run.
EXACT = [name for name, unit in PER_LAYER.items() if unit in ("count", "ratio", "calls", "bytes")]


class Bench:
    """One benchmark invocation: inputs, child runs and their checks."""

    def __init__(self, root: Path, name: str, seed: int, n_claims: int = inputs.N_CLAIMS):
        self.root = root
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.n = n_claims
        self.work = WORK / f"{name}-{seed}"
        self.problems: list[str] = []
        self.started = time.perf_counter()
        if self.work.exists():
            shutil.rmtree(self.work)
        self.roles = inputs.generate(seed, self.workload.dim, self.work, n_claims)
        self.reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
        self.cache = self.work / "cache.jsonl"
        self.primed = self.work / "primed-cache.jsonl" if self.workload.warm else None
        self.children = 0

    # -- child runs ------------------------------------------------------

    def run_child(self, trace: bool, cache: Path) -> dict:
        tag = f"run{self.children}"
        self.children += 1
        report = self.work / f"{tag}.report.jsonl"
        spec = {
            "root": str(self.root),
            "argv": [
                "run",
                "--corpus", str(self.work / "corpus.jsonl"),
                "--mock", str(self.work / "mock.json"),
                "--cache", str(cache),
                "--output", str(report),
                *TRACER_ARGS,
            ],
            "sleep_s": self.workload.sleep_s,
            "trace": trace,
            "result": str(self.work / f"{tag}.result.json"),
            "spans": str(self.work / f"{tag}.spans.jsonl"),
        }
        spec_path = self.work / f"{tag}.spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        timeout = DEADLINE_S - (time.perf_counter() - self.started)
        run = {"tag": tag, "traced": trace, "failed_claims": self.n}
        try:
            with (self.work / f"{tag}.stderr").open("w", encoding="utf-8") as stderr:
                child = subprocess.run(
                    [sys.executable, str(HERE / "child.py"), str(spec_path)],
                    cwd=self.root,
                    stdout=subprocess.DEVNULL,
                    stderr=stderr,
                    timeout=max(timeout, 1.0),
                    check=False,
                )
        except subprocess.TimeoutExpired:
            self.problems.append(f"{tag}: did not finish within the time limit")
            return run
        if child.returncode != 0 or not Path(spec["result"]).exists():
            self.problems.append(f"{tag}: child exited {child.returncode}; see {tag}.stderr")
            return run
        run.update(json.loads(Path(spec["result"]).read_text(encoding="utf-8")))
        self.check(run, report, cache)
        return run

    def check(self, run: dict, report: Path, cache: Path) -> None:
        """Correctness of one run; counts its failed claims."""
        tag = run["tag"]
        if run["rc"] != 0:
            self.problems.append(f"{tag}: tracer run exited {run['rc']}")
            return
        if len(run["claims"]) != self.n:
            self.problems.append(f"{tag}: claim hook saw {len(run['claims'])} claims, not {self.n}")
            return
        data = report.read_bytes()
        lines = data.decode("utf-8").splitlines()
        if len(lines) != self.n:
            self.problems.append(f"{tag}: report has {len(lines)} lines, not {self.n}")
            return
        manifest = json.loads(Path(f"{report}.manifest.json").read_text(encoding="utf-8"))
        run["digest"] = hashlib.sha256(data).hexdigest()
        if manifest["report_digest"] != run["digest"] or manifest["n_claims"] != self.n:
            self.problems.append(f"{tag}: manifest disagrees with the report")
        run["backend_calls"] = manifest["counters"]["backend_calls"]
        run["cache_bytes"] = sum(f.stat().st_size for f in _cache_files(cache))
        run["report_bytes"] = len(data)
        failed = 0
        mismatched = []
        for claim_id, line in zip(self.roles, lines):
            try:
                row = json.loads(line)
                stages = [[s["stage"], s["status"], s.get("detail")] for s in row["stages"]]
                roles = self.roles[claim_id]
                outcome = {
                    "id": row["id"],
                    "final_label": row["final_verdict"]["label"],
                    "reassessed": row["final_verdict"]["reassessed"],
                    "stages": stages,
                    "che_selected": [
                        roles.get(c["sentence"], "foreign") for c in row["che"] if c["selected"]
                    ],
                }
            except (ValueError, KeyError, TypeError):
                failed += 1
                mismatched.append(claim_id)
                continue
            failed += any(status == "failed" for _, status, _ in stages)
            if outcome != {"id": claim_id, **self.reference}:
                mismatched.append(claim_id)
        if mismatched:
            self.problems.append(
                f"{tag}: {len(mismatched)} claims differ from reference.json, first {mismatched[0]}"
            )
        run["failed_claims"] = failed

    # -- the measured loop -----------------------------------------------

    def measure(self, seconds: float, trace: bool) -> list[dict]:
        prime = None
        if self.primed is not None:
            prime = self.run_child(trace=False, cache=self.primed)
            if self.problems:
                return []
        runs: list[dict] = []
        durations: list[float] = []
        window = time.perf_counter()
        while True:
            traced = trace and len(runs) % 2 == 1
            _remove(self.cache)
            if self.primed is not None:
                _copy(self.primed, self.cache)
            began = time.perf_counter()
            run = self.run_child(trace=traced, cache=self.cache)
            durations.append(time.perf_counter() - began)
            for leftover in self.work.glob(f"{run['tag']}.report.jsonl*"):
                leftover.unlink()
            if traced and runs:
                # keep the spans of the last traced run only
                for earlier in runs:
                    (self.work / f"{earlier['tag']}.spans.jsonl").unlink(missing_ok=True)
            runs.append(run)
            if "digest" not in run:
                break
            elapsed = time.perf_counter() - window
            if len(runs) >= 1 + trace and elapsed + statistics.median(durations) > seconds:
                break
        self.check_repeatable(runs, prime)
        _remove(self.cache)
        if self.primed is not None:
            _remove(self.primed)
        return runs

    def check_repeatable(self, runs: list[dict], prime: dict | None) -> None:
        """Outputs and counters must not change between runs of one commit."""
        good = [r for r in runs if "digest" in r]
        if len(good) < len(runs):
            return
        for key in ("digest", "backend_calls", "cache_bytes"):
            if len({r[key] for r in good}) > 1:
                self.problems.append(f"{key} differs between runs")
        if prime is not None and prime["digest"] != good[0]["digest"]:
            self.problems.append("the report read from the cache differs from the priming run's")
        traced = [r["layers"] for r in good if r["traced"]]
        for name in EXACT:
            if traced and name in traced[0] and len({layers[name] for layers in traced}) > 1:
                self.problems.append(f"{name} differs between traced runs")
        if self.workload.warm and good[0]["backend_calls"] != 0:
            self.problems.append("the warm cache missed: backend calls were made")
        # The report depends only on the inputs and the program, so runs
        # with the same seed and width must agree across invocations and
        # across the warm and cold workloads.
        key = f"{source_digest(self.root)}:{self.seed}:{self.workload.dim}"
        state_path = WORK / "digests.json"
        state = json.loads(state_path.read_text(encoding="utf-8")) if state_path.exists() else {}
        expected = state.setdefault(key, good[0]["digest"])
        if expected != good[0]["digest"]:
            self.problems.append("report digest differs from an earlier run of this program and seed")
        scratch = state_path.with_suffix(".tmp")
        scratch.write_text(json.dumps(state, indent=1, sort_keys=True), encoding="utf-8")
        os.replace(scratch, state_path)


def _cache_paths(cache: Path) -> list[Path]:
    # The cache file and anything the program keeps beside it under the
    # same name prefix, so that a change of cache layout is still copied,
    # removed and measured whole.
    return sorted(cache.parent.glob(f"{glob.escape(cache.name)}*"))


def _cache_files(cache: Path) -> list[Path]:
    return [f for p in _cache_paths(cache) for f in [p, *p.rglob("*")] if f.is_file()]


def _remove(cache: Path) -> None:
    for path in _cache_paths(cache):
        if path.is_dir():
            shutil.rmtree(path)
        else:
            path.unlink()


def _copy(primed: Path, cache: Path) -> None:
    for path in _cache_paths(primed):
        target = cache.parent / (cache.name + path.name[len(primed.name):])
        if path.is_dir():
            shutil.copytree(path, target)
        else:
            shutil.copyfile(path, target)
    # Write both back now, so that writeback does not overlap the timed run.
    for path in _cache_files(primed) + _cache_files(cache):
        with path.open("rb") as handle:
            os.fsync(handle.fileno())


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


# -- metrics -----------------------------------------------------------------


def _p95(values: list[float]) -> float:
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def end_to_end(runs: list[dict], n: int) -> tuple[dict[str, float], dict[str, str]]:
    """Metrics of the untraced runs, and how many samples each rests on.

    claim_ms_p50 is printed but not part of END_TO_END: on a shared host
    that switches between a fast and a slower CPU state for seconds at a
    time, per-claim times have two modes and their median jumps between
    them from one invocation to the next.
    """
    plain = [r for r in runs if not r["traced"]]
    per_claim_ms = [(end - start) * 1000 for r in plain for _, start, end in r["claims"]]
    p95 = _p95(per_claim_ms)
    runs_note = f"median of {len(plain)} runs"
    values = {
        "claims_per_s": statistics.median(
            n / (r["claims"][-1][2] - r["claims"][0][1]) for r in plain
        ),
        "claim_ms_p50": statistics.median(per_claim_ms),
        "claim_ms_p95": p95,
        "setup_s": statistics.median(r["claims"][0][1] for r in plain),
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "cache_mb": statistics.median(r["cache_bytes"] / 1e6 for r in plain),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    notes = {name: runs_note for name in values}
    notes["claim_ms_p50"] = f"n={len(per_claim_ms)} claims"
    notes["claim_ms_p95"] = (
        f"n={len(per_claim_ms)} claims, {sum(x > p95 for x in per_claim_ms)} beyond"
    )
    return values, notes


def per_layer(runs: list[dict], n: int) -> tuple[dict[str, float], dict[str, str]]:
    """Metrics of the traced runs, with the overhead against untraced ones."""
    traced = [r for r in runs if r["traced"]]
    plain = [r for r in runs if not r["traced"]]
    values = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name in traced[0]["layers"]
    }
    values["gateway.mock.sleep_overshoot_s"] = statistics.median(
        r["sleep_overshoot_s"] for r in traced
    )
    values["verdict.report_bytes"] = traced[0]["report_bytes"]
    values["backend_calls_per_claim"] = traced[0]["backend_calls"] / n
    values["failed_claim_share"] = sum(r["failed_claims"] for r in runs) / (n * len(runs))
    values["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - statistics.median(
        r["wall_s"] for r in plain
    )
    note = f"median of {len(traced)} traced runs"
    notes = {name: note for name in values}
    notes["trace.overhead_s"] = f"traced minus untraced wall_s, {len(traced)}+{len(plain)} runs"
    return {name: values[name] for name in PER_LAYER}, notes


def summarize(bench: Bench, runs: list[dict], trace: bool) -> dict:
    """Print the metrics of an invocation by name and return its result object."""
    finished = [r for r in runs if "digest" in r]
    attempted = bench.n * max(len(runs), 1)
    failed = sum(r["failed_claims"] for r in runs) if runs else bench.n
    gated = PER_LAYER if trace else END_TO_END
    metrics: dict[str, dict] = {}
    if finished and len(finished) == len(runs):
        values, notes = (per_layer if trace else end_to_end)(runs, bench.n)
        units = {**gated, "claim_ms_p50": "ms"}
        print(f"# {len(runs)} runs x {bench.n} claims")
        for name, value in values.items():
            print(f"{name:<32} {value:>16.6f} {units[name]:<9} ({notes[name]})")
            if name in gated:
                metrics[name] = {"value": value, "unit": units[name]}
        if trace:
            traced = [r for r in runs if r["traced"]]
            unaccounted = max(r["claim_unaccounted_s"] for r in traced)
            print(f"# largest per-claim time not covered by self times: {unaccounted:.3e} s")
            if unaccounted > 1e-6:
                bench.problems.append(f"self times leave {unaccounted:.3e} s of a claim unaccounted")
            print(f"# self time by span, {traced[-1]['tag']}:")
            by_span = traced[-1]["self_s_by_span"]
            for name, seconds in sorted(by_span.items(), key=lambda item: -item[1]):
                print(f"#   {name:<30} {seconds:>12.6f} s")
        else:
            calls = finished[0]["backend_calls"] / bench.n
            print(f"# backend_calls_per_claim {calls:.4f}; failed_claim_share {failed / attempted:.4f}")
    for problem in bench.problems:
        print(f"# FAILED CHECK: {problem}")
    return {"correct": not bench.problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "tracer" / "cli.py").is_file():
        print(f"error: {root} holds no src/tracer to benchmark", file=sys.stderr)
        return 2
    # Byte-compile first so the first timed run does not pay for it.
    compileall.compile_dir(root / "src" / "tracer", quiet=2)

    bench = Bench(root, args.workload, args.seed)
    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    result = summarize(bench, bench.measure(args.seconds, bool(args.trace)), bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
