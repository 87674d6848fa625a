"""One `tracer run` in a fresh process, timed from before `import tracer`.

    python3 perfbench/child.py SPEC.json

SPEC names the checkout root, the `tracer` arguments, the injected
latency per mock call and whether to trace, and where to write the
result. The only hook on an untraced run is a timestamp pair around each
`tracer.cli.run_pipeline` call. A traced run also wraps every layer (see
tracing.py) and writes its spans next to the result.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402


class Latency:
    """Waits a fixed time before each call, on average.

    time.sleep wakes late by a varying amount, which is scheduler noise,
    not program time. The lateness is carried forward: each sleep is
    shortened by how far all earlier waits ran over, so the total wait
    stays at calls x seconds and the raw lateness is reported apart.
    """

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.calls = 0
        self.overshoot_s = 0.0
        self._excess_s = 0.0
        self._lock = threading.Lock()

    def wrap(self, fn):
        def delayed(*args, **kwargs):
            with self._lock:
                request = max(0.0, self.seconds - self._excess_s)
                self._excess_s -= self.seconds - request
            start = time.perf_counter()
            time.sleep(request)
            late = time.perf_counter() - start - request
            with self._lock:
                self._excess_s += late
                self.overshoot_s += late
                self.calls += 1
            return fn(*args, **kwargs)

        return delayed


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    src = Path(spec["root"]).resolve() / "src"
    sys.path.insert(0, str(src))
    import tracer.cli
    from tracer.gateway import MockScript

    if not Path(tracer.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported tracer from {tracer.__file__}, not from {src}")

    latency = Latency(spec["sleep_s"])
    if spec["sleep_s"]:
        MockScript.complete = latency.wrap(MockScript.complete)
        MockScript.embed = latency.wrap(MockScript.embed)
    recorder = None
    if spec["trace"]:
        recorder = tracing.Recorder()
        tracing.install(recorder)

    claims = []
    run_pipeline = tracer.cli.run_pipeline

    def timed_run_pipeline(gateway, record, **kwargs):
        start = time.perf_counter()
        report = run_pipeline(gateway, record, **kwargs)
        claims.append((record.id, start - STARTED, time.perf_counter() - STARTED))
        return report

    tracer.cli.run_pipeline = timed_run_pipeline
    rc = tracer.cli.main(spec["argv"])
    wall_s = time.perf_counter() - STARTED

    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "rc": rc,
        "wall_s": wall_s,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "claims": claims,
        "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,
        "sleep_calls": latency.calls,
        "sleep_overshoot_s": latency.overshoot_s,
    }
    if recorder is not None:
        spans = recorder.spans
        selfs = tracing.self_times(spans)
        roots = tracing.claim_accounting(spans, selfs)
        result["layers"] = tracing.layer_metrics(recorder, selfs, len(claims))
        result["self_s_by_span"] = tracing.self_time_by_span(spans, selfs)
        result["claim_unaccounted_s"] = max(
            (abs(v) for root, v in roots.items() if spans[root][tracing.NAME] == "verdict.run_pipeline"),
            default=0.0,
        )
        result["n_spans"] = len(spans)
        recorder.write(Path(spec["spans"]))
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
