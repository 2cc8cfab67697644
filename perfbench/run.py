#!/usr/bin/env python3
"""tightlp benchmark: one seeded workload, closed loop, one process.

    python3 perfbench/run.py --workload {tight,closure,wide} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source tree; tightlp is imported from ``src/``.  A
single client sends one request at a time: each request is one in-process
``tightlp.cli.run(argv)`` call with stdin, stdout and stderr redirected, or
one ``check_tightness_preservation`` library call on closure.  Every output
is checked against ``oracles`` (which does not use tightlp) the first time
it is seen, and its SHA-256 is kept.

Passes over the whole request list repeat until ``--seconds`` have gone by.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics.  The last line
of stdout is one JSON object; a result file with per-request hashes goes to
``perfbench_out/``.  Exit code 1 means an output disagreed with its oracle;
2 means the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / "perfbench_out"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("tight", "closure", "wide")
# Reserved for confirming a claim on inputs not seen while tuning.
HOLDOUT_SEED = 104729
SETUP_REPEATS = 11
MIN_PASSES = 3
REQUEST_TIMEOUT_S = 20.0
# Requests not started by then count as failed, so a run ends well inside
# three minutes even when every request hits its timeout.
RUN_BUDGET_S = 150.0


class RequestTimeout(BaseException):
    """Raised by SIGALRM inside a request that ran past its timeout."""


def _on_alarm(signum, frame):
    raise RequestTimeout()


def setup(workload: str, seed: int):
    """Import tightlp from scratch and build the requests, SETUP_REPEATS
    times; returns the last package, its requests and every repeat's time."""
    times = []
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m == "tightlp" or m.startswith("tightlp.")]:
            del sys.modules[name]
        gc.collect()
        start = time.perf_counter()
        tl = importlib.import_module("tightlp")
        importlib.import_module("tightlp.cli")
        requests = workloads.build(workload, seed, tl)
        times.append(time.perf_counter() - start)
    return tl, requests, times


def make_api(tl):
    """The entry points requests call; the tracer rebinds these too."""
    return argparse.Namespace(
        cli_run=tl.cli.run,
        parse_program=tl.parse_program,
        parse_literals=tl.parse_literals,
        check_tightness_preservation=tl.check_tightness_preservation,
        DefSpec=tl.DefSpec,
    )


def _library_call(req, api) -> int:
    shown, constants = req.lib_args
    report = api.check_tightness_preservation(
        api.parse_program(req.stdin), api.parse_literals(shown), api.DefSpec(constants=constants)
    )
    print("cond_i=%s cond_ii=%s cond_iii=%s" % (report.cond_i, report.cond_ii, report.cond_iii))
    return 0


def execute(number, req, api, tracer):
    """Send one request; returns (seconds, status, stdout).  Any exception,
    a non-zero exit code or the timeout makes the status other than "ok"."""
    out = io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(req.stdin)
    span = tracer.open_request(number) if tracer else None
    signal.setitimer(signal.ITIMER_REAL, REQUEST_TIMEOUT_S)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            if req.argv is None:
                code = _library_call(req, api)
            else:
                code = api.cli_run(req.argv)
        status = "ok" if code == 0 else "exit code %s" % code
    except RequestTimeout:
        status = "timeout after %.0f s" % REQUEST_TIMEOUT_S
    except Exception as e:  # the program failed; count it and go on
        status = "%s: %s" % (type(e).__name__, str(e)[:200])
    finally:
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        if span:
            tracer.close_request(span)
        sys.stdin = saved_stdin
    return elapsed, status, out.getvalue()


class Run:
    """Outcomes of every request over every pass of one benchmark run."""

    def __init__(self, requests, api, deadline):
        self.requests = requests
        self.api = api
        self.deadline = deadline
        self.verdicts = [dict() for _ in requests]  # sha256 -> oracle verdict
        self.attempted = self.failed = self.wrong = 0
        self.failures: list[str] = []

    def run_pass(self, tracer=None) -> list[float]:
        """One pass over the requests; returns each request's latency."""
        latencies = []
        for number, req in enumerate(self.requests):
            self.attempted += 1
            if time.monotonic() > self.deadline:
                self._fail(req, "not started: run budget of %.0f s used up" % RUN_BUDGET_S)
                latencies.append(REQUEST_TIMEOUT_S)
                continue
            elapsed, status, out = execute(number, req, self.api, tracer)
            latencies.append(elapsed)
            if status != "ok":
                self._fail(req, status)
                continue
            digest = hashlib.sha256(out.encode()).hexdigest()
            verdicts = self.verdicts[number]
            if digest not in verdicts:
                verdicts[digest] = _oracle_agrees(req, out)
            if not verdicts[digest]:
                self.wrong += 1
                self.failures.append("%s: output disagrees with the oracle" % req.rid)
        return latencies

    def _fail(self, req, status):
        self.failed += 1
        self.failures.append("%s: %s" % (req.rid, status))


def _oracle_agrees(req, out) -> bool:
    try:
        return bool(req.check(out))
    except (ValueError, IndexError, KeyError):  # output the oracle cannot read
        return False


def measure(run: Run, seconds: float, tracer):
    """Passes until ``seconds`` have gone by and at least MIN_PASSES untraced
    (and, when tracing, as many traced) passes are done."""
    untraced, traced = [], []
    start = time.monotonic()
    while True:
        untraced.append(run.run_pass())
        if tracer:
            tracer.install()
            try:
                latencies = run.run_pass(tracer)
            finally:
                tracer.uninstall()
            traced.append((latencies,) + tracer.take())
        if len(untraced) >= MIN_PASSES and time.monotonic() - start >= seconds:
            return untraced, traced
        if time.monotonic() > run.deadline:
            return untraced, traced


def _percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end_metrics(untraced, setup_times) -> dict:
    per_request = [statistics.median(p[i] for p in untraced) for i in range(len(untraced[0]))]
    return {
        "wall_s": (statistics.median(sum(p) for p in untraced), "s"),
        "req_p50_ms": (1000 * _percentile(per_request, 50), "ms"),
        "req_p90_ms": (1000 * _percentile(per_request, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run_start = time.monotonic()

    if not (SRC / "tightlp" / "__init__.py").is_file():
        print("error: %s has no tightlp sources; run from a tightlp source tree" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    tl, requests, setup_times = setup(args.workload, args.seed)
    if Path(tl.__file__).resolve().parent != SRC / "tightlp":
        print("error: imported tightlp from %s, not %s" % (tl.__file__, SRC), file=sys.stderr)
        return 2

    # The benchmark's own objects (the requests, the re-imported modules) are
    # not there when the CLI runs on its own, so full collections skip them.
    gc.collect()
    gc.freeze()
    signal.signal(signal.SIGALRM, _on_alarm)
    api = make_api(tl)
    tracer = tracing.Tracer(tl, api) if args.trace else None
    run = Run(requests, api, run_start + RUN_BUDGET_S)
    untraced, traced = measure(run, args.seconds, tracer)

    metrics = end_to_end_metrics(untraced, setup_times)
    counters_repeat = None
    if tracer:
        overhead = statistics.median(sum(p[0]) for p in traced) / metrics["wall_s"][0] - 1
        layers = tracing.per_layer_metrics([p[1:] for p in traced], overhead)
        counters_repeat = all(
            p[2][name] == traced[0][2][name] for p in traced for name in tracing.EXACT_COUNTERS
        )
        shown = layers
    else:
        shown = metrics

    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "holdout_seed": HOLDOUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "requests_per_pass": len(requests),
        "untraced_passes": len(untraced),
        "traced_passes": len(traced),
    }
    print("tightlp benchmark: %s" % " ".join("%s=%s" % kv for kv in env.items()))
    for name, (value, unit) in metrics.items():
        print("%-36s %14.6f %s" % (name, value, unit))
    for name, count in (("failed_frac", run.failed), ("wrong_frac", run.wrong)):
        print("%-36s %14.6f ratio (%d of %d requests)" % (name, count / run.attempted, count, run.attempted))
    if tracer:
        for name, (value, unit) in layers.items():
            print("%-36s %14.6f %s" % (name, value, unit))
        print("exact counters repeat across traced passes: %s" % counters_repeat)
    for line in run.failures[:20]:
        print("failure: %s" % line, file=sys.stderr)

    write_results(args, env, metrics, run, untraced, traced, counters_repeat)
    print(
        json.dumps(
            {
                "correct": run.wrong == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
            }
        )
    )
    return 1 if run.wrong else 0


def write_results(args, env, metrics, run, untraced, traced, counters_repeat):
    """Per-request output hashes and latencies, so that a later change can
    diff its outputs against its parent's (see compare.py)."""
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / ("%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    result = {
        "env": env,
        "end_to_end": {k: v for k, (v, _) in metrics.items()},
        "failed_frac": run.failed / run.attempted,
        "wrong_frac": run.wrong / run.attempted,
        "failures": run.failures,
        "requests": [
            {
                "id": req.rid,
                "sha256": sorted(verdicts),
                "median_ms": 1000 * statistics.median(p[i] for p in untraced),
            }
            for i, (req, verdicts) in enumerate(zip(run.requests, run.verdicts))
        ],
    }
    if traced:
        result["counters"] = [dict(sorted(p[2].items())) for p in traced]
        result["exact_counters_repeat"] = counters_repeat
        with gzip.open(str(stem) + "-spans.json.gz", "wt") as fh:
            for pass_number, (_, spans, _) in enumerate(traced):
                json.dump({"pass": pass_number, "spans": spans}, fh)
                fh.write("\n")
    with open(str(stem) + ".json", "w") as fh:
        json.dump(result, fh, indent=1)


if __name__ == "__main__":
    sys.exit(main())
