"""One workload run in a fresh interpreter, started by run.py.

Imports unitsel from the checkout's ``src``, builds the seeded corpus, prints
``ready`` (the end of set-up) and the reference kernel's time, runs the closed loop in whole passes over the
corpus, checks every answer outside the timed region and prints one JSON line
with the raw results. With ``--trace 1`` it runs untraced passes, repeats
them traced, and reports per-layer metrics and the tracing overhead instead
of latencies.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from reference import NOMINAL_S, kernel_seconds  # noqa: E402


def run_passes(us, workload, corpus, seconds: float, passes: int = 0, tracer=None):
    """Query every corpus entry in order, pass after pass, until ``seconds``
    have passed (and at least ``passes`` passes are done); only whole passes
    are run, so every entry is weighted equally whatever the host speed.
    The reference kernel runs before each query, outside its latency.
    Returns (latencies, kernel times, (entry, answer, error) triples, passes)."""
    latencies, kernel, answers = [], [], []
    done = 0
    start = time.perf_counter()
    while done < passes or time.perf_counter() - start < seconds:
        for idx, entry in enumerate(corpus):
            kernel.append(kernel_seconds())
            if tracer is not None:
                tracer.begin_query(len(latencies))
            t0 = time.perf_counter()
            try:
                answer, error = workload.query(us, entry), None
            except Exception as exc:  # a failed query is counted, not fatal
                answer, error = None, f"{type(exc).__name__}: {exc}"
            finally:
                if tracer is not None:
                    tracer.end_query()
            latencies.append(time.perf_counter() - t0)
            answers.append((idx, answer, error))
        done += 1
        if tracer is not None:
            tracer.end_pass()
    return latencies, kernel, answers, done


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import numpy as np
    import unitsel as us
    from workloads import WORKLOADS, check_answers

    workload = WORKLOADS[args.workload]
    corpus = workload.make_corpus(args.seed)
    print("ready", flush=True)
    # The reference kernel right after set-up, on this process's processor,
    # scales the set-up time in run.py.
    print(statistics.median(kernel_seconds() for _ in range(5)), flush=True)
    if args.setup_only:
        return 0

    report = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "corpus": len(corpus),
    }
    if args.trace:
        from tracing import Tracer

        # The untraced passes go first, so they do not run beside the
        # tracer's growing span lists; the traced loop then repeats them.
        plain_lat, plain_kernel, plain, passes = run_passes(
            us, workload, corpus, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced_lat, traced_kernel, traced, _ = run_passes(
                us, workload, corpus, 0.0, passes=passes, tracer=tracer)
        finally:
            tracer.uninstall()
        answers = traced + plain
        # Both loops' times scaled by their own reference kernel times.
        plain_s = sum(plain_lat) / sum(plain_kernel)
        traced_s = sum(traced_lat) / sum(traced_kernel)
        metrics, unmeasured = tracer.metrics(
            overhead_frac=1.0 - plain_s / traced_s,
            time_scale=NOMINAL_S * len(traced_kernel) / sum(traced_kernel))
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_path, {**report, "workload": args.workload, "seed": args.seed})
        report.update(metrics=metrics, unmeasured=unmeasured, passes=passes,
                      spans=str(spans_path.relative_to(Path.cwd())))
    else:
        latencies, kernel, answers, passes = run_passes(us, workload, corpus, args.seconds)
        report.update(latencies=latencies, kernel=kernel, passes=passes,
                      peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)

    errors = check_answers(us, workload, corpus, answers)
    report.update(attempted=len(answers), failed=len(errors), errors=errors[:5])
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
