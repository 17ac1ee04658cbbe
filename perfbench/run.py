"""Solve benchmark for unitsel: one workload per run, one closed-loop client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload select-random --seed 1 --seconds 20 --trace 0

Each run starts the workload in fresh child interpreters (worker.py) with
numpy/OpenBLAS pinned to one thread and an address-space cap on the child
only. A few set-up-only children measure ``setup_s``: the time from a fresh
interpreter to the first timed query, which covers importing unitsel and
generating the inputs. The last child runs the queries. All times are scaled
to a nominal host speed with the reference kernel (reference.py); the raw
median latency and the scale factors are in the details line. The last line
of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones (see tracing.py); the line before it holds the run's
details (versions, nproc, tail percentile, sample counts, first errors).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import NOMINAL_S
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
ADDRESS_SPACE_CAP = 3 << 30  # bytes, on each child
DEADLINE_S = 170.0


def limit_child() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))


def start_child(args, env, setup_only: bool, deadline: float) -> tuple[float, str]:
    """Run worker.py; return (seconds until it printed ready, scaled by the
    reference kernel it timed next, and the rest of its output)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            preexec_fn=limit_child)
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit("benchmark child did not finish before the deadline")
    if first.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"benchmark child failed (exit code {proc.returncode})")
    kernel, _, out = out.partition("\n")
    return ready * NOMINAL_S / float(kernel), out


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(rank) - 1]


def expected_metrics(trace: int) -> list[str]:
    doc = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    return [m["name"] for m in doc["per_layer" if trace else "end_to_end"]]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.perf_counter() + DEADLINE_S

    src = Path.cwd() / "src"
    if not (src / "unitsel" / "__init__.py").is_file():
        print(f"no unitsel package under {src}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))

    setup = []
    if not args.trace:
        setup = [start_child(args, env, True, deadline)[0] for _ in range(SETUP_SAMPLES - 1)]
    ready, out = start_child(args, env, False, deadline)
    setup.append(ready)
    report = json.loads(out.strip().splitlines()[-1])

    details = {key: report[key] for key in ("python", "numpy", "nproc", "corpus", "passes",
                                            "attempted", "failed", "errors")}
    if args.trace:
        metrics = report["metrics"]
        details.update(unmeasured=report["unmeasured"], spans=report["spans"])
    else:
        corpus = report["corpus"]
        raw, kernel = report["latencies"], report["kernel"]  # pass after pass
        # Each pass's times are scaled by the reference kernel's mean in it.
        scale = [NOMINAL_S * corpus / sum(kernel[i:i + corpus])
                 for i in range(0, len(kernel), corpus)]
        latencies = [x * scale[i // corpus] for i, x in enumerate(raw)]
        # Each entry's median latency over the passes, so a burst of load
        # from outside the process in one pass does not count.
        typical = [statistics.median(latencies[i::corpus]) for i in range(corpus)]
        latencies.sort()
        tail = WORKLOADS[args.workload].tail_percentile
        tail_ms = 1000 * percentile(latencies, tail)
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "queries_per_s": {"value": corpus / sum(typical), "unit": "1/s"},
            "query_p50_ms": {"value": 1000 * statistics.median(typical), "unit": "ms"},
            "query_tail_ms": {"value": tail_ms, "unit": "ms"},
            "peak_rss_mb": {"value": report["peak_rss_kb"] / 1024, "unit": "MB"},
        }
        details.update(setup_samples_s=setup, pass_scale=scale,
                       raw_query_p50_ms=1000 * statistics.median(raw),
                       samples=len(latencies), tail_percentile=tail,
                       tail_samples_beyond=sum(1 for x in latencies if 1000 * x > tail_ms),
                       failed_frac=report["failed"] / report["attempted"])
    if sorted(metrics) != sorted(expected_metrics(args.trace)):
        print("metrics disagree with BENCHMARK.json", file=sys.stderr)
        return 2
    for error in report["errors"]:
        print(f"wrong answer: {error}", file=sys.stderr)
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": report["failed"] == 0, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
