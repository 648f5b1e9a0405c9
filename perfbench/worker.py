"""One benchmark process: runs a single workload and prints its results.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --setup-only --workload NAME --seed N --since T

`run.py` starts this script in a fresh interpreter, so the peak RSS it
reports belongs to a process that ran only that workload; it is read after
the first sweep.  With `--setup-only` it builds the plan and prints the
time since `--since`, the monotonic clock reading at which the parent
started it, raw and at the reference host speed (`speed.py`): a fresh
interpreter to a built `ExperimentPlan`.

Otherwise it repeats the workload's sweep, each time building the plan
afresh, and starts another repetition only while that is expected to end
within `--seconds`.  Every sweep runs under a `speed.SpeedSampler`, which
also gives its wall and CPU time at the reference host speed.  With
`--trace 1` repetitions alternate untraced and traced, and the spans of the
traced ones are written out at the end.  The last line of stdout is one
JSON object.
"""

import os

# Pin BLAS threads before numpy loads: the pool is the only parallelism.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _check_source():
    """Refuse to time any blochlab other than the checkout's own."""
    import blochlab

    if Path(blochlab.__file__).resolve().parent != SRC / "blochlab":
        raise SystemExit(f"imported blochlab from {blochlab.__file__}, not {SRC}")


def run_rep(name: str, seed: int, workers: int, tracer=None) -> dict:
    """Build the plan and run one sweep; trace it when given a tracer."""
    first = len(tracer.spans) if tracer else 0
    with tracer.patched() if tracer else nullcontext():
        plan = workloads.build_plan(name, seed)
        with tracer.span("harness.sweep") if tracer else nullcontext() as sweep:
            with speed.SpeedSampler(speed.ORACLE_PROBE) as sampler:
                c0, w0 = time.process_time(), time.monotonic()
                report = workloads.run_sweep(name, plan)
                w1, c1 = time.monotonic(), time.process_time()
    wall_ref, cpu_ref = sampler.rescale(w0, w1, c0, c1)
    blob = json.dumps(report.to_dict(), sort_keys=True).encode()
    summary = workloads.summarize(report)
    rep = {
        "traced": tracer is not None,
        "wall_raw_s": w1 - w0,
        "cpu_raw_s": c1 - c0,
        "wall_s": wall_ref,
        "cpu_s": cpu_ref,
        "digest": hashlib.sha256(blob).hexdigest(),
        "summary": summary,
    }
    if tracer:
        spans = tracer.spans[first:]
        layers = tracing.layer_metrics(spans, sweep, workers)
        layers.update(workloads.summary_counts(summary))
        rep["layers"] = layers
    return rep


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", default=None)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--since", type=float, help="the parent's time.monotonic() at spawn")
    args = ap.parse_args(argv)

    if args.setup_only:
        if args.since is None:
            ap.error("--setup-only needs --since")
        with speed.SpeedSampler(speed.PYTHON_PROBE) as sampler:
            workloads.build_plan(args.workload, args.seed)
            done = time.monotonic()
        ref, _ = sampler.rescale(args.since, done)
        print(json.dumps({"raw_s": done - args.since, "ref_s": ref}), flush=True)
        return 0

    _check_source()
    from blochlab.harness import worker_count

    workers = worker_count()
    tracer = tracing.Tracer() if args.trace else None

    reps = []
    peak_rss_mb = None
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        tracer_now = tracer if traced else None
        reps.append(run_rep(args.workload, args.seed, workers, tracer_now))
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        if args.trace and not any(r["traced"] for r in reps):
            continue
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(r["wall_raw_s"] for r in reps) > args.seconds:
            break

    import numpy
    import scipy

    result = {
        "reps": reps,
        "peak_rss_mb": peak_rss_mb,
        "workers": workers,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer and args.trace_out:
        out = Path(args.trace_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w") as fh:
            json.dump({"spans": tracer.dump()}, fh)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
