"""Record the reference outputs that `run.py` checks each run against.

    python3 perfbench/record_reference.py [SEED ...]

For every workload and seed (default: the shipped plan's seed) this runs
one traced sweep at one pool worker and stores its summary (cell errors
and statuses, fit slopes and statuses, crosscheck deviations and hygiene
residuals) and its exact counts in `perfbench/reference.json`.  Seeds
already in the file are kept unless recorded again.  The two-worker
workload is recorded at one worker, so each of its runs also checks that
the worker count changes no number.  Record only at a commit whose outputs
are trusted: every later run is judged against these values.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["BLOCHLAB_WORKERS"] = "1"

import json  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import run_rep  # noqa: E402


def main(argv) -> int:
    seeds = [int(s) for s in argv] or [workloads.DEFAULT_SEED]
    path = workloads.REFERENCE_FILE
    data = {"seeds": {}}
    if path.is_file():
        with open(path) as fh:
            data = json.load(fh)
    for seed in seeds:
        entry = {}
        for name in workloads.WORKLOADS:
            rep = run_rep(name, seed, 1, tracing.Tracer())
            n, failures = workloads.check_summary(rep["summary"], None)
            if failures:
                print(f"seed {seed} {name}: not recorded, {failures}", file=sys.stderr)
                return 1
            entry[name] = {
                "summary": rep["summary"],
                "counts": {k: rep["layers"][k] for k in tracing.EXACT_COUNTS},
            }
            print(f"seed {seed} {name}: {n} operations recorded", flush=True)
        data["seeds"][str(seed)] = entry
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
