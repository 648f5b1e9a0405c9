"""Benchmark of blochlab's h-order measurement, measured from outside.

    python3 perfbench/run.py --workload converge-desk --seed 20260826 \\
        --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # all three, in turn

Run from the root of a checkout.  Each run times the workload's sweep
(`run_convergence` or `run_crosscheck` on a plan built by
`ExperimentPlan.from_dict`) in a fresh worker process, checks the outputs
against the harness's own gates and, for a seed with a recorded reference,
against `perfbench/reference.json`.  It prints every metric by name with its
unit, then one JSON line.  With `--trace 0` that line holds the end-to-end
metrics, with times rescaled to a reference host speed (`speed.py`); with
`--trace 1` it holds the per-layer metrics of a traced run.  The exit code
is nonzero on any correctness failure.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKER = HERE / "worker.py"
SETUPS = 5  # timed fresh-interpreter set-ups per run, after one warm-up
RUN_TIMEOUT_S = 170.0


def environment(seed: int) -> dict:
    """Host facts that decide how the numbers compare across machines."""
    env = {"seed": seed, "nproc": len(os.sched_getaffinity(0))}
    try:
        with open("/proc/cpuinfo") as fh:
            models = (ln.split(":", 1)[1] for ln in fh if ln.startswith("model name"))
            env["cpu"] = next(models, "unknown").strip()
    except OSError:
        env["cpu"] = "unknown"
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            env[f"l{level}"] = size
    return env


def worker_env(name: str, nproc: int) -> dict:
    workers = workloads.workers_for(name, nproc)
    return dict(os.environ, BLOCHLAB_WORKERS=str(workers))


def run_child(args: list, env: dict, deadline: float) -> list[str]:
    """Run worker.py to completion and return its lines of stdout."""
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker.py {' '.join(args)} failed:\n{proc.stderr}")
    return proc.stdout.strip().splitlines()


def time_setup(name: str, seed: int, env: dict, deadline: float) -> list[dict]:
    """Fresh interpreter to built plan, SETUPS times after a warm-up.

    Each set-up gives `raw_s` and `ref_s`, its seconds at the reference
    host speed.
    """
    args = ["--setup-only", "--workload", name, "--seed", str(seed), "--since"]
    times = [
        json.loads(run_child([*args, repr(time.monotonic())], env, deadline)[-1])
        for _ in range(SETUPS + 1)
    ]
    return times[1:]


def check_run(name: str, seed: int, result: dict) -> dict:
    """Correctness of every repetition, plus the run's determinism checks."""
    reference = workloads.load_reference(name, seed)
    attempted, failures = 0, []
    for rep in result["reps"]:
        n, fails = workloads.check_summary(rep["summary"], reference)
        attempted += n
        failures += fails
    problems = []
    if len({rep["digest"] for rep in result["reps"]}) > 1:
        problems.append("reports differ between repetitions")
    traced = [rep["layers"] for rep in result["reps"] if rep["traced"]]
    count_flags = []
    for key in tracing.EXACT_COUNTS:
        values = {layers[key] for layers in traced}
        if len(values) > 1:
            problems.append(f"count {key} differs between repetitions: {values}")
        if traced and reference and traced[0][key] != reference["counts"][key]:
            want = reference["counts"][key]
            count_flags.append(f"{key} = {traced[0][key]}, reference {want}")
    return {
        "reference": reference is not None,
        "bitwise": workloads.bitwise_equal(result["reps"][0]["summary"], reference),
        "attempted": attempted,
        "failures": failures,
        "problems": problems,
        "count_flags": count_flags,
    }


def declared_metrics(trace: int) -> set | None:
    """Metric names BENCHMARK.json promises for this mode."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    with open(path) as fh:
        bench = json.load(fh)
    return {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}


def measure(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One run of one workload: its metrics, human lines and verdict."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    env_info = environment(seed)
    env = worker_env(name, env_info["nproc"])
    setups = [] if trace else time_setup(name, seed, env, deadline)
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    args += ["--trace", str(trace)]
    trace_file = OUT_DIR / f"trace-{name}-seed{seed}.json"
    if trace:
        args += ["--trace-out", str(trace_file)]
    result = json.loads(run_child(args, env, deadline)[-1])
    verdict = check_run(name, seed, result)
    reps = result["reps"]
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    env_info.update(result["versions"], workers=result["workers"])

    lines = [f"workload {name}: " + " ".join(f"{k}={v}" for k, v in env_info.items())]
    metrics = {}

    def put(key, value, unit, note=""):
        metrics[key] = {"value": value, "unit": unit}
        lines.append(f"  {key} = {value:.6g} {unit}{note}")

    def med(key, rows):
        return statistics.median(r[key] for r in rows)

    wall = med("wall_s", plain)
    if not trace:
        note = f" at reference speed, median of {len(plain)}; raw "
        put("wall_s", wall, "s", note + f"{med('wall_raw_s', plain):.6g} s")
        put("cpu_s", med("cpu_s", plain), "s", note + f"{med('cpu_raw_s', plain):.6g} s")
        note = f" at reference speed, median of {len(setups)}; raw "
        put("setup_s", med("ref_s", setups), "s", note + f"{med('raw_s', setups):.6g} s")
        put("peak_rss_mb", result["peak_rss_mb"], "MB", " (worker process, first sweep)")
    else:
        layers = {
            key: statistics.median(r["layers"][key] for r in traced)
            for key in traced[0]["layers"]
        }
        layers["trace.overhead_s"] = med("wall_s", traced) - wall
        for key in sorted(layers):
            derived = key == "oracle.rhs_evals"
            note = " (derived: 12 per attempted step)" if derived else ""
            put(key, layers[key], tracing.unit_of(key), note)
        lines.append(f"  spans written to {trace_file.relative_to(ROOT)}")

    declared = declared_metrics(trace)
    if declared is not None and set(metrics) != declared:
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ declared)} disagree with BENCHMARK.json"
        )

    failed = len(verdict["failures"])
    attempted = verdict["attempted"]
    lines.append(
        f"  fail_ratio = {failed / attempted if attempted else 1.0:.6g} "
        f"({failed} of {attempted} operations failed; "
        + ("checked against the recorded reference" if verdict["reference"]
           else "no reference for this seed: harness gates only")
        + ")"
    )
    if verdict["bitwise"] is not None:
        lines.append(
            "  bitwise equal to the recorded 1-worker reference: "
            + ("yes" if verdict["bitwise"] else "no")
        )
    lines += [f"  FAILED {msg}" for msg in verdict["failures"][:20]]
    lines += [f"  PROBLEM {msg}" for msg in verdict["problems"]]
    lines += [f"  COUNT CHANGED {msg}" for msg in verdict["count_flags"]]
    correct = attempted > 0 and failed == 0 and not verdict["problems"]
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "lines": lines,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    choices = ["all", *workloads.WORKLOADS]
    ap.add_argument("--workload", default="all", choices=choices)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    needed = (workloads.PLAN_FILE, ROOT / "src" / "blochlab" / "__init__.py")
    missing = [p for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: not a blochlab checkout, missing {missing}", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    runs = {}
    for name in names:
        try:
            runs[name] = measure(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(runs[name]["lines"]), flush=True)

    if len(names) == 1:
        metrics = runs[names[0]]["metrics"]
    else:
        metrics = {
            f"{n}.{k}": v for n, run in runs.items() for k, v in run["metrics"].items()
        }
    correct = all(run["correct"] for run in runs.values())
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(run["attempted"] for run in runs.values()),
                "failed": sum(run["failed"] for run in runs.values()),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
