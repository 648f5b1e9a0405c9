"""The benchmark's workloads and the checks on their outputs.

Every workload is the shipped desk plan (`plans/desk_scale.json`: model, h
ladder, t, X norm) with the photon cutoff lowered to 18 and the output
paths removed, so a run writes nothing under `results/`.  The workload seed
goes into the plan's `seed`, which draws X inside `ExperimentPlan.from_dict`.

This module imports blochlab only inside the functions that need it, so the
orchestrator can use the tables and checks without importing numpy.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PLAN_FILE = ROOT / "plans" / "desk_scale.json"
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

DEFAULT_SEED = 20260826  # the shipped plan's seed
# The plan's own n_max = 30 takes about 119 s per converge sweep, too long
# to repeat within one run.
N_MAX = 18

WORKLOADS = {
    # the oracle workload: frame propagation is ~98% of the sweep
    "converge-desk": {"sweep": "convergence", "workers": 1},
    # the hierarchy workload: dual-path checks, no oracle call at all
    "crosscheck-desk": {
        "sweep": "crosscheck",
        "workers": 1,
        "t": [0.0, 0.5, 1.0, 1.5, 2.0],
    },
    # every observable from one frame, including number_rate, on two
    # pool workers: the only workload where the harness pool runs parallel
    "photon-desk-w2": {
        "sweep": "convergence",
        "workers": 2,
        "extra_observables": [{"kind": "number_rate"}],
    },
}

# Reference tolerances.  The seed plan asks the hierarchy for tol = 1e-7 and
# the oracle for oracle_tol = 1e-9 per step.
#
# Slopes: the harness passes a fit at slope >= M + 0.8, 0.2 below the
# expected M + 1.  A shift of 0.02 is a tenth of that gap.  Tightening
# oracle_tol to 1e-11 moved the floor-limited spin M=1 slope by 0.0104, the
# largest legitimate shift measured; every other slope moved < 1e-3.
SLOPE_ATOL = 0.02
# Cell errors: |e - e_ref| <= CELL_RTOL * e_ref + CELL_ATOL.  Tightening
# oracle_tol to 1e-11 moved cells by at most 6.2e-11 (spin, h = 0.05);
# tightening tol to 1e-9 moved them by at most 1.1e-13.  CELL_ATOL is a
# tenth of oracle_tol and covers the oracle's own error; the relative part
# covers reordered sums on the large cells (measured <= 2e-5 from the
# hierarchy side) and catches any 0.1% change of a cell above 1e-7.
CELL_RTOL = 1e-3
CELL_ATOL = 1e-10
# Crosscheck deviations and hygiene residuals: each is the gap between two
# paths that are each converged to the plan's tol, so a correct change can
# move it by less than tol = 1e-7; the harness gate itself sits at 1e-6.
CHECK_ATOL = 1e-7


def workers_for(name: str, nproc: int) -> int:
    """Pool workers for a workload, never more than the CPUs available."""
    return max(1, min(WORKLOADS[name]["workers"], nproc))


def plan_dict(name: str, seed: int) -> dict:
    with open(PLAN_FILE) as fh:
        d = json.load(fh)
    spec = WORKLOADS[name]
    d.pop("output", None)
    d["n_max"] = N_MAX
    d["seed"] = int(seed)
    if "t" in spec:
        d["t"] = list(spec["t"])
    d["observables"] = d["observables"] + spec.get("extra_observables", [])
    return d


def build_plan(name: str, seed: int):
    from blochlab import ExperimentPlan

    return ExperimentPlan.from_dict(plan_dict(name, seed))


def run_sweep(name: str, plan):
    from blochlab import run_convergence, run_crosscheck

    if WORKLOADS[name]["sweep"] == "crosscheck":
        return run_crosscheck(plan)
    return run_convergence(plan)


def summarize(report) -> dict:
    """The values the correctness gate compares, from the public report."""
    d = report.to_dict()
    if d["kind"] == "crosscheck":
        return {
            "passed": d["passed"],
            "entries": [
                {k: e[k] for k in ("check", "t", "deviation", "passed")}
                for e in d["entries"]
            ],
            "hygiene": [
                {k: e[k] for k in ("check", "residual", "passed")}
                for e in d["hygiene"]
            ],
        }
    return {
        "passed": d["passed"],
        "cells": [
            {k: c[k] for k in ("observable", "t", "X_id", "h", "error", "status")}
            for c in d["cells"]
        ],
        "fits": [
            {k: f[k] for k in ("observable", "t", "X_id", "M", "slope", "status")}
            for f in d["fits"]
        ],
    }


def summary_counts(summary: dict) -> dict:
    return {
        "harness.cells": len(summary.get("cells", ())),
        "harness.fits": len(summary.get("fits", ())),
        "harness.checks": len(summary.get("entries", ()))
        + len(summary.get("hygiene", ())),
    }


def load_reference(name: str, seed: int) -> dict | None:
    """Recorded summary and counts for (workload, seed), if any."""
    if not REFERENCE_FILE.is_file():
        return None
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)["seeds"].get(str(seed), {}).get(name)


def _close(value, ref, atol, rtol=0.0) -> bool:
    if value is None or ref is None:
        return value is None and ref is None
    return math.isfinite(value) and abs(value - ref) <= rtol * abs(ref) + atol


def _keyed(rows, keys):
    return {tuple(r[k] for k in keys): r for r in rows}


def check_summary(summary: dict, reference: dict | None) -> tuple[int, list]:
    """Operations attempted and the failure message of each failed one.

    An operation is a cell or a fit, or a crosscheck entry or hygiene probe.
    It fails on its harness gate (a `failed:*` cell, a fit that does not
    pass, a check over its tolerance) or, when a reference is recorded for
    the seed, on a status change or a value outside the tolerances above.
    """
    ref = reference["summary"] if reference else None
    failures = []
    # (report field, key fields, harness gate, agreement with the reference)
    groups = [
        (
            "cells",
            ("observable", "t", "X_id", "h"),
            lambda r: not r["status"].startswith("failed"),
            lambda r, q: r["status"] == q["status"]
            and _close(r["error"], q["error"], CELL_ATOL, CELL_RTOL),
        ),
        (
            "fits",
            ("observable", "t", "X_id", "M"),
            lambda r: r["status"] in ("pass", "exact"),
            lambda r, q: r["status"] == q["status"]
            and _close(r["slope"], q["slope"], SLOPE_ATOL),
        ),
        (
            "entries",
            ("check", "t"),
            lambda r: r["passed"],
            lambda r, q: _close(r["deviation"], q["deviation"], CHECK_ATOL),
        ),
        (
            "hygiene",
            ("check",),
            lambda r: r["passed"],
            lambda r, q: _close(r["residual"], q["residual"], CHECK_ATOL),
        ),
    ]
    attempted = 0
    for field, keys, gate, matches in groups:
        rows = summary.get(field, [])
        attempted += len(rows)
        ref_rows = _keyed(ref.get(field, []), keys) if ref is not None else None
        for row in rows:
            key = tuple(row[k] for k in keys)
            if not gate(row):
                failures.append(f"{field} {key}: harness gate failed: {row}")
            elif ref_rows is not None:
                want = ref_rows.get(key)
                if want is None:
                    failures.append(f"{field} {key}: not in the reference")
                elif not matches(row, want):
                    failures.append(f"{field} {key}: {row} vs reference {want}")
        if ref_rows is not None:
            missing = set(ref_rows) - {tuple(r[k] for k in keys) for r in rows}
            attempted += len(missing)
            failures += [f"{field} {key}: missing" for key in sorted(missing)]
    if not summary["passed"] and not failures:
        failures.append("report.passed is false")
    return attempted, failures


def bitwise_equal(summary: dict, reference: dict | None) -> bool | None:
    """Whether every compared value equals the recorded one exactly."""
    if reference is None:
        return None
    return summary == reference["summary"]
