"""Command-line entry points for the experiment harness.

Subcommands: selftest, converge, photon, crosscheck, dump-model.  The
process exits 1 exactly when a gating check in the requested run fails,
and 2, with one `blochlab: <reason>` line on stderr, when the plan is
refused at load; worker count comes from the BLOCHLAB_WORKERS environment
variable.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .harness import (
    ExperimentPlan,
    default_plan_dict,
    run_calculus_selftest,
    run_convergence,
    run_crosscheck,
    write_csv,
    write_json,
)
from .hierarchy import PHOTON_RATE_SIGN
from .model import ModelError, grid_debug_dump, polarization_project
from .oracle import ObservableSpec


def _load_plan(path: str) -> ExperimentPlan:
    if path == "default":
        return ExperimentPlan.from_dict(default_plan_dict())
    return ExperimentPlan.from_file(path)


def _emit(report, json_path, csv_path=None):
    if json_path:
        write_json(report, json_path)
        print(f"wrote {json_path}")
    if csv_path and hasattr(report, "cells"):
        write_csv(report, csv_path)
        print(f"wrote {csv_path}")


def _cmd_selftest(args) -> int:
    report = run_calculus_selftest(seed=args.seed)
    for e in report.entries:
        mark = "PASS" if e.passed else "FAIL"
        print(f"{mark}  {e.name:30s} residual {e.residual:.3e}  (tol {e.tol:g})")
    _emit(report, args.json)
    print("selftest:", "PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


def _report_convergence(plan: ExperimentPlan, args, command: str) -> int:
    report = run_convergence(plan)
    for f in report.fits:
        slope = "-" if f["slope"] is None else f"{f['slope']:.3f}"
        slope = "exact" if f["status"] == "exact" else slope
        print(
            f"{f['status']:>6s}  {f['observable']:30s} t={f['t']:g} "
            f"{f['X_id']} M={f['M']}  slope {slope}"
        )
    _emit(report, args.json or plan.json_path, args.csv or plan.csv_path)
    print(f"{command}:", "PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


def _cmd_converge(args) -> int:
    return _report_convergence(args.plan, args, "converge")


def _cmd_photon(args) -> int:
    # the plan's own output paths hold its converge record: write only the
    # --json/--csv paths given here
    plan = dataclasses.replace(
        args.plan,
        observables=(ObservableSpec(kind="number_rate"),),
        json_path=None,
        csv_path=None,
    )
    print(f"recorded rate sign: {PHOTON_RATE_SIGN:+.0f}")
    grid = plan.model.grid
    for x_id, x in plan.x_samples:
        print(
            f"{x_id}: |Pi+ X| = {polarization_project(grid, +1, x).norm():.4f}, "
            f"|Pi- X| = {polarization_project(grid, -1, x).norm():.4f}"
        )
    return _report_convergence(plan, args, "photon")


def _cmd_crosscheck(args) -> int:
    report = run_crosscheck(args.plan)
    for e in report.entries:
        mark = "PASS" if e["passed"] else "FAIL"
        print(f"{mark}  {e['check']:14s} t={e['t']:g}  dev {e['deviation']:.3e}")
    for e in report.hygiene:
        mark = "PASS" if e["passed"] else "FAIL"
        print(f"{mark}  {e['check']:22s} residual {e['residual']:.3e}")
    # the plan's output paths hold its converge record: write only --json
    _emit(report, args.json)
    print("crosscheck:", "PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


def _cmd_dump_model(args) -> int:
    json.dump(grid_debug_dump(args.plan.model), sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blochlab",
        description="Semiclassical spin-boson expansion experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("selftest", help="symbol-calculus identity battery")
    p.add_argument("--seed", type=int, default=20260826)
    p.add_argument("--json", help="write the report as JSON")
    p.set_defaults(fn=_cmd_selftest)

    for name, fn, text in (
        ("converge", _cmd_converge, "oracle-vs-expansion h sweep"),
        ("photon", _cmd_photon, "number_rate convergence sweep"),
        ("crosscheck", _cmd_crosscheck, "dual-path agreement checks"),
        ("dump-model", _cmd_dump_model, "grid and couplings of the plan's model"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("plan", help="plan JSON path, or 'default'")
        if name != "dump-model":
            p.add_argument("--json", help="override the plan's JSON output path")
        if name in ("converge", "photon"):
            p.add_argument("--csv", help="override the plan's CSV output path")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if hasattr(args, "plan"):
        try:
            args.plan = _load_plan(args.plan)
        except ModelError as exc:  # HarnessError included
            print(f"blochlab: {exc}", file=sys.stderr)
            return 2
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
