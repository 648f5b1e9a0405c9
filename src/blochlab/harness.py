"""Experiment driver: plan ingestion, convergence sweeps, self-tests, reports.

The harness keeps the numerics elsewhere (oracle, hierarchy, symbols) and
concerns itself with orchestration only: deterministic sample generation,
a bounded worker pool over independent cells, log-log slope fits with the
raw (h, error) pairs kept alongside, and CSV/JSON writers whose output is
bitwise-stable under a fixed seed.

There is one sweep, run_convergence: each (h, t, X) frame is propagated
once, every h of a (t, X) together in one frame group, and every observable
of the plan, number_rate included, is read from it.  The photon-rate
measurement is that sweep on a number_rate plan.
"""

from __future__ import annotations

import csv
import json
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .fock import (
    FockBasis,
    coherent_overlap,
    coherent_state,
    wick_symbol,
)
from .hierarchy import (
    HierarchyError,
    SweepTable,
    bloch_spin0,
    compute_hierarchy,
    maxwell_cross_check,
    order0,
    order_j,
    photon_rate_expansion,  # no caller here; perfbench/tracing.py wraps it
    propagator_G,
    spin_correction1,
    tangent_derivatives,
)
from .model import Model, ModelConfig, ModelError, PhaseVector
from .oracle import (
    DEFAULT_TAIL_TOL,
    Hamiltonian,
    ObservableSpec,
    OracleError,
    coherent_frame,
    coupled_modes,
    evolved_frames,
    frame_symbol,
    apply_observable,
    drive_weight,
    leakage_estimate,
)
from .stepper import StepStallError
from .symbols import (
    PolySymbol,
    anti_wick_quantize,
    heat,
    mizrahi_compose,
    wick_quantize,
)

WORKERS_ENV = "BLOCHLAB_WORKERS"

# Fit acceptance: slope must exceed M + 0.8; the upper sanity bound 1.2
# applies only at M = 0 where superconvergence would mean a wiring error.
SLOPE_MARGIN = 0.8
SLOPE_UPPER_M0 = 1.2

# a group with no coupling, or at t = 0 where U(0) = I, has no h-dependence:
# its cells are exact and its fit checks only that they stay below this
ZERO_COUPLING_TOL = 1e-8

# run_crosscheck's gate on every dual-path deviation, divergence residual
# and hygiene residual
CROSSCHECK_TOL = 1e-6


class HarnessError(ModelError):
    """Raised for malformed plans, worker settings and fit inputs."""


def worker_count() -> int:
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        n = int(raw)
    except ValueError as exc:
        raise HarnessError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from exc
    if n < 1:
        raise HarnessError(f"{WORKERS_ENV} must be >= 1")
    return n


def _pool_map(fn, jobs):
    """Run jobs through the bounded pool; results keep the job order."""
    n = worker_count()
    if n == 1 or len(jobs) <= 1:
        return [fn(j) for j in jobs]
    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, jobs))


# ---------------------------------------------------------------------------
# plans


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_array(v) -> bool:
    # a ragged value gives a 1-d array of its lists, which are no numbers
    cells = np.array(v, dtype=object)
    return cells.ndim > 0 and all(map(_is_number, cells.flat))


def _list_of(kind):
    return lambda v: isinstance(v, (list, tuple)) and all(map(_JSON_TYPES[kind][0], v))


# a plan value's JSON type: (its test, the type named when a value fails it)
_JSON_TYPES = {
    "number": (_is_number, "a number"),
    "integer": (lambda v: _is_number(v) and isinstance(v, int), "an integer"),
    "string": (lambda v: isinstance(v, str), "a string"),
    "numbers": (_list_of("number"), "a list of numbers"),
    "array": (_is_array, "an array of numbers"),
    "object": (lambda v: isinstance(v, dict), "an object"),
    "objects": (_list_of("object"), "a list of objects"),
    "string or array": (
        lambda v: isinstance(v, str) or _is_array(v),
        "a string or an array of numbers",
    ),
    "object or objects": (
        lambda v: isinstance(v, dict) or _JSON_TYPES["objects"][0](v),
        "a list of objects",
    ),
}
# what a value of these types is read as; the others are kept as they are
_CONVERSIONS = {
    "number": float,
    "numbers": lambda v: tuple(map(float, v)),
    "array": lambda v: np.array(v, dtype=float),
}

REQUIRED = object()  # the default of a key that every plan must give

# Every key a plan may hold, per section: (key, JSON type, default or
# REQUIRED).  Section "" is the plan itself, "X[]" one explicit X sample and
# "observables[<kind>]" one observable of that kind, less its "kind" key.
# README's "Plan keys" table documents each row.
_FIELD_KEYS = (("axis", "integer", REQUIRED), ("point", "array", REQUIRED))
PLAN_KEYS = {
    "": (
        ("model", "object", REQUIRED),
        ("observables", "objects", REQUIRED),
        ("t", "numbers", REQUIRED),
        ("h", "numbers", REQUIRED),
        ("n_max", "integer", REQUIRED),
        ("M", "integer", 0),
        ("tol", "number", 1e-7),
        ("oracle_tol", "number", 1e-9),
        ("seed", "integer", 0),
        ("X", "object or objects", {"count": 1, "norm": 0.5}),
        ("output", "object", {}),
    ),
    "output": (("csv", "string", None), ("json", "string", None)),
    "model": (
        ("spins", "object", REQUIRED),
        ("field", "object", REQUIRED),
        ("cutoff", "object", {}),
        ("grid", "object", {}),
    ),
    "model.spins": (("positions", "array", REQUIRED),),
    "model.field": (("beta", "array", REQUIRED),),
    "model.cutoff": (("family", "string", "gaussian"), ("lambda", "number", 1.0)),
    "model.grid": (
        ("radial_nodes", "integer", 1),
        ("kmax", "number", None),
        ("directions", "string or array", "z"),
        ("kpoints", "array", None),
        ("weights", "array", None),
    ),
    "X": (("count", "integer", 1), ("norm", "number", 0.5)),
    "X[]": (("id", "string", None), ("q", "numbers", ()), ("p", "numbers", ())),
    "observables[spin]": (("axis", "integer", REQUIRED), ("spin", "integer", REQUIRED)),
    "observables[field_B]": _FIELD_KEYS,
    "observables[field_E]": _FIELD_KEYS,
    "observables[field_E_pol]": _FIELD_KEYS,
    "observables[number_rate]": (),
}


def _read(d: dict, section: str, where: str) -> dict:
    """The keys of d, one section of a plan, with PLAN_KEYS[section]'s
    defaults filled in.  where names the section: its first word is the
    document, the rest the section's path in it ("model grid").  An
    unknown key, a missing required key or a value of the wrong JSON type
    is refused naming its path in the document ("model key 'grid.kmax'")."""
    document, _, path = where.partition(" ")
    prefix = path and path + "."
    out = {}
    for key, kind, default in PLAN_KEYS[section]:
        if key not in d:
            if default is REQUIRED:
                raise HarnessError(f"{where} has no {key!r} key")
            out[key] = default
            continue
        valid, name = _JSON_TYPES[kind]
        if not valid(d[key]):
            raise HarnessError(
                f"{document} key {prefix + key!r} must be {name}, got {d[key]!r}"
            )
        out[key] = _CONVERSIONS[kind](d[key]) if kind in _CONVERSIONS else d[key]
    for key in d:
        if key not in out:
            raise HarnessError(f"unknown {document} key {prefix + key!r}")
    return out


def _model_config(d: dict) -> ModelConfig:
    """The model section of a plan as a ModelConfig."""
    model = {
        key: _read(value, f"model.{key}", f"model {key}")
        for key, value in _read(d, "model", "model").items()
    }
    spins, cutoff, grid = model["spins"], model["cutoff"], model["grid"]
    if cutoff["family"] != "gaussian":
        family = cutoff["family"]
        raise HarnessError(f"unknown cutoff family {family!r}; only 'gaussian'")
    # explicit k-points read no radial key, and a radial grid no weights
    given = d.get("grid", {})
    explicit = "kpoints" in given
    for key in ("radial_nodes", "kmax", "directions") if explicit else ("weights",):
        if key in given:
            unused = "beside" if explicit else "without"
            raise HarnessError(
                f"model key 'grid.{key}' is unused {unused} 'grid.kpoints'"
            )
    # build_grid takes each k-point and direction as a row of 3 numbers
    for key in ("kpoints", "directions"):
        rows = grid[key]
        if rows is None or isinstance(rows, str):
            continue
        if np.atleast_2d(np.asarray(rows, dtype=float)).shape[1:] != (3,):
            raise HarnessError(
                f"model key 'grid.{key}' must hold rows of 3 numbers, "
                f"got {d['grid'][key]!r}"
            )
    # weights come with k-points, as checked above
    weights = grid["weights"]
    if weights is not None and weights.shape != (len(np.atleast_2d(grid["kpoints"])),):
        raise HarnessError(
            "model key 'grid.weights' must hold one number per k-point, "
            f"got {d['grid']['weights']!r}"
        )
    return ModelConfig(
        N=len(spins["positions"]),
        positions=spins["positions"],
        beta=model["field"]["beta"],
        cutoff_lambda=cutoff["lambda"],
        # the grid keys are ModelConfig's grid_* fields
        **{f"grid_{key}": value for key, value in grid.items()},
    )


@dataclass(frozen=True)
class ExperimentPlan:
    """One sweep: a model, observables, samples, and an h ladder.

    n_max caps the photon cutoff of the oracle's fluctuation basis.  Each
    frame (h, t, X) starts at the smallest cutoff whose leakage_estimate
    fits DEFAULT_TAIL_TOL, and the frames of one (t, X) that start alike
    run together, to t.  Frames whose measured leakage does not fit move
    on together to the doubled cutoff; at the cap they fail with it.
    """

    model: Model
    observables: tuple
    x_samples: tuple  # ((x_id, PhaseVector), ...)
    t_samples: tuple
    h_list: tuple
    M: int
    n_max: int
    tol: float = 1e-7
    oracle_tol: float = 1e-9
    seed: int = 0
    csv_path: str | None = None
    json_path: str | None = None

    def __post_init__(self):
        hs = np.asarray(self.h_list, dtype=float)
        if hs.size == 0:
            raise HarnessError("plan needs at least one h value")
        if np.any(hs <= 0.0) or np.any(hs > 1.0):
            raise HarnessError("every h must lie in (0, 1]")
        if np.any(np.diff(hs) >= 0.0):
            raise HarnessError("h list must be strictly decreasing")
        # order_j stops at order 1, the last order whose values are checked
        if self.M not in (0, 1):
            raise HarnessError(f"expansion order M must be 0 or 1, got {self.M}")
        if self.n_max < 1:
            raise HarnessError("n_max must be positive")
        for name in ("tol", "oracle_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise HarnessError(f"{name} must be positive and finite, got {value}")
        if not self.observables:
            raise HarnessError("plan needs at least one observable")
        if not self.x_samples or not self.t_samples:
            raise HarnessError("plan needs X and t samples")
        # cells, frames and fits are keyed by observable, X id and t: a repeat
        # would merge or duplicate them
        x_ids = [x_id for x_id, _ in self.x_samples]
        if len(set(x_ids)) != len(x_ids):
            raise HarnessError(f"X ids must be distinct, got {x_ids}")
        if len(set(self.t_samples)) != len(self.t_samples):
            raise HarnessError(f"t samples must be distinct, got {self.t_samples}")
        labels = [obs.label() for obs in self.observables]
        if len(set(labels)) != len(labels):
            raise HarnessError(f"observables must be distinct, got {labels}")
        for obs in self.observables:
            if obs.kind == "spin" and obs.lam > self.model.N:
                raise HarnessError(
                    f"{obs.label()}: site {obs.lam} outside 1..{self.model.N}"
                )

    @staticmethod
    def from_dict(d: dict) -> "ExperimentPlan":
        """The plan a JSON document describes, read against PLAN_KEYS."""
        if not isinstance(d, dict):
            raise HarnessError(f"plan must be a JSON object, got {d!r}")
        plan = _read(d, "", "plan")
        model = Model(_model_config(plan["model"]))
        observables = []
        for i, o in enumerate(plan["observables"]):
            if "kind" not in o:
                raise HarnessError(f"observable {i} has no 'kind' key: {o}")
            # an unknown kind has no section: ObservableSpec refuses it
            section = f"observables[{o['kind']}]"
            keys = {k: v for k, v in o.items() if k != "kind"}
            spec = _read(keys, section, "observable") if section in PLAN_KEYS else {}
            m, x, lam = (spec.get(key) for key in ("axis", "point", "spin"))
            observables.append(ObservableSpec(o["kind"], m, x, lam))
        xs, samples, grid_D = plan["X"], [], model.D
        if isinstance(xs, dict):
            xs = _read(xs, "X", "plan X")
            # a negative norm would be used as its absolute value
            if not (math.isfinite(xs["norm"]) and xs["norm"] >= 0.0):
                raise HarnessError(f"X.norm must be finite and >= 0, got {xs['norm']}")
            rng = np.random.default_rng(plan["seed"])
            for i in range(xs["count"]):
                v = rng.standard_normal(2 * grid_D)
                v *= xs["norm"] / np.linalg.norm(v)
                samples.append((f"X{i}", PhaseVector(v[:grid_D], v[grid_D:])))
        else:
            for i, entry in enumerate(xs):
                entry = _read(entry, "X[]", f"plan X[{i}]")
                x_id = f"X{i}" if entry["id"] is None else entry["id"]
                q, p = entry["q"], entry["p"]
                if len(q) != grid_D or len(p) != grid_D:
                    raise HarnessError(
                        f"X sample {x_id!r}: q and p need {grid_D} entries each "
                        f"on this grid, got {len(q)} and {len(p)}"
                    )
                samples.append((x_id, PhaseVector(q, p)))
        out = _read(plan["output"], "output", "plan output")
        return ExperimentPlan(
            model=model,
            observables=tuple(observables),
            x_samples=tuple(samples),
            t_samples=plan["t"],
            h_list=plan["h"],
            csv_path=out["csv"],
            json_path=out["json"],
            # these plan keys are fields of the same name
            **{key: plan[key] for key in ("M", "n_max", "tol", "oracle_tol", "seed")},
        )

    @staticmethod
    def from_file(path) -> "ExperimentPlan":
        with open(path) as fh:
            return ExperimentPlan.from_dict(json.load(fh))


def default_plan_dict() -> dict:
    """Desk-scale sweep: one spin, single-mode grid, four h values."""
    return {
        "model": {
            "spins": {"positions": [[0.0, 0.0, 0.0]]},
            "field": {"beta": [0.0, 0.0, 1.0]},
            "grid": {"kpoints": [[0.0, 0.0, 1.0]], "weights": [1.0]},
        },
        "n_max": 30,
        "h": [0.4, 0.2, 0.1, 0.05],
        "t": [1.0],
        "M": 1,
        "observables": [
            {"kind": "spin", "axis": 1, "spin": 1},
            {"kind": "field_B", "axis": 2, "point": [0.0, 0.0, 0.0]},
        ],
        "X": {"count": 1, "norm": 0.5},
        "seed": 20260826,
        "tol": 1e-7,
    }


# ---------------------------------------------------------------------------
# slope fits


def fit_slope(hs, errors):
    """Least-squares slope and R^2 of log(error) against log(h)."""
    hs = np.asarray(hs, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if hs.size < 4:
        raise HarnessError("slope fit needs at least 4 h values")
    if not (np.isfinite(hs).all() and np.isfinite(errors).all()):
        raise HarnessError("slope fit needs finite h values and errors")
    if np.any(errors <= 0.0):
        raise HarnessError("slope fit needs positive errors")
    lx, ly = np.log(hs), np.log(errors)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return float(slope), float(r2)


def slope_passes(slope: float, M: int) -> bool:
    if not math.isfinite(slope) or slope < M + SLOPE_MARGIN:
        return False
    if M == 0 and slope > SLOPE_UPPER_M0:
        return False
    return True


# ---------------------------------------------------------------------------
# convergence sweep


@dataclass(frozen=True)
class SweepCell:
    """One (observable, t, X, h) comparison."""

    observable: str
    t: float
    x_id: str
    h: float
    error: float | None
    status: str  # ok | exact | failed:<reason>
    # the frame's PropagationLog.to_dict() plus energy_drift, cutoff, modes
    # and leakage_estimate
    hygiene: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ConvergenceReport:
    plan_meta: dict
    cells: tuple  # SweepCell, canonical order
    fits: tuple  # dicts: observable, t, x_id, slope, r2, expected, status
    passed: bool

    def to_dict(self) -> dict:
        return {
            "kind": "convergence",
            "plan": self.plan_meta,
            "passed": self.passed,
            "fits": list(self.fits),
            "cells": [
                {
                    "observable": c.observable,
                    "t": c.t,
                    "X_id": c.x_id,
                    "h": c.h,
                    "error": c.error,
                    "status": c.status,
                    "hygiene": c.hygiene,
                }
                for c in self.cells
            ],
        }


def _operator_norm(a: np.ndarray) -> float:
    """Spectral norm, NaN for a matrix with a non-finite entry."""
    a = np.atleast_2d(a)
    return float(np.linalg.norm(a, 2)) if np.isfinite(a).all() else math.nan


def _coupling_norm(model: Model) -> float:
    return max((b.norm() for b in model.coupling_list), default=0.0)


def _cell_sort_key(c: SweepCell):
    return (c.observable, c.t, c.x_id, -c.h)


def _partial_sum_errors(exact, orders, h):
    """||exact - sum_{i <= j} h^i A[i]|| for j = 0..M, NaN where not finite."""
    errors = []
    partial = np.zeros_like(exact)
    for j, a in enumerate(orders):
        partial = partial + (h**j) * np.atleast_2d(a)
        errors.append(_operator_norm(exact - partial))
    return errors


def _fit_row(label, t, x_id, j, hs, errors, exact_group: bool) -> dict:
    """The fit of partial sum j from its finite cells' (h, error) pairs.

    An exact group (no coupling, or t = 0) has no h-dependence, so its
    errors are only held below ZERO_COUPLING_TOL.
    """
    row = {"observable": label, "t": t, "X_id": x_id, "M": j, "expected": j + 1}
    row.update(slope=None, r2=None)
    if exact_group and errors:
        row["max_error"] = max(errors)
        row["status"] = "exact" if row["max_error"] <= ZERO_COUPLING_TOL else "fail"
    elif len(hs) < 4:
        row["status"] = "insufficient-data"
    else:
        row["slope"], row["r2"] = fit_slope(hs, errors)
        row["status"] = "pass" if slope_passes(row["slope"], j) else "fail"
    return row


def run_convergence(plan: ExperimentPlan) -> ConvergenceReport:
    """Exact symbols vs hierarchy partial sums over the plan's h ladder."""
    model = plan.model
    zero_coupling = _coupling_norm(model) == 0.0

    points = [(t, x_id, x) for t in plan.t_samples for (x_id, x) in plan.x_samples]

    # coefficients are h-independent: one hierarchy build per (t, X) reads
    # every observable, keyed by (label, t, X id).  A build that fails fails
    # only the groups of its (t, X): their orders are the failure status.
    # The builds of one X share its chains, so each is integrated once for
    # all of its t: each job joins its X's table, in which the first job to
    # read a chain builds it, and the last t to read it drops it.
    tables = {x_id: SweepTable(model, x, plan.t_samples) for x_id, x in plan.x_samples}

    def _coeffs(point):
        t, x_id, x = point
        observables = plan.observables
        try:
            with tables[x_id].joined(t):
                orders = compute_hierarchy(
                    model, observables, t, x, plan.M, tol=plan.tol
                )
        except HierarchyError as exc:
            orders = [f"failed:{exc}"] * len(observables)
        return [((obs.label(), t, x_id), o) for obs, o in zip(observables, orders)]

    # one propagated frame per (h, t, X), in the frame displaced by W(X).
    # Each h starts at the smallest cutoff whose leakage_estimate fits
    # DEFAULT_TAIL_TOL, capped at n_max; the h of one (t, X) at one cutoff
    # are integrated together as a frame group.  The measured leakage is
    # the gate: frames that breach it move on to the doubled cutoff, up to
    # n_max, and join the group there.  Every group runs to t, so a frame
    # that fails at the cap reports the leakage of its whole run.  Every
    # basis holds only the coupled modes.  Bases and Hamiltonians are built
    # on first use, under a lock, and shared.
    modes = coupled_modes(model)
    bases, hams = {}, {}
    build_lock = threading.Lock()

    def _hamiltonian(cutoff, h):
        with build_lock:
            if (cutoff, h) not in hams:
                if cutoff not in bases:
                    bases[cutoff] = FockBasis(modes.shape[1], cutoff)
                hams[(cutoff, h)] = Hamiltonian(model, bases[cutoff], h, modes)
            return hams[(cutoff, h)]

    weight = drive_weight(model)  # the estimate's per-model factor

    def _start_cutoff(h, t):
        for c in range(1, plan.n_max):
            if leakage_estimate(weight, h, t, c) <= DEFAULT_TAIL_TOL:
                return c
        return plan.n_max

    def _frames(point):
        """Per h: (frame, Y, Hamiltonian, hygiene) and None, or None and a
        failure."""
        t, x_id, x = point
        out, waiting = [], {}  # cutoff -> the h to run there
        for h in plan.h_list:
            waiting.setdefault(_start_cutoff(h, t), []).append(h)
        while waiting:
            # the smallest cutoff first, so that its breaching frames join
            # the group of the doubled cutoff before that group runs
            cutoff = min(waiting)
            pending = sorted(waiting.pop(cutoff), reverse=True)  # ladder order
            group = [_hamiltonian(cutoff, h) for h in pending]
            try:
                xi, y, log = evolved_frames(group, t, x, tol=plan.oracle_tol)
            except StepStallError as exc:
                # only the frames that stalled fail; the others run again
                failed = [pending[i] for i in exc.frames]
                out += [((h, t, x_id), (None, f"failed:{exc}")) for h in failed]
                rest = [h for h in pending if h not in failed]
                if rest:
                    waiting[cutoff] = rest
                continue
            except (OracleError, ModelError) as exc:
                out += [((h, t, x_id), (None, f"failed:{exc}")) for h in pending]
                continue
            breached = []
            for ham, frame, frame_log in zip(group, xi, log.frames):
                leakage = frame_log.leakage
                if leakage > DEFAULT_TAIL_TOL and cutoff < plan.n_max:
                    breached.append(ham.h)
                    continue
                if leakage > DEFAULT_TAIL_TOL:
                    evolved, status = None, (
                        f"failed:leakage {leakage:.3e} exceeds "
                        f"{DEFAULT_TAIL_TOL:.1e} at the cap n_max = {cutoff}"
                    )
                else:
                    # Psi_X (x) e_j is W(X) applied to the vacuum frame
                    e0 = ham.energy(coherent_frame(ham), x)
                    e_t = ham.energy(frame, y)
                    scale = np.maximum(np.abs(e0), 1.0)
                    drift = float(np.max(np.abs(e_t - e0) / scale))
                    hygiene = frame_log.to_dict()
                    estimate = leakage_estimate(weight, ham.h, t, cutoff)
                    hygiene.update(
                        energy_drift=drift,
                        cutoff=cutoff,
                        modes=ham.basis.D,
                        leakage_estimate=estimate,
                    )
                    evolved, status = (frame, y, ham, hygiene), None
                out.append(((ham.h, t, x_id), (evolved, status)))
            if breached:
                waiting.setdefault(min(2 * cutoff, plan.n_max), []).extend(breached)
        return out

    # the hierarchy and oracle jobs share one pool, so that on a single
    # (t, X) the coefficients and the frame group run side by side
    jobs = [(_coeffs, p) for p in points] + [(_frames, p) for p in points]
    done = _pool_map(lambda job: job[0](job[1]), jobs)
    coefficients = dict(kv for kvs in done[: len(points)] for kv in kvs)
    frames = dict(kv for kvs in done[len(points) :] for kv in kvs)

    # per (observable, t, X) group: one table of partial-sum errors, a row
    # per h whose frame exists and whose errors are finite, a column per
    # order 0..M.  Its rows give the cells (at the plan's M), its columns
    # the fits.
    cells, fits = [], []
    for obs in plan.observables:
        label = obs.label()
        for t in plan.t_samples:
            exact_group = zero_coupling or t == 0.0
            for x_id, _ in plan.x_samples:
                orders = coefficients[(label, t, x_id)]
                failure = orders if isinstance(orders, str) else None
                hs, table = [], []
                for h in plan.h_list:
                    evolved, status = frames[(h, t, x_id)]
                    error, hygiene = None, {}
                    if evolved is not None and failure:
                        hygiene, status = evolved[3], failure
                    elif evolved is not None:
                        frame, y, ham, hygiene = evolved
                        exact = np.atleast_2d(
                            frame_symbol(frame, apply_observable(ham, obs, frame, y))
                        )
                        errors = _partial_sum_errors(exact, orders, h)
                        if not np.isfinite(exact).all():
                            status = "failed:non-finite exact symbol"
                        elif not np.isfinite(errors).all():
                            status = "failed:non-finite partial-sum error"
                        else:
                            error, status = errors[-1], "exact" if exact_group else "ok"
                            hs.append(h)
                            table.append(errors)
                    cells.append(SweepCell(label, t, x_id, h, error, status, hygiene))
                # every partial sum gets a fit row, even with no cell left
                for j in range(plan.M + 1):
                    column = [row[j] for row in table]
                    fit = _fit_row(label, t, x_id, j, hs, column, exact_group)
                    fits.append(dict(fit, status=failure) if failure else fit)

    cells.sort(key=_cell_sort_key)
    fits.sort(key=lambda f: (f["observable"], f["t"], f["X_id"], f["M"]))
    passed = all(f["status"] in ("pass", "exact") for f in fits) and not any(
        c.status.startswith("failed") for c in cells
    )
    meta = {
        "seed": plan.seed,
        "M": plan.M,
        "n_max": plan.n_max,
        "h": list(plan.h_list),
        "t": list(plan.t_samples),
        "X_ids": [x_id for x_id, _ in plan.x_samples],
        "observables": [o.label() for o in plan.observables],
    }
    return ConvergenceReport(meta, tuple(cells), tuple(fits), passed)


# ---------------------------------------------------------------------------
# calculus self-test


@dataclass(frozen=True)
class CheckEntry:
    name: str
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "residual": self.residual,
            "tol": self.tol,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class SelftestReport:
    entries: tuple

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def to_dict(self) -> dict:
        return {
            "kind": "selftest",
            "passed": self.passed,
            "entries": [e.to_dict() for e in self.entries],
        }


def _random_symbol(rng, D: int, degree: int) -> PolySymbol:
    out = PolySymbol(D, {})
    for _ in range(6):
        q_exp = rng.integers(0, degree + 1, size=D)
        p_exp = rng.integers(0, degree + 1, size=D)
        while q_exp.sum() + p_exp.sum() > degree:
            q_exp = rng.integers(0, degree + 1, size=D)
            p_exp = rng.integers(0, degree + 1, size=D)
        coeff = complex(rng.standard_normal(), rng.standard_normal())
        out = out + PolySymbol.from_qp_monomial(tuple(q_exp), tuple(p_exp), coeff)
    return out


def _rand_x(rng, D: int, scale: float) -> PhaseVector:
    v = rng.standard_normal(2 * D) * scale
    return PhaseVector(v[:D].copy(), v[D:].copy())


def run_calculus_selftest(seed: int = 20260826) -> SelftestReport:
    """Symbol-calculus and coherent-state identity battery.

    All residuals are relative to the scale of the compared quantities;
    the tolerances mirror the guarantees each identity carries (exact
    coefficient arithmetic vs truncation-limited comparisons).
    """
    rng = np.random.default_rng(seed)
    entries = []
    D, h = 2, 0.5
    basis = FockBasis(D, 25)

    # heat round-trip: H_{-h} H_h = id, exact coefficient arithmetic
    f = _random_symbol(rng, D, 6)
    rt = heat(heat(f, h), -h) - f
    scale = max(abs(v) for v in f.coeffs.values())
    res = max((abs(v) for v in rt.coeffs.values()), default=0.0) / scale
    entries.append(CheckEntry("heat-roundtrip", res, 1e-12))

    # Wick ordering: Op^wick(q^2 + p^2) = 2 h N
    qq = PolySymbol.from_qp_monomial((2, 0), (0, 0)) + PolySymbol.from_qp_monomial(
        (0, 0), (2, 0)
    )
    op = wick_quantize(qq, basis, h).toarray()
    # q^2 + p^2 lives on slot 0, so the operator is 2h x (slot-0 number)
    res = np.max(np.abs(op - np.diag(np.diag(op)))) + np.max(
        np.abs(np.diag(op) - 2.0 * h * basis.occupations[:, 0])
    )
    entries.append(CheckEntry("wick-ordering-2hN", float(res), 1e-12))

    # anti-Wick is anti-normal ordering: Op^aw(q^2 + p^2) = 2h a a* = 2h (N + 1)
    op = anti_wick_quantize(qq, basis, h).toarray()
    res = np.max(np.abs(op - np.diag(np.diag(op)))) + np.max(
        np.abs(np.diag(op) - 2.0 * h * (basis.occupations[:, 0] + 1))
    )
    entries.append(CheckEntry("anti-wick-ordering-2h(N+1)", float(res), 1e-12))

    # symbol o quantize round-trip on a random degree <= 3 symbol
    g = _random_symbol(rng, D, 3)
    x = _rand_x(rng, D, 0.3)
    opg = wick_quantize(g, basis, h)
    got = wick_symbol(basis, h, opg, x)
    want = g.eval(x)
    res = abs(got - want) / max(1.0, abs(want))
    entries.append(CheckEntry("symbol-quantize-roundtrip", float(res), 1e-6))

    # Mizrahi operator identity: symbol(Op(f) Op(g)) = C_h(f, g)
    f2 = _random_symbol(rng, D, 2)
    g2 = _random_symbol(rng, D, 2)
    prod = wick_quantize(f2, basis, h) @ wick_quantize(g2, basis, h)
    got = wick_symbol(basis, h, prod, x)
    want = mizrahi_compose(f2, g2, h).eval(x)
    res = abs(got - want) / max(1.0, abs(want))
    entries.append(CheckEntry("mizrahi-identity", float(res), 1e-6))

    # coherent overlap closed form vs truncated inner product
    xo = _rand_x(rng, D, 0.4)
    yo = _rand_x(rng, D, 0.4)
    cx, _ = coherent_state(basis, h, xo)
    cy, _ = coherent_state(basis, h, yo)
    res = abs(np.vdot(cx, cy) - coherent_overlap(h, xo, yo))
    entries.append(CheckEntry("coherent-overlap", float(res), 1e-10))

    # coherent state as displaced vacuum
    from scipy.linalg import expm

    from .fock import segal_field
    from .model import fmap

    small = FockBasis(1, 25)
    xs = PhaseVector(np.array([0.5]), np.array([-0.3]))
    gen = segal_field(small, h, fmap(xs)).toarray()
    vac = np.zeros(small.dim, dtype=complex)
    vac[0] = 1.0
    disp = expm((-1j / h) * gen) @ vac
    target, _ = coherent_state(small, h, xs)
    entries.append(
        CheckEntry("displacement-identity", float(np.max(np.abs(disp - target))), 1e-9)
    )

    # free-flow covariance of coherent states on the minimal grid
    from .fock import gamma_free_phases
    from .model import chi_flow_vector, minimal_grid_config

    model = Model(minimal_grid_config())
    b4 = FockBasis(4, 18)
    xf = _rand_x(rng, 4, 0.25)
    cf, _ = coherent_state(b4, h, xf)
    moved = gamma_free_phases(b4, model.grid.slot_omegas, 0.8) * cf
    tgt, _ = coherent_state(b4, h, chi_flow_vector(model.grid, 0.8, xf))
    entries.append(
        CheckEntry("free-flow-covariance", float(np.max(np.abs(moved - tgt))), 1e-10)
    )

    return SelftestReport(entries=tuple(entries))


# ---------------------------------------------------------------------------
# dual-path cross-check


@dataclass(frozen=True)
class CrosscheckReport:
    plan_meta: dict
    entries: tuple  # dicts: check, t, deviation, tol, passed
    hygiene: tuple
    passed: bool

    def to_dict(self) -> dict:
        return {
            "kind": "crosscheck",
            "plan": self.plan_meta,
            "passed": self.passed,
            "entries": list(self.entries),
            "hygiene": list(self.hygiene),
        }


def _rel_dev(a: np.ndarray, b: np.ndarray, floor: float = 1e-30) -> float:
    """||a - b|| / max(||b||, floor), NaN if a or b is not finite."""
    scale = np.maximum(_operator_norm(b), floor)
    return float(_operator_norm(np.atleast_2d(a) - np.atleast_2d(b)) / scale)


def run_crosscheck(plan: ExperimentPlan) -> CrosscheckReport:
    """The three independent-path agreements, per t sample.

    Path pairs: order-0 Duhamel vs the precession solution, order-1
    Duhamel (spin) vs the forced-precession correction, and order-1
    Duhamel (field) vs the sourced-mode reconstruction.
    """
    model = plan.model
    tol = CROSSCHECK_TOL
    x_id, x = plan.x_samples[0]
    entries = []
    hygiene = []

    def _spin_dev(triples, direct, floor):
        """Largest deviation of the site triples from the direct coefficient
        of each spin axis; NaN, so a failing entry, if any is not finite."""
        devs = []
        for tr in triples:
            for m in (1, 2, 3):
                obs = ObservableSpec(kind="spin", m=m, lam=tr.lam)
                devs.append(_rel_dev(tr.matrices[m - 1], direct(obs), floor))
        return float(np.max(devs))

    t_max = max(plan.t_samples)
    v = PhaseVector(np.ones(model.D), np.zeros(model.D)) * (1.0 / np.sqrt(model.D))

    # every path at every t reads one table of chains: each chain is
    # integrated once, by the first job that reads it, every t on the same
    # substep reads its prefix, and the last of them drops it
    sweeps = SweepTable(model, x, plan.t_samples)

    def _one_t(t):
        out, probes = [], []
        with sweeps.joined(t):
            # order 0: Duhamel path vs precession path, all sites and axes
            dev0 = _spin_dev(
                bloch_spin0(model, t, x),
                lambda obs: order0(model, obs, t, x),
                1e-30,
            )
            out.append({"check": "spin-order0", "t": t, "deviation": dev0})
            if t != 0.0:
                # order 1 spin: variation-of-constants vs Duhamel recursion
                dev1 = _spin_dev(
                    spin_correction1(model, t, x, tol=tol * 0.3),
                    lambda obs: order_j(model, obs, 1, t, x, tol=tol * 0.3),
                    1.0,
                )
                out.append({"check": "spin-order1", "t": t, "deviation": dev1})

                # order 1 field: sourced modes vs Duhamel recursion
                mx = maxwell_cross_check(model, t, x, tol=tol)
                out.append(
                    {
                        "check": "field-order1",
                        "t": t,
                        "deviation": mx.max_rel_dev,
                        "div_b": mx.div_b_residual,
                        "div_e": mx.div_e_residual,
                    }
                )
            if t == t_max:
                # hygiene probes at the last t, on its chains: the unitarity
                # defect of the unprojected propagator, and the tangent
                # against central differences
                defect = propagator_G(model, t, x).unitarity_defect
                probes.append({"check": "propagator-unitarity", "residual": defect})
                tb = tangent_derivatives(model, 1, v, t, x)
                probes.append({"check": "tangent-fd-residual", "residual": tb.residual})
        return out, probes

    for group, probes in _pool_map(_one_t, list(plan.t_samples)):
        entries.extend(group)
        hygiene.extend(probes)

    for e in entries:
        e["tol"] = tol
        # field-order1 entries also carry the divergence residuals
        e["passed"] = all(e.get(k, 0.0) <= tol for k in ("deviation", "div_b", "div_e"))
    for hgi in hygiene:
        hgi["tol"] = tol
        hgi["passed"] = hgi["residual"] <= tol
    passed = all(e["passed"] for e in entries) and all(h["passed"] for h in hygiene)

    meta = {
        "seed": plan.seed,
        "t": list(plan.t_samples),
        "X_id": x_id,
    }
    return CrosscheckReport(
        plan_meta=meta,
        entries=tuple(entries),
        hygiene=tuple(hygiene),
        passed=passed,
    )


# ---------------------------------------------------------------------------
# writers

CSV_COLUMNS = ("observable", "t", "X_id", "h", "error", "slope", "r2", "status")


def _ensure_parent(path) -> None:
    parent = os.path.dirname(os.fspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)


def write_csv(report, path) -> None:
    """Sweep table: one row per cell, with the fit of its (observable, t,
    X) group repeated on each row so the table stands alone."""
    _ensure_parent(path)
    fit_by_key = {}
    for f in getattr(report, "fits", ()):
        fit_by_key[(f["observable"], f["t"], f["X_id"])] = f
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for c in report.cells:
            fit = fit_by_key.get((c.observable, c.t, c.x_id), {})
            writer.writerow(
                [
                    c.observable,
                    repr(c.t),
                    c.x_id,
                    repr(c.h),
                    "" if c.error is None else repr(c.error),
                    "" if fit.get("slope") is None else repr(fit.get("slope")),
                    "" if fit.get("r2") is None else repr(fit.get("r2")),
                    c.status if c.status != "ok" else fit.get("status", "ok"),
                ]
            )


def write_json(report, path) -> None:
    _ensure_parent(path)
    with open(path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
