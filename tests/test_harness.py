"""Experiment driver: plans, fits, sweeps, reports, writers."""

import ast
import dataclasses
import functools
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import blochlab.cli as cli
import blochlab.fock
import blochlab.harness
import blochlab.hierarchy
import blochlab.oracle
import numpy as np
import pytest

from blochlab.harness import (
    CSV_COLUMNS,
    PLAN_KEYS,
    REQUIRED,
    ExperimentPlan,
    HarnessError,
    default_plan_dict,
    fit_slope,
    run_calculus_selftest,
    run_convergence,
    run_crosscheck,
    slope_passes,
    worker_count,
    write_csv,
    write_json,
)
from blochlab.hierarchy import PHOTON_RATE_SIGN
from blochlab.model import (
    Model,
    ModelConfig,
    ModelError,
    PhaseVector,
    minimal_grid_config,
    polarization_project,
)
from blochlab.oracle import ObservableSpec
from reference import evolved_one


# a refinement that stops at its first grid: every order-1 quadrature at
# t != 0 fails
_refine_to_32 = functools.partial(blochlab.hierarchy._refine, nmax=32)


def _force_start(monkeypatch, start):
    """Make every frame start at cutoff start: the leakage estimate reads
    as infinite below it and as zero from it on."""

    def forced(weight, h, t, cutoff):
        return math.inf if cutoff < start else 0.0

    monkeypatch.setattr(blochlab.harness, "leakage_estimate", forced)


def _record_groups(monkeypatch):
    """The h of every frame group the oracle propagates, one list per call,
    filled in as the calls are made."""
    real = blochlab.oracle.evolve_interaction_picture
    calls = []

    def recording(hams, *args, **kwargs):
        calls.append([ham.h for ham in hams])
        return real(hams, *args, **kwargs)

    monkeypatch.setattr(blochlab.oracle, "evolve_interaction_picture", recording)
    return calls


def small_plan_dict(**overrides):
    d = default_plan_dict()
    d["n_max"] = 18
    d["observables"] = [{"kind": "spin", "axis": 1, "spin": 1}]
    d.update(overrides)
    return d


@pytest.fixture(scope="module")
def small_plan():
    return ExperimentPlan.from_dict(small_plan_dict())


@pytest.fixture(scope="module")
def conv_report(small_plan):
    return run_convergence(small_plan)


class TestPlan:
    def test_default_plan_valid(self):
        plan = ExperimentPlan.from_dict(default_plan_dict())
        assert plan.M == 1
        assert plan.h_list == (0.4, 0.2, 0.1, 0.05)
        assert len(plan.observables) == 2
        # one model per plan: shared_sweeps matches models by identity
        assert plan.model is plan.model

    def test_h_must_decrease(self):
        with pytest.raises(HarnessError, match="decreasing"):
            ExperimentPlan.from_dict(small_plan_dict(h=[0.1, 0.2, 0.3, 0.4]))

    @pytest.mark.parametrize("field", ["tol", "oracle_tol"])
    @pytest.mark.parametrize("bad", [0.0, -1e-9, float("inf"), float("nan")])
    def test_tolerances_must_be_positive_and_finite(self, field, bad):
        # tol = 0 used to load and then raise HierarchyError from the
        # coefficient pool; oracle_tol < 0 loaded and stalled every frame
        with pytest.raises(HarnessError, match=f"^{field} must be positive"):
            ExperimentPlan.from_dict(small_plan_dict(**{field: bad}))

    def test_h_must_be_in_unit_interval(self):
        with pytest.raises(HarnessError, match=r"\(0, 1\]"):
            ExperimentPlan.from_dict(small_plan_dict(h=[1.5, 0.4, 0.2, 0.1]))

    def test_adequacy_precheck(self):
        # a plan that a cutoff adequacy precheck on Psi_X would refuse:
        # Psi_X holds |X|^2 / 2h = 20 photons at h = 0.00625, far above the
        # cap of 8; the displaced oracle holds only the few fluctuation
        # photons, so the plan is accepted, runs and every fit passes
        d = small_plan_dict(
            h=[0.05, 0.025, 0.0125, 0.00625],
            n_max=8,
            oracle_tol=1e-11,
            observables=default_plan_dict()["observables"] + [{"kind": "number_rate"}],
        )
        report = run_convergence(ExperimentPlan.from_dict(d))
        assert len(report.fits) == 6
        assert all(f["status"] == "pass" for f in report.fits)
        assert report.passed
        assert all(c.hygiene["cutoff"] <= 8 for c in report.cells)

    @pytest.mark.parametrize(
        "obs, error, match",
        [
            # the desk model has one spin; site 2 used to raise IndexError
            # mid-sweep
            ({"kind": "spin", "axis": 1, "spin": 2}, HarnessError, "site 2"),
            # JSON true used to load as index 1, labelled spin[m=True,lam=1]
            (
                {"kind": "spin", "axis": 1, "spin": True},
                ModelError,
                "^observable key 'spin' must be an integer, got True$",
            ),
            (
                {"kind": "spin", "axis": True, "spin": 1},
                ModelError,
                "^observable key 'axis' must be an integer, got True$",
            ),
            (
                {"kind": "field_B", "axis": True, "point": [0] * 3},
                ModelError,
                "^observable key 'axis' must be an integer, got True$",
            ),
            # a float index used to load and then fail as an array index
            (
                {"kind": "spin", "axis": 1.0, "spin": 1},
                ModelError,
                r"^observable key 'axis' must be an integer, got 1\.0$",
            ),
        ],
        ids=["site-2", "spin-true", "axis-true", "field-axis-true", "axis-float"],
    )
    def test_spin_site_out_of_range(self, obs, error, match):
        with pytest.raises(error, match=match):
            ExperimentPlan.from_dict(small_plan_dict(observables=[obs]))

    @pytest.mark.parametrize(
        "point",
        [
            [0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [[0.0, 0.0, 0.0]],
            # a NaN point used to load and then stop the sweep in coupling_B
            [0.0, 0.0, float("nan")],
            [float("inf"), 0.0, 0.0],
        ],
    )
    def test_field_point_needs_three_entries(self, point):
        obs = [{"kind": "field_B", "axis": 2, "point": point}]
        with pytest.raises(ModelError, match="3 entries"):
            ExperimentPlan.from_dict(small_plan_dict(observables=obs))

    def test_x_ids_must_be_distinct(self):
        # cells and frames are keyed by X id: a repeated id made every cell
        # of the first X report the second X's error
        x = ExperimentPlan.from_dict(small_plan_dict()).x_samples[0][1]
        entry = {"id": "a", "q": x.q.tolist(), "p": (0.5 * x.p).tolist()}
        other = {"id": "a", "q": (-x.q).tolist(), "p": x.p.tolist()}
        with pytest.raises(HarnessError, match="X ids"):
            ExperimentPlan.from_dict(small_plan_dict(X=[entry, other]))
        distinct = [entry, dict(other, id="b")]
        plan = ExperimentPlan.from_dict(small_plan_dict(X=distinct))
        assert [x_id for x_id, _ in plan.x_samples] == ["a", "b"]

    def test_t_samples_must_be_distinct(self):
        with pytest.raises(HarnessError, match="t samples"):
            ExperimentPlan.from_dict(small_plan_dict(t=[0.5, 1.0, 0.5]))

    def test_observables_must_be_distinct(self):
        # a repeated observable used to merge into one fit of 2 x 4 cells
        spin = {"kind": "spin", "axis": 1, "spin": 1}
        with pytest.raises(HarnessError, match="observables must be distinct"):
            ExperimentPlan.from_dict(small_plan_dict(observables=[spin, spin]))

    def test_number_rate_order_capped(self):
        # the photon-rate expansion stops at order 1; M = 2 used to load and
        # then raise inside the coefficient pool
        rate = [{"kind": "number_rate"}]
        with pytest.raises(HarnessError, match="M must be 0 or 1"):
            ExperimentPlan.from_dict(small_plan_dict(observables=rate, M=2))
        assert ExperimentPlan.from_dict(small_plan_dict(observables=rate, M=1)).M == 1

    @pytest.mark.parametrize("order", [-1, 2, 3])
    def test_unchecked_orders_refused(self, order):
        # a spin-only plan at M = 2 used to load and report unchecked
        # finite-difference A[2] values
        with pytest.raises(HarnessError, match="M must be 0 or 1"):
            ExperimentPlan.from_dict(small_plan_dict(M=order))

    def test_x_sample_length_must_match_grid(self):
        # a length-2 X on the desk grid (D = 4) used to load and then fail
        # mid-sweep on a broadcast of shapes (3,1,4) and (1,2)
        short = [{"id": "short", "q": [0.1, 0.0], "p": [0.0, 0.2]}]
        with pytest.raises(HarnessError, match="X sample 'short'"):
            ExperimentPlan.from_dict(small_plan_dict(X=short))
        with pytest.raises(HarnessError, match="X sample 'X0'"):
            ExperimentPlan.from_dict(small_plan_dict(X=[{"q": [0.1, 0, 0, 0]}]))
        # a negative norm of random samples used to load as its absolute value
        for norm in (-0.5, float("nan")):
            with pytest.raises(HarnessError, match="X.norm must be finite"):
                ExperimentPlan.from_dict(small_plan_dict(X={"count": 1, "norm": norm}))

    def test_observable_needs_kind(self):
        obs = [{"kind": "spin", "axis": 1, "spin": 1}, {"axis": 2}]
        with pytest.raises(HarnessError, match="observable 1 has no 'kind'"):
            ExperimentPlan.from_dict(small_plan_dict(observables=obs))

    @pytest.mark.parametrize(
        "section, key, where",
        [
            (None, "observables", "plan"),
            (None, "n_max", "plan"),
            ("model", "field", "model"),
            ("spins", "positions", "model spins"),
        ],
    )
    def test_missing_key_named(self, section, key, where):
        d = small_plan_dict()
        part = {None: d, "model": d["model"], "spins": d["model"]["spins"]}[section]
        del part[key]
        error = HarnessError if section is None else ModelError
        with pytest.raises(error, match=f"^{where} has no '{key}' key$"):
            ExperimentPlan.from_dict(d)

    def test_readme_lists_every_plan_key(self):
        # the path, JSON type and default of each row of README's table
        readme = Path(__file__).resolve().parent.parent / "README.md"
        text = readme.read_text().split("\n## Plan keys\n")[1].split("\n## ")[0]
        documented = [
            tuple(cell.strip().strip("`") for cell in line.split("|")[1:4])
            for line in text.splitlines()
            if line.startswith("| `")
        ]
        expected = [
            (
                f"{section}.{key}".lstrip("."),
                kind,
                "required" if default is REQUIRED else json.dumps(default),
            )
            for section, rows in PLAN_KEYS.items()
            for key, kind, default in rows
        ]
        assert documented == expected

    def test_defaults_agree_with_the_fields(self):
        # a default is written in PLAN_KEYS for a JSON plan and again as a
        # field default for a plan built in code: the two must agree
        fields = {
            "": (ExperimentPlan, "{}"),
            "output": (ExperimentPlan, "{}_path"),
            "model.cutoff": (ModelConfig, "cutoff_{}"),
            "model.grid": (ModelConfig, "grid_{}"),
        }
        checked = []
        for section, (cls, name) in fields.items():
            defaults = {f.name: f.default for f in dataclasses.fields(cls)}
            for key, _, default in PLAN_KEYS[section]:
                field_default = defaults.get(name.format(key), dataclasses.MISSING)
                if field_default is not dataclasses.MISSING:
                    assert field_default == default, (section, key)
                    checked.append(name.format(key))
        assert sorted(checked) == [
            "csv_path",
            "cutoff_lambda",
            "grid_directions",
            "grid_kmax",
            "grid_kpoints",
            "grid_radial_nodes",
            "grid_weights",
            "json_path",
            "oracle_tol",
            "seed",
            "tol",
        ]

    def test_random_samples_deterministic(self):
        a = ExperimentPlan.from_dict(small_plan_dict())
        b = ExperimentPlan.from_dict(small_plan_dict())
        for (ida, xa), (idb, xb) in zip(a.x_samples, b.x_samples):
            assert ida == idb
            assert np.array_equal(xa.q, xb.q) and np.array_equal(xa.p, xb.p)

    def test_explicit_samples(self):
        d = small_plan_dict(
            X=[{"id": "probe", "q": [0.1, 0, 0, 0], "p": [0, 0.2, 0, 0]}]
        )
        plan = ExperimentPlan.from_dict(d)
        assert plan.x_samples[0][0] == "probe"
        assert plan.x_samples[0][1].q[0] == 0.1


class TestSlopeFit:
    def test_recovers_power_law(self):
        hs = np.array([0.4, 0.2, 0.1, 0.05])
        slope, r2 = fit_slope(hs, 3.0 * hs**2)
        assert slope == pytest.approx(2.0, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_needs_four_points(self):
        with pytest.raises(HarnessError, match="4 h values"):
            fit_slope([0.4, 0.2, 0.1], [1.0, 0.5, 0.25])

    def test_windows(self):
        assert slope_passes(1.0, 0)
        assert not slope_passes(0.5, 0)
        assert not slope_passes(1.6, 0)  # superconvergence flag at M = 0
        assert slope_passes(1.9, 1)
        assert slope_passes(2.6, 1)  # no upper bound past M = 0
        assert not slope_passes(1.5, 1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_slope_fails(self, bad):
        assert not any(slope_passes(bad, M) for M in range(3))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_input(self, bad):
        hs = [0.4, 0.2, 0.1, 0.05]
        with pytest.raises(HarnessError, match="finite"):
            fit_slope(hs, [1.0, 0.5, bad, 0.125])
        with pytest.raises(HarnessError, match="finite"):
            fit_slope([0.4, bad, 0.1, 0.05], [1.0, 0.5, 0.25, 0.125])


class TestWorkers:
    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv("BLOCHLAB_WORKERS", raising=False)
        assert worker_count() == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("BLOCHLAB_WORKERS", "3")
        assert worker_count() == 3

    def test_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("BLOCHLAB_WORKERS", "many")
        with pytest.raises(HarnessError):
            worker_count()


class TestSelftest:
    def test_json_into_new_directory(self, tmp_path, capsys):
        # converge and crosscheck create the directory; selftest crashed
        out = tmp_path / "new" / "selftest.json"
        assert cli.main(["selftest", "--json", str(out)]) == 0
        assert json.loads(out.read_text())["kind"] == "selftest"
        assert f"wrote {out}" in capsys.readouterr().out

    def test_all_pass(self):
        report = run_calculus_selftest()
        assert report.passed
        names = {e.name for e in report.entries}
        assert {
            "heat-roundtrip",
            "wick-ordering-2hN",
            "mizrahi-identity",
            "coherent-overlap",
            "displacement-identity",
        } <= names

    def test_deterministic(self):
        a = run_calculus_selftest(seed=7)
        b = run_calculus_selftest(seed=7)
        assert a.to_dict() == b.to_dict()


class TestConvergence:
    def test_second_order_at_m1(self, conv_report):
        assert conv_report.passed
        by_order = {f["M"]: f for f in conv_report.fits}
        assert 0.8 <= by_order[0]["slope"] <= 1.2
        assert by_order[1]["slope"] >= 1.7
        assert by_order[1]["r2"] > 0.99

    def test_raw_pairs_reported(self, conv_report, small_plan):
        hs = sorted(c.h for c in conv_report.cells)
        assert hs == sorted(small_plan.h_list)
        assert all(c.error is not None and c.error > 0 for c in conv_report.cells)

    def test_hygiene_collected(self, conv_report):
        for c in conv_report.cells:
            assert c.hygiene["unitarity_defect"] <= 1e-6
            assert c.hygiene["energy_drift"] <= 1e-6

    def test_propagation_log_in_hygiene(self, small_plan, monkeypatch):
        keys = ("n_accepted", "n_rejected", "min_step", "max_local_error")
        hygiene = {}
        for workers in ("1", "2"):
            monkeypatch.setenv("BLOCHLAB_WORKERS", workers)
            report = run_convergence(small_plan)
            hygiene[workers] = [c.hygiene for c in report.cells]
        for h in hygiene["1"]:
            assert all(k in h for k in keys)
            assert h["n_accepted"] > 0 and h["min_step"] > 0
            assert h["max_local_error"] <= small_plan.oracle_tol
        assert hygiene["1"] == hygiene["2"]

    def test_zero_coupling_reported_exact(self):
        cfg = minimal_grid_config(beta=(0.0, 0.0, 1.0))
        cfg.cutoff_fn = lambda r: np.zeros_like(np.asarray(r, dtype=float))
        plan = ExperimentPlan(
            model=Model(cfg),
            observables=(ObservableSpec(kind="spin", m=1, lam=1),),
            x_samples=(
                (
                    "X0",
                    PhaseVector(
                        np.array([0.3, 0.0, 0.1, 0.0]),
                        np.array([0.0, 0.2, 0.0, 0.0]),
                    ),
                ),
            ),
            t_samples=(0.8,),
            h_list=(0.4, 0.2, 0.1, 0.05),
            M=0,
            n_max=14,
        )
        report = run_convergence(plan)
        assert report.passed
        (fit,) = report.fits
        assert fit["status"] == "exact"
        assert fit["slope"] is None
        assert fit["max_error"] <= 1e-8

    def test_time_zero_group_exact(self):
        # U(0) = I: the t = 0 cells are the exact symbols up to rounding
        # (number_rate about 1e-18), so they are reported like zero coupling
        d = small_plan_dict(
            n_max=8,
            t=[0.0, 1.0],
            observables=default_plan_dict()["observables"] + [{"kind": "number_rate"}],
        )
        report = run_convergence(ExperimentPlan.from_dict(d))
        assert report.passed
        assert len(report.fits) == 12
        for c in report.cells:
            assert c.status == ("exact" if c.t == 0.0 else "ok")
        for f in report.fits:
            if f["t"] == 0.0:
                assert f["status"] == "exact" and f["slope"] is None
                assert f["max_error"] <= 1e-8
            else:
                assert f["status"] == "pass"

    # spin, field_B and number_rate at one (t, X), one h: the hierarchy's
    # share of the sweep with the fewest frames
    ALL_KINDS = dict(
        n_max=8,
        h=[0.4],
        observables=default_plan_dict()["observables"] + [{"kind": "number_rate"}],
    )

    def test_each_chain_integrated_once(self, monkeypatch):
        # every observable at (t, X) reads the same two chains: no RK4
        # transfer maps are taken twice on the same generator table.  One
        # scope per observable integrated the propagator chain once for each.
        real = blochlab.hierarchy.rk4_transfer
        seen = []

        def counting(a0, ah, a1, dt):
            seen.append((a0.shape, dt, a0.tobytes()))
            return real(a0, ah, a1, dt)

        monkeypatch.setattr(blochlab.hierarchy, "rk4_transfer", counting)
        run_convergence(ExperimentPlan.from_dict(small_plan_dict(**self.ALL_KINDS)))
        assert seen and len(seen) == len(set(seen))

    def test_number_rate_reads_the_recursion(self, monkeypatch):
        # the photon rate's S^[1] is the spin observables' order-1 map; the
        # Bloch correction is only run_crosscheck's dual path
        def second_route(*args, **kwargs):
            raise AssertionError("spin_correction1 called by run_convergence")

        monkeypatch.setattr(blochlab.hierarchy, "spin_correction1", second_route)
        monkeypatch.setattr(blochlab.harness, "spin_correction1", second_route)
        rate = dict(self.ALL_KINDS, observables=[{"kind": "number_rate"}])
        report = run_convergence(ExperimentPlan.from_dict(small_plan_dict(**rate)))
        assert [c.status for c in report.cells] == ["ok"]

    def test_truncation_failures_recorded_not_fitted(self):
        # a cap of one fluctuation photon leaks above the tail tolerance at
        # every h; those cells must carry a reason and stay out of the fit
        plan = ExperimentPlan.from_dict(small_plan_dict(n_max=1))
        report = run_convergence(plan)
        assert not report.passed
        failed = [c for c in report.cells if c.status.startswith("failed")]
        assert failed and all("leakage" in c.status for c in failed)
        assert all(f["status"] == "insufficient-data" for f in report.fits)

    def test_coefficient_failure_recorded_per_group(self, monkeypatch):
        # a quadrature that cannot converge used to raise out of the sweep
        # and write no report; now only its (t, X) groups fail.  At t = 0
        # order_j returns its zero before any quadrature runs.
        monkeypatch.setattr(blochlab.hierarchy, "_refine", _refine_to_32)
        observables = default_plan_dict()["observables"]
        d = small_plan_dict(t=[0.0, 1.0], observables=observables)
        report = run_convergence(ExperimentPlan.from_dict(d))
        assert not report.passed
        at_zero = [c.status for c in report.cells if c.t == 0.0]
        assert at_zero == ["exact"] * 8
        assert [f["status"] for f in report.fits if f["t"] == 0.0] == ["exact"] * 4
        reason = "failed:order-1 Duhamel quadrature did not converge"
        at_one = [c for c in report.cells if c.t == 1.0]
        assert len(at_one) == 8
        for c in at_one:
            # the frame still ran: its hygiene stays in the cell
            assert c.status.startswith(reason) and c.error is None
            assert c.hygiene["cutoff"] >= 2
        fits = [f for f in report.fits if f["t"] == 1.0]
        assert len(fits) == 4
        assert all(f["status"].startswith(reason) and f["slope"] is None for f in fits)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_non_finite_exact_symbol_recorded_not_fitted(self, monkeypatch, bad):
        # an infinite exact symbol at h = 0.4 used to read as an ok cell of
        # error NaN with both fits passing at slope NaN; a NaN one crashed
        # the sweep inside the operator norm
        real = blochlab.harness.frame_symbol

        def spoiled(frame, applied):
            out = real(frame, applied)
            if not calls:
                out = np.full_like(out, bad)
            calls.append(1)
            return out

        calls = []
        monkeypatch.setattr(blochlab.harness, "frame_symbol", spoiled)
        plan = ExperimentPlan.from_dict(small_plan_dict(n_max=8))
        report = run_convergence(plan)
        assert not report.passed
        by_h = {c.h: c for c in report.cells}
        assert by_h[0.4].status == "failed:non-finite exact symbol"
        assert by_h[0.4].error is None and by_h[0.4].hygiene["cutoff"] >= 1
        assert all(by_h[h].status == "ok" for h in plan.h_list[1:])
        # three cells are left, too few for a slope
        assert [f["status"] for f in report.fits] == ["insufficient-data"] * 2

    def test_cutoff_sized_by_leakage(self, conv_report, small_plan):
        # the estimate puts the desk frames at 3 fluctuation photons, well
        # under the cap of 18; at 2 they would leak above the tolerance
        x = small_plan.x_samples[0][1]
        basis = blochlab.fock.FockBasis(small_plan.model.D, 2)
        for c in conv_report.cells:
            assert c.hygiene["cutoff"] == 3
            # on the 2 coupled modes of 4: the cos slots do not couple
            assert c.hygiene["modes"] == 2
            assert c.hygiene["leakage"] <= 1e-10
            assert c.hygiene["leakage"] <= c.hygiene["leakage_estimate"] <= 1e-10
            ham = blochlab.oracle.Hamiltonian(small_plan.model, basis, c.h)
            assert evolved_one(ham, 1.0, x, small_plan.oracle_tol)[2].leakage > 1e-10

    def test_drive_weight_once_per_sweep(self, monkeypatch):
        # every estimate of the sweep, start cutoffs and hygiene alike,
        # reads the per-model factor computed once
        real = blochlab.harness.drive_weight
        calls = []

        def counting(model):
            calls.append(model)
            return real(model)

        monkeypatch.setattr(blochlab.harness, "drive_weight", counting)
        report = run_convergence(ExperimentPlan.from_dict(small_plan_dict()))
        assert len(calls) == 1
        assert all("leakage_estimate" in c.hygiene for c in report.cells)

    def test_uncoupled_frames_start_at_cutoff_one(self):
        # the estimate vanishes with the coupling and at t = 0, where no
        # photon layer above the vacuum is needed
        plan = ExperimentPlan.from_dict(small_plan_dict(n_max=8, t=[0.0, 1.0]))
        report = run_convergence(plan)
        assert [c.hygiene["cutoff"] for c in report.cells] == [1] * 4 + [3] * 4
        cfg = dataclasses.replace(
            plan.model.config,
            cutoff_fn=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        )
        report = run_convergence(dataclasses.replace(plan, model=Model(cfg)))
        assert [c.hygiene["cutoff"] for c in report.cells] == [1] * 8
        assert all(c.hygiene["leakage_estimate"] == 0.0 for c in report.cells)

    def test_stopped_runs_leave_no_trace(self, monkeypatch):
        # forced to start at cutoff 2, the desk frames breach there and move
        # on; starting at cutoff 4 skips those runs and must give the same
        # report
        plan = ExperimentPlan.from_dict(small_plan_dict(n_max=8))
        _force_start(monkeypatch, 2)
        from_two = run_convergence(plan).to_dict()
        _force_start(monkeypatch, 4)
        assert run_convergence(plan).to_dict() == from_two
        assert all(c["hygiene"]["cutoff"] == 4 for c in from_two["cells"])

    def test_breaching_group_runs_to_t(self, monkeypatch):
        # forced to start at cutoff 2, every frame of the desk group has
        # breached by its 22nd accepted step, yet the group runs all 40
        # before its frames move on to cutoff 4, where they fit
        real = blochlab.oracle.evolve_interaction_picture
        runs = []

        def recording(hams, *args, **kwargs):
            out = real(hams, *args, **kwargs)
            runs.append((hams[0].basis.n_max, len(hams), out[1].n_accepted))
            return out

        monkeypatch.setattr(blochlab.oracle, "evolve_interaction_picture", recording)
        _force_start(monkeypatch, 2)
        report = run_convergence(ExperimentPlan.from_dict(small_plan_dict(n_max=8)))
        assert runs == [(2, 4, 40), (4, 4, 40)]
        assert all(c.hygiene["cutoff"] == 4 for c in report.cells)

    def test_failure_at_the_cap_reports_the_full_run(self):
        # the run goes to t: the status carries the leakage of the whole
        # run, not of a run stopped at its breach
        plan = ExperimentPlan.from_dict(small_plan_dict(n_max=2))
        report = run_convergence(plan)
        x = plan.x_samples[0][1]
        basis = blochlab.fock.FockBasis(plan.model.D, 2)
        for c in report.cells:
            ham = blochlab.oracle.Hamiltonian(plan.model, basis, c.h)
            _, _, log = evolved_one(ham, 1.0, x, plan.oracle_tol)
            assert c.status == (
                f"failed:leakage {log.leakage:.3e} exceeds 1.0e-10 "
                "at the cap n_max = 2"
            )
        # the same statuses, verbatim
        assert [c.status for c in report.cells] == [
            f"failed:leakage {v} exceeds 1.0e-10 at the cap n_max = 2"
            for v in ("5.916e-08", "1.479e-08", "3.698e-09", "9.246e-10")
        ]

    def test_step_stall_recorded_not_raised(self):
        # no step can meet oracle_tol = 1e-30, so every frame stalls; the
        # sweep records the reason per cell and fits nothing
        plan = ExperimentPlan.from_dict(small_plan_dict(oracle_tol=1e-30))
        report = run_convergence(plan)
        assert not report.passed
        assert len(report.cells) == len(plan.h_list)
        assert all(c.status.startswith("failed:") for c in report.cells)
        assert all("stalled" in c.status for c in report.cells)
        assert [f["M"] for f in report.fits] == [0, 1]
        assert all(f["status"] == "insufficient-data" for f in report.fits)

    def test_deterministic_across_workers(self, conv_report, small_plan, monkeypatch):
        monkeypatch.setenv("BLOCHLAB_WORKERS", "3")
        again = run_convergence(small_plan)
        assert again.to_dict() == conv_report.to_dict()

    def test_one_propagation_per_group(self, small_plan, monkeypatch):
        # every h of the desk (t, X) starts at cutoff 3, and fits there: one
        # frame group and one run, where 8 runs were made when each frame
        # was integrated alone from a fixed start at cutoff 2
        calls = _record_groups(monkeypatch)
        run_convergence(small_plan)
        assert calls == [list(small_plan.h_list)]

    def test_mixed_breach_ladder_matches_frames_alone(self, monkeypatch):
        # forced to start at cutoff 2, h = 0.0125 leaks 5.8e-11 and stays
        # there, while h >= 0.025 leak >= 2.3e-10 and move on together to
        # cutoff 4.  Every cell equals the sweep of its h alone, a group of
        # one.
        _force_start(monkeypatch, 2)
        ladder = [0.4, 0.2, 0.1, 0.05, 0.025, 0.0125]
        report = run_convergence(ExperimentPlan.from_dict(small_plan_dict(h=ladder)))
        assert [c.h for c in report.cells] == ladder
        assert [c.hygiene["cutoff"] for c in report.cells] == [4] * 5 + [2]
        for cell in report.cells:
            plan = ExperimentPlan.from_dict(small_plan_dict(h=[cell.h]))
            assert run_convergence(plan).cells == (cell,)

    def test_mixed_start_ladder_matches_frames_alone(self, monkeypatch):
        # unforced, the estimate starts h = 0.00625 at cutoff 2 (4.3e-11)
        # and the larger h at cutoff 3: two frame groups, both of which
        # fit.  Every cell equals the sweep of its h alone.
        calls = _record_groups(monkeypatch)
        ladder = [0.4, 0.2, 0.1, 0.05, 0.025, 0.0125, 0.00625]
        report = run_convergence(ExperimentPlan.from_dict(small_plan_dict(h=ladder)))
        assert calls == [[0.00625], ladder[:-1]]
        assert [c.h for c in report.cells] == ladder
        assert [c.hygiene["cutoff"] for c in report.cells] == [3] * 6 + [2]
        for cell in report.cells:
            plan = ExperimentPlan.from_dict(small_plan_dict(h=[cell.h]))
            assert run_convergence(plan).cells == (cell,)

    def test_stall_fails_only_its_frames(self, monkeypatch):
        # a non-finite generator at h = 0.1 stalls its group: that cell
        # fails, and the other frames run again and equal the clean sweep
        plan = ExperimentPlan.from_dict(small_plan_dict(n_max=8))
        want = run_convergence(plan).cells
        real = blochlab.oracle.Hamiltonian.generator_values

        def spoiled(self, x):
            values = real(self, x)
            if self.h == 0.1:
                values[:] = np.nan
            return values

        monkeypatch.setattr(blochlab.oracle.Hamiltonian, "generator_values", spoiled)
        got = run_convergence(plan).cells
        for cell, clean in zip(got, want):
            if cell.h == 0.1:
                assert cell.status.startswith("failed:step control stalled")
                assert cell.error is None
            else:
                assert cell == clean


def _assert_record_matches(got, want, path="report"):
    """Equal structure, strings, flags and integers; floats within 1e-12
    relative, the bound a refactor must keep, so that a one-ulp difference
    between BLAS builds does not fail."""
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for k in want:
            _assert_record_matches(got[k], want[k], f"{path}.{k}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_record_matches(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float), path
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0), (path, got, want)
    else:
        assert type(got) is type(want) and got == want, (path, got, want)


class TestShippedRecord:
    def test_converge_reproduces_the_committed_record(self):
        # `blochlab converge plans/desk_scale.json` writes results/; a change
        # that moves the report must regenerate the committed record
        root = Path(__file__).resolve().parent.parent
        plan = ExperimentPlan.from_file(root / "plans" / "desk_scale.json")
        got = json.loads(json.dumps(run_convergence(plan).to_dict()))
        want = json.loads((root / "results" / "desk_scale.json").read_text())
        _assert_record_matches(got, want)


class TestTightTolerance:
    @pytest.mark.parametrize("tol", [1e-10, 1e-12])
    def test_shipped_plan_passes(self, tol):
        # the old stop rule, on the raw trapezoid difference, gave up on
        # every order-1 quadrature of this plan at these tolerances
        root = Path(__file__).resolve().parent.parent
        d = json.loads((root / "plans" / "desk_scale.json").read_text())
        d.update(tol=tol, output={})
        report = run_convergence(ExperimentPlan.from_dict(d))
        assert report.passed
        assert report.fits and all(f["status"] == "pass" for f in report.fits)


class TestWriters:
    def test_csv_schema_and_determinism(self, conv_report, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(conv_report, p1)
        write_csv(conv_report, p2)
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)

    def test_json_roundtrip(self, conv_report, tmp_path):
        p = tmp_path / "out" / "report.json"
        write_json(conv_report, p)
        loaded = json.loads(p.read_text())
        assert loaded["kind"] == "convergence"
        assert loaded["passed"] is True
        assert len(loaded["cells"]) == len(conv_report.cells)


class TestPhotonRate:
    def test_sweep(self, small_plan):
        plan = dataclasses.replace(
            small_plan, observables=(ObservableSpec(kind="number_rate"),)
        )
        report = run_convergence(plan)
        assert report.passed
        assert PHOTON_RATE_SIGN == -1.0
        slopes = {f["M"]: f["slope"] for f in report.fits}
        assert slopes[0] >= 0.8
        assert slopes[1] >= 1.7
        x = small_plan.x_samples[0][1]
        grid = small_plan.model.grid
        norm_plus = polarization_project(grid, +1, x).norm()
        norm_minus = polarization_project(grid, -1, x).norm()
        assert norm_plus**2 + norm_minus**2 == pytest.approx(x.norm() ** 2, rel=1e-10)


class TestPhotonCommand:
    def test_leaves_the_plan_outputs_alone(self, tmp_path):
        # the plan's output paths hold its converge record; `photon` writes
        # only the paths given on its command line
        json_out, csv_out = tmp_path / "plan.json", tmp_path / "plan.csv"
        d = small_plan_dict(output={"json": str(json_out), "csv": str(csv_out)})
        plan_path = tmp_path / "plan_in.json"
        plan_path.write_text(json.dumps(d))
        assert cli.main(["photon", str(plan_path)]) == 0
        assert not json_out.exists() and not csv_out.exists()
        given = tmp_path / "photon.json"
        assert cli.main(["photon", str(plan_path), "--json", str(given)]) == 0
        assert json.loads(given.read_text())["plan"]["observables"] == ["number_rate"]
        assert not json_out.exists() and not csv_out.exists()


def _desk_model(section, **values):
    """The desk model with values set in one of its sections."""
    model = default_plan_dict()["model"]
    model[section] = dict(model.get(section, {}), **values)
    return model


class TestConvergeCommand:
    @staticmethod
    def _desk_plan(tmp_path, **overrides):
        root = Path(__file__).resolve().parent.parent
        d = json.loads((root / "plans" / "desk_scale.json").read_text())
        d.update({"output": {}, **overrides})
        return TestConvergeCommand._plan_file(tmp_path, d)

    @staticmethod
    def _plan_file(tmp_path, document):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(document))
        return str(path)

    def test_fits_without_slope_print_a_dash(self, tmp_path, capsys):
        # at n_max 2 every frame leaks over the tail tolerance, so no fit
        # has a slope; these rows used to print "slope exact"
        plan = self._desk_plan(tmp_path, n_max=2)
        assert cli.main(["converge", plan]) == 1
        rows = [r for r in capsys.readouterr().out.splitlines() if " M=" in r]
        assert len(rows) == 4
        assert all(r.startswith("insufficient-data") for r in rows)
        assert all(r.endswith("slope -") for r in rows)

    REFUSED = [
        ({"M": 2}, "expansion order M must be 0 or 1, got 2"),
        # values of the wrong type used to end in a TypeError or ValueError
        # traceback
        ({"t": 1.0}, "plan key 't' must be a list of numbers, got 1.0"),
        ({"h": "0.4"}, "plan key 'h' must be a list of numbers, got '0.4'"),
        ({"M": "one"}, "plan key 'M' must be an integer, got 'one'"),
        ({"tol": "x"}, "plan key 'tol' must be a number, got 'x'"),
        ({"n_max": None}, "plan key 'n_max' must be an integer, got None"),
        # and so did these, in the plan's sections
        (
            {"X": [{"q": "abc", "p": [0.0] * 4}]},
            "plan key 'X[0].q' must be a list of numbers, got 'abc'",
        ),
        ({"X": "X0"}, "plan key 'X' must be a list of objects, got 'X0'"),
        (
            {"model": _desk_model("field", beta="up")},
            "model key 'field.beta' must be an array of numbers, got 'up'",
        ),
        (
            {"model": _desk_model("spins", positions=[[0.0, 0.0, "x"]])},
            "model key 'spins.positions' must be an array of numbers, "
            "got [[0.0, 0.0, 'x']]",
        ),
        (
            {"model": _desk_model("spins", count="x")},
            "model key 'spins.count' must be an integer, got 'x'",
        ),
        (
            {"model": _desk_model("cutoff", **{"lambda": "x"})},
            "model key 'cutoff.lambda' must be a number, got 'x'",
        ),
        (
            {"model": _desk_model("grid", radial_nodes="two")},
            "model key 'grid.radial_nodes' must be an integer, got 'two'",
        ),
        (
            {"model": _desk_model("grid", kmax="big")},
            "model key 'grid.kmax' must be a number, got 'big'",
        ),
        (
            {"model": _desk_model("grid", kpoints="abc")},
            "model key 'grid.kpoints' must be an array of numbers, got 'abc'",
        ),
        # used to be refused as "q and p must be 1-d arrays of equal length"
        (
            {"model": _desk_model("grid", weights=[1, 2])},
            "model key 'grid.weights' must hold one number per k-point, got [1, 2]",
        ),
        # on a radial grid these used to end in a ValueError traceback
        (
            {"model": dict(_desk_model("grid"), grid={"directions": 5})},
            "model key 'grid.directions' must be a string or an array of numbers, "
            "got 5",
        ),
        (
            {"model": dict(_desk_model("grid"), grid={"directions": [[1, "a", 0]]})},
            "model key 'grid.directions' must be a string or an array of numbers, "
            "got [[1, 'a', 0]]",
        ),
        (
            {"observables": [{"kind": "field_B", "axis": 2, "point": "origin"}]},
            "observable key 'point' must be an array of numbers, got 'origin'",
        ),
        # a string used to be read one character at a time
        (
            {"observables": "spin"},
            "plan key 'observables' must be a list of objects, got 'spin'",
        ),
        # these two used to end in a TypeError after the whole sweep
        (
            {"X": [{"id": 3, "q": [0.0] * 4, "p": [0.0] * 4}]},
            "plan key 'X[0].id' must be a string, got 3",
        ),
        ({"output": {"csv": 5}}, "plan key 'output.csv' must be a string, got 5"),
        # an unknown key used to be ignored, and the run measured the default
        ({"oracle_toll": 1e-3}, "unknown plan key 'oracle_toll'"),
        ({"X": {"norms": 3}}, "unknown plan key 'X.norms'"),
        (
            {"X": [{"q": [0.0] * 4, "p": [0.0] * 4, "qq": 1}]},
            "unknown plan key 'X[0].qq'",
        ),
        ({"output": {"cvs": "a.csv"}}, "unknown plan key 'output.cvs'"),
        (
            {"model": _desk_model("grid", kpoint=[[0.0, 0.0, 2.0]])},
            "unknown model key 'grid.kpoint'",
        ),
        (
            {"model": _desk_model("spins", position=[[0.0, 0.0, 1.0]])},
            "unknown model key 'spins.position'",
        ),
        (
            {"observables": [{"kind": "spin", "axis": 1, "spin": 1, "axes": 3}]},
            "unknown observable key 'axes'",
        ),
        # used to load as ObservableSpec(m=7, lam=9) beside a "spin": 9
        (
            {"observables": [{"kind": "number_rate", "axis": 7, "spin": 9}]},
            "unknown observable key 'axis'",
        ),
        # rows of 2 used to end in a matmul ValueError traceback, and a
        # nested row or no row was refused as "zero k-point"
        (
            {"model": _desk_model("grid", kpoints=[[1.0, 0.0]])},
            "model key 'grid.kpoints' must hold rows of 3 numbers, got [[1.0, 0.0]]",
        ),
        (
            {"model": _desk_model("grid", kpoints=[[[0.0, 0.0, 1.0]]])},
            "model key 'grid.kpoints' must hold rows of 3 numbers, "
            "got [[[0.0, 0.0, 1.0]]]",
        ),
        (
            {"model": _desk_model("grid", kpoints=[])},
            "model key 'grid.kpoints' must hold rows of 3 numbers, got []",
        ),
        (
            {"model": dict(_desk_model("grid"), grid={"directions": [[1.0, 0.0]]})},
            "model key 'grid.directions' must hold rows of 3 numbers, got [[1.0, 0.0]]",
        ),
        # a document that is no JSON object: 5 used to end in a TypeError
        # traceback, [] and "x" were refused as "plan has no 'model' key"
        (5, "plan must be a JSON object, got 5"),
        ([], "plan must be a JSON object, got []"),
        ("x", "plan must be a JSON object, got 'x'"),
    ]

    @pytest.mark.parametrize(
        "command", ["converge", "photon", "crosscheck", "dump-model"]
    )
    def test_refused_plan_fails_cleanly(self, tmp_path, capsys, command):
        # a plan refused at load used to end in a HarnessError traceback
        for overrides, reason in self.REFUSED:
            if isinstance(overrides, dict):
                plan = self._desk_plan(tmp_path, **overrides)
            else:  # the whole document
                plan = self._plan_file(tmp_path, overrides)
            assert cli.main([command, plan]) == 2
            out = capsys.readouterr()
            assert out.err == f"blochlab: {reason}\n"
            assert out.out == ""

    @pytest.mark.parametrize(
        "command", ["converge", "photon", "crosscheck", "dump-model"]
    )
    def test_missing_key_fails_cleanly(self, tmp_path, capsys, command):
        # a plan without a required key used to end in a KeyError traceback
        root = Path(__file__).resolve().parent.parent
        d = json.loads((root / "plans" / "desk_scale.json").read_text())
        del d["observables"]
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(d))
        assert cli.main([command, str(path)]) == 2
        out = capsys.readouterr()
        assert out.err == "blochlab: plan has no 'observables' key\n"
        assert out.out == ""

    def test_coefficient_failure_writes_the_report(self, tmp_path, monkeypatch):
        monkeypatch.setattr(blochlab.hierarchy, "_refine", _refine_to_32)
        out = tmp_path / "report.json"
        plan = self._desk_plan(tmp_path)
        assert cli.main(["converge", plan, "--json", str(out)]) == 1
        report = json.loads(out.read_text())
        assert report["passed"] is False
        assert all(c["status"].startswith("failed:") for c in report["cells"])
        assert all(f["status"].startswith("failed:") for f in report["fits"])


class TestDumpModelCommand:
    def test_default_model(self, capsys):
        assert cli.main(["dump-model", "default"]) == 0
        dump = json.loads(capsys.readouterr().out)
        assert dump["version"] == 1
        rows = dump["couplings_B"]
        assert len(rows) == 1 and len(rows[0]) == 3
        assert all(len(c["q"]) == 4 for c in rows[0])


class TestCrosscheck:
    def test_dual_paths_agree(self):
        plan = ExperimentPlan.from_dict(small_plan_dict(t=[0.0, 1.0, 2.0]))
        report = run_crosscheck(plan)
        assert report.passed
        checks = {e["check"] for e in report.entries}
        assert checks == {"spin-order0", "spin-order1", "field-order1"}
        assert all(e["deviation"] <= 1e-6 for e in report.entries)
        assert all(e["residual"] <= 1e-6 for e in report.hygiene)

    def test_negative_time_runs_every_check(self):
        # t < 0 used to report its spin-order0 entry only
        report = run_crosscheck(ExperimentPlan.from_dict(small_plan_dict(t=[-1.0])))
        checks = [e["check"] for e in report.entries]
        assert checks == ["spin-order0", "spin-order1", "field-order1"]
        assert report.passed

    def test_each_chain_integrated_once(self, monkeypatch):
        # every path at a t, the hygiene probes at the last t included, reads
        # that t's two chains: no RK4 transfer maps are taken twice on the
        # same generator table.  The probe's shifted points integrate chains
        # of their own, on tables of their own.
        real = blochlab.hierarchy.rk4_transfer
        seen = []

        def counting(a0, ah, a1, dt):
            seen.append((a0.shape, dt, a0.tobytes()))
            return real(a0, ah, a1, dt)

        monkeypatch.setattr(blochlab.hierarchy, "rk4_transfer", counting)
        run_crosscheck(ExperimentPlan.from_dict(small_plan_dict(t=[0.0, 0.5, 1.0])))
        assert len(seen) == len(set(seen))

    # the crosscheck-desk t samples: 14 refinement grids (t, n) in all
    DESK_T = [0.0, 0.5, 1.0, 1.5, 2.0]

    def test_order1_convolution_once_per_grid(self, monkeypatch):
        # the order-1 spin check of every axis reads one suffix convolution
        # per (t, n); built once per axis, these t samples made 40 of them
        real = blochlab.hierarchy._lag_convolution
        grids = []

        def counting(omegas, dt, f, suffix):
            if suffix:
                grids.append((dt, len(f)))
            return real(omegas, dt, f, suffix)

        monkeypatch.setattr(blochlab.hierarchy, "_lag_convolution", counting)
        run_crosscheck(ExperimentPlan.from_dict(small_plan_dict(t=self.DESK_T)))
        assert grids and len(grids) == len(set(grids))

    def test_conjugated_spins_once_per_grid(self, monkeypatch):
        # the spin and field order-1 checks of every axis at a (t, n) read
        # the one stored table of conjugated coupling spins
        real = blochlab.hierarchy._conjugated_couplings
        reads = {}

        def recording(model, t, x, n):
            out = real(model, t, x, n)
            reads.setdefault((t, n), []).append(out)
            return out

        monkeypatch.setattr(blochlab.hierarchy, "_conjugated_couplings", recording)
        run_crosscheck(ExperimentPlan.from_dict(small_plan_dict(t=self.DESK_T)))
        assert reads
        assert all(all(a is got[0] for a in got) for got in reads.values())
        # the spin contraction and the three field axes read the same grids
        assert max(len(got) for got in reads.values()) >= 4

    def test_deterministic_across_workers(self, monkeypatch):
        # each pool thread opens its own sweep table for its t sample
        plan = ExperimentPlan.from_dict(small_plan_dict(t=[0.5, 1.0, 1.5]))
        blobs = []
        for workers in ("1", "2"):
            monkeypatch.setenv("BLOCHLAB_WORKERS", workers)
            blobs.append(json.dumps(run_crosscheck(plan).to_dict(), sort_keys=True))
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("field", ["div_b_residual", "div_e_residual"])
    def test_divergence_residuals_gate(self, monkeypatch, field):
        real = blochlab.harness.maxwell_cross_check

        def leaky(*args, **kwargs):
            return dataclasses.replace(real(*args, **kwargs), **{field: 1e-3})

        monkeypatch.setattr(blochlab.harness, "maxwell_cross_check", leaky)
        report = run_crosscheck(ExperimentPlan.from_dict(small_plan_dict(t=[0.5])))
        failed = [e["check"] for e in report.entries if not e["passed"]]
        assert failed == ["field-order1"]
        assert not report.passed


    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_non_finite_order0_fails_its_entry(self, monkeypatch, bad):
        # an infinite coefficient used to pass with deviation 0.0, because the
        # max over axes dropped the NaN deviation; a NaN one raised LinAlgError
        def spoiled(model, obs, t, x):
            return np.full((model.spin_dim,) * 2, bad, dtype=complex)

        monkeypatch.setattr(blochlab.harness, "order0", spoiled)
        plan = ExperimentPlan.from_dict(small_plan_dict(n_max=8, t=[0.5]))
        report = run_crosscheck(plan)
        assert not report.passed
        by_check = {e["check"]: e for e in report.entries}
        assert np.isnan(by_check["spin-order0"]["deviation"])
        assert not by_check["spin-order0"]["passed"]
        assert by_check["spin-order1"]["passed"] and by_check["field-order1"]["passed"]

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_non_finite_order1_fails_its_entries(self, monkeypatch, bad):
        # the same for the first-order coefficient that both order-1 checks
        # compare against, including the max inside maxwell_cross_check
        def spoiled(model, obs, j, t, x, tol):
            return np.full((model.spin_dim,) * 2, bad, dtype=complex)

        monkeypatch.setattr(blochlab.harness, "order_j", spoiled)
        monkeypatch.setattr(blochlab.hierarchy, "order_j", spoiled)
        plan = ExperimentPlan.from_dict(small_plan_dict(n_max=8, t=[0.5]))
        report = run_crosscheck(plan)
        failed = {e["check"] for e in report.entries if not e["passed"]}
        assert failed == {"spin-order1", "field-order1"}
        assert not report.passed

    def test_tangent_breach_fails_its_hygiene_entry(self, monkeypatch):
        # a tangent off by 1% used to raise HierarchyError out of the
        # crosscheck, so no report came back
        real = blochlab.hierarchy._rotation_tangent

        def scaled(*args):
            return 1.01 * real(*args)

        monkeypatch.setattr(blochlab.hierarchy, "_rotation_tangent", scaled)
        plan = ExperimentPlan.from_dict(small_plan_dict(n_max=8, t=[0.5]))
        report = run_crosscheck(plan)
        hygiene = {e["check"]: e for e in report.hygiene}
        assert hygiene["tangent-fd-residual"]["residual"] > 1e-6
        assert not hygiene["tangent-fd-residual"]["passed"]
        assert hygiene["propagator-unitarity"]["passed"]
        assert all(e["passed"] for e in report.entries)
        assert not report.passed


class TestCrosscheckCommand:
    def test_leaves_the_plan_outputs_alone(self, tmp_path):
        # as for `photon`, the plan's output paths hold its converge record
        json_out, csv_out = tmp_path / "plan.json", tmp_path / "plan.csv"
        output = {"json": str(json_out), "csv": str(csv_out)}
        d = small_plan_dict(t=[0.5], output=output)
        plan_path = tmp_path / "plan_in.json"
        plan_path.write_text(json.dumps(d))
        assert cli.main(["crosscheck", str(plan_path)]) == 0
        assert not json_out.exists() and not csv_out.exists()
        given = tmp_path / "crosscheck.json"
        assert cli.main(["crosscheck", str(plan_path), "--json", str(given)]) == 0
        assert json.loads(given.read_text())["kind"] == "crosscheck"
        assert not json_out.exists() and not csv_out.exists()

    def test_loads_no_sparse_stack(self):
        # the crosscheck builds no Fock operator, so a fresh process that
        # runs it never imports scipy.sparse; this session has loaded it
        # already (tests/reference.py), hence the subprocess
        root = Path(__file__).resolve().parent.parent
        script = (
            "import json, sys\n"
            "import blochlab.cli\n"
            "from blochlab.harness import ExperimentPlan, run_crosscheck\n"
            f"d = json.loads(open({str(root / 'plans' / 'desk_scale.json')!r}).read())\n"
            f"d['t'] = {TestCrosscheck.DESK_T!r}\n"
            "report = run_crosscheck(ExperimentPlan.from_dict(d))\n"
            "assert report.passed\n"
            "assert 'scipy.sparse' not in sys.modules\n"
        )
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr


def _load_tracing(monkeypatch):
    """The benchmark's tracing module, loaded from its file."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # for its dataclasses
    spec.loader.exec_module(tracing)
    return tracing


class TestTraceTargets:
    def test_wrapped_targets_resolve(self, monkeypatch):
        # the benchmark's tracer wraps these module globals by name; one
        # that disappears breaks every traced benchmark run
        tracing = _load_tracing(monkeypatch)
        owners = {
            "harness": blochlab.harness,
            "hierarchy": blochlab.hierarchy,
            "oracle": blochlab.oracle,
            "oracle.Hamiltonian": blochlab.oracle.Hamiltonian,
        }
        missing = [
            (owner, attr)
            for owner, attr, _ in tracing.WRAPPED
            if not hasattr(owners[owner], attr)
        ]
        assert missing == []
        with tracing.Tracer().patched():
            pass

    def test_traced_sweep_counts_the_group_runs(self, small_plan, monkeypatch):
        # the tracer reads each propagation's return as (states, log) with
        # log.n_accepted, log.n_rejected and states.nbytes: a change of that
        # shape must fail here, not in the benchmark's traced run
        tracing = _load_tracing(monkeypatch)
        real = blochlab.oracle.evolve_interaction_picture
        logs = []

        def recording(*args, **kwargs):
            out = real(*args, **kwargs)
            logs.append(out[1])
            return out

        monkeypatch.setattr(blochlab.oracle, "evolve_interaction_picture", recording)
        tracer = tracing.Tracer()
        with tracer.patched(), tracer.span("harness.sweep") as sweep:
            run_convergence(small_plan)
        metrics = tracing.layer_metrics(tracer.spans, sweep, 1)
        assert metrics["oracle.frames"] == len(logs) == 1
        assert metrics["oracle.steps_accepted"] == sum(g.n_accepted for g in logs)
        assert metrics["oracle.steps_rejected"] == sum(g.n_rejected for g in logs)
        assert metrics["oracle.state_mb"] > 0.0

    def test_benchmark_imports_resolve(self):
        # every name the benchmark imports from blochlab, and the pool it
        # wraps, must exist: worker.py imports worker_count even untraced
        perfbench = Path(__file__).resolve().parent.parent / "perfbench"
        wanted = {("blochlab.harness", "_pool_map")}
        for path in sorted(perfbench.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                module = getattr(node, "module", None) or ""
                if isinstance(node, ast.ImportFrom) and module.startswith("blochlab"):
                    wanted.update((module, a.name) for a in node.names)
        assert ("blochlab.harness", "worker_count") in wanted
        missing = [
            (module, name)
            for module, name in sorted(wanted)
            if not hasattr(importlib.import_module(module), name)
        ]
        assert missing == []
