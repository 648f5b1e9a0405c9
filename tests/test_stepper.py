"""The shared RK4: adaptive step doubling and linear transfer maps."""

import dataclasses

import numpy as np
import pytest

from blochlab.model import ModelError
from blochlab.stepper import (
    PropagationLog,
    StepStallError,
    _rk4,
    integrate_adaptive,
    rk4_transfer,
)


def _cos_rhs(t, y):
    return np.cos(t) * y


class TestAdaptive:
    def test_offset_start(self):
        # y' = cos(t) y from t0 = 0.7: y(t1) = y0 exp(sin t1 - sin t0)
        y0 = np.array([1.0, 2.0 - 1.0j])
        y, log = integrate_adaptive(_cos_rhs, y0, 0.7, 2.1, 1e-12, 0.1)
        want = y0 * np.exp(np.sin(2.1) - np.sin(0.7))
        np.testing.assert_allclose(y, want, rtol=1e-10)
        assert log.n_accepted > 0
        assert sum(log.frames[0].step_sizes) == pytest.approx(1.4, abs=1e-14)

    def test_backward_span(self):
        y0 = np.array([1.0, 2.0 - 1.0j])
        y, log = integrate_adaptive(_cos_rhs, y0, 2.1, 0.7, 1e-12, 0.1)
        want = y0 * np.exp(np.sin(0.7) - np.sin(2.1))
        np.testing.assert_allclose(y, want, rtol=1e-10)
        assert min(log.frames[0].step_sizes) > 0.0

    def test_zero_span_copies(self):
        y0 = np.array([[1.0, 0.5], [0.0, 1.0]])
        y, log = integrate_adaptive(_cos_rhs, y0, 0.3, 0.3, 1e-10, 0.1)
        np.testing.assert_array_equal(y, y0)
        assert y is not y0 and y.dtype == complex
        assert log.n_accepted == log.n_rejected == 0

    def test_postprocess_after_every_accepted_step(self):
        # y' = 0 accepts every step; postprocess adds one each time
        y, log = integrate_adaptive(
            lambda t, y: np.zeros_like(y),
            np.zeros(1),
            0.0,
            3.0,
            1e-10,
            0.01,
            postprocess=lambda y: y + 1.0,
        )
        assert log.n_accepted > 1 and log.n_rejected == 0
        assert y[0] == log.n_accepted

    def test_stall_raises_model_error(self):
        # a jump in the derivative at t = 0.5: every step across it keeps a
        # local error of order 1e3 dt, so the step falls below its floor
        with pytest.raises(StepStallError, match="stalled") as info:
            integrate_adaptive(
                lambda t, y: np.full_like(y, 1e3 if t >= 0.5 else 0.0),
                np.zeros(2),
                0.0,
                1.0,
                1e-12,
                0.1,
            )
        assert isinstance(info.value, ModelError)


def _joint(group):
    """A group's step record as a single-state integration writes it: the
    shared steps, with the largest local error of any frame per step."""
    errors = np.max([log.local_errors for log in group.frames], axis=0)
    return dataclasses.replace(group.frames[0], local_errors=errors.tolist())


def _three_rk4_integrate(rhs, y0, t0, t1, tol, dt0):
    """The adaptive loop with the full step and the two half steps as three
    separate RK4 steps, each evaluating its own first stage."""

    def rk4(s, y, dt):
        k1 = rhs(s, y)
        k2 = rhs(s + dt / 2, y + dt / 2 * k1)
        k3 = rhs(s + dt / 2, y + dt / 2 * k2)
        k4 = rhs(s + dt, y + dt * k3)
        return y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)

    y = np.array(y0, dtype=complex)
    log = PropagationLog()
    span = t1 - t0
    direction = 1.0 if span > 0 else -1.0
    remaining = abs(span)
    s = t0
    dt = min(dt0, remaining)
    while remaining > 0.0:
        dt = min(dt, remaining)
        step = direction * dt
        big = rk4(s, y, step)
        half = rk4(s, y, step / 2)
        small = rk4(s + step / 2, half, step / 2)
        err = float(np.max(np.abs(small - big)))
        if err <= tol:
            y = small + (small - big) / 15.0
            s += step
            remaining -= dt
            log.n_accepted += 1
            log.step_sizes.append(dt)
            log.local_errors.append(err)
            if err < tol / 64.0:
                dt *= 2.0
        else:
            log.n_rejected += 1
            dt *= 0.5
    return y, log


# a linear system with a time-dependent complex generator; from dt0 = 1 at
# tol 1e-10 it rejects its first steps
_GEN = np.array([[0.3j, 1.1], [-0.8, -0.2 + 0.5j]])


def _linear_rhs(t, y):
    return (1.0 + 0.5 * np.sin(3.0 * t)) * (_GEN @ y)


class TestSharedFirstStage:
    def test_eleven_evaluations_and_the_same_arithmetic(self):
        calls = []

        def rhs(t, y):
            calls.append(t)
            return _linear_rhs(t, y)

        y0 = np.array([1.0, 0.5 - 0.2j])
        y, log = integrate_adaptive(rhs, y0, 0.0, 2.0, 1e-10, 1.0)
        assert log.n_rejected > 0
        assert len(calls) == 11 * (log.n_accepted + log.n_rejected)
        want, want_log = _three_rk4_integrate(_linear_rhs, y0, 0.0, 2.0, 1e-10, 1.0)
        assert np.array_equal(y, want)
        assert _joint(log) == want_log


class TestTransfer:
    def test_matches_rk4_on_linear_systems(self):
        # random complex generators, a stack of 5 steps: phi y and the stage
        # states are what _rk4 computes on the right-hand side A y, up to
        # rounding relative to |y|
        rng = np.random.default_rng(11)

        def draw(*shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        a = draw(3, 5, 4, 4)
        y = draw(5, 4, 2)
        dt = 0.07
        phi, maps = rk4_transfer(a[0], a[1], a[2], dt)
        for k in range(5):
            seen = []

            def rhs(j, z, k=k):
                seen.append(z)
                return a[j, k] @ z

            want = _rk4(rhs, y[k], dt, 0, 1, 2)
            scale = np.max(np.abs(want))
            assert np.max(np.abs(phi[k] @ y[k] - want)) <= 1e-15 * scale
            stages = [y[k]] + [m[k] @ y[k] for m in maps]
            assert np.max(np.abs(np.subtract(stages, seen))) <= 1e-15 * scale

    def test_follows_exact_flow(self):
        # y' = i cos(t) y on [0, 2] in 200 steps of 0.01: y = exp(i sin t)
        steps, dt = 200, 0.01
        stage = 0.5 * dt * np.arange(2 * steps + 1)
        gen = (1j * np.cos(stage))[:, None, None]
        phi, _ = rk4_transfer(gen[0:-1:2], gen[1::2], gen[2::2], dt)
        y = np.cumprod(phi[:, 0, 0])
        t = dt * np.arange(1, steps + 1)
        np.testing.assert_allclose(y, np.exp(1j * np.sin(t)), rtol=0, atol=1e-9)
