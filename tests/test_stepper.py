"""The shared RK4: adaptive step doubling and fixed panels."""

import numpy as np
import pytest

from blochlab.model import ModelError
from blochlab.stepper import (
    StepStallError,
    integrate_adaptive,
    integrate_panels,
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
        assert sum(log.step_sizes) == pytest.approx(1.4, abs=1e-14)

    def test_backward_span(self):
        y0 = np.array([1.0, 2.0 - 1.0j])
        y, log = integrate_adaptive(_cos_rhs, y0, 2.1, 0.7, 1e-12, 0.1)
        want = y0 * np.exp(np.sin(0.7) - np.sin(2.1))
        np.testing.assert_allclose(y, want, rtol=1e-10)
        assert min(log.step_sizes) > 0.0

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


class TestPanels:
    def test_matches_exact_flow_and_visits_nodes(self):
        # y' = i cos(t) y on [0, 2] in n panels: y = exp(i sin t)
        n, sub, dt = 8, 25, 0.01
        stage = 0.5 * dt * np.arange(2 * n * sub + 1)
        nodes = []

        def at_node(i, y):
            nodes.append((i, y[0]))
            return y

        y = integrate_panels(
            lambda j, y: 1j * np.cos(stage[j]) * y,
            np.ones(1, dtype=complex),
            n,
            sub,
            dt,
            at_node,
        )
        assert [i for i, _ in nodes] == list(range(n))
        for i, value in nodes:
            assert value == pytest.approx(np.exp(1j * np.sin((i + 1) * 0.25)), abs=1e-9)
        assert y[0] == nodes[-1][1]

    def test_node_hook_result_is_carried(self):
        # at_node may replace the state, as the polar projection does
        y = integrate_panels(
            lambda j, y: np.zeros_like(y), np.zeros(1), 3, 2, 0.1, lambda i, y: y + 1.0
        )
        assert y[0] == 3.0
