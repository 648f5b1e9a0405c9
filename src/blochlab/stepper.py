"""The one classical RK4 of the package: an adaptive loop and, for linear
systems, its transfer maps.

integrate_adaptive is step doubling with local Richardson error control
on a group of frames, the entries of the state's leading axis, integrated
together.  Each attempted step compares one RK4 step with two half steps;
a frame's local error is their largest entrywise difference on that frame.
Step control is joint: the step is accepted only if every frame's error is
at most tol, and doubled after it only if every frame's error is below
tol/64, so each frame meets its own local-error bound.  The update is the
extrapolated value, and every frame keeps its own PropagationLog.  The
full step and the first half step start from the same state, so they share
their first stage: 11 right-hand-side evaluations per attempted step.
Only the oracle uses it, and every integration runs to t1; the
hierarchy's adaptive G, R and (R, dR) integrations survive as test
oracles in tests/reference.py.

rk4_transfer writes the same step on a linear system y' = A(u) y as a
matrix, y -> Phi y, for a whole stack of steps in one batched product
chain.  The hierarchy's two fixed-substep chains per (t, X) take every
classical object from it: they tabulate A on the half-step stage grid
once and then only multiply matrices, and the rotation tangents
differentiate its stage maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from blochlab.model import ModelError


class StepStallError(ModelError):
    """The adaptive step size fell below its floor; frames holds the
    indices of the frames whose last local error exceeded tol."""

    def __init__(self, message: str, frames: list):
        super().__init__(message)
        self.frames = frames


@dataclass
class PropagationLog:
    """Step record of one adaptive integration."""

    n_accepted: int = 0
    n_rejected: int = 0
    step_sizes: list = field(default_factory=list)
    local_errors: list = field(default_factory=list)
    unitarity_defect: float = 0.0
    leakage: float = 0.0

    def to_dict(self) -> dict:
        return {
            "n_accepted": self.n_accepted,
            "n_rejected": self.n_rejected,
            "min_step": min(self.step_sizes, default=None),
            "max_local_error": max(self.local_errors, default=0.0),
            "unitarity_defect": self.unitarity_defect,
            "leakage": self.leakage,
        }


@dataclass
class GroupLog:
    """Step record of one adaptive integration of a frame group: one
    PropagationLog per frame.  The frames share their steps, so every
    frame log holds the same counts and step sizes."""

    frames: list

    @property
    def n_accepted(self) -> int:
        return self.frames[0].n_accepted

    @property
    def n_rejected(self) -> int:
        return self.frames[0].n_rejected


def _rk4(rhs, y, dt, start, mid, end, k1=None):
    """One RK4 step of length dt; rhs is called at start, mid (twice), end.

    k1, if given, is rhs(start, y), already evaluated.
    """
    if k1 is None:
        k1 = rhs(start, y)
    k2 = rhs(mid, y + dt / 2 * k1)
    k3 = rhs(mid, y + dt / 2 * k2)
    k4 = rhs(end, y + dt * k3)
    return y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def integrate_adaptive(rhs, y0, t0, t1, tol, dt0, postprocess=None):
    """y(t1) for dy/dt = rhs(t, y), y(t0) = y0, and the GroupLog of the
    frames along y0's leading axis.

    postprocess, if given, is applied to y after every accepted step.  The
    integration ends on the last step that leaves no more than round-off
    of the span.  Raises StepStallError when the step size falls below
    1e-12 max(|t1 - t0|, 1).
    """

    def rk4(s, y, dt, k1=None):
        return _rk4(rhs, y, dt, s, s + dt / 2, s + dt, k1)

    y = np.array(y0, dtype=complex)
    logs = [PropagationLog() for _ in y]
    span = t1 - t0
    direction = 1.0 if span > 0 else -1.0
    remaining = abs(span)
    # what remains below this is round-off of the remaining -= dt updates
    end = remaining * 1e-12
    s = t0
    dt = min(dt0, remaining)
    floor = max(remaining, 1.0) * 1e-12
    while remaining > end:
        dt = min(dt, remaining)
        step = direction * dt
        k1 = rhs(s, y)
        big = rk4(s, y, step, k1)
        half = rk4(s, y, step / 2, k1)
        small = rk4(s + step / 2, half, step / 2)
        err = np.abs(small - big).reshape(len(y), -1).max(axis=1)
        worst = err.max()
        if worst <= tol:
            # Richardson extrapolation from the halved solution
            y = small + (small - big) / 15.0
            if postprocess is not None:
                y = postprocess(y)
            s += step
            remaining -= dt
            for log, e in zip(logs, err):
                log.n_accepted += 1
                log.step_sizes.append(dt)
                log.local_errors.append(float(e))
            if worst < tol / 64.0:
                dt *= 2.0
        else:
            for log in logs:
                log.n_rejected += 1
            dt *= 0.5
            if dt < floor:
                stalled = [i for i, e in enumerate(err) if not e <= tol]
                raise StepStallError(
                    f"step control stalled at dt={dt:.3e}; "
                    f"log={logs[stalled[0]].to_dict()}",
                    stalled,
                )
    return y, GroupLog(logs)


def rk4_transfer(a0, ah, a1, dt):
    """Transfer maps of RK4 steps of length dt on the linear y' = A(u) y.

    a0, ah and a1 hold A at the start, middle and end of each step, stacked
    over any leading axes.  Returns (phi, (m2, m3, m4)): the step takes y to
    phi y, and _rk4 evaluates its right-hand sides at the stage states y,
    m2 y, m3 y and m4 y.  This is _rk4's arithmetic on A y, regrouped:

        B2 = Ah m2,  B3 = Ah m3,  B4 = A1 m4,
        m2 = I + dt/2 A0,  m3 = I + dt/2 B2,  m4 = I + dt B3,
        phi = I + dt/6 (A0 + 2 B2 + 2 B3 + B4).
    """
    eye = np.eye(a0.shape[-1])
    m2 = eye + dt / 2 * a0
    b = ah @ m2
    m3 = eye + dt / 2 * b
    # phi's sum, accumulated in its order as each B is made, so that no B
    # outlives its stage: a hierarchy chain's peak memory is in this call
    phi = a0 + 2 * b
    del b
    b = ah @ m3
    m4 = eye + dt * b
    phi += 2 * b
    del b
    phi += a1 @ m4
    phi *= dt / 6
    phi += eye
    return phi, (m2, m3, m4)
