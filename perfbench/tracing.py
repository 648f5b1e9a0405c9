"""In-memory spans around the public calls of each blochlab layer.

`Tracer.patched()` replaces the functions that the harness, oracle and
hierarchy modules look up as module globals with timing wrappers, and puts
the originals back when the block ends.  No source file changes, and the
wrappers return what the wrapped call returned, so a traced sweep must give
the same report as an untraced one (the worker checks this on every run).

A span records its name, start, end, parent span and thread.  Parents are
kept per thread; pool jobs name the pool span as their parent explicitly,
so work in pool threads nests under the sweep.  A span's self time is its
duration minus the union of its children's intervals.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

# (module, attribute, span name).  A function that the harness imports by
# name is wrapped in the harness namespace and in its home module, since
# each caller resolves it through its own module globals.
WRAPPED = [
    ("harness", "Model", "model.build"),
    ("harness", "FockBasis", "fock.basis"),
    ("harness", "Hamiltonian", "oracle.hamiltonian"),
    ("harness", "coherent_frame", "oracle.coherent_frame"),
    ("oracle", "coherent_frame", "oracle.coherent_frame"),
    ("oracle", "evolve_interaction_picture", "oracle.propagate"),
    ("oracle.Hamiltonian", "energy", "oracle.energy"),
    ("harness", "apply_observable", "oracle.observable"),
    ("harness", "frame_symbol", "oracle.observable"),
    ("harness", "compute_hierarchy", "hierarchy.coeffs"),
    ("harness", "photon_rate_expansion", "hierarchy.photon_expansion"),
    ("hierarchy", "photon_rate_expansion", "hierarchy.photon_expansion"),
    ("harness", "order0", "hierarchy.order0"),
    ("hierarchy", "order0", "hierarchy.order0"),
    # order_j; every workload runs at M = 1, so each call is order 1
    ("harness", "order_j", "hierarchy.order1"),
    ("hierarchy", "order_j", "hierarchy.order1"),
    ("harness", "bloch_spin0", "hierarchy.spin0"),
    ("hierarchy", "bloch_spin0", "hierarchy.spin0"),
    ("harness", "spin_correction1", "hierarchy.spin_correction1"),
    ("hierarchy", "spin_correction1", "hierarchy.spin_correction1"),
    ("harness", "tangent_derivatives", "hierarchy.tangent"),
    ("hierarchy", "tangent_derivatives", "hierarchy.tangent"),
    ("harness", "propagator_G", "hierarchy.propagator"),
    ("hierarchy", "propagator_G", "hierarchy.propagator"),
    ("harness", "maxwell_cross_check", "hierarchy.maxwell_check"),
    ("harness", "fit_slope", "harness.fit"),
]

# the harness's own spans: the sweep the benchmark opens, the pool and jobs
HARNESS_OWN = ("harness.sweep", "harness.pool", "harness.job")
SPAN_METRICS = sorted({name for _, _, name in WRAPPED})
COUNTED = [name for name in SPAN_METRICS if name.startswith("hierarchy.")]
# step doubling: a full RK4 step and two half steps per attempted step
RHS_PER_STEP = 12


def _attrs(name, out):
    """Counts read from the public return value of a wrapped call."""
    if name == "fock.basis":
        return {"dim": out.dim}
    if name == "oracle.propagate":
        frame, log = out
        return {
            "accepted": log.n_accepted,
            "rejected": log.n_rejected,
            "state_bytes": frame.nbytes,
        }
    return None


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        """Open a span under `parent`, or under this thread's open span."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1].id
        with self._lock:
            s = Span(
                len(self.spans), name, parent, threading.current_thread().name, 0.0
            )
            self.spans.append(s)
        stack.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            stack.pop()

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                out = fn(*args, **kwargs)
            attrs = _attrs(name, out)
            if attrs:
                s.attrs.update(attrs)
            return out

        return traced

    def _wrap_pool(self, pool_map):
        @functools.wraps(pool_map)
        def traced(fn, jobs):
            with self.span("harness.pool") as pool:

                def job(j):
                    with self.span("harness.job", parent=pool.id):
                        return fn(j)

                return pool_map(job, jobs)

        return traced

    @contextmanager
    def patched(self):
        """Wrap the layer boundaries for the length of the block."""
        import blochlab.harness
        import blochlab.hierarchy
        import blochlab.oracle

        owners = {
            "harness": blochlab.harness,
            "hierarchy": blochlab.hierarchy,
            "oracle": blochlab.oracle,
            "oracle.Hamiltonian": blochlab.oracle.Hamiltonian,
        }
        saved = []
        try:
            for owner, attr, name in WRAPPED:
                target = owners[owner]
                original = getattr(target, attr)
                saved.append((target, attr, original))
                setattr(target, attr, self._wrap(original, name))
            pool_map = blochlab.harness._pool_map
            saved.append((blochlab.harness, "_pool_map", pool_map))
            blochlab.harness._pool_map = self._wrap_pool(pool_map)
            yield self
        finally:
            for target, attr, original in reversed(saved):
                setattr(target, attr, original)

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = union_length(
            (max(c.start, s.start), min(c.end, s.end))
            for c in children.get(s.id, ())
            if c.end > s.start and c.start < s.end
        )
        out[s.id] = (s.end - s.start) - covered
    return out


def layer_metrics(spans, sweep: Span, workers: int) -> dict:
    """Per-layer metrics of one traced sweep (spans of that sweep only)."""
    selfs = self_times(spans)
    out = {}
    for name in SPAN_METRICS:
        out[f"{name}_s"] = sum(selfs[s.id] for s in spans if s.name == name)
    for name in COUNTED:
        out[f"{name}_calls"] = sum(1 for s in spans if s.name == name)
    out["harness.self_s"] = sum(selfs[s.id] for s in spans if s.name in HARNESS_OWN)
    wall = sweep.end - sweep.start
    out["harness.sweep_s"] = wall
    busy = sum(s.end - s.start for s in spans if s.name == "harness.job")
    out["harness.pool_util"] = busy / (workers * wall)

    props = [s for s in spans if s.name == "oracle.propagate"]
    accepted = sum(s.attrs["accepted"] for s in props)
    rejected = sum(s.attrs["rejected"] for s in props)
    rhs = RHS_PER_STEP * (accepted + rejected)
    out["oracle.steps_accepted"] = accepted
    out["oracle.steps_rejected"] = rejected
    out["oracle.frames"] = len(props)
    out["oracle.rhs_evals"] = rhs
    out["oracle.ms_per_rhs"] = 1e3 * out["oracle.propagate_s"] / rhs if rhs else 0.0
    state_bytes = max((s.attrs["state_bytes"] for s in props), default=0)
    out["oracle.state_mb"] = state_bytes / 1e6
    out["fock.dim"] = max(
        (s.attrs["dim"] for s in spans if s.name == "fock.basis"), default=0
    )
    return out


def unit_of(key: str) -> str:
    units = {
        "oracle.ms_per_rhs": "ms",
        "oracle.state_mb": "MB",
        "harness.pool_util": "ratio",
    }
    return units.get(key, "s" if key.endswith("_s") else "count")


# counts that must repeat exactly between runs of the same code
EXACT_COUNTS = (
    "oracle.steps_accepted",
    "oracle.steps_rejected",
    "oracle.frames",
    "oracle.rhs_evals",
    "fock.dim",
    "harness.cells",
    "harness.fits",
    "harness.checks",
) + tuple(f"{name}_calls" for name in COUNTED)
