"""Measurement machinery shared by the four workloads.

* statistics: medians, the tail percentile with its sample count, geomeans;
* :func:`open_loop`: an inline, single-thread open-loop driver for a
  :class:`repro.serve.BlasService` (no dispatcher thread, no load
  generator thread — nothing but the program contends for the GIL);
* :func:`drain`: the backlog drain behind ``capacity_rps``;
* :class:`Recorder`: the traced run's spans, wrapped around public entry
  points of each layer from this file (nothing under ``src/`` is touched).
"""

from __future__ import annotations

import math
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

clock = time.perf_counter

#: the tail percentile reported as latency_p90_ms; it is only a tail
#: figure when at least this many samples lie beyond it
TAIL_PCT = 90
MIN_BEYOND = 10
#: how far ahead of the first due time the open loop starts
LEAD_S = 0.005


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail(values: Sequence[float]) -> Dict[str, float]:
    """p50, p90 and the sample support of p90 (``beyond`` must be >= 10
    for the p90 to count as measured)."""
    arr = np.asarray(values, dtype=np.float64)
    p50, p90 = np.percentile(arr, [50, TAIL_PCT])
    return {
        "p50": float(p50),
        "p90": float(p90),
        "n": int(arr.size),
        "beyond": int(np.sum(arr > p90)),
    }


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


# -- serving drivers ---------------------------------------------------


@dataclass
class Call:
    """One pre-generated request: a single routine call or a DAG."""

    routine: str
    arrays: Dict[str, np.ndarray]
    alpha: float = 1.0
    beta: float = 1.0
    dag: Optional[object] = None
    #: arrival offset from the start of the phase (open loop only)
    due_s: float = 0.0

    def submit(self, service):
        if self.dag is not None:
            return service.submit_dag(self.dag, **self.arrays)
        return service.submit(
            self.routine, alpha=self.alpha, beta=self.beta, **self.arrays
        )


@dataclass
class Served:
    """What a phase observed: the calls, their responses and latencies."""

    calls: list = field(default_factory=list)
    responses: list = field(default_factory=list)
    latency_s: List[float] = field(default_factory=list)
    late_s: List[float] = field(default_factory=list)
    elapsed_s: float = 0.0
    #: the driver's own clock inside program calls (submit, flush or a
    #: library call), over every response; the layer-sum check's reference
    busy_s: float = 0.0


def pooled(parts: Sequence[Served]) -> Served:
    return Served(
        calls=[c for p in parts for c in p.calls],
        responses=[r for p in parts for r in p.responses],
        latency_s=[x for p in parts for x in p.latency_s],
        late_s=[x for p in parts for x in p.late_s],
        elapsed_s=sum(p.elapsed_s for p in parts),
        busy_s=sum(p.busy_s for p in parts),
    )


def open_loop(service, calls: Sequence[Call], origin_s: float = 0.0) -> Served:
    """Serve ``calls`` at their due times (``due_s - origin_s`` from now)
    from this thread.

    Every request whose due time has passed is submitted, then
    ``flush()`` serves whatever queued; when nothing is due the driver
    spins until the next due time.  Completion is stamped by the
    response callback and latency runs from the *due* time, so a stall
    counts against every request queued behind it.
    """
    n = len(calls)
    done = [0.0] * n
    responses = [None] * n
    late = []
    busy = 0.0

    def stamp(i):
        def callback(pending):
            done[i] = clock()
            responses[i] = pending.response()

        return callback

    start = clock() + LEAD_S - origin_s
    i = 0
    while i < n:
        now = clock()
        while i < n and start + calls[i].due_s <= now:
            t0 = clock()
            late.append(t0 - (start + calls[i].due_s))
            calls[i].submit(service).add_done_callback(stamp(i))
            busy += clock() - t0
            i += 1
        t0 = clock()
        flushed = service.flush()
        busy += clock() - t0
        if not flushed and i < n:
            # spin, not sleep: a sleeping driver lets the vCPU halt, and the
            # request after each idle stretch then ran slower by an amount
            # that changed from run to run
            due = start + calls[i].due_s
            while clock() < due:
                pass
    t0 = clock()
    service.flush()
    busy += clock() - t0
    return Served(
        calls=list(calls),
        responses=responses,
        latency_s=[done[j] - (start + calls[j].due_s) for j in range(n)],
        late_s=late,
        elapsed_s=clock() - start - origin_s,
        busy_s=busy,
    )


def drain(service, calls: Sequence[Call]) -> Served:
    """Queue ``calls`` at once and serve the backlog with ``flush()``."""
    t0 = clock()
    pendings = [call.submit(service) for call in calls]
    service.flush()
    elapsed = clock() - t0
    return Served(
        calls=list(calls), responses=[p.response() for p in pendings], elapsed_s=elapsed
    )


# -- tracing -----------------------------------------------------------


class Recorder:
    """Nested spans around layer entry points, kept in memory.

    :meth:`wrap` replaces ``owner.attr`` with a timing wrapper for the
    recorder's lifetime; :meth:`restore` puts every original back.  Self
    time is a span's duration minus the time of the wrapped spans nested
    in it; ``roots_s`` sums the outermost spans.  A recorder may be
    installed and restored many times; its sums run across all of them.
    """

    def __init__(self):
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.items: Dict[str, int] = defaultdict(int)
        self.ok_items: Dict[str, int] = defaultdict(int)
        self.roots_s = 0.0
        self._stack: List[List[float]] = []
        self._patched: list = []

    def wrap(self, owner, attr: str, layer: str, count: Optional[Callable] = None):
        original = owner.__dict__[attr]
        recorder = self

        def wrapper(*args, **kwargs):
            recorder._stack.append([0.0])
            t0 = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                children = recorder._stack.pop()[0]
                recorder.total_s[layer] += elapsed
                recorder.self_s[layer] += elapsed - children
                recorder.calls[layer] += 1
                if recorder._stack:
                    recorder._stack[-1][0] += elapsed
                else:
                    recorder.roots_s += elapsed
            if count is not None:
                items, ok = count(result)
                recorder.items[layer] += items
                recorder.ok_items[layer] += ok
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def install_layer_spans(recorder: Recorder) -> None:
    """Wrap the public entry point of every layer the workloads load."""
    import repro.gpu.simulator as simulator
    import repro.jit.registry as registry
    import repro.serve.service as service
    import repro.tuner.chain as chain
    from repro import BlasService, LibraryGenerator, MultiGPULibrary, SimulatedGPU
    from repro.tuner import TunedRoutine, VariantSearch
    from repro.tuner.chain import ChainPlan

    def search_units(result):
        return len(result.scores), sum(1 for s in result.scores if s.ok)

    recorder.wrap(LibraryGenerator, "candidates", "composer", lambda r: (len(r), len(r)))
    recorder.wrap(VariantSearch, "search", "search", search_units)
    recorder.wrap(service, "build_chain_plan", "chain.build")
    for name in ("submit", "submit_dag", "flush"):
        recorder.wrap(BlasService, name, "serve")
    recorder.wrap(MultiGPULibrary, "run", "dist")
    recorder.wrap(ChainPlan, "execute", "chain")
    # the service calls the routine body directly; TunedRoutine.run is a
    # one-line forward to it
    recorder.wrap(TunedRoutine, "_execute", "routine")
    recorder.wrap(SimulatedGPU, "run", "gpu.run")
    recorder.wrap(SimulatedGPU, "profile", "gpu.profile")
    recorder.wrap(simulator, "jit_execute", "jit.execute")
    recorder.wrap(chain, "jit_execute", "jit.execute")
    recorder.wrap(registry, "compile_computation", "jit.lookup")


#: layers whose self times, per request, must add up to the driver's own
#: clock per request in the untraced half of the traced run
SUM_LAYERS = ("serve", "dist", "chain", "routine", "gpu.profile", "jit.lookup", "jit.execute")


def count_spans(telemetry) -> int:
    return sum(1 for _ in telemetry.tracer.walk())
