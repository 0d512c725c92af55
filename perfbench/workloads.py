"""The four workloads: inputs from the seed, set-up, measured phases, checks.

Each workload generates every operand and arrival time from its seed
before anything is timed, drives the program through its public API from
this one thread, and checks every answer against
``repro.blas3.reference`` (or ``Dag.reference``) at the tolerance the
repository's tests use for that path.
"""

from __future__ import annotations

import json
import math
import shutil
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro import (
    ALL_VARIANTS,
    GTX_285,
    BlasService,
    Dag,
    LibraryGenerator,
    ServeOptions,
    TuningOptions,
    chain,
    get_spec,
    random_inputs,
    reference,
)

from harness import Call, Served, clock, open_loop

SPEC = json.loads((Path(__file__).parent / "spec.json").read_text())
ARCH = GTX_285
JOBS = SPEC["jobs"]

#: tolerances the repository's tests use for each path
TOL_ROUTINE = 3e-3  # tests/tuner/test_library.py, tests/serve/*
TOL_DIST = 4e-3  # tests/dist/test_executor.py
TOL_DAG = 1e-4  # tests/serve/test_dag.py

#: alpha/beta drawn per call; the library check needs alpha, beta != 1
ALPHAS = (1.5, -0.75, 2.0)
BETAS = (-0.5, 0.25, 0.0)

#: timings of the NumPy floor per call; their median is reported
FLOOR_REPEATS = 30


def close(got, want, tol: float) -> bool:
    return got is not None and np.allclose(got, want, rtol=tol, atol=tol)


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def numpy_floor_s(routine: str, arrays: Dict[str, np.ndarray]) -> float:
    """Median time of the plain NumPy operation at the call's shapes:
    ``A@B+C`` for the multiply families, ``solve`` for TRSM."""
    family = get_spec(routine).variant.family
    a = np.asarray(arrays["A"], np.float32)
    b = np.asarray(arrays["B"], np.float32)
    if family == "TRSM":
        if a.shape[0] == b.shape[0]:
            op = lambda: np.linalg.solve(a, b)  # noqa: E731
        else:
            op = lambda: np.linalg.solve(a.T, b.T)  # noqa: E731
    else:
        c = np.asarray(arrays["C"], np.float32) if "C" in arrays else 0.0
        x, y = (a, b) if a.shape[-1] == b.shape[-2] else (b, a)
        op = lambda: x @ y + c  # noqa: E731
    times = []
    for _ in range(FLOOR_REPEATS):
        t0 = clock()
        op()
        times.append(clock() - t0)
    return float(np.median(times))


class Base:
    name = ""

    def __init__(self, seed: int, window_s: float, short: bool, workdir: Path):
        self.window_s = window_s
        self.short = short
        self.workdir = workdir
        self.conf = SPEC["workloads"][self.name]
        self.rng = np.random.default_rng(seed)

    def routine_call(self, routine: str, sizes: Dict[str, int]) -> Call:
        """One call with fresh seeded operands and alpha/beta."""
        arrays = random_inputs(routine, sizes, seed=int(self.rng.integers(2**31)))
        return Call(routine, arrays, float(self.rng.choice(ALPHAS)), float(self.rng.choice(BETAS)))

    def cache_dir(self, tag: str) -> Path:
        path = self.workdir / tag
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path


class Workload(Base):
    """A serve-* workload: warm a service, then open-loop, drain, reload."""

    options = ServeOptions()

    #: calls that arrive together (serve-small sends bursts)
    burst = 1

    # -- inputs ----------------------------------------------------------
    def kinds(self) -> List[str]:
        raise NotImplementedError

    def make_call(self, kind: str) -> Call:
        raise NotImplementedError

    def mix(self, count: int) -> List[Call]:
        """``count`` calls with every kind equally often, in seeded order:
        blocks of one call per kind, so no seed skews the mix."""
        calls: List[Call] = []
        while len(calls) < count:
            calls += [self.make_call(str(k)) for k in self.rng.permutation(self.kinds())]
        return calls[:count]

    def prepare(self) -> None:
        """Every operand and arrival time, before anything is timed."""
        due = [t for t in self.arrivals(self.conf["offered_rps"] / self.burst) for _ in range(self.burst)]
        self.calls = self.mix(len(due))
        for call, t in zip(self.calls, due):
            call.due_s = t
        size, drains = (8, 2) if self.short else (self.conf["backlog"], self.conf["drains"])
        self.backlog = [self.mix(size) for _ in range(drains)]
        self.warm_calls = self.make_warm_calls()

    def arrivals(self, rate: float) -> List[float]:
        """Seeded Poisson arrival times over the window, stratified.

        Each gap is exponential at ``rate``, but the gaps' quantiles are
        one draw from each of ``n`` equal strata, in seeded order: every
        seed gets the same spread of short and long gaps and differs only
        in how they cluster, so p90 does not swing with how many short
        gaps one seed happened to draw.
        """
        n = max(1, round(rate * self.window_s))
        quantiles = (self.rng.permutation(n) + self.rng.random(n)) / n
        gaps = -np.log1p(-quantiles) / rate
        return list(np.cumsum(gaps) * (self.window_s / gaps.sum()))

    def make_warm_calls(self) -> List[List[Call]]:
        raise NotImplementedError

    def plan_keys(self) -> List[Tuple[str, int]]:
        """(routine, n) of every per-routine plan the workload serves."""
        raise NotImplementedError

    # -- the system ------------------------------------------------------
    def build(self, cache_dir: Path, telemetry=None):
        return BlasService(
            ARCH,
            options=self.options,
            tuning=TuningOptions(jobs=JOBS, cache_dir=cache_dir),
            telemetry=telemetry,
        )

    def warm(self, service) -> Tuple[List[Call], list]:
        """Tune every plan, then serve each group of warm-up calls so every
        kernel is compiled before the measured phase."""
        for routine, n in self.plan_keys():
            service.warm(routine, n)
        calls, responses = [], []
        for group in self.warm_calls:
            pendings = [call.submit(service) for call in group]
            service.flush()
            calls += group
            responses += [p.response() for p in pendings]
        self.plans = [plan.tuned for plan in service.table.plans()]
        return calls, responses

    def measure(self, service, part: int = 0, parts: int = 1) -> Served:
        """The open loop over slice ``part`` of ``parts`` of the window.
        The last slice is open-ended: the final arrival sits at the end of
        the window, give or take rounding."""
        span = self.window_s / parts
        lo = part * span
        hi = (part + 1) * span if part < parts - 1 else math.inf
        return open_loop(service, [c for c in self.calls if lo <= c.due_s < hi], origin_s=lo)

    def reload(self, cache_dir: Path, telemetry=None) -> List[float]:
        """Per-plan time to rebuild each plan in a fresh service."""
        service = self.build(cache_dir, telemetry)
        times = []
        for routine, n in self.plan_keys():
            t0 = clock()
            service.warm(routine, n)
            times.append(clock() - t0)
        return times

    def gflops(self) -> List[float]:
        return [plan.tuned_gflops for plan in self.plans]

    # -- checks ----------------------------------------------------------
    def tolerance(self, call: Call) -> float:
        return TOL_ROUTINE

    def want(self, call: Call) -> np.ndarray:
        if call.dag is not None:
            return call.dag.reference(call.arrays)
        return reference(call.routine, call.arrays, call.alpha, call.beta)

    def failures(self, calls: Sequence[Call], responses: Sequence) -> int:
        failed = 0
        for call, response in zip(calls, responses):
            if (
                response is None
                or response.error is not None
                or response.source in ("error", "shed")
                or not close(response.output, self.want(call), self.tolerance(call))
            ):
                failed += 1
        return failed

    def floor_s(self, calls: Sequence[Call]) -> float:
        """Mean NumPy floor per request over a sample of ``calls``."""
        total = 0.0
        for call in calls:
            if call.dag is None:
                total += numpy_floor_s(call.routine, call.arrays)
                continue
            values = dict(call.arrays)
            for node in call.dag.nodes:
                arrays = {op: values[sym] for op, sym in node.operands.items()}
                total += numpy_floor_s(node.routine, arrays)
                values[node.output] = reference(node.routine, arrays, node.alpha, node.beta)
        return total / len(calls)


class ServeKernel(Workload):
    name = "serve-kernel"
    options = ServeOptions(batch_window_s=0)

    def __init__(self, *args):
        super().__init__(*args)
        self.variants = self.conf["variants"][:2] if self.short else self.conf["variants"]
        self.n = self.conf["n"]

    def kinds(self):
        return self.variants

    def make_call(self, routine: str) -> Call:
        return self.routine_call(routine, get_spec(routine).make_sizes(self.n))

    def make_warm_calls(self) -> List[List[Call]]:
        return [[self.make_call(v)] for v in self.variants]

    def plan_keys(self):
        return [(v, self.n) for v in self.variants]


class ServeSmall(Workload):
    name = "serve-small"
    options = ServeOptions(
        batch_window_s=0, pack_requests=True, min_bucket=4, max_batch=8
    )
    burst = 8

    def _call(self, lo: int = 2, hi: int = 8) -> Call:
        m, n, k = (int(d) for d in self.rng.integers(lo, hi + 1, size=3))
        return self.routine_call("GEMM-NN", {"M": m, "N": n, "K": k})

    def kinds(self):
        # every burst holds one call of the 4-bucket (all dims 2-4) and seven
        # of the 8-bucket: which bucket a call packs into sets how many
        # launches its burst needs, so a seed must not change the split
        return ["bucket4"] + ["bucket8"] * (self.burst - 1)

    def make_call(self, kind: str) -> Call:
        if kind == "bucket4":
            return self._call(2, 4)
        while True:
            call = self._call()
            if max(call.arrays["C"].shape + call.arrays["A"].shape) > 4:
                return call

    def make_warm_calls(self) -> List[List[Call]]:
        # a packed burst and a lone call in each plan bucket (4 and 8)
        return [
            [self._call(2, 4) for _ in range(self.burst)],
            [self._call(5, 8) for _ in range(self.burst)],
            [self._call(2, 4)],
            [self._call(5, 8)],
        ]

    def plan_keys(self):
        return [("GEMM-NN", 4), ("GEMM-NN", 8), ("BGEMM-NN", 4), ("BGEMM-NN", 8)]


class ServeChain(Workload):
    name = "serve-chain"
    options = ServeOptions(batch_window_s=0, devices=2, fuse_dags=True)
    DAGS = {
        "fused": ("GEMM-NN", "TRSM-LL-N"),
        "declined": ("GEMM-NN", "TRMM-LL-T"),
    }
    SPLIT = ("GEMM-NN", "SYMM-LL")

    def __init__(self, *args):
        super().__init__(*args)
        self.n = self.conf["n"]
        self.dags = {
            kind: Dag(chain((producer, {"A": "A", "B": "B"}), (consumer, {"A": "L"})))
            for kind, (producer, consumer) in self.DAGS.items()
        }

    def _dag_call(self, kind: str) -> Call:
        n = self.n
        a = self.rng.standard_normal((n, n)).astype(np.float32)
        b = self.rng.standard_normal((n, n)).astype(np.float32)
        low = (np.tril(self.rng.standard_normal((n, n))) + n * np.eye(n)).astype(np.float32)
        dag = self.dags[kind]
        return Call(dag.routine_key, {"A": a, "B": b, "L": low}, dag=dag)

    def _split_call(self, routine: str) -> Call:
        return self.routine_call(routine, get_spec(routine).make_sizes(self.n))

    def kinds(self):
        # fused (~6 ms), split (~12 ms) and declined (~20 ms) calls in
        # quarters, halves and quarters: p50 falls in the middle of the
        # split calls' mode; weighting declined chains up pushed queued
        # calls to the p50 edge and made it swing between runs
        return [*self.dags, *self.SPLIT]

    def make_call(self, kind: str) -> Call:
        return self._dag_call(kind) if kind in self.dags else self._split_call(kind)

    def make_warm_calls(self) -> List[List[Call]]:
        return [[self._dag_call(k)] for k in self.dags] + [
            [self._split_call(r)] for r in self.SPLIT
        ]

    def plan_keys(self):
        routines = {*self.SPLIT, *(r for pair in self.DAGS.values() for r in pair)}
        return [(r, self.n) for r in sorted(routines)]

    def tolerance(self, call: Call) -> float:
        return TOL_DAG if call.dag is not None else TOL_DIST


class TuneLibrary(Base):
    """Cold tune of the whole library, reload, closed-loop library calls."""

    name = "tune-library"

    def __init__(self, *args):
        super().__init__(*args)
        names = [v.name for v in ALL_VARIANTS]
        self.variants = ["GEMM-NN", "TRMM-LL-N", "TRSM-LL-N"] if self.short else names

    #: rounds of operands generated up front; later rounds reuse them
    ROUNDS = 48

    def prepare(self) -> None:
        n = self.conf["call_n"]
        self.rounds = []
        for _ in range(4 if self.short else self.ROUNDS):
            self.rounds.append(
                [
                    self.routine_call(str(v), get_spec(str(v)).make_sizes(n))
                    for v in self.rng.permutation(self.variants)
                ]
            )

    def build(self, cache_dir: Path, telemetry=None) -> LibraryGenerator:
        options = TuningOptions(tune_size=self.conf["tune_size"], jobs=JOBS, cache_dir=cache_dir)
        return LibraryGenerator(ARCH, telemetry=telemetry, options=options)

    def warm(self, generator) -> Tuple[List[Call], list]:
        """The cold tune of every variant (timed as tune_s)."""
        self.tuned = {v: generator.generate(v) for v in self.variants}
        return [], []

    def reload(self, cache_dir: Path, telemetry=None) -> List[float]:
        generator = self.build(cache_dir, telemetry)
        times, self.library = [], {}
        for v in self.variants:
            t0 = clock()
            self.library[v] = generator.generate(v)
            times.append(clock() - t0)
        return times

    def gflops(self) -> List[float]:
        return [self.tuned[v].tuned_gflops for v in self.variants]

    def reload_failures(self) -> int:
        """A reloaded routine must be the routine that was tuned."""
        return sum(
            1
            for v in self.variants
            if self.library[v].config != self.tuned[v].config
            or self.library[v].tuned_gflops != self.tuned[v].tuned_gflops
        )

    def measure(self, _generator=None, part: int = 0, parts: int = 1) -> Served:
        """Whole rounds of calls of every reloaded routine for slice
        ``part`` of ``parts`` of the window; the first part opens with an
        untimed round that checks each routine once."""
        served = Served()
        if part == 0:
            self.next_round = 1
            for call in self.rounds[0]:
                s = clock()
                served.responses.append(self._run(call))
                served.busy_s += clock() - s
                served.calls.append(call)
        t_end = clock() + self.window_s / parts
        t0 = clock()
        while clock() < t_end:
            for call in self.rounds[self.next_round % len(self.rounds) or 1]:
                s = clock()
                out = self._run(call)
                served.latency_s.append(clock() - s)
                served.responses.append(out)
                served.calls.append(call)
            self.next_round += 1
        served.elapsed_s = clock() - t0
        served.busy_s += sum(served.latency_s)
        return served

    def _run(self, call: Call):
        try:
            return self.library[call.routine].run(alpha=call.alpha, beta=call.beta, **call.arrays)
        except Exception:  # counted as a failed operation by failures()
            return None

    def failures(self, calls: Sequence[Call], outputs: Sequence) -> int:
        return sum(
            1
            for call, out in zip(calls, outputs)
            if not close(out, reference(call.routine, call.arrays, call.alpha, call.beta), TOL_ROUTINE)
        )

    def floor_s(self, calls: Sequence[Call]) -> float:
        return sum(numpy_floor_s(c.routine, c.arrays) for c in calls) / len(calls)


WORKLOADS = {w.name: w for w in (TuneLibrary, ServeKernel, ServeSmall, ServeChain)}
