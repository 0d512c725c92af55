"""The untraced run (end-to-end metrics) and the traced run (per-layer split)."""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

import numpy as np
from repro import Telemetry

from harness import (
    MIN_BEYOND,
    SUM_LAYERS,
    Recorder,
    Served,
    clock,
    count_spans,
    drain,
    geomean,
    install_layer_spans,
    median,
    pooled,
    tail,
)
from workloads import SPEC, WORKLOADS, TuneLibrary, dir_bytes

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
#: metric name -> unit, per kind, in BENCHMARK.json order
METRICS = {
    kind: {m["name"]: m["unit"] for m in BENCHMARK[kind]} for kind in ("end_to_end", "per_layer")
}

#: the layer-sum check: layer self times must match the driver's clock
SUM_TOLERANCE = 0.10
#: calls whose NumPy floor is timed
FLOOR_SAMPLE = 48


def make(args, workdir: Path, window_s: float):
    return WORKLOADS[args.workload](args.seed, window_s, args.short, workdir)


def set_up(wl, t0: float):
    """Inputs, construction and (serve-*) plan warm-up: what setup_s times."""
    wl.prepare()
    cache = wl.cache_dir("plans")
    system = wl.build(cache)
    tune_s, warm = 0.0, ([], [])
    if not isinstance(wl, TuneLibrary):
        t = clock()
        warm = wl.warm(system)
        tune_s = clock() - t
    return system, cache, clock() - t0, tune_s, warm


def setup_only(args, workdir: Path, t0: float) -> Dict:
    _system, _cache, setup_s, tune_s, _warm = set_up(make(args, workdir, args.seconds), t0)
    return {"setup_s": setup_s, "tune_s": tune_s}


def untraced(args, workdir: Path, t0: float, probe) -> Dict:
    """End-to-end metrics.  The measured window is cut into ``segments``
    parts spread over the run, with the backlog drains, reloads and extra
    set-ups in between, so one slow stretch of a shared machine moves only
    some of the samples each median sees."""
    wl = make(args, workdir, args.seconds)
    system, cache, setup_s, tune_s, (warm_calls, warm_responses) = set_up(wl, t0)
    library = isinstance(wl, TuneLibrary)
    if library:
        t = clock()
        wl.warm(system)
        tune_s = clock() - t
    gflops = geomean(wl.gflops())

    parts = SPEC["segments"]
    setups, tunes, reloads, served, drains = [setup_s], [tune_s], [], [], []
    for part in range(parts):
        reloads += [sum(wl.reload(cache)) for _ in range(SPEC["reload_repeats"] // parts)]
        served.append(wl.measure(system, part, parts))
        if not library:
            drains += [drain(system, backlog) for backlog in wl.backlog[part::parts]]
        if len(setups) < SPEC["setup_repeats"]:
            probed = probe(args)
            setups.append(probed["setup_s"])
            tunes.append(probed["tune_s"])
    served = pooled(served)
    lat = tail(served.latency_s)
    if library:
        capacity = len(served.latency_s) / served.elapsed_s
    else:
        capacity = median([len(d.responses) / d.elapsed_s for d in drains])

    checked = [Served(warm_calls, warm_responses), served, *drains]
    attempted = sum(len(s.calls) for s in checked)
    failed = sum(wl.failures(s.calls, s.responses) for s in checked)
    if library:
        attempted, failed = attempted + len(wl.variants), failed + wl.reload_failures()
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "setup_s": median(setups),
        "tune_s": tune_s if library else median(tunes),
        "reload_s": median(reloads),
        "library_modeled_gflops": gflops,
        "latency_p50_ms": lat["p50"] * 1e3,
        "latency_p90_ms": lat["p90"] * 1e3,
        "capacity_rps": capacity,
        "notes": [
            f"latency samples n={lat['n']}, beyond p90={lat['beyond']}"
            + ("" if lat["beyond"] >= MIN_BEYOND else " (too few: p90 is not a tail figure)"),
            "setup_s runs: " + ", ".join(f"{s:.3f}" for s in setups),
            f"failed_share {failed / attempted:.6g} ({failed} of {attempted} operations)",
        ],
    }


def _share(counters: Dict[str, int], part: str, *whole: str) -> float:
    total = sum(counters.get(w, 0) for w in whole)
    return counters.get(part, 0) / total if total else 0.0


def traced(args, workdir: Path) -> Dict:
    """Half the window traced (layer spans + program telemetry) and the same
    calls untraced, in alternating slices, for the tracing overhead and the
    layer-sum check.  Alternating keeps a change in machine speed from
    reading as tracing overhead or as unattributed time."""
    wl = make(args, workdir, args.seconds / 2)
    library = isinstance(wl, TuneLibrary)
    tuning, recorder = Recorder(), Recorder()
    telemetry = Telemetry()
    wl.prepare()
    cache = wl.cache_dir("plans")
    install_layer_spans(tuning)
    try:
        system = wl.build(cache, telemetry)
        calls, responses = wl.warm(system)
    finally:
        tuning.restore()
    cache_bytes = dir_bytes(cache)
    loads = wl.reload(cache, telemetry)
    traced_library = getattr(wl, "library", None)

    plain_system = wl.build(cache)
    more_calls, more_responses = wl.warm(plain_system)
    calls, responses = calls + more_calls, responses + more_responses
    if library:
        wl.reload(cache)
    plain_library = getattr(wl, "library", None)

    counters: Dict[str, int] = defaultdict(int)
    spans, hot, plain = 0, [], []
    parts = SPEC["segments"]
    for part in range(parts):
        before, spans0 = telemetry.metrics.snapshot(), count_spans(telemetry)
        if library:  # the closed loop calls the routines reloaded last
            wl.library = traced_library
        install_layer_spans(recorder)
        try:
            hot.append(wl.measure(system, part, parts))
        finally:
            recorder.restore()
        for key, value in telemetry.metrics.snapshot().items():
            counters[key] += value - before.get(key, 0)
        spans += count_spans(telemetry) - spans0
        if library:
            wl.library = plain_library
        plain.append(wl.measure(plain_system, part, parts))
    hot, plain = pooled(hot), pooled(plain)
    traced_calls = hot.calls
    calls += traced_calls + plain.calls
    responses += hot.responses + plain.responses
    failed = wl.failures(calls, responses)

    requests = len(hot.responses)
    per_req = lambda seconds: seconds / requests * 1e6  # noqa: E731
    root = recorder.roots_s
    # the layer sum is checked against a clock the recorder does not
    # produce: the driver's own time inside program calls, per request, on
    # the same calls served untraced.  Tracing overhead pushes the share
    # below 0; work the layers miss pushes it above.
    covered = sum(recorder.self_s[layer] for layer in SUM_LAYERS) / requests
    driver = plain.busy_s / len(plain.responses)
    unattributed = (driver - covered) / driver
    floor_s = wl.floor_s(traced_calls[:FLOOR_SAMPLE])
    units = tuning.items["search"]
    hot_p50, plain_p50 = tail(hot.latency_s)["p50"], tail(plain.latency_s)["p50"]
    verify_spans = telemetry.find("verify")
    result = {
        "composer.compose_s": tuning.total_s["composer"],
        "composer.candidates": tuning.items["composer"],
        "search.wall_s": tuning.total_s["search"],
        "search.units": units,
        "search.unit_us": tuning.total_s["search"] / units * 1e6 if units else 0.0,
        "search.feasible_share": tuning.ok_items["search"] / units if units else 0.0,
        "verify.wall_s": sum(sp.duration_s for sp in verify_spans),
        "verify.check_s": sum(sp.duration_s for sp in telemetry.find("verify.check")),
        "verify.checks": telemetry.count("verify.pass") + telemetry.count("verify.fail"),
        "cache.load_ms": float(np.mean(loads)) * 1e3,
        "cache.bytes": cache_bytes,
        "gpu.profile_us": per_req(recorder.self_s["gpu.profile"]),
        "jit.lookup_us": per_req(recorder.self_s["jit.lookup"]),
        "jit.kernel_us": per_req(recorder.self_s["jit.execute"]),
        "jit.compiles": telemetry.count("jit.compile"),
        "routine.host_us": per_req(recorder.self_s["routine"]),
        "serve.self_us": per_req(recorder.self_s["serve"]),
        "serve.queue_wait_ms": (
            0.0 if library else float(np.mean([r.wait_s for r in hot.responses])) * 1e3
        ),
        "serve.batch_mean": (
            counters.get("serve.batched_requests", 0) / counters["serve.launches"]
            if counters.get("serve.launches") else 0.0
        ),
        "serve.packed_share": _share(counters, "serve.packed", "serve.requests"),
        "serve.plan_hit_share": _share(counters, "serve.plan.hit", "serve.plan.hit", "serve.plan.miss"),
        "serve.fallback_share": _share(counters, "serve.fallbacks", "serve.requests"),
        "chain.execute_us": (
            recorder.total_s["chain"] / recorder.calls["chain"] * 1e6
            if recorder.calls["chain"]
            else 0.0
        ),
        "chain.fused_share": _share(counters, "serve.dag.fused", "serve.dag.fused", "serve.dag.unfused"),
        "chain.build_s": tuning.total_s["chain.build"],
        "dist.split_us": (
            recorder.self_s["dist"] / recorder.calls["dist"] * 1e6 if recorder.calls["dist"] else 0.0
        ),
        "telemetry.overhead_share": (hot_p50 - plain_p50) / plain_p50,
        "telemetry.spans_per_request": spans / requests,
        "floor.numpy_us": floor_s * 1e6,
        "floor.ratio": (root / requests) / floor_s,
        "driver.late_ms": float(np.percentile(plain.late_s, 90)) * 1e3 if plain.late_s else 0.0,
        "unattributed_share": unattributed,
    }
    sums_ok = abs(unattributed) <= SUM_TOLERANCE
    result.update(
        correct=failed == 0 and sums_ok,
        attempted=len(calls),
        failed=failed,
        notes=[
            f"layer sum: {covered * 1e6:.1f} us per request traced, driver clock "
            f"{driver * 1e6:.1f} us per request untraced "
            f"({'within' if sums_ok else 'OUTSIDE'} {SUM_TOLERANCE:.0%})",
            *premises(wl, result, recorder, requests),
        ],
    )
    return result


def premises(wl, m: Dict, recorder: Recorder, requests: int) -> List[str]:
    """The trace lines that confirm (or refute) why the workload exists."""
    per_request = recorder.roots_s / requests * 1e6
    host = m["gpu.profile_us"] + m["jit.lookup_us"] + m["routine.host_us"] + m["serve.self_us"]
    lines = [
        f"per request {per_request:.1f} us: kernel share {m['jit.kernel_us'] / per_request:.3f}, "
        f"host share (profile+lookup+routine+serve) {host / per_request:.3f}"
    ]
    if isinstance(wl, TuneLibrary):
        layers = {
            "search": m["search.wall_s"],
            "verify": m["verify.wall_s"],
            "compose": m["composer.compose_s"],
            "reload": m["cache.load_ms"] * len(wl.variants) / 1e3,
        }
        top = max(layers, key=layers.get)
        lines.append(
            "largest tuning layer: " + top + " ("
            + ", ".join(f"{k} {v:.3f} s" for k, v in layers.items()) + ")"
        )
    if recorder.calls["chain"] or recorder.calls["dist"]:
        lines.append(
            f"chains fused share {m['chain.fused_share']:.3f}, "
            f"{recorder.calls['chain']} chain executions, {recorder.calls['dist']} split calls"
        )
    return lines
