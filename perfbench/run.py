"""Repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload serve-kernel --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1`` is a
separate traced run that reports the per-layer split.  Human-readable
lines go first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Metric units and
bounds are in ``BENCHMARK.json``; clocks, definitions, workload reasons
and offered rates are in ``spec.json`` beside this file.
"""

import time

T0 = time.perf_counter()  # setup_s runs from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--short", action="store_true", help="small variant set and backlog (the benchmark's tests)"
    )
    parser.add_argument(
        "--setup-only", action="store_true", help="set up once, print setup_s/tune_s, exit"
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import measure  # the program is importable only from here on

    if args.workload not in measure.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.setup_only:
            result = measure.setup_only(args, workdir, T0)
        elif args.trace:
            result = measure.traced(args, workdir)
        else:
            result = measure.untraced(args, workdir, T0, setup_probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.setdefault("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return report(result, args, measure)


def setup_probe(args) -> dict:
    """One more set-up in a fresh process (setup_s counts imports)."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only",
    ]
    if args.short:
        cmd.append("--short")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def report(result: dict, args, measure) -> int:
    if args.setup_only:
        print(json.dumps({k: result[k] for k in ("setup_s", "tune_s")}))
        return 0
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for name, unit in measure.METRICS[kind].items():
        clock = measure.SPEC["metrics"][name]["clock"]
        value = float(result[name])
        metrics[name] = {"value": value, "unit": unit}
        print(f"{args.workload:13s} {name:28s} {value:14.6g} {unit:7s} [{clock}]")
    for line in result.get("notes", []):
        print(f"{args.workload:13s} {line}")
    print(
        json.dumps(
            {
                "correct": bool(result["correct"]),
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
