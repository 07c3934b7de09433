#!/usr/bin/env python3
"""Frame-budget benchmark: wall ms/frame against the 33 ms live deadline.

Two ways in, one measurement:

``run.py --workload NAME --seed N --seconds S --trace 0|1``
    One run of one workload in this process.  Prints the metrics by name
    with unit and bound, then one JSON object on the last line: the
    end-to-end metrics of ``BENCHMARK.json`` untraced, the per-layer
    metrics traced (a layer the workload cannot observe reads 0).  The
    issue's end-to-end metrics ``BENCHMARK.json`` cannot carry (zero,
    constant or on one workload only) are printed with the bounds
    ``bounds.json`` gives them and kept in the report for ``compare.py``.

``run.py [--runs R] [--smoke] [--output report.json]``
    Every workload, untraced then traced, each in its own child process,
    ``R`` times with seeds ``seed .. seed+R-1``; checks that the traced
    and untraced children agree on every outcome digest and writes the
    report ``compare.py`` reads.

Exits non-zero when any correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"

#: Set by a developer to change which code runs; a benchmark must not inherit them.
FORBIDDEN_ENV = ("REPRO_OBS", "REPRO_JOBS")

BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Sample counts, printed beside the percentiles they support.
COUNTS = ("frames_measured", "msgs_measured")

#: One child of a full run may take this long before it counts as hung.
CHILD_TIMEOUT_S = 900


def load_catalogue() -> Dict[str, Any]:
    with (ROOT / "BENCHMARK.json").open(encoding="utf-8") as fh:
        return json.load(fh)


def extra_gates(workload: str) -> List[Dict[str, Any]]:
    """The gates of ``bounds.json`` this workload reports beyond ``BENCHMARK.json``."""
    with (HERE / "bounds.json").open(encoding="utf-8") as fh:
        gates = json.load(fh)["extra_gates"]
    return [gate for gate in gates if workload in gate["on"]]


def host_facts() -> Dict[str, Any]:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = next((os.environ[v] for v in BLAS_THREAD_ENV if v in os.environ), None)
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": threads or f"library default (cpu_count {os.cpu_count()})",
        "platform": platform.platform(),
    }


def refuse_bad_environment() -> None:
    if not (SRC / "repro").is_dir():
        sys.exit(f"run.py: no program to measure: {SRC / 'repro'} is missing")
    inherited = [name for name in FORBIDDEN_ENV if name in os.environ]
    if inherited:
        sys.exit(f"run.py: refusing to run with {', '.join(inherited)} set in the environment")
    # The DNN is trained once into the benchmark's own cache, never read
    # from a developer's home directory.
    (OUT / "cache").mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_CACHE_DIR"] = str(OUT / "cache")
    sys.path.insert(0, str(SRC))


def run_workload(args: argparse.Namespace) -> int:
    """One workload, in this process; the driver's entry point."""
    import serve_bench
    import session_bench
    import workloads

    catalogue = load_catalogue()
    kind = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m for m in catalogue[kind]}
    workload = workloads.BY_NAME[args.workload].sized(args.seconds, args.smoke)
    if isinstance(workload, workloads.ServeWorkload):
        result = serve_bench.run(workload, args.seed, bool(args.trace), args.smoke, OUT, SRC)
    else:
        result = session_bench.run(workload, args.seed, bool(args.trace), args.smoke, OUT)

    undeclared = sorted(set(result.metrics) - set(declared))
    if undeclared:
        result.errors.append(f"metrics not in BENCHMARK.json: {undeclared}")
    if not args.trace and set(declared) - set(result.metrics):
        result.errors.append(f"metrics missing: {sorted(set(declared) - set(result.metrics))}")
    for name, value in result.metrics.items():
        if not math.isfinite(value):
            result.errors.append(f"{name} is not finite")
    correct = not result.errors

    print(f"workload {workload.name}  seed {args.seed}  "
          f"{'traced' if args.trace else 'untraced'}"
          f"{'  SMOKE (not comparable)' if args.smoke else ''}")
    metrics = {}
    for name, spec in declared.items():
        # A layer this workload cannot observe from outside reads 0.
        value = float(result.metrics.get(name, 0.0))
        metrics[name] = {"value": value, "unit": spec["unit"]}
        bound = f"  bound {spec['bound']:.0%}" if "bound" in spec else ""
        print(f"  {name:44s} {value:14.4f} {spec['unit']:8s} {spec['better']}{bound}")
    if not args.trace:
        for gate in extra_gates(workload.name):
            bound = f"{gate['bound']:g} abs" if gate["kind"] == "abs" else f"{gate['bound']:.0%}"
            value = result.extras.get(gate["name"], result.metrics.get(gate["name"]))
            print(f"  {gate['name']:44s} {value:14.4f} {gate['unit']:8s} {gate['better']}"
                  f"  bound {bound} (compare.py)")
    for key in COUNTS:
        if key in result.extras:
            print(f"  ({key} {result.extras[key]})")
    for error in result.errors:
        print(f"  CHECK FAILED: {error}")

    details = {
        "workload": workload.name, "seed": args.seed, "trace": bool(args.trace),
        "comparable": not args.smoke, "correct": correct, "errors": result.errors,
        "extras": result.extras, "host": host_facts(),
    }
    suffix = "trace" if args.trace else "e2e"
    with (OUT / f"{workload.name}.{suffix}.json").open("w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=2, sort_keys=True)
    print(json.dumps({
        "correct": correct, "attempted": result.attempted,
        "failed": result.failed, "metrics": metrics,
    }))
    return 0 if correct else 1


def _child(name: str, seed: int, trace: int, args: argparse.Namespace) -> Dict[str, Any]:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ] + (["--smoke"] if args.smoke else [])
    try:
        done = subprocess.run(
            command, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"  CHECK FAILED: {name}: no result within {CHILD_TIMEOUT_S} s")
        return {"correct": False, "metrics": {}, "details": {}}
    lines = done.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(lines[-1])
        return {"correct": False, "metrics": {}, "details": {}}
    result["correct"] = result["correct"] and done.returncode == 0
    suffix = "trace" if trace else "e2e"
    with (OUT / f"{name}.{suffix}.json").open(encoding="utf-8") as fh:
        result["details"] = json.load(fh)
    return result


def run_all(args: argparse.Namespace) -> int:
    """Every workload, untraced then traced, one child process at a time."""
    catalogue = load_catalogue()
    host = host_facts()
    print("host: " + "  ".join(f"{k}={v}" for k, v in host.items()), flush=True)
    ok = True
    values: Dict[str, Dict[str, List[float]]] = {}
    for repeat in range(args.runs):
        seed = args.seed + repeat
        for spec in catalogue["workloads"]:
            name = spec["name"]
            untraced = _child(name, seed, 0, args)
            traced = _child(name, seed, 1, args)
            ok = ok and untraced["correct"] and traced["correct"]
            digests = [r["details"].get("extras", {}).get("digests") for r in (untraced, traced)]
            if digests[0] != digests[1]:
                ok = False
                print(f"  CHECK FAILED: {name}: traced and untraced outcome digests differ")
            per_workload = values.setdefault(name, {})
            for result in (untraced, traced):
                for metric, entry in result["metrics"].items():
                    per_workload.setdefault(metric, []).append(entry["value"])
            extras = untraced["details"].get("extras", {})
            for gate in extra_gates(name):
                if gate["name"] in extras:
                    per_workload.setdefault(gate["name"], []).append(extras[gate["name"]])

    report = {
        "comparable": not args.smoke, "correct": ok, "host": host,
        "seconds": args.seconds, "seeds": list(range(args.seed, args.seed + args.runs)),
        "workloads": {
            name: {
                metric: {"values": runs, "median": statistics.median(runs)}
                for metric, runs in metrics.items()
            }
            for name, metrics in values.items()
        },
    }
    args.output.parent.mkdir(parents=True, exist_ok=True)
    with args.output.open("w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    print(f"\nreport: {args.output}  ({'all checks passed' if ok else 'CHECKS FAILED'})")
    return 0 if ok else 1


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds the frame counts are sized for "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a dozen frames per workload, every check, not comparable")
    parser.add_argument("--runs", type=int, default=1, help="full sets (all-workloads mode)")
    parser.add_argument("--output", type=Path, default=OUT / "report.json")
    args = parser.parse_args(argv)

    refuse_bad_environment()
    catalogue = load_catalogue()
    if args.seconds is None:
        args.seconds = float(catalogue["run_seconds"])
    if args.workload is None:
        return run_all(args)
    if args.workload not in [w["name"] for w in catalogue["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
