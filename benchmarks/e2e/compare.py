#!/usr/bin/env python3
"""Compare two ``run.py`` reports: ``compare.py BASE.json NEW.json``.

One row per (workload, end-to-end metric).  The metrics and bounds are the
``end_to_end`` list of ``BENCHMARK.json`` (bounds relative to the base
median) plus the ``extra_gates`` of ``bounds.json``: the issue's metrics
``BENCHMARK.json`` cannot carry, some with absolute bounds, each on the
workloads it names.  An extra gate replaces a ``BENCHMARK.json`` row of the
same name.  Each row shows base, new, their ratio (new / base), the bound
and a verdict:

``worse``       the new median is worse than the base by more than the bound
``unresolved``  run-to-run spread on either side exceeds the bound, so the
                bound cannot be resolved — unless every new run reads better
                than every base run
``better``      the new median is better by more than the base's own spread
``within``      none of the above
``missing``     a report lacks the workload or the metric

A gate marked ``per_seed`` holds a value that repeats exactly for a seed
(SSIM, emulated airtime, failures), so it is compared run by run: ``worse``
when any seed reads worse than the same seed of the base by more than the
bound, ``unresolved`` when the two reports ran different seeds.

Exits 1 when any row is ``worse``, ``unresolved`` or ``missing``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence

import stats

HERE = Path(__file__).resolve().parent
FAILING = ("worse", "unresolved", "missing")


def load_gates() -> List[Dict[str, Any]]:
    """Every gated metric: ``BENCHMARK.json`` rows, then the extra gates."""
    with (HERE.parents[1] / "BENCHMARK.json").open(encoding="utf-8") as fh:
        gates = {spec["name"]: dict(spec, kind="rel") for spec in json.load(fh)["end_to_end"]}
    with (HERE / "bounds.json").open(encoding="utf-8") as fh:
        gates.update({spec["name"]: spec for spec in json.load(fh)["extra_gates"]})
    return list(gates.values())


def verdict(
    base: Sequence[float], new: Sequence[float], better: str, bound: float, kind: str = "rel"
) -> str:
    """Classify one metric from the per-run values of both sides."""
    sign = -1.0 if better == "lower" else 1.0
    base_median = statistics.median(base)
    scale = (abs(base_median) or 1.0) if kind == "rel" else 1.0
    gain = sign * (statistics.median(new) - base_median) / scale
    all_better = min(sign * v for v in new) > max(sign * v for v in base)
    relative = kind == "rel"
    spread = max(stats.spread(base, relative), stats.spread(new, relative))
    if spread > bound and not all_better:
        return "unresolved"
    if gain < -bound:
        return "worse"
    if gain > 0 and gain > stats.spread(base, relative):
        return "better"
    return "within"


def verdict_per_seed(
    base: Sequence[float], new: Sequence[float], better: str, bound: float, kind: str = "abs"
) -> str:
    """Classify a metric that repeats exactly for a seed, run by run."""
    sign = -1.0 if better == "lower" else 1.0
    gains = [
        sign * (n - b) / ((abs(b) or 1.0) if kind == "rel" else 1.0)
        for b, n in zip(base, new)
    ]
    if min(gains) < -bound:
        return "worse"
    return "better" if min(gains) > 0 else "within"


def compare(
    base: Dict[str, Any], new: Dict[str, Any], gates: List[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    same_seeds = base.get("seeds") == new.get("seeds")
    rows = []
    for workload, base_metrics in base["workloads"].items():
        new_metrics = new["workloads"].get(workload, {})
        for spec in gates:
            name = spec["name"]
            if workload not in spec.get("on", [workload]):
                continue
            row = {
                "workload": workload, "metric": name, "unit": spec["unit"],
                "base": float("nan"), "new": float("nan"), "ratio": float("nan"),
                "bound": spec["bound"], "kind": spec["kind"],
                "spread": float("nan"), "verdict": "missing",
            }
            rows.append(row)
            if name not in base_metrics or name not in new_metrics:
                continue
            base_runs = base_metrics[name]["values"]
            new_runs = new_metrics[name]["values"]
            relative = spec["kind"] == "rel"
            row["base"] = statistics.median(base_runs)
            row["new"] = statistics.median(new_runs)
            row["ratio"] = row["new"] / row["base"] if row["base"] else float("nan")
            row["spread"] = max(stats.spread(base_runs, relative), stats.spread(new_runs, relative))
            args = (base_runs, new_runs, spec["better"], spec["bound"], spec["kind"])
            if not spec.get("per_seed"):
                row["verdict"] = verdict(*args)
            elif same_seeds and len(base_runs) == len(new_runs):
                row["verdict"] = verdict_per_seed(*args)
            else:
                row["verdict"] = "unresolved"
    return rows


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    reports = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            reports.append(json.load(fh))
    if not all(report.get("comparable") for report in reports):
        print("compare.py: a --smoke report is not comparable")
        return 2
    rows = compare(reports[0], reports[1], load_gates())
    print(f"{'workload':20s} {'metric':20s} {'base':>12s} {'new':>12s} "
          f"{'new/base':>9s} {'bound':>10s} {'spread':>8s}  verdict")
    for row in rows:
        bound, spread = (
            (f"{row['bound']:.1%}", f"{row['spread']:.1%}") if row["kind"] == "rel"
            else (f"{row['bound']:g} abs", f"{row['spread']:.4f}")
        )
        print(f"{row['workload']:20s} {row['metric']:20s} {row['base']:12.4f} "
              f"{row['new']:12.4f} {row['ratio']:9.4f} {bound:>10s} {spread:>8s}  {row['verdict']}")
    if not all(report.get("correct") for report in reports):
        print("compare.py: a report with failed correctness checks cannot support a claim")
        return 1
    return 1 if any(row["verdict"] in FAILING for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
