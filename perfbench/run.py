"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload td-powerlaw --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, measured
with tracing off.  ``--trace 1`` is a separate run that prints the
per-layer metrics and writes every span, the program's and the
benchmark's, to ``.perfbench/traces/<workload>-<seed>.jsonl``.
Workloads, metrics and how the layers map onto the end-to-end metrics
are described in perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from typing import Any, Dict, List

from common import OUT_DIR, ROOT, BenchmarkError, median, write_trace

SOURCE = os.path.join(ROOT, "src")


def _metric_specs(key: str) -> List[Dict[str, Any]]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)[key]


def _workloads() -> Dict[str, Any]:
    from serve_mixed import ServeMixed
    from traversal import WORKLOADS

    workloads: Dict[str, Any] = dict(WORKLOADS)
    workloads[ServeMixed.name] = ServeMixed()
    return workloads


def _end_to_end(outcome: Dict[str, Any]) -> Dict[str, float]:
    attempted = outcome["attempted"]
    return {
        "setup_s": median(outcome["setup"]),
        "latency_ms": outcome["latency_ms"],
        "ios": outcome["ios"],
        "passes": outcome["passes"],
        "disk_bytes_per_edge": outcome["bytes_per_edge"],
        "peak_rss_mb": outcome["peak_rss_mb"],
        "success_frac": (attempted - outcome["failed"]) / attempted,
    }


def _per_layer(outcome: Dict[str, Any]) -> Dict[str, float]:
    layers = dict(outcome["layers"])
    layers["graph.generate_s"] = median(outcome["generate"])
    layers["graph.load_s"] = median(outcome["load"])
    return layers


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(f"error: no program source at {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, SOURCE)
    workloads = _workloads()
    workload = workloads.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {', '.join(sorted(workloads))}", file=sys.stderr)
        return 2

    traced = bool(args.trace)
    specs = _metric_specs("per_layer" if traced else "end_to_end")
    try:
        outcome = workload.run(args.seed, args.seconds, traced)
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print("host: " + json.dumps(outcome["host"], sort_keys=True))

    values = _per_layer(outcome) if traced else _end_to_end(outcome)
    unknown = set(values) - {spec["name"] for spec in specs}
    if unknown:
        print(f"error: metrics missing from BENCHMARK.json: {sorted(unknown)}",
              file=sys.stderr)
        return 1
    metrics = {}
    for spec in specs:
        # A layer the workload never enters reports zero work.
        value = values.get(spec["name"], 0.0) if traced else values[spec["name"]]
        metrics[spec["name"]] = {"value": float(value), "unit": spec["unit"]}
    if traced:
        path = os.path.join(
            OUT_DIR, "traces", f"{args.workload}-{args.seed}.jsonl"
        )
        write_trace(path, [{"host": outcome["host"]}] + outcome["trace"])
        print(f"trace: {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except Exception:  # a crash must exit non-zero without a result line
        traceback.print_exc()
        sys.exit(1)
