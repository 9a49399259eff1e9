#!/usr/bin/env python3
"""Validate a BENCH_<experiment>.json artifact against the psp-bench/1 schema.

Usage: python3 .github/bench-schema.py BENCH_t3.json

Exits non-zero (and prints every violation) when the artifact is
malformed.  The kernels artifact (experiment "kernels") registers no
runs: its rows are the metrics' "kernel_us.<kernel>" gauges, and at
least one of them must be a positive, finite number of microseconds.  Kept as a plain-stdlib script so CI needs no extra
dependencies; the JSON itself is produced by Harness.write_bench and
documented in docs/OBSERVABILITY.md §5.
"""

import json
import math
import sys

LATENCY_KEYS = ("mean", "p50", "p95", "p99", "min", "max")

RUN_INT_KEYS = (
    "queries",
    "correct",
    "fetches_per_query",
    "retries",
    "unavailable",
    "executed_slot_touches",
    "level_scans",
    "rewritten_slots",
)


def fail(errors):
    for e in errors:
        print(f"bench-schema: {e}", file=sys.stderr)
    sys.exit(1)


def is_num(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def check_run(i, run, errors):
    where = f"runs[{i}]"
    if not isinstance(run, dict):
        errors.append(f"{where}: not an object")
        return
    label = run.get("label")
    if not isinstance(label, str) or ":" not in label:
        errors.append(f"{where}.label: expected 'SCHEME:network' string, got {label!r}")
    for k in RUN_INT_KEYS:
        if not isinstance(run.get(k), int) or isinstance(run.get(k), bool):
            errors.append(f"{where}.{k}: expected integer, got {run.get(k)!r}")
    if not is_num(run.get("throughput_qps")) or run.get("throughput_qps", -1) < 0:
        errors.append(f"{where}.throughput_qps: expected non-negative number")
    if not is_num(run.get("recovery_seconds")):
        errors.append(f"{where}.recovery_seconds: expected number")
    lat = run.get("latency_seconds")
    if not isinstance(lat, dict):
        errors.append(f"{where}.latency_seconds: expected object")
    else:
        for k in LATENCY_KEYS:
            if not is_num(lat.get(k)):
                errors.append(f"{where}.latency_seconds.{k}: expected number")
        if all(is_num(lat.get(k)) for k in ("min", "p50", "max")):
            if not (lat["min"] <= lat["p50"] <= lat["max"]):
                errors.append(f"{where}.latency_seconds: min <= p50 <= max violated")
    if isinstance(run.get("queries"), int) and isinstance(run.get("correct"), int):
        if run["correct"] > run["queries"]:
            errors.append(f"{where}: correct ({run['correct']}) > queries ({run['queries']})")


def check_kernels(metrics, errors):
    gauges = metrics.get("gauges") if isinstance(metrics, dict) else None
    if not isinstance(gauges, dict):
        errors.append("metrics.gauges: expected object holding the kernel_us.* rows")
        return
    rows = {k: v for k, v in gauges.items() if k.startswith("kernel_us.")}
    for k, v in sorted(rows.items()):
        # a failed estimate is written as the string "nan"
        if not is_num(v):
            errors.append(f"metrics.gauges.{k}: expected number, got {v!r}")
    if not any(is_num(v) and 0 < v < math.inf for v in rows.values()):
        errors.append("metrics.gauges: expected at least one positive, finite kernel_us.* row")


def check(doc):
    errors = []
    if doc.get("schema") != "psp-bench/1":
        errors.append(f"schema: expected 'psp-bench/1', got {doc.get('schema')!r}")
    if not isinstance(doc.get("experiment"), str):
        errors.append("experiment: expected string")
    # scale is a down-scaling divisor and may be fractional
    if not is_num(doc.get("scale")) or doc.get("scale", 0) <= 0:
        errors.append(f"scale: expected positive number, got {doc.get('scale')!r}")
    for k in ("queries_per_workload", "seed", "page_size"):
        if not isinstance(doc.get(k), int) or isinstance(doc.get(k), bool):
            errors.append(f"{k}: expected integer, got {doc.get(k)!r}")
    runs = doc.get("runs")
    kernels = doc.get("experiment") == "kernels"
    if kernels:
        if runs != []:
            errors.append("runs: expected an empty array for the kernels experiment")
    elif not isinstance(runs, list) or not runs:
        errors.append("runs: expected non-empty array")
    else:
        for i, run in enumerate(runs):
            check_run(i, run, errors)
    metrics = doc.get("metrics")
    if kernels:
        check_kernels(metrics, errors)
    if not isinstance(metrics, dict):
        errors.append("metrics: expected object (Obs.to_json snapshot)")
    else:
        for k in ("counters", "histograms", "spans"):
            if k not in metrics:
                errors.append(f"metrics.{k}: missing")
    return errors


def main():
    if len(sys.argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        sys.exit(2)
    path = sys.argv[1]
    try:
        with open(path, "rb") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        fail([f"{path}: {e}"])
    errors = check(doc)
    if errors:
        fail(errors)
    if doc["experiment"] == "kernels":
        rows = [k for k in doc["metrics"]["gauges"] if k.startswith("kernel_us.")]
        what = f"{len(rows)} kernel row(s)"
    else:
        what = f"{len(doc['runs'])} run(s)"
    print(f"bench-schema: {path} ok ({what}, "
          f"experiment {doc['experiment']}, scale {doc['scale']})")


if __name__ == "__main__":
    main()
