#!/usr/bin/env python3
"""Determinism smoke test for perf.exe (run by `dune runtest`).

Usage: python3 smoke.py PERF_EXE BENCHMARK_JSON

Runs every workload of BENCHMARK.json at --scale 32 with a handful of
queries: once untraced and twice traced, each in a scratch directory.
Asserts that

  * the printed metric names and units equal BENCHMARK.json's
    end_to_end (untraced) and per_layer (traced) lists, in order;
  * the modeled metrics, the executed-work counts and the error counts
    are bit-identical across the two traced runs;
  * the fault-free workloads report no error at all.
"""

import json
import os
import subprocess
import sys
import tempfile

QUERIES = "8"
FAULT_FREE = {"ci-w1", "pi-w8", "serve-burst"}


def run(exe, workload, trace):
    with tempfile.TemporaryDirectory() as cwd:
        out = subprocess.run(
            [exe, "--workload", workload, "--seed", "3", "--seconds", "0.5",
             "--trace", trace, "--scale", "32", "--queries", QUERIES],
            cwd=cwd, capture_output=True, text=True, check=False)
    if out.returncode != 0:
        sys.exit(f"{workload} --trace {trace}: exit {out.returncode}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    printed = [tuple(line.split()[0::2]) for line in lines[:-1] if not line.startswith("#")]
    return result, printed


def deterministic(name, unit):
    # measured times and the GC's schedule vary; plan-derived work and
    # the cost model do not
    return name.startswith("model.") or name == "pir.replay_waste_frac" or (
        unit == "count" and not name.startswith("gc."))


def main():
    exe = os.path.abspath(sys.argv[1])
    with open(sys.argv[2]) as f:
        bench = json.load(f)
    expect = {
        "0": [(m["name"], m["unit"]) for m in bench["end_to_end"]],
        "1": [(m["name"], m["unit"]) for m in bench["per_layer"]],
    }
    for workload in (w["name"] for w in bench["workloads"]):
        results = {}
        for trace, label in (("0", "0"), ("1", "1a"), ("1", "1b")):
            result, printed = run(exe, workload, trace)
            got = [(name, m["unit"]) for name, m in result["metrics"].items()]
            for what, names in (("JSON", got), ("printed", printed)):
                if names != expect[trace]:
                    sys.exit(f"{workload} --trace {trace}: {what} metrics differ from "
                             f"BENCHMARK.json:\n{names}\n{expect[trace]}")
            if workload in FAULT_FREE and (result["failed"] or not result["correct"]):
                sys.exit(f"{workload} --trace {trace}: errors in a fault-free run: {result}")
            results[label] = result
        a, b = results["1a"], results["1b"]
        for key in ("attempted", "failed", "correct"):
            if a[key] != b[key]:
                sys.exit(f"{workload}: {key} differs across runs: {a[key]} vs {b[key]}")
        for name, unit in expect["1"]:
            va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
            if deterministic(name, unit) and va != vb:
                sys.exit(f"{workload}: {name} not deterministic: {va!r} vs {vb!r}")
        print(f"{workload}: ok")


if __name__ == "__main__":
    main()
