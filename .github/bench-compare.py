#!/usr/bin/env python3
"""Gate a BENCH_<experiment>.json artifact against pinned reference values.

Usage: python3 .github/bench-compare.py BENCH_t3.json [more BENCH_*.json ...]

Reads .github/bench-refs.json (schema psp-bench-refs/1) and, for every
run label pinned there under the artifact's experiment, checks that the
smoke run did not regress:

  - latency (p95 and mean) must stay within the tolerance band:
      measured <= ref * (1 + latency_rel) + latency_abs
    The band absorbs the measured client-CPU share of the response
    decomposition (milliseconds of machine noise on top of the
    deterministic simulated seconds) — anything past it is a real
    regression in the modeled schedule.
  - unavailable must not exceed the pinned count (availability gate)
  - correct must not fall below the pinned count (answer-quality gate)
  - executed_slot_touches, level_scans, rewritten_slots and
    fetches_per_query must equal the pinned integers exactly (work
    gate).  They are deterministic counts of the executed store pass,
    of its rebuilds and of the plan, so any change means the batch no
    longer reaches the store at the width it did, or the store's layout
    moved — a shift the latency band is far too loose to see.

A pinned run that is missing from the artifact is an error (a silently
dropped configuration is the regression CI exists to catch).  Runs
present in the artifact but not pinned produce a warning, not a
failure, so adding a configuration does not require touching the refs
in the same commit — pin it in the next one.

Exit codes: 0 ok, 1 regression/malformed input, 2 usage.
Plain stdlib, like the other .github gates.
"""

import json
import os
import sys

REFS_PATH = os.path.join(os.path.dirname(__file__), "bench-refs.json")

# Deterministic integer counts gated by exact equality when pinned.
EXACT = ("executed_slot_touches", "level_scans", "rewritten_slots", "fetches_per_query")


def load(path):
    try:
        with open(path, "rb") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"bench-compare: {path}: {e}", file=sys.stderr)
        sys.exit(1)


def compare(doc, refs, errors, warnings):
    experiment = doc.get("experiment")
    exp_refs = refs.get("experiments", {}).get(experiment)
    if exp_refs is None:
        errors.append(
            f"experiment {experiment!r} has no pinned references in "
            f"{os.path.basename(REFS_PATH)}; run the smoke command locally and pin it"
        )
        return
    tol = refs.get("tolerance", {})
    rel = tol.get("latency_rel", 0.25)
    abs_ = tol.get("latency_abs", 0.5)
    runs = {r.get("label"): r for r in doc.get("runs", [])}
    for label, ref in exp_refs.get("runs", {}).items():
        run = runs.pop(label, None)
        if run is None:
            errors.append(f"{experiment}: pinned run {label!r} missing from artifact")
            continue
        lat = run.get("latency_seconds", {})
        for key in ("p95", "mean"):
            if key not in ref:
                continue
            bound = ref[key] * (1.0 + rel) + abs_
            got = lat.get(key)
            if not isinstance(got, (int, float)) or got > bound:
                errors.append(
                    f"{experiment}/{label}: latency {key} {got} exceeds "
                    f"{bound:.3f} (ref {ref[key]} +{rel * 100:.0f}% +{abs_}s)"
                )
        if "unavailable" in ref and run.get("unavailable", 0) > ref["unavailable"]:
            errors.append(
                f"{experiment}/{label}: {run.get('unavailable')} unavailable "
                f"queries (pinned allows {ref['unavailable']})"
            )
        if "correct" in ref and run.get("correct", 0) < ref["correct"]:
            errors.append(
                f"{experiment}/{label}: only {run.get('correct')} correct "
                f"(pinned floor {ref['correct']})"
            )
        for key in EXACT:
            if key in ref and run.get(key) != ref[key]:
                errors.append(
                    f"{experiment}/{label}: {key} {run.get(key)} differs from "
                    f"the pinned {ref[key]} (exact gate)"
                )
    for label in runs:
        warnings.append(f"{experiment}: run {label!r} is not pinned (no gate applied)")


def main():
    if len(sys.argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        sys.exit(2)
    refs = load(REFS_PATH)
    if refs.get("schema") != "psp-bench-refs/1":
        print(
            f"bench-compare: {REFS_PATH}: expected schema psp-bench-refs/1, "
            f"got {refs.get('schema')!r}",
            file=sys.stderr,
        )
        sys.exit(1)
    errors, warnings = [], []
    for path in sys.argv[1:]:
        compare(load(path), refs, errors, warnings)
    for w in warnings:
        print(f"bench-compare: warning: {w}", file=sys.stderr)
    if errors:
        for e in errors:
            print(f"bench-compare: REGRESSION: {e}", file=sys.stderr)
        sys.exit(1)
    print(f"bench-compare: {', '.join(sys.argv[1:])} within pinned bounds")


if __name__ == "__main__":
    main()
