#!/usr/bin/env python3
"""Bench-trajectory tripwire: the one gate per bench metric.

Two kinds of check run on every freshly generated ``BENCH_*.json``:

* **Absolute gates** (``GATES``): fixed floors and ceilings — the
  thresholds each bench binary also asserts in-process — checked on the
  fresh document alone, so they hold even when no baseline is
  committed.
* **Drift bands** (``SPECS``): a floor only catches a collapse, and a
  slow drift sails under it one change at a time. Headline metrics are
  diffed against the baselines committed at the repo root and fail
  when they move past their tolerance band in the regressing
  direction. Improvements beyond the band are reported (so the
  baseline gets refreshed) but do not fail.

Documents are parsed as strict JSON (RFC 8259): a bare ``NaN`` or
``Infinity`` constant fails the load instead of slipping through.

Usage:
    bench_tripwire.py FRESH.json [FRESH2.json ...]   # explicit files
    bench_tripwire.py --check [--fresh-dir DIR]      # scan a directory

A fresh file is matched to its committed baseline by name, with any
``_N`` run suffix stripped (``BENCH_hotpath_2.json`` compares against
``BENCH_hotpath.json``). Benches without a spec below are skipped with
a note, and so are drift bands whose baseline document is absent —
each CI job can point the tripwire at only the bench it just ran.
Exits nonzero if any gate failed or any compared metric regressed, or
if --check found nothing to check.

Host-timing-dependent values (wall-clock nanoseconds, drill landing
cycles) are deliberately not spec'd; everything below is virtual-time
or a ratio of virtual-time quantities, so the bands can be tight
without flaking on a noisy runner.
"""

import argparse
import json
import os
import re
import sys

# Absolute gates: (json-path, op, threshold[, min occurrences]).
# A plain path walks nested objects. A path starting with "**/" names
# every occurrence of the key anywhere in the document (arrays
# included): each occurrence must pass, except under the "any" op,
# where one equal occurrence suffices; and there must be at least
# `min occurrences` of them (default 1). Booleans compare as 1/0.
GATES = {
    # One occurrence per worker point of the serve_bench sweep.
    "BENCH_runtime.json": [
        ("**/failed", "==", 0, 4),
        ("**/dead_lettered", "==", 0, 4),
        ("**/ipi_dropped", "==", 0, 4),
    ],
    "BENCH_hotpath.json": [
        ("tuned_cycles_per_call_4_workers", "<=", 2460.0),
    ],
    "BENCH_gateway.json": [
        ("pipelined_vs_blocking/pipelined_vs_blocking_x", ">=", 2.0),
        ("**/lost_verdicts", "==", 0),
        ("**/duplicated_verdicts", "==", 0),
    ],
    "BENCH_scale.json": [
        ("summary/p99_flatness_ratio", "<=", 1.5),
        ("**/resident_bound_ok", "==", True),
    ],
    "BENCH_faults.json": [
        ("**/lost_verdicts", "==", 0),
        ("**/duplicated_verdicts", "==", 0),
    ],
    "BENCH_authz.json": [
        ("**/policy_bypasses", "==", 0),
        ("**/lost_verdicts", "==", 0),
        ("**/within_one_batch", "==", True),
    ],
    "BENCH_feedback.json": [
        ("improvement_pct_feedback_vs_adaptive", ">", 0.0),
        ("**/reconverged_all_phases", "==", True, 3),
    ],
    "BENCH_slo.json": [
        ("**/watchdog_on_exact", "==", True),
        ("**/detect_epochs", "<=", 6, 2),
        ("**/top_contributor", "any", "transition", 2),
    ],
}

# Drift bands: (json-path, absolute tolerance, higher_is_better).
# The path walks nested objects; arrays are not traversed.
SPECS = {
    "BENCH_hotpath.json": [
        ("tuned_cycles_per_call_4_workers", 700.0, False),
    ],
    "BENCH_switchless.json": [
        ("improvement_pct_skewed_adaptive", 8.0, True),
        ("uniform_delta_pct", 8.0, False),
    ],
    "BENCH_faults.json": [
        ("degraded_mode/overhead_pct", 5.0, False),
        ("chaos_summary/mean_recovery_cycles", 2500.0, False),
        ("chaos_summary/lost_verdicts", 0.0, False),
        ("chaos_summary/duplicated_verdicts", 0.0, False),
    ],
    "BENCH_gateway.json": [
        ("pipelined_vs_blocking/pipelined_vs_blocking_x", 0.4, True),
        ("pipelined_vs_blocking/lost_verdicts", 0.0, False),
        ("pipelined_vs_blocking/duplicated_verdicts", 0.0, False),
    ],
    "BENCH_scale.json": [
        # Ratio of host-ns percentiles: noisier than virtual time, so
        # the band is wide; the binary's own 1.5x assert is the floor.
        ("summary/p99_flatness_ratio", 0.35, False),
        ("summary/resident_bound_ok", 0.0, True),
    ],
    "BENCH_authz.json": [
        ("adversary_summary/policy_bypasses", 0.0, False),
        ("adversary_summary/lost_verdicts", 0.0, False),
        ("revocation/completions_after_witness", 8.0, False),
    ],
    "BENCH_slo.json": [
        ("fault_burst/detect_epochs", 2.0, False),
        ("degrade_shift/detect_epochs", 2.0, False),
    ],
    "BENCH_feedback.json": [
        # 4 workers: thread interleaving moves this ~2 points run to run.
        ("improvement_pct_feedback_vs_adaptive", 3.0, True),
    ],
}

OPS = {
    ">=": lambda v, t: v >= t,
    ">": lambda v, t: v > t,
    "<=": lambda v, t: v <= t,
    "==": lambda v, t: v == t,
    "any": lambda v, t: v == t,
}


def passes(op, value, threshold):
    """A value of the wrong type (a string or null where a number is
    gated) fails instead of raising."""
    try:
        return OPS[op](value, threshold)
    except TypeError:
        return False


def reject_constant(name):
    raise ValueError(f"non-JSON constant {name} (RFC 8259 has no NaN/Infinity)")


def load(path):
    with open(path) as f:
        return json.load(f, parse_constant=reject_constant)


def find_all(node, key):
    """Every value stored under `key`, anywhere in the document."""
    if isinstance(node, dict):
        for k, v in node.items():
            if k == key:
                yield v
            yield from find_all(v, key)
    elif isinstance(node, list):
        for v in node:
            yield from find_all(v, key)


def scalar(value):
    """Numbers and booleans compare as floats, strings as themselves."""
    if isinstance(value, bool) or isinstance(value, (int, float)):
        return float(value)
    return value


def check_gates(name, fresh):
    """Returns (checked, failures) for the absolute gates of one document."""
    checked = failures = 0
    for gate in GATES.get(name, []):
        path, op, threshold = gate[:3]
        min_count = gate[3] if len(gate) > 3 else 1
        if path.startswith("**/"):
            values = [scalar(v) for v in find_all(fresh, path[3:])]
        else:
            v = lookup_raw(fresh, path)
            values = [] if v is None else [scalar(v)]
        want = scalar(threshold)
        if len(values) < min_count:
            ok = False
            detail = f"{len(values)} occurrence(s), need {min_count}"
        elif op == "any":
            ok = any(passes(op, v, want) for v in values)
            detail = f"values {values}"
        else:
            ok = all(passes(op, v, want) for v in values)
            detail = f"values {values}" if len(values) > 1 else f"value {values[0]}"
        checked += 1
        print(
            f"  {'  ok' if ok else 'FAIL'} {name}:{path} {op} {threshold!r} "
            f"(gate; {detail})"
        )
        if not ok:
            failures += 1
    return checked, failures


def lookup_raw(doc, path):
    node = doc
    for part in path.split("/"):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def lookup(doc, path):
    node = lookup_raw(doc, path)
    if isinstance(node, bool) or isinstance(node, (int, float)):
        return float(node)
    return None


def canonical(path):
    """BENCH_hotpath_2.json -> BENCH_hotpath.json"""
    return re.sub(r"_\d+\.json$", ".json", os.path.basename(path))


def compare(fresh_path, baseline_dir):
    """Returns (checked, failures) counts for one fresh document."""
    name = canonical(fresh_path)
    if name not in SPECS and name not in GATES:
        print(f"  skip {fresh_path}: no tripwire spec for {name}")
        return 0, 0
    try:
        fresh = load(fresh_path)
    except ValueError as e:
        print(f"  FAIL {fresh_path}: not strict JSON: {e}")
        return 0, 1
    compared, regressions = check_gates(name, fresh)
    spec = SPECS.get(name, [])
    baseline_path = os.path.join(baseline_dir, name)
    if spec and not os.path.exists(baseline_path):
        print(f"  skip {fresh_path} drift bands: no committed baseline {baseline_path}")
        return compared, regressions
    baseline = load(baseline_path) if spec else None

    for path, tol, higher_is_better in spec:
        base_v = lookup(baseline, path)
        fresh_v = lookup(fresh, path)
        if base_v is None:
            print(f"  skip {name}:{path}: key missing from baseline")
            continue
        if fresh_v is None:
            print(f"  FAIL {name}:{path}: key missing from fresh run")
            regressions += 1
            continue
        compared += 1
        delta = fresh_v - base_v
        regressed = delta < -tol if higher_is_better else delta > tol
        improved = delta > tol if higher_is_better else delta < -tol
        arrow = "REGRESSED" if regressed else "improved" if improved else "ok"
        print(
            f"  {'FAIL' if regressed else '  ok'} {name}:{path}: "
            f"{base_v:g} -> {fresh_v:g} (tol ±{tol:g}, {arrow})"
        )
        if regressed:
            regressions += 1
    return compared, regressions


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("fresh", nargs="*", help="fresh BENCH_*.json documents")
    ap.add_argument(
        "--check",
        action="store_true",
        help="scan --fresh-dir for BENCH_*.json instead of naming files",
    )
    ap.add_argument("--fresh-dir", default="/tmp", help="directory --check scans")
    ap.add_argument(
        "--baseline-dir",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="directory holding the committed baselines (default: repo root)",
    )
    args = ap.parse_args()

    fresh = list(args.fresh)
    if args.check:
        fresh += sorted(
            os.path.join(args.fresh_dir, f)
            for f in os.listdir(args.fresh_dir)
            if re.fullmatch(r"BENCH_\w+\.json", f)
        )
    if not fresh:
        ap.error("name fresh documents or pass --check")

    total = failures = 0
    print(f"bench tripwire (baselines: {args.baseline_dir})")
    for path in fresh:
        compared, regressions = compare(path, args.baseline_dir)
        total += compared
        failures += regressions
    if failures:
        print(f"tripwire: {failures} check(s) failed")
        return 1
    if total == 0:
        print("tripwire: nothing checked — no spec'd bench documents found")
        return 1
    print(f"tripwire: {total} check(s) passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
