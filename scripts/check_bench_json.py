#!/usr/bin/env python3
"""Validate BENCH_*.json artifacts emitted by the bench binaries.

Every bench that writes a JSON artifact gets a schema here: the set of
required keys (dotted paths for nested objects) plus a per-key predicate.
On top of the schemas, every number anywhere in every file is rejected if
it is NaN or infinite — a NaN latency or speedup means the bench divided
by a zero timer and the artifact is garbage.

Usage:
    python3 scripts/check_bench_json.py [FILE_OR_DIR ...]

With no arguments, scans the current directory for BENCH_*.json. A
directory argument is scanned the same way; a file argument is validated
directly (and must have a schema). Exits non-zero on the first category
of failure: missing file schema, missing key, predicate violation, or
non-finite number.
"""

import json
import math
import sys
from pathlib import Path


def positive(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) and v > 0


def non_negative(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) and v >= 0


def zero(v):
    return v == 0 and not isinstance(v, bool)


def boolean(v):
    return isinstance(v, bool)


def non_empty_string(v):
    return isinstance(v, str) and len(v) > 0


# filename -> {dotted key path -> predicate}. Every listed key must be
# present and satisfy its predicate.
SCHEMAS = {
    "BENCH_server.json": {
        "clients": positive,
        "inserts": positive,
        "inserts_per_sec": positive,
        "insert_latency_us.p50": positive,
        "insert_latency_us.p90": positive,
        "insert_latency_us.p99": positive,
        "drift_check_latency_us.p50": positive,
        "drift_check_latency_us.p90": positive,
        "drift_check_latency_us.p99": positive,
    },
    "BENCH_mutation.json": {
        "rows_small": positive,
        "rows_large": positive,
        "per_delete_us_small": positive,
        "per_delete_us_large": positive,
        "per_delete_cost_ratio_4x": positive,
        "sql_deletes_per_sec": positive,
        "sql_updates_per_sec": positive,
        "compaction_ms": non_negative,
        "identity_gate_failures": zero,
    },
    "BENCH_kernels.json": {
        "tuples": positive,
        "tiers_tested": positive,
        "baseline.dense_ns_per_tuple": positive,
        "best_tier.name": non_empty_string,
        "best_tier.dense_ns_per_tuple": positive,
        "best_tier.dense_speedup": positive,
        "fused_chain_ms": positive,
        "per_level_chain_ms": positive,
        "fused_speedup": positive,
        "identity_gate_failures": zero,
        "fast": boolean,
    },
    "BENCH_parallel.json": {
        "cores": positive,
        "repair_search.ms_t1": positive,
        "repair_search.ms_t4": positive,
        "repair_search.speedup_t4": positive,
        "eb_ranking.ms_t1": positive,
        "eb_ranking.ms_t4": positive,
        "eb_ranking.speedup_t4": positive,
        "determinism_failures": zero,
        "fast": boolean,
    },
    "BENCH_planner.json": {
        "rows_small": positive,
        "rows_mid": positive,
        "rows_large": positive,
        "small.candidates_fixed": positive,
        "small.candidates_planned": positive,
        "small.pruned_by_bound": positive,
        "small.first_repair_ms_fixed": positive,
        "small.first_repair_ms_planned": positive,
        "mid.candidates_fixed": positive,
        "mid.candidates_planned": positive,
        "mid.pruned_by_bound": positive,
        "large.candidates_fixed": positive,
        "large.candidates_planned": positive,
        "large.pruned_by_bound": positive,
        "large.first_repair_ms_fixed": positive,
        "large.first_repair_ms_planned": positive,
        "candidate_reduction": positive,
        "budget_cost_ms": positive,
        "budget_spent_ms": non_negative,
        "identity_gate_failures": zero,
        "fast": boolean,
    },
    "BENCH_sampled.json": {
        "rows_small": positive,
        "rows_large": positive,
        "sample_capacity": positive,
        "exact_check_ms_small": positive,
        "sampled_check_ms_small": positive,
        "exact_check_ms_large": positive,
        "sampled_check_ms_large": positive,
        "large_check_speedup": positive,
        "interval_width_k64": non_negative,
        "interval_width_k256": non_negative,
        "interval_width_k1024": non_negative,
        "interval_width_k4096": non_negative,
        "identity_gate_failures": zero,
        "fast": boolean,
    },
}


def lookup(doc, dotted):
    node = doc
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None, False
        node = node[part]
    return node, True


def find_non_finite(node, path=""):
    """Yield dotted paths of every NaN/inf number anywhere in the doc."""
    if isinstance(node, float) and not math.isfinite(node):
        yield path or "<root>"
    elif isinstance(node, dict):
        for k, v in node.items():
            yield from find_non_finite(v, f"{path}.{k}" if path else k)
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from find_non_finite(v, f"{path}[{i}]")


def check_file(path):
    errors = []
    schema = SCHEMAS.get(path.name)
    if schema is None:
        return [f"{path}: no schema registered in check_bench_json.py — "
                f"add one for every new bench artifact"]
    try:
        # Python's json module parses bare NaN/Infinity by default; keep
        # that so find_non_finite can report them instead of a parse error.
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        return [f"{path}: unreadable or invalid JSON: {e}"]
    for dotted in sorted(find_non_finite(doc)):
        errors.append(f"{path}: {dotted} is NaN or infinite")
    for dotted, pred in schema.items():
        value, present = lookup(doc, dotted)
        if not present:
            errors.append(f"{path}: missing required key {dotted}")
        elif not pred(value):
            errors.append(
                f"{path}: {dotted}={value!r} fails {pred.__name__}")
    return errors


def collect(args):
    if not args:
        args = ["."]
    files = []
    for arg in args:
        p = Path(arg)
        if p.is_dir():
            files.extend(sorted(p.glob("BENCH_*.json")))
        else:
            files.append(p)
    return files


def main(argv):
    files = collect(argv[1:])
    if not files:
        print("check_bench_json: no BENCH_*.json files found", file=sys.stderr)
        return 1
    failures = 0
    for path in files:
        errors = check_file(path)
        if errors:
            failures += 1
            for e in errors:
                print(f"FAIL {e}", file=sys.stderr)
        else:
            print(f"ok   {path}")
    if failures:
        print(f"check_bench_json: {failures}/{len(files)} artifacts invalid",
              file=sys.stderr)
        return 1
    print(f"check_bench_json: {len(files)} artifacts valid")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
