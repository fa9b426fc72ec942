#!/usr/bin/env python3
"""fdbench entry point: builds the benchmark from source, then runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload ingest_churn|analyst_mixed|repair_search \
        --seed N --seconds S --trace 0|1 [--runs K]

The first call configures and builds perfbench/ (which pulls in the
repository's src/ through its CMakeLists) into .bench_build/ — or into
$CARGO_TARGET_DIR when that is set — and later calls rebuild
incrementally. Build output goes to stderr. The program's stdout is passed
through unchanged: a REPORT line with every metric, run metadata and gates,
and as the last line the result object
{"correct", "attempted", "failed", "metrics"}.

Exit status: 0 when every correctness gate passed and no operation failed;
non-zero (and no result line) when the sources are missing, the build
fails, or the run does not finish within its time limit.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ingest_churn", "analyst_mixed", "repair_search")
DEFAULT_SEED = 1
# Expected repair-suite fingerprint of repair_search at DEFAULT_SEED.
EXPECTED_REPAIRS = os.path.join(HERE, "expected", "repair_search_seed1.txt")
RUN_TIMEOUT_S = 170
# glibc raises its mmap threshold after large frees, after which freed
# query buffers stay in per-thread arenas and peak RSS depends on how the
# readers' allocations happened to interleave. A fixed threshold returns
# large buffers to the OS on free, so peak_rss_mb tracks live memory.
CHILD_ENV = {"MALLOC_MMAP_THRESHOLD_": str(1 << 20)}


def fail(message):
    print("fdbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the repository sources (CMakeLists.txt, src/) are missing; "
             "nothing to build")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(tool + " not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", out_dir,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    compile_cmd = ["cmake", "--build", out_dir, "--target", "fdbench",
                   "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(out_dir, "fdbench")


def git_commit():
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return p.stdout.strip() if p.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes (the gates still run)")
    ap.add_argument("--runs", type=int, default=1,
                    help="repeat the run with seeds seed..seed+runs-1 and "
                         "summarize every metric across them (median, "
                         "quartiles, min/max, count)")
    ap.add_argument("--drop-journal-line", type=int, default=-1,
                    help="skip this journal line in the replay (identity-"
                         "gate self test; the run must then fail)")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")
    if args.runs < 1:
        fail("--runs must be >= 1")

    binary = build(build_dir())
    commit = git_commit()
    if args.runs == 1:
        code, _ = run_once(binary, args, args.seed, commit, capture=False)
        sys.exit(code)
    results = []
    worst = 0
    for i in range(args.runs):
        code, last = run_once(binary, args, args.seed + i, commit,
                              capture=True)
        worst = worst or code
        results.append(json.loads(last))
    print(summarize(results))
    sys.exit(worst)


def run_once(binary, args, seed, commit, capture):
    """Runs fdbench once; returns (exit code, last stdout line)."""
    work_dir = os.path.join(os.path.dirname(binary),
                            "run-%s-%d" % (args.workload, os.getpid()))
    cmd = [binary, "--workload", args.workload, "--seed", str(seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--commit", commit]
    if args.tiny:
        cmd.append("--tiny")
    if args.drop_journal_line >= 0:
        cmd += ["--drop-journal-line", str(args.drop_journal_line)]
    if (args.workload == "repair_search" and seed == DEFAULT_SEED
            and not args.tiny):
        cmd += ["--expected", EXPECTED_REPAIRS]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=dict(os.environ, **CHILD_ENV),
                            stdout=subprocess.PIPE if capture else None,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        shutil.rmtree(work_dir, ignore_errors=True)
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    spans = os.path.join(work_dir, "spans.jsonl")
    if os.path.isfile(spans):
        # Keep the traced run's spans beside the build; drop the snapshots.
        os.replace(spans, os.path.join(
            os.path.dirname(binary),
            "spans-%s-seed%d.jsonl" % (args.workload, seed)))
    shutil.rmtree(work_dir, ignore_errors=True)
    if not capture:
        return proc.returncode, None
    lines = out.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if not lines:
        fail("run printed no result (exit %d)" % proc.returncode)
    return proc.returncode, lines[-1]


def summarize(results):
    """SUMMARY line across runs, then the result object of their medians."""
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / median if median else None,
            "min": min(values), "max": max(values), "n": len(values)}
    combined = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {name: {"value": s["median"], "unit": s["unit"]}
                    for name, s in summary.items()}}
    return "SUMMARY " + json.dumps(summary) + "\n" + json.dumps(combined)


if __name__ == "__main__":
    main()
