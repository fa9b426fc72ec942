#!/usr/bin/env python3
"""End-to-end smoke test for `fdevolve_cli monitor` checkpoint/resume.

Writes a deterministic 20,000-row CSV in which `a -> c` starts breaking
after row 5,000 and `a -> b` after row 12,000. For the exact monitor and
for a sampled one (--sample=500 --seed=3), at --check-interval=1000, it
runs the stream uninterrupted, then stopped with --stop-after=7000
--snapshot=F, then continued with --resume=F: the drift lines of the last
two runs together must equal the first run's, and the resumed run's
summary (from "Drift events:" on) must equal the first run's. It also
checks that --resume rejects flags the checkpoint fixes (exit 2),
refuses a truncated checkpoint or a CSV whose prefix differs (exit 1),
and that an unknown FDEVOLVE_CPU_FEATURES name exits 2 with its message.

Usage: python3 scripts/cli_monitor_smoke.py [path-to-fdevolve_cli]
Exits non-zero on the first failed expectation.
"""

import os
import random
import subprocess
import sys
import tempfile

FDS = ["a -> b", "a -> c"]
INTERVAL = "--check-interval=1000"


def write_csv(path, perturb_row=None):
    rng = random.Random(7)
    with open(path, "w") as f:
        f.write("a:int64,b:int64,c:string\n")
        for i in range(20000):
            a = rng.randrange(500)
            b = (a * 7) % 101
            c = "s%d" % (a % 37)
            if i >= 5000 and rng.random() < 0.3:
                c = "x%d" % rng.randrange(3)
            if i >= 12000 and rng.random() < 0.3:
                b += 1 + rng.randrange(3)
            if i == perturb_row:
                b += 1000
            f.write("%d,%d,%s\n" % (a, b, c))


def run(cli, args, expect_code=0):
    proc = subprocess.run([cli, "monitor"] + args, capture_output=True,
                          text=True, timeout=120)
    if proc.returncode != expect_code:
        sys.exit("FAIL: monitor %s exited %d, expected %d\n%s%s" %
                 (" ".join(args), proc.returncode, expect_code, proc.stdout,
                  proc.stderr))
    return proc.stdout.splitlines()


def drift(lines):
    return [l for l in lines if l.startswith("drift @ ")]


def summary(lines):
    starts = [i for i, l in enumerate(lines) if l.startswith("Drift events:")]
    if not starts:
        sys.exit("FAIL: no 'Drift events:' line in:\n" + "\n".join(lines))
    return lines[starts[0]:]


def check_resume_identity(cli, csv, ckpt, mode_args, label):
    full = run(cli, [csv] + FDS + [INTERVAL] + mode_args)
    first = run(cli, [csv] + FDS + [INTERVAL] + mode_args +
                ["--stop-after=7000", "--snapshot=" + ckpt])
    second = run(cli, [csv, "--resume=" + ckpt])
    if not drift(first) or not drift(second):
        sys.exit("FAIL (%s): expected drift before and after the stop" % label)
    if drift(first) + drift(second) != drift(full):
        sys.exit("FAIL (%s): stopped + resumed drift lines differ\nfull:\n%s"
                 "\nstopped + resumed:\n%s" %
                 (label, "\n".join(drift(full)),
                  "\n".join(drift(first) + drift(second))))
    if summary(second) != summary(full):
        sys.exit("FAIL (%s): resumed summary differs\nfull:\n%s\nresumed:\n%s"
                 % (label, "\n".join(summary(full)),
                    "\n".join(summary(second))))
    print("ok: %s stop/resume matches the uninterrupted run" % label)


def main():
    cli = sys.argv[1] if len(sys.argv) > 1 else "build/examples/fdevolve_cli"
    with tempfile.TemporaryDirectory() as tmp:
        csv = os.path.join(tmp, "stream.csv")
        write_csv(csv)
        exact = os.path.join(tmp, "exact.fdev")
        sampled = os.path.join(tmp, "sampled.fdev")
        check_resume_identity(cli, csv, exact, [], "exact")
        check_resume_identity(cli, csv, sampled,
                              ["--sample=500", "--seed=3"], "sampled")

        for extra in (["a -> b"], [INTERVAL], ["--sample=500"]):
            run(cli, [csv, "--resume=" + exact] + extra, expect_code=2)
        print("ok: --resume rejects FDs, --check-interval and --sample")

        other = os.path.join(tmp, "other.csv")
        write_csv(other, perturb_row=100)
        for ckpt in (exact, sampled):
            with open(ckpt, "rb") as f:
                data = f.read()
            with open(ckpt + ".half", "wb") as f:
                f.write(data[:len(data) // 2])
            run(cli, [csv, "--resume=" + ckpt + ".half"], expect_code=1)
            run(cli, [other, "--resume=" + ckpt], expect_code=1)
        print("ok: truncated checkpoints and differing prefixes are refused")

        bad = subprocess.run([cli, "monitor", csv] + FDS, capture_output=True,
                             text=True, timeout=120,
                             env=dict(os.environ,
                                      FDEVOLVE_CPU_FEATURES="bogus"))
        if (bad.returncode != 2 or
                "FDEVOLVE_CPU_FEATURES: unknown tier 'bogus'" not in bad.stderr):
            sys.exit("FAIL: unknown FDEVOLVE_CPU_FEATURES exited %d, expected 2"
                     " with its message\n%s%s" %
                     (bad.returncode, bad.stdout, bad.stderr))
        print("ok: an unknown FDEVOLVE_CPU_FEATURES name exits 2")
    print("cli monitor smoke: all checks passed")


if __name__ == "__main__":
    main()
