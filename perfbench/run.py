#!/usr/bin/env python3
"""The repository's benchmark: one command, four arguments, one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The first call compiles the program and
the harness (perfbench/build.py); later calls reuse the classes. It then
starts one JVM with a pinned heap that runs the workload as a closed loop of
one client (Spark local[nproc], engine parallelism = nproc), checks every
job's answer against a reference computed on another path, and prints as its
last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json for --trace 0 and the
per-layer ones for --trace 1. End-to-end times are scaled to a reference
host speed measured in the same run (see "host_speed" in metrics.json). Each run also leaves a full record (provenance,
per-job times, exact counts) under .bench_build/perfbench/runs/ and, when
traced, its spans under .bench_build/perfbench/traces/. Metric meanings are
in perfbench/metrics.json.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import build  # noqa: E402

HEAP = "2g"          # pinned: the build's default -Xmx48g exceeds small hosts
TIMEOUT_S = 170      # a run must end within 180 s
JAVA_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def git_sha():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def jvm_command(classpath, args, extra):
    out = os.path.abspath(build.out_dir())
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return ([build.java_bin(), f"-Xms{HEAP}", f"-Xmx{HEAP}", f"-Djava.io.tmpdir={tmp}",
             f"-Dlog4j2.configurationFile={os.path.join(HERE, 'log4j2.properties')}"]
            + [f"--add-opens={p}=ALL-UNNAMED" for p in JAVA_OPENS]
            + ["-cp", ":".join(classpath), "repro.perfbench.PerfBench",
               "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", out,
               "--git-sha", git_sha(), "--source-digest", build.source_digest()] + extra)


def run_jvm(cmd):
    """Runs the JVM, relays its output and returns (exit code, last stdout line)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        stdout, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"[perfbench] run exceeded {TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 3, ""
    lines = stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    return proc.returncode, (lines[-1] if lines else "")


def main():
    ap = argparse.ArgumentParser(description="Run one benchmark workload.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # self-test hook: corrupt every answer before the gate checks it
    ap.add_argument("--corrupt-answers", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    try:
        spec = load_spec()
        classpath = build.ensure_built()
    except (OSError, ValueError, build.BuildError) as e:
        print(f"[perfbench] cannot run: {e}", file=sys.stderr)
        return 2

    code, last = run_jvm(jvm_command(classpath, args, ["--corrupt-answers"] if args.corrupt_answers else []))
    if code != 0:
        print(f"[perfbench] benchmark JVM exited with code {code}", file=sys.stderr)
        return code
    rec = json.loads(last)
    want = spec["per_layer" if args.trace else "end_to_end"]
    got = rec["metrics"]
    bad = [m["name"] for m in want if m["name"] not in got or got[m["name"]]["unit"] != m["unit"]]
    extra = sorted(set(got) - {m["name"] for m in want})
    if bad or extra:
        print(f"[perfbench] metrics disagree with BENCHMARK.json: missing/unit {bad}, extra {extra}",
              file=sys.stderr)
        return 4
    print(json.dumps({"correct": rec["correct"], "attempted": rec["attempted"], "failed": rec["failed"],
                      "metrics": {m["name"]: got[m["name"]] for m in want}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
