"""Benchmark entry point.

    python3 fedbench/run.py --workload amazon_spark_smc --seed 1 --seconds 5 --trace 0

Builds the program and the benchmark from source (see build.py), then runs
one workload in a single JVM with a fixed heap. The JVM prints progress lines
and, as its last line, one JSON object with `correct`, `attempted`, `failed`
and `metrics` (end-to-end metrics with `--trace 0`, per-layer metrics with
`--trace 1`). The exit code is 0 only when every output check and input
fingerprint passed.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import build

WORKLOADS = ("amazon_spark_smc", "amazon_spark_cached")
HEAP = "2g"
TIMEOUT_S = 170

# The module openings Spark's own launcher passes to a Java 17 JVM.
JAVA_MODULE_OPTS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Dio.netty.tryReflectionSetAccessible=true",
]


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return ap.parse_args()


def main() -> int:
    args = parse_args()
    try:
        classes = build.build()
        jars = build.spark_jars()
    except build.BuildError as e:
        sys.stderr.write(f"build failed: {e}\n")
        return 2

    out = build.OUT
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = (["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:-UsePerfData",
            f"-Djava.io.tmpdir={tmp}",
            f"-Dlog4j2.configurationFile={build.BENCH_DIR / 'log4j2.properties'}"]
           + JAVA_MODULE_OPTS
           + ["-cp", f"{classes}{os.pathsep}{jars / '*'}", "fedbench.Main",
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace),
              "--out", str(out), "--fingerprints", str(build.BENCH_DIR / "fingerprints.tsv")])
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    timer = threading.Timer(TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
    timer.start()
    last = ""
    try:
        for line in proc.stdout:
            sys.stdout.write(line)
            sys.stdout.flush()
            last = line
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode < 0:
        sys.stderr.write(f"benchmark JVM killed (signal {-proc.returncode}); limit {TIMEOUT_S}s\n")
        return 3
    try:
        result = json.loads(last)
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(f"benchmark JVM exited {proc.returncode} without a result line\n")
        return proc.returncode or 4
    if proc.returncode != 0:
        return proc.returncode
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
