#!/usr/bin/env python3
"""Run one workload of the HUGE benchmark.

    python3 hugebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. It builds the benchmark with sbt
(hugebench/build.sbt compiles the program's src/main/scala together with the
benchmark's own sources) whenever those sources changed, then runs the
workload in one JVM with a fixed heap. Detail lines start with '#'; the last
line of standard output is the JSON result. Build and run outputs go to
.bench_build/ in the checkout.
"""
import argparse
import glob
import hashlib
import json
import os
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "hugebench")

# Fixed heap so that heap_peak_bytes is comparable between runs.
JVM_FLAGS = ["-Xms2g", "-Xmx2g", "-XX:+UseParallelGC", "-XX:+AlwaysPreTouch"]
# What Spark's own launcher opens on JDK 17.
ADD_OPENS = ["--add-opens=java.base/%s=ALL-UNNAMED" % p for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
    "sun.util.calendar")]

BUILD_TIMEOUT_S = 700
RUN_LIMIT_S = 175  # a run must end within 180 s


def fail(msg, code):
    print("hugebench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_files():
    roots = [os.path.join(ROOT, "src", "main", "scala"), os.path.join(HERE, "src")]
    files = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for r in roots:
        for d, _, fs in os.walk(r):
            files += [os.path.join(d, f) for f in fs]
    return sorted(files)


def source_digest():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode() + b"\0")
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def build(digest):
    """Compile with sbt unless the sources are unchanged; return the classpath."""
    cp_file = os.path.join(OUT, "classpath.txt")
    stamp_file = os.path.join(OUT, "sources.sha256")
    if os.path.exists(cp_file) and os.path.exists(stamp_file):
        with open(stamp_file) as fh:
            if fh.read().strip() == digest:
                with open(cp_file) as fh:
                    return fh.read().strip()
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    if "SPARK_HOME" not in env:
        # build.sbt takes Spark's jars from $SPARK_HOME/jars: look for a
        # Spark distribution whose bin/ directory is on PATH.
        for d in env.get("PATH", "").split(os.pathsep):
            home = os.path.dirname(os.path.realpath(d))
            if glob.glob(os.path.join(home, "jars", "spark-core_*.jar")):
                env["SPARK_HOME"] = home
                break
    log = os.path.join(OUT, "build.log")
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           "compile", "export Runtime/fullClasspath"]
    with open(log, "w") as fh:
        try:
            p = subprocess.run(cmd, cwd=HERE, env=env, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
                               text=True, timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out after %d s; see %s" % (BUILD_TIMEOUT_S, log), 3)
        fh.write(p.stdout)
    lines = [l for l in p.stdout.splitlines() if l.strip()]
    if p.returncode != 0 or not lines or "hugebench" not in lines[-1]:
        sys.stderr.write("\n".join(lines[-30:]) + "\n")
        fail("build failed; see %s" % log, 3)
    cp = lines[-1].strip()
    with open(cp_file, "w") as fh:
        fh.write(cp)
    with open(stamp_file, "w") as fh:
        fh.write(digest)
    return cp


def git_info():
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if sha.returncode != 0:
            return "none (not a git checkout)", "n/a"
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                               cwd=ROOT, capture_output=True, text=True, timeout=10)
        return sha.stdout.strip(), "yes" if dirty.stdout.strip() else "no"
    except (OSError, subprocess.TimeoutExpired):
        return "none (git unavailable)", "n/a"


def main():
    t_start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="uk-clique or go-cycle6")
    ap.add_argument("--seed", type=int, help="workload seed (default: the dataset's own)")
    ap.add_argument("--seconds", type=float, default=35.0, help="measured time per run")
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    if not (os.path.isdir(os.path.join(ROOT, "src", "main", "scala", "repro"))
            and os.path.isfile(os.path.join(ROOT, "build.sbt"))):
        fail("the program's sources (src/main/scala/repro, build.sbt) are not next to %s; "
             "run from a full checkout" % os.path.relpath(HERE, os.getcwd()), 2)
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)

    digest = source_digest()
    t_build = time.monotonic()
    cp = build(digest)
    build_s = time.monotonic() - t_build
    sha, dirty = git_info()
    print("# env git_sha=%s git_dirty=%s sources_sha256=%s build_s=%.1f"
          % (sha, dirty, digest[:16], build_s), flush=True)

    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if os.environ.get("JAVA_HOME") else "java"
    cmd = [java] + JVM_FLAGS + ADD_OPENS + [
        "-Djava.io.tmpdir=" + os.path.join(OUT, "tmp"),
        "-Dlog4j2.configurationFile=" + os.path.join(HERE, "log4j2.properties"),
        "-cp", cp, "hugebench.Main",
        "--workload", args.workload, "--seconds", str(args.seconds),
        "--trace", args.trace, "--out", OUT]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]

    limit = RUN_LIMIT_S - (time.monotonic() - t_start) + build_s
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                            text=True)
    timer = threading.Timer(max(limit, 1.0), proc.kill)
    timer.start()
    last = ""
    try:
        for line in proc.stdout:
            sys.stdout.write(line)
            sys.stdout.flush()
            if line.strip():
                last = line.strip()
        rc = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if rc != 0:
        fail("benchmark JVM exited with code %d" % rc, 4)
    try:
        result = json.loads(last)
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except ValueError:
        ok = False
    if not ok:
        fail("benchmark JVM printed no result line", 5)


if __name__ == "__main__":
    main()
