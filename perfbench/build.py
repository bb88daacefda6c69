"""Build file of the benchmark: compiles the repository's main sources plus the
harness under perfbench/src with the Scala 2.13 compiler that ships in the
Spark distribution, into $CARGO_TARGET_DIR/perfbench (default .bench_build).

No sbt and no dependency resolution: the only inputs are the sources and the
jars of the Spark distribution ($SPARK_HOME, else the one whose spark-submit
is on the PATH). The build is skipped when a stamp
file records the same digest of sources, jars and this file.

    python3 perfbench/build.py          # build if stale, print the classpath
"""
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MAIN_SRC = os.path.join("src", "main", "scala")  # relative to the checkout root
BENCH_SRC = os.path.join(HERE, "src")


class BuildError(Exception):
    pass


def out_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def java_bin():
    home = os.environ.get("JAVA_HOME")
    return os.path.join(home, "bin", "java") if home else "java"


def spark_jars():
    homes = [os.environ.get("SPARK_HOME")] + [
        os.path.dirname(os.path.dirname(os.path.realpath(os.path.join(d, "spark-submit"))))
        for d in os.environ.get("PATH", "").split(os.pathsep) if os.path.isfile(os.path.join(d, "spark-submit"))]
    jars_dir = next((os.path.join(h, "jars") for h in homes if h and os.path.isdir(os.path.join(h, "jars"))), None)
    if jars_dir is None:
        raise BuildError("no Spark distribution found: set SPARK_HOME")
    return sorted(os.path.join(jars_dir, j) for j in os.listdir(jars_dir) if j.endswith(".jar"))


def scala_sources():
    if not os.path.isdir(MAIN_SRC):
        raise BuildError(f"{MAIN_SRC} not found: run from the root of a checkout of the repository")
    found = []
    for root in (MAIN_SRC, BENCH_SRC):
        for d, _, files in os.walk(root):
            found += [os.path.join(d, f) for f in files if f.endswith(".scala")]
    return sorted(found)


def digest(paths):
    h = hashlib.sha256()
    for p in paths:
        h.update(p.encode())
        if not p.endswith(".jar"):  # jars: name is enough, they are immutable
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def source_digest():
    """Digest of the repository's main sources: names the program under test
    when the checkout carries no git metadata."""
    return digest([p for p in scala_sources() if not p.startswith(BENCH_SRC)])[:16]


def ensure_built(log=sys.stderr):
    """Compile if stale; return the runtime classpath as a list."""
    srcs = scala_sources()
    jars = spark_jars()
    classes = os.path.abspath(os.path.join(out_dir(), "classes"))
    stamp = os.path.join(out_dir(), "build.stamp")
    want = digest(srcs + jars + [os.path.abspath(__file__)])
    if os.path.exists(stamp) and open(stamp).read() == want:
        return [classes] + jars
    shutil.rmtree(classes, ignore_errors=True)
    os.makedirs(classes)
    compiler = [j for j in jars if os.path.basename(j).startswith(("scala-compiler-", "scala-library-", "scala-reflect-"))]
    if len(compiler) != 3:
        raise BuildError("Spark distribution lacks scala-compiler/library/reflect jars")
    print(f"[perfbench] compiling {len(srcs)} sources into {classes}", file=log, flush=True)
    cmd = [java_bin(), "-Xss16m", "-Xmx2g", "-cp", ":".join(compiler), "scala.tools.nsc.Main",
           "-nowarn", "-encoding", "UTF-8", "-d", classes, "-classpath", ":".join(jars)] + srcs
    r = subprocess.run(cmd, stdout=log, stderr=log)
    if r.returncode != 0:
        raise BuildError(f"scalac failed with exit code {r.returncode}")
    with open(stamp, "w") as f:
        f.write(want)
    return [classes] + jars


if __name__ == "__main__":
    try:
        print(":".join(ensure_built()))
    except BuildError as e:
        print(f"[perfbench] build failed: {e}", file=sys.stderr)
        sys.exit(2)
