"""Build file of the benchmark: compiles the program and the benchmark from source.

The program is every Scala file under `src/main/scala` at the checkout root;
the benchmark is every Scala file under `fedbench/src`. Both are compiled in
one `scalac` pass against the Spark distribution's jars (which ship the Scala
2.13 compiler), into `fedbench/out/classes`. A stamp over the sources and the
jar list skips the compile when nothing changed.

    python3 fedbench/build.py     # prints the class directory
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = BENCH_DIR / "out"
CLASSES = OUT / "classes"
STAMP = OUT / "classes.stamp"


class BuildError(Exception):
    pass


def spark_jars() -> Path:
    """The Spark distribution's jar directory: `$SPARK_HOME/jars`, or the
    `jars` directory beside the `spark-submit` found on PATH."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = str(Path(submit).resolve().parent.parent)
    if not home or not (Path(home) / "jars").is_dir():
        raise BuildError("no Spark distribution: set SPARK_HOME or put spark-submit on PATH")
    return Path(home) / "jars"


def sources() -> list:
    program = sorted((ROOT / "src" / "main" / "scala").rglob("*.scala"))
    bench = sorted((BENCH_DIR / "src").rglob("*.scala"))
    if not program:
        raise BuildError(f"no program sources under {ROOT / 'src' / 'main' / 'scala'}")
    if not bench:
        raise BuildError(f"no benchmark sources under {BENCH_DIR / 'src'}")
    return program + bench


def stamp_of(srcs: list, jars: Path) -> str:
    h = hashlib.sha256()
    for p in srcs:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    for j in sorted(jars.glob("*.jar")):
        h.update(j.name.encode())
    return h.hexdigest()


def build() -> Path:
    """Compile if the sources changed; return the class directory."""
    jars = spark_jars()
    srcs = sources()
    stamp = stamp_of(srcs, jars)
    if CLASSES.is_dir() and STAMP.is_file() and STAMP.read_text() == stamp:
        return CLASSES
    OUT.mkdir(parents=True, exist_ok=True)
    staging = OUT / "classes.tmp"
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir()
    cmd = ["java", "-XX:-UsePerfData", "-Xss8m", "-Xmx2g", "-cp", str(jars / "*"),
           "scala.tools.nsc.Main", "-usejavacp", "-nowarn", "-d", str(staging)]
    cmd += [str(p) for p in srcs]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise BuildError(f"scalac failed with exit code {proc.returncode}")
    shutil.rmtree(CLASSES, ignore_errors=True)
    staging.rename(CLASSES)
    STAMP.write_text(stamp)
    return CLASSES


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        sys.stderr.write(f"build failed: {e}\n")
        sys.exit(2)
