#!/usr/bin/env python3
"""Build and run the block-lifecycle benchmark.

    python3 blockbench/run.py --workload replay_transfer --seed 1 \
        --seconds 10 --trace 0
    python3 blockbench/run.py --self-test

Configures and builds blockbench/ (which compiles ../src) into
.bench_build/blockbench under the repository root on first use, then runs
the program with the given arguments plus the checkout's git sha. Build
output goes to stderr; the program's stdout passes through unchanged, so
its last line is the result JSON. Exits non-zero, printing no result,
when the sources are missing or the build fails.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "blockbench"
BINARY = BUILD_DIR / "blockbench"


def build() -> bool:
    if not (ROOT / "src" / "medchain.hpp").is_file():
        print("blockbench: medchain sources (src/) not found next to "
              f"{BENCH_DIR.name}/", file=sys.stderr)
        return False
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(os.cpu_count() or 1)
    return subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                          stdout=sys.stderr).returncode == 0


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main() -> int:
    if not build():
        return 1
    cmd = [str(BINARY), *sys.argv[1:], "--git-sha", git_sha()]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
