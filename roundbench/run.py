#!/usr/bin/env python3
"""Build and run the FedCav round benchmark.

    python3 roundbench/run.py --workload digits-lenet5 --seed 2021 --seconds 20 --trace 0

Run from the root of a source tree. The first call configures and builds
the fedcav library, tools/fedcav_worker and the roundbench binary into
.bench_build/ (Release, the repository's default flags); later calls only
rebuild what changed. The last line of roundbench's stdout is the result
object {"correct", "attempted", "failed", "metrics"}; provenance records
and the Chrome trace of a traced run go to .bench_build/out/.
"""

import argparse
import hashlib
import os
import platform
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "roundbench"
OUT_DIR = ROOT / ".bench_build" / "out"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build(env):
    """Configure (once) and build; build output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S, env=env)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target", "roundbench",
                    "-j", jobs], check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
                   env=env)
    return BUILD_DIR / "roundbench"


def source_revision():
    """The git commit when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists() and shutil.which("git"):
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if got.returncode == 0:
            return got.stdout.strip()
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "roundbench"):
        path = ROOT / top
        files = [path] if path.is_file() else sorted(p for p in path.rglob("*") if p.is_file())
        for f in files:
            digest.update(str(f.relative_to(ROOT)).encode())
            digest.update(f.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="digits-lenet5 | cifar-resnet-int8 | cohort-mlp-faulty | tcp-lenet5")
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # Compiler temporaries stay inside the tree too.
    tmp = ROOT / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    try:
        binary = build(env)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        print(f"roundbench: build failed: {e}", file=sys.stderr)
        return 1

    host = f"{platform.node()} {platform.machine()} nproc={os.cpu_count()}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(OUT_DIR), "--host", host, "--git-sha", source_revision()]
    # Own process group, so a run that overstays is killed together with
    # the tcp workload's worker processes.
    run = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                           start_new_session=True)
    try:
        out, _ = run.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(run.pid, signal.SIGKILL)
        run.communicate()
        print(f"roundbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
