#!/usr/bin/env python3
"""Builds and runs the end-to-end daisyd benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload explore_cold --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a source checkout. The engine, daisyd and the
perfbench program are built from source into .bench_build/perfbench (the
first run builds everything; later runs only check that the build is
current), transient run files go to .bench_work/, and per-run result and
span files to .bench_work/results/. The last line on stdout is the JSON
result of the perfbench program.
"""

import argparse
import ctypes
import hashlib
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ".bench_work"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    jobs = str(os.cpu_count() or 1)
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "perfbench",
                    "daisyd", "-j", jobs], check=True, stdout=sys.stderr)
    return BUILD / "perfbench", BUILD / "daisy" / "daisyd"


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "tools", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def die_with_parent():
    """Child side of Popen: receive SIGKILL if this script dies."""
    try:
        ctypes.CDLL("libc.so.6", use_errno=True).prctl(1, signal.SIGKILL)
    except OSError:
        pass


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=12)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if not args.selftest and not args.workload:
        p.error("--workload is required")

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"no daisy sources next to {HERE.name}/; run from a full checkout")
        return 2
    try:
        program, daisyd = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    if args.selftest:
        cmd = [str(program), "--selftest"]
    else:
        cmd = [str(program), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace), "--daisyd", str(daisyd), "--work", WORK,
               "--commit", source_id()]
    proc = subprocess.Popen(cmd, cwd=ROOT, preexec_fn=die_with_parent)

    def discard_run_dir():
        # A killed program cannot remove its sockets and data directories.
        proc.wait()
        shutil.rmtree(ROOT / WORK / f"run-{proc.pid}", ignore_errors=True)

    def stop(signum, _frame):
        proc.terminate()
        discard_run_dir()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        discard_run_dir()
        log(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1


if __name__ == "__main__":
    sys.exit(main())
