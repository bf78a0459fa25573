#!/usr/bin/env python3
"""Builds the benchmark package and runs one workload.

    python3 perfbench/run.py --workload simulate_vgg8|sweep_bnb|serve_mix \
        --seed N --seconds S --trace 0|1

Run it from the root of the source tree.  It configures an optimized
build of perfbench/ (which pulls in the library and simphonyd from the
tree) under $CARGO_TARGET_DIR, or .bench_build when that is unset,
refuses a build that is not optimized or that uses sanitizers, runs the
harness, and relays its output.  The last stdout line is the JSON result.

    python3 perfbench/run.py --record-digests

re-records perfbench/reference_digests.json from the current tree; do
that only on a commit whose simulated results are the reference.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("simulate_vgg8", "sweep_bnb", "serve_mix")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
OPTIMIZED_BUILD_TYPES = ("Release", "RelWithDebInfo")


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def cmake_cache(build_dir):
    values = {}
    cache = build_dir / "CMakeCache.txt"
    if cache.exists():
        for line in cache.read_text(errors="replace").splitlines():
            if ":" in line and "=" in line and not line.startswith(("//", "#")):
                key, _, value = line.partition("=")
                values[key.split(":")[0]] = value
    return values


def build(root, build_dir):
    """Configures (once) and builds the harness and the daemon."""
    bench_dir = root / "perfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if cmake_cache(build_dir).get("CMAKE_HOME_DIRECTORY") != str(bench_dir):
        subprocess.run(
            ["cmake", "-S", str(bench_dir), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "perfbench_harness",
         "example_simphonyd", "-j", jobs],
        check=True, stdout=sys.stderr,
        timeout=max(1.0, deadline - time.monotonic()))

    cache = cmake_cache(build_dir)
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    if build_type not in OPTIMIZED_BUILD_TYPES:
        raise SystemExit(f"perfbench: refusing build type '{build_type}' "
                         f"(need one of {', '.join(OPTIMIZED_BUILD_TYPES)})")
    flags = " ".join(value for key, value in cache.items()
                     if key.startswith(("CMAKE_CXX_FLAGS",
                                        "CMAKE_EXE_LINKER_FLAGS")))
    if "-fsanitize" in flags or "-O0" in flags:
        raise SystemExit(f"perfbench: refusing a sanitizer or -O0 build "
                         f"({flags.strip()})")
    return (build_dir / "perfbench_harness",
            build_dir / "simphony" / "example_simphonyd")


def source_identity(root):
    """The git commit when the tree is a checkout, plus a digest of the
    sources the benchmark builds, so a result names what it measured."""
    commit = "none"
    try:
        top = subprocess.run(["git", "-C", str(root), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and \
                Path(lines[0]).resolve() == root:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    files = [root / "CMakeLists.txt"]
    for sub in ("src", "examples", "perfbench"):
        files += sorted(p for p in (root / sub).rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return f"{commit} src:{digest.hexdigest()[:16]}"


def run_harness(args, root, cwd_rel_build, harness, daemon, extra):
    command = [str(harness), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--digests", "perfbench/reference_digests.json",
               "--daemon", str(daemon), "--work-dir", cwd_rel_build,
               "--commit", source_identity(root)] + extra
    process = subprocess.Popen(command, cwd=root, stdout=subprocess.PIPE,
                               text=True, start_new_session=True)
    try:
        stdout, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The harness and any daemon it started share its session.
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 4, ""
    return process.returncode, stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()
    if not args.record_digests and args.workload is None:
        parser.error("--workload is required")

    root = Path(__file__).resolve().parent.parent
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        log(f"{root} is not a simphony source tree (no CMakeLists.txt/src)")
        return 2
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = Path.cwd() / build_dir
    build_dir = build_dir.resolve()
    build_dir.mkdir(parents=True, exist_ok=True)
    try:
        harness, daemon = build(root, build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as error:
        log(f"build failed: {error}")
        return 2
    # Unix socket paths are short-limited: address the work directory
    # relative to the harness's working directory when it lies inside.
    work_dir = os.path.relpath(build_dir, root)
    if work_dir.startswith(".."):
        work_dir = str(build_dir)

    if args.record_digests:
        target = build_dir / "reference_digests.json"
        target.unlink(missing_ok=True)
        for workload in WORKLOADS:
            args.workload, args.seconds, args.trace = workload, 1.0, 0
            code, stdout = run_harness(args, root, work_dir, harness, daemon,
                                       ["--record-digests", str(target)])
            sys.stderr.write(stdout)
            if code != 0:
                return code
        (root / "perfbench" / "reference_digests.json").write_text(
            target.read_text())
        log("recorded perfbench/reference_digests.json")
        return 0

    code, stdout = run_harness(args, root, work_dir, harness, daemon, [])
    lines = stdout.rstrip("\n").splitlines()
    if code != 0 or not lines or not lines[-1].startswith("{"):
        # No result line may reach stdout from a failed run.
        sys.stderr.write(stdout)
        log(f"harness failed (exit {code})")
        return code or 5
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
