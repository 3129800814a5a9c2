#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <train|search|serve> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the repository root. The Rust package in this directory is built
with `cargo build --release --offline` into `$CARGO_TARGET_DIR` (default
`.bench_build`), then run with every `ONN_*` variable removed from its
environment except `ONN_THREADS=1`, so the library's knobs sit at the values
the benchmark pins.
Prints a provenance line, the binary's run-record line, and last the result
line `{"correct", "attempted", "failed", "metrics"}`. Exits non-zero, without
a result line, if the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170
# One compute thread: on a shared 2-vCPU host a second pool thread makes
# every fork-join wait for the slower vCPU, and the witness measures the
# host from one thread.
PINNED_THREADS = "1"


def pin_to_one_cpu():
    """Runs the benchmark on one CPU, the lowest it may use, so that the
    host-speed witness and the work it corrects always share a vCPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """SHA-256 over the sources the benchmark builds, for checkouts that
    are not git repositories."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for base in (ROOT / "crates", BENCH_DIR):
        files += [p for p in base.rglob("*") if p.suffix in (".rs", ".toml", ".lock")]
    for p in sorted(set(files)):
        if p.is_file() and ".bench_build" not in p.parts and "target" not in p.parts:
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def provenance(args):
    return {
        "git_rev": command_output(["git", "rev-parse", "HEAD"]) or "none (not a git checkout)",
        "source_digest": source_digest(),
        "rustc": command_output(["rustc", "-V"]) or "unknown",
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "benchmark_cpu": min(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "onn_env_removed": sorted(k for k in os.environ if k.startswith("ONN_")),
        "onn_env_set": {"ONN_THREADS": PINNED_THREADS},
        "workload": args.workload,
        "seed": args.seed,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(BENCH_DIR / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    child_env = {k: v for k, v in os.environ.items() if not k.startswith("ONN_")}
    child_env["ONN_THREADS"] = PINNED_THREADS
    cmd = [str(target / "release" / "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=child_env, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S, preexec_fn=pin_to_one_cpu)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        print(f"perfbench: run failed with code {run.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: malformed result line", file=sys.stderr)
        return 1
    print(json.dumps({"provenance": provenance(args)}))
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
