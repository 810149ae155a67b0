#!/usr/bin/env python3
"""Build and run the fun3d-rs benchmark.

    python3 perfbench/run.py --workload solve-medium|serve-cold \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds the `perfbench` package
(release, offline, into $CARGO_TARGET_DIR or `.bench_build`), runs one
workload with every FUN3D_* variable cleared so the program runs its
defaults, and passes the binary's output through. The last line of
standard output is the result object; a failed output check or build
exits non-zero. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"
WORKLOADS = ("solve-medium", "serve-cold")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# The contract allows 180 s per run (900 s for the first, which builds).
RUN_TIMEOUT_S = 170


def clean_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("FUN3D_")}
    env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build"))
    return env


def build(env):
    """Builds the benchmark binary; returns its path or None."""
    if not (ROOT / "crates").is_dir():
        print("perfbench: no crates/ next to perfbench/; run from a full checkout", file=sys.stderr)
        return None
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(MANIFEST)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=800)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print(f"perfbench: build failed with code {done.returncode}", file=sys.stderr)
        return None
    return target_dir(env) / "release" / "fun3d-perfbench"


def target_dir(env):
    target = Path(env["CARGO_TARGET_DIR"])
    return target if target.is_absolute() else ROOT / target


def build_id(binary):
    return hashlib.sha256(binary.read_bytes()).hexdigest()[:16]


def commit():
    """The checked-out commit when the checkout is a git repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def source_digest():
    """SHA-256 over the program's sources and manifests, so a result
    names the code it measured even outside a git repository."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml"] + sorted(
        p for p in (ROOT / "crates").rglob("*") if p.is_file() and p.suffix in (".rs", ".toml")
    )
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject", help="plant a fault an output check must catch (tests only)")
    args = ap.parse_args()

    env = clean_env()
    binary = build(env)
    if binary is None or not binary.is_file():
        return 1
    cmd = [
        str(binary),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--commit", commit(),
        "--source-digest", source_digest(),
        "--cpu-model", cpu_model(),
        "--build-id", build_id(binary),
        "--state-dir", str(target_dir(env) / "perfbench-state"),
    ]
    if args.inject:
        cmd += ["--inject", args.inject]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was killed", file=sys.stderr)
        return 1
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if done.returncode != 0 or not isinstance(result, dict) or set(result) != RESULT_KEYS or not result["correct"]:
        sys.stdout.write("\n".join(lines[:-1]) + "\n" if lines else "")
        print(f"perfbench: run failed (exit code {done.returncode}); no result reported", file=sys.stderr)
        return done.returncode or 1
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
