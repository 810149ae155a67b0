#!/usr/bin/env python3
"""Tests of the benchmark's own output checks.

    python3 perfbench/test_checks.py [--quick]

Runs the package's unit tests, then runs `run.py` once clean (it must
pass) and once per planted fault (each must fail with no result line).
`--quick` skips the solve-medium cases, which take about 40 s each.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Long enough that serve-cold repeats a shape (48 shapes, ~18 replies/s).
SHORT = "5"

# (workload, trace, fault): every fault an output check must catch.
FAULTS = [
    ("serve-cold", 0, "wrong-cache"),
    ("serve-cold", 0, "perturb-hash"),
    ("serve-cold", 0, "unconverged"),
    ("serve-cold", 0, "timeout"),
    ("solve-medium", 0, "unconverged"),
    ("solve-medium", 0, "perturb-hash"),
    ("solve-medium", 0, "perturb-state"),
    ("solve-medium", 1, "perturb-hash"),
]


def run(workload, trace, fault=None):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", SHORT, "--trace", str(trace)]
    if fault:
        cmd += ["--inject", fault]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    result = None
    for line in done.stdout.splitlines():
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if isinstance(obj, dict) and "metrics" in obj:
            result = obj
    return done, result


def main():
    quick = "--quick" in sys.argv[1:]
    failures = []
    unit = subprocess.run(["cargo", "test", "--release", "--offline", "--quiet",
                           "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml")], cwd=ROOT)
    if unit.returncode != 0:
        failures.append("cargo test")

    done, result = run("serve-cold", 0)
    if done.returncode != 0 or not result or not result["correct"]:
        failures.append("clean serve-cold run did not pass")
    print(f"clean serve-cold: exit {done.returncode}")

    for workload, trace, fault in FAULTS:
        if quick and workload == "solve-medium":
            continue
        done, result = run(workload, trace, fault)
        caught = [l for l in done.stderr.splitlines() if l.startswith("CHECK FAILED")]
        ok = done.returncode != 0 and result is None and caught
        print(f"{workload} trace={trace} {fault}: exit {done.returncode}, "
              f"{caught[0] if caught else 'no check failed'}")
        if not ok:
            failures.append(f"{workload} trace={trace} {fault}")

    if failures:
        print("NOT CAUGHT: " + ", ".join(failures))
        return 1
    print("every planted fault failed the command")
    return 0


if __name__ == "__main__":
    sys.exit(main())
