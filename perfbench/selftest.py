#!/usr/bin/env python3
"""Self-test of the pipeline benchmark.

Run from the repository root:

    python3 perfbench/selftest.py

For each workload in ``BENCHMARK.json`` it makes two traced runs with
the same seed and requires identical count metrics and identical output
digests, then one run on a held-out seed that must come back correct
with no failed job.  It also checks that the benchmark refuses to run,
without printing a result, where the package sources are missing.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNT_UNITS = ("count", "B")
SEED = 11
HELD_OUT_SEED = 90210
RUN_TIMEOUT = 300


def run(workload: str, seed: int) -> tuple[dict, dict]:
    """One traced run with the shortest measuring time; returns (result, info)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT)
    if out.returncode != 0:
        raise AssertionError(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    info = json.loads(next(line[5:] for line in lines if line.startswith("info ")))
    return json.loads(lines[-1]), info


def check_bare_directory() -> list[str]:
    """Copy only BENCHMARK.json and perfbench/ elsewhere; the run must refuse."""
    bare = ROOT / ".perfbench-work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        cmd = [sys.executable, "perfbench/run.py", "--workload", "ensemble-n50", "--seed", "1", "--seconds", "1", "--trace", "0"]
        out = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=RUN_TIMEOUT)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if out.returncode == 0 or '"correct"' in out.stdout:
        return ["run.py did not refuse a directory without package sources"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] in COUNT_UNITS]
    problems = check_bare_directory()
    for name in (w["name"] for w in spec["workloads"]):
        (first, info1), (second, info2) = run(name, SEED), run(name, SEED)
        for metric in counts:
            a, b = first["metrics"][metric]["value"], second["metrics"][metric]["value"]
            if a != b:
                problems.append(f"{name}: {metric} differs between same-seed runs ({a} != {b})")
        if info1["output_sha256"] != info2["output_sha256"]:
            problems.append(f"{name}: output digests differ between same-seed runs")
        held, _ = run(name, HELD_OUT_SEED)
        for label, res in (("seed", first), ("seed", second), ("held-out seed", held)):
            if not res["correct"] or res["failed"]:
                problems.append(f"{name}: {label} run not clean ({res['failed']} of {res['attempted']} jobs failed)")
        nonzero = {m: first["metrics"][m]["value"] for m in counts if first["metrics"][m]["value"]}
        print(f"{name}: output sha256 {info1['output_sha256'][:16]}, counts {nonzero}")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("passed" if not problems else f"failed ({len(problems)} problems)"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
