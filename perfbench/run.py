#!/usr/bin/env python3
"""Pipeline benchmark: insurer reports, timed end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload ensemble-n50 --seed 1 --seconds 20 --trace 0

Closed loop: one process, one caller, no threads of its own; each job
starts after the previous one ends.  Set-up (untimed) generates the
workload's networks from ``--seed`` and writes them to files; the run
then repeats passes over the workload's job list until ``--seconds`` is
spent (at least two passes, so every output is produced twice and its
sha256 must repeat).

``--trace 0`` reports the ``end_to_end`` metrics of ``BENCHMARK.json``,
measured with tracing off.  ``--trace 1`` alternates untraced and traced
passes and reports the ``per_layer`` metrics from the traced ones,
including the tracing overhead.  The last line of
standard output is the result object; the lines before it carry the
environment, the output digests and, when traced, a per-layer table.
Spans and a full result file go to ``.perfbench-out/`` under the root.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_THREAD_CAP = 2
SETUP_REPEATS = 6  # before the measured passes, and as many again after them
SETUP_CODE = (
    "import sys; sys.path.insert(0, {src!r}); "
    "import willingness_gossip; from willingness_gossip import kernels; kernels.warmup()"
)


def _cap_blas_threads() -> None:
    """Limit BLAS to at most BLAS_THREAD_CAP threads; must run before numpy loads."""
    cap = min(BLAS_THREAD_CAP, os.cpu_count() or 1)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        os.environ[var] = str(min(cap, int(current))) if current.isdigit() and int(current) > 0 else str(cap)


def _blas_threads(np) -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_sha() -> str:
    if not (ROOT / ".git").exists():  # git would report an enclosing repository instead
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown (not a git checkout)"
    return out.stdout.strip()


def _src_digest() -> str:
    """sha256 over the package sources, which identifies the code when git cannot."""
    h = hashlib.sha256()
    for path in sorted((SRC / "willingness_gossip").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(np, kernels, loadavg) -> dict:
    if kernels.NUMBA_ENABLED:
        reason = "numba importable"
    elif os.environ.get("WG_NO_NUMBA", "").strip().lower() in {"1", "true", "yes"}:
        reason = f"WG_NO_NUMBA={os.environ['WG_NO_NUMBA']}"
    else:
        try:
            import numba  # noqa: F401

            reason = "numba importable but not enabled"
        except ImportError as exc:
            reason = f"numba ImportError: {exc}"
    return {
        "backend": kernels.backend(),
        "backend_reason": reason,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": _blas_threads(np),
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "loadavg_start": list(loadavg),
    }


def measure_setup() -> list[float]:
    """Wall times of fresh interpreters importing the package and warming the kernels."""
    cmd = [sys.executable, "-c", SETUP_CODE.format(src=str(SRC))]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        # No timeout: with one, Popen.wait polls and rounds the time up to 50 ms steps.
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def metric_units(key: str) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json lists under ``key``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[key]}


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "willingness_gossip" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    _cap_blas_threads()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import numpy as np

    import harness
    import tracing
    import workloads as W
    from willingness_gossip import kernels

    if Path(kernels.__file__).resolve().parent != SRC / "willingness_gossip":
        print(f"error: imported willingness_gossip from {kernels.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in W.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(W.WORKLOADS)}", file=sys.stderr)
        return 2

    env = environment(np, kernels, loadavg)
    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    out_dir = ROOT / ".perfbench-out"
    work.mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(exist_ok=True)
    try:
        workload = W.WORKLOADS[args.workload]
        jobs = W.build_jobs(workload, args.seed, work)
        setup_times = [] if args.trace else measure_setup()
        kernels.warmup()
        try:  # warm caches and lazy imports
            W.check_job(jobs[0], W.run_job(jobs[0]))
        except Exception:  # the measured passes run this job again and count its failure
            pass
        tracer = tracing.Tracer()
        passes, failures, digests, z_scores = harness.run_passes(jobs, args.seconds, bool(args.trace), tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if not args.trace:  # a second batch, so a slow spell at the start does not set the figure
            setup_times += measure_setup()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(p[2]) for p in passes)
    correct = not failures
    table = []
    if args.trace:
        counted = [p[3] for p in passes if p[0]]
        if any(c != counted[0] for c in counted):
            correct = False
            print("FAILED count metrics differ between traced passes", file=sys.stderr)
        values, table = harness.layer_metrics(tracer, passes, jobs, args.workload)
        units = metric_units("per_layer")
    else:
        values = {
            "wall_ref": harness.wall_in_ref_units(passes),
            "job_p50_ref": statistics.median(t / p[4] for p in passes for t in p[2]),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
        units = metric_units("end_to_end")
    if set(values) != set(units):
        print(f"error: BENCHMARK.json and the measured metrics differ: {sorted(set(values) ^ set(units))}", file=sys.stderr)
        return 2
    result_metrics = {name: {"value": float(values[name]), "unit": units[name]} for name in units}

    combined = W.combined_digest(digests, len(jobs))
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "pass_wall_s": [round(p[1], 4) for p in passes],
        "wall_s": statistics.median(p[1] for p in passes),
        "job_p50_s": statistics.median(t for p in passes for t in p[2]),
        "reference_s": [round(p[4], 5) for p in passes],
        "setup_times_s": [round(t, 4) for t in setup_times],
        "jobs_per_pass": len(jobs),
        "job_samples": attempted,
        "failed_ratio": len(failures) / attempted,
        "output_sha256": combined,
        "job_sha256": {jobs[i].label: d for i, d in sorted(digests.items())},
        "max_abs_z_score": max((abs(z) for z in z_scores.values() if z is not None), default=None),
        "z_gated": workload.replicas >= W.Z_MIN_REPLICAS,
        "env": env,
    }
    stamp = f"{args.workload}-s{args.seed}-t{args.trace}"
    if args.trace:
        spans_path = out_dir / f"spans-{stamp}.jsonl"
        with open(spans_path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job in tracer.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "job": job}) + "\n")
        info["spans_file"] = str(spans_path.relative_to(ROOT))
    for failure in failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    print("info " + json.dumps({k: v for k, v in info.items() if k not in ("env", "job_sha256")}, sort_keys=True))
    if table:
        print("per-layer table, ms per job (last column: ms per replica):")
        print("\n".join(table))
    for name, m in result_metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    result = {"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": result_metrics}
    (out_dir / f"result-{stamp}.json").write_text(
        json.dumps({**result, "info": info, "table": table}, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
