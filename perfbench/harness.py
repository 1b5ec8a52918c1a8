"""The measured loop and the per-layer figures derived from its spans."""

from __future__ import annotations

import statistics
import time

import numpy as np

from workloads import CheckFailed, check_job, run_job

MIN_PASSES = 2  # every output is produced at least twice, so its sha256 must repeat
_REF_ROWS = np.random.default_rng(0).random((128, 128))


def reference_seconds() -> float:
    """Time of a fixed computation that calls nothing in the program.

    It mixes interpreted dict and integer work with small numpy vector
    operations, as the program's layers do, and takes about 20 ms.  The
    machine's speed drifts by tens of percent over minutes; divided by
    this time, a job time keeps the program's cost and loses most of the
    drift.  The same code runs on every commit, so a change to the
    program cannot move it.
    """
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(80000):
        table[i % 997] = table.get(i % 997, 0) + i
    acc = 0.0
    for k in range(400):
        row = _REF_ROWS[k % 128]
        acc += float(np.dot(row, _REF_ROWS[(7 * k) % 128])) + float(row.min())
    return time.perf_counter() - t0


def run_passes(jobs, seconds, traced_passes, tracer):
    """Repeat passes over ``jobs`` until ``seconds`` is spent.

    With ``traced_passes`` the passes run untraced and traced in the order
    U T T U U T T U ..., so a drift in machine speed hits both alike.
    Returns (passes, failures, digests, z_scores); each pass is
    (traced, wall seconds, [job seconds], counter increments or None,
    reference seconds).  A pass's wall is the sum of its job times: the
    checks between jobs are not the program's time.  The pass's reference
    time is the median of ``reference_seconds()`` taken before each of
    its jobs and after the last one.
    """
    passes, failures, z_scores = [], [], {}
    digests: dict[int, str] = {}
    start = time.perf_counter()
    while True:
        traced = traced_passes and len(passes) % 4 in (1, 2)
        before = dict(tracer.counts)
        job_times, refs = [], []
        for job in jobs:
            refs.append(reference_seconds())
            outcome, error = None, None
            t0 = time.perf_counter()
            try:
                if traced:
                    tracer.job = f"{len(passes)}:{job.index}"
                    with tracer.installed(), tracer.span("bench.job"):
                        outcome = run_job(job)
                else:
                    outcome = run_job(job)
            except Exception as exc:  # a failed job is counted, and the run goes on
                error = f"{job.label}: {type(exc).__name__}: {exc}"
            job_times.append(time.perf_counter() - t0)
            if error is None:
                try:
                    digest, z_scores[job.index] = check_job(job, outcome)
                    if digests.setdefault(job.index, digest) != digest:
                        error = f"{job.label}: output sha256 changed between passes"
                except CheckFailed as exc:
                    error = str(exc)
            if error is not None:
                failures.append(error)
        refs.append(reference_seconds())
        wall = sum(job_times)
        counts = {k: v - before.get(k, 0) for k, v in tracer.counts.items()} if traced else None
        passes.append((traced, wall, job_times, counts, statistics.median(refs)))
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + statistics.median(p[1] for p in passes) > seconds:
            return passes, failures, digests, z_scores


def wall_in_ref_units(passes) -> float:
    """Mean pass wall over mean reference time of ``passes``."""
    return statistics.fmean(p[1] for p in passes) / statistics.fmean(p[4] for p in passes)


def _rate(num, den):
    return num / den if den > 0 else 0.0


def layer_metrics(tracer, passes, jobs, workload_name) -> tuple[dict, list[str]]:
    """Per-layer metrics per traced pass, and a table laid out like the ROADMAP baseline.

    Times are self times summed over a pass; counts are one pass's
    increments (every traced pass must give the same ones).  A layer that
    does not run on the workload reads 0.
    """
    traced = [p for p in passes if p[0]]
    untraced = [p for p in passes if not p[0]]
    k = len(traced)
    calls, incl, self_t = tracer.totals()
    counts = traced[0][3]

    def per_pass(total):
        return total / k

    slots = counts.get("gossip.replica_slots", 0)
    subsets = counts.get("kernels.conductance_subsets", 0)
    m = {
        "network.load_s": per_pass(self_t["network.load"]),
        "network.validate_s": per_pass(self_t["network.validate"]),
        "network.diameter_s": per_pass(self_t["network.diameter"]),
        "network.edge_partition_s": per_pass(self_t["network.edge_partition"]),
        "meanfield.mean_matrices_s": per_pass(self_t["meanfield.mean_matrices"]),
        "meanfield.stationary_s": per_pass(self_t["meanfield.stationary"]),
        "meanfield.perturbation_s": per_pass(self_t["meanfield.perturbation"]),
        "meanfield.passage_s": per_pass(self_t["meanfield.passage"]),
        "meanfield.fundamental_s": per_pass(self_t["meanfield.fundamental"]),
        "meanfield.fundamental_calls": per_pass(calls["meanfield.fundamental"]),
        "spectral.report_self_s": per_pass(self_t["spectral.report"]),
        "spectral.lambda2_s": per_pass(self_t["spectral.lambda2"]),
        "spectral.conductance_s": per_pass(self_t["spectral.conductance"]),
        "kernels.conductance_subsets": subsets,
        "kernels.conductance_subsets_per_s": _rate(subsets, per_pass(incl["spectral.conductance"])),
        "gossip.ensemble_s": per_pass(self_t["gossip.ensemble"]),
        "gossip.replica_self_s": per_pass(self_t["gossip.replica"]),
        "kernels.gossip_chunk_s": per_pass(self_t["kernels.gossip_chunk"]),
        "kernels.gossip_chunk_calls": per_pass(calls["kernels.gossip_chunk"]),
        "gossip.replica_slots": slots,
        "gossip.replica_slots_per_s": _rate(slots, per_pass(incl["gossip.replica"])),
        "gossip.converged_ratio": _rate(counts.get("gossip.converged", 0), counts.get("gossip.replicas", 0)),
        "gossip.slots_drawn": counts.get("gossip.slots_drawn", 0),
        "gossip.slot_use_ratio": _rate(slots, counts.get("gossip.slots_drawn", 0)),
        "gossip.trace_write_s": per_pass(self_t["gossip.trace_write"]),
        "gossip.trace_rows": counts.get("gossip.trace_rows", 0),
        "impact.report_s": per_pass(self_t["impact.report"]),
        "report.analyze_self_s": per_pass(self_t["report.analyze"]),
        "report.render_s": per_pass(self_t["report.render"]),
        "report.bytes": counts.get("report.bytes", 0),
        "bench.job_self_s": per_pass(self_t["bench.job"]),
    }
    # Compared in reference units, so that machine drift between the
    # traced and the untraced passes does not count as overhead.
    m["trace.overhead_ratio"] = wall_in_ref_units(traced) / wall_in_ref_units(untraced) - 1.0
    m["trace.overhead_s"] = m["trace.overhead_ratio"] * statistics.fmean(p[1] for p in untraced)

    def ms(total, n):
        return f"{1e3 * total / n:.1f}" if n else "-"

    analyzes = calls["report.analyze"]
    replicas = calls["gossip.replica"]
    replica_cell = "-"
    if replicas:
        replica_cell = f"{ms(incl['gossip.replica'], replicas)} ({slots * k / replicas / 1e3:.1f}k slots)"
    cells = [
        workload_name,
        ",".join(str(n) for n in sorted({j.n for j in jobs})),
        ms(incl["network.load"], calls["network.load"]),
        ms(incl["network.validate"], calls["network.validate"]),
        ms(incl["meanfield.mean_matrices"] + incl["meanfield.stationary"] + incl["meanfield.perturbation"], analyzes),
        ms(incl["network.diameter"], analyzes),
        ms(incl["spectral.report"], analyzes),
        ms(incl["meanfield.passage"] + incl["impact.report"], analyzes),
        replica_cell,
    ]
    table = [
        "| workload | n | parse | validate | mean + 2 stationary solves | diameter "
        "| spectral (incl. diameter) | passage + impact | 1 replica to tol |",
        "|---|---|--:|--:|--:|--:|--:|--:|--:|",
        "| " + " | ".join(cells) + " |",
    ]
    return m, table
