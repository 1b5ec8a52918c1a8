"""Benchmark workloads: generated networks, the jobs run on them, and checks.

A workload turns the run seed into a list of networks, written to files
during set-up with ``serialize_network``; the library sees only those
files.  A job is the public-function sequence the CLI runs, called
in-process and looked up on the library modules at call time so that
the tracer's wrappers see it:

* analyze job: load_network -> validate_network -> analyze -> render_json
  -> write the report;
* trace job: load_network -> validate_network -> simulate_ensemble
  (1 replica) -> run_replica (replica 0, recorded every n slots)
  -> write_trace_csv.

Every check runs after the job's clock stops.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable
from pathlib import Path

import numpy as np

from willingness_gossip import gossip, network, report
from willingness_gossip.fixtures import bridged_clusters, random_network
from willingness_gossip.network import serialize_network
from willingness_gossip.report import RunConfig

RESIDUAL_LIMIT = 1e-9
# The ensemble mean estimates pi . w0 without bias, so z is about N(0, 1)
# (t with replicas - 1 degrees of freedom); |z| > 5 has odds near 1e-5.
# Below Z_MIN_REPLICAS the standard error is too rough to gate on, and at
# 1 replica the report divides by a zero stderr.
Z_BOUND = 5.0
Z_MIN_REPLICAS = 30


class CheckFailed(Exception):
    """A job's output failed a correctness check."""


@dataclass(frozen=True)
class Job:
    index: int
    kind: str  # "analyze" or "trace"
    label: str
    n: int
    path: Path
    out: Path
    config: RunConfig
    bridge: bool = False


def _random(n: int, count: int):
    def make(rng):
        return [(f"random-n{n}-{k}", random_network(rng, n, extra_edge_prob=8 / n), False) for k in range(count)]

    return make


# Sizes are fixed so the exact conductance scan (2^(n-1) - 1 subsets)
# and the bridged networks' mixing time cost about the same for every
# seed.  Every fourth network is two complete clusters joined by one
# influential bridge (the thm6 / edge_partition path); the rest are dense
# random networks, 5 of n=18, 6 of n=19 and 1 of n=20.  The bridged jobs
# are the slowest, so the 8th and 9th of the 16 job times, whose mean is
# the median, are the middle two of the six random n=19 jobs and not the
# edge of a size class.
PORTFOLIO_RANDOM_SIZES = [18] * 5 + [19] * 6 + [20] * 1
PORTFOLIO_BRIDGE_SPLITS = [(7, 12), (8, 11), (9, 10), (10, 9)]


def _portfolio(rng):
    nets = []
    random_sizes = iter(PORTFOLIO_RANDOM_SIZES)
    bridge_splits = iter(PORTFOLIO_BRIDGE_SPLITS)
    for k in range(16):
        if k % 4 == 3:
            size_i, size_j = next(bridge_splits)
            net = bridged_clusters(
                size_i,
                size_j,
                influence=float(rng.uniform(0.3, 0.8)),
                delta=float(rng.uniform(0.1, 0.5)),
                w0=rng.uniform(0.0, 1.0, size=size_i + size_j),
            )
            nets.append((f"bridged-{size_i}+{size_j}-{k}", net, True))
        else:
            n = next(random_sizes)
            nets.append((f"random-n{n}-{k}", random_network(rng, n), False))
    return nets


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # job kind: "analyze" or "trace"
    networks: Callable  # rng -> [(label, network, has an influential bridge)] for one pass
    replicas: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ensemble-n50", "analyze", _random(50, 2), replicas=40),
        Workload("analytic-n500", "analyze", _random(500, 1), replicas=0),
        Workload("portfolio-n20", "analyze", _portfolio, replicas=2),
        Workload("trace-n200", "trace", _random(200, 2), replicas=1),
    )
}

WORKLOAD_INDEX = {name: k for k, name in enumerate(WORKLOADS)}


def build_jobs(workload: Workload, seed: int, work: Path) -> list[Job]:
    """Generate the workload's networks from ``seed`` and write them to ``work``."""
    rng = np.random.default_rng([seed, WORKLOAD_INDEX[workload.name]])
    jobs = []
    for index, (label, net, bridge) in enumerate(workload.networks(rng)):
        path = work / f"{index:02d}-{label}.json"
        path.write_text(serialize_network(net), encoding="utf-8")
        out = work / f"{index:02d}-{label}.out.{'json' if workload.kind == 'analyze' else 'csv'}"
        config = RunConfig(
            command="analyze",
            network=path.name,  # a stable name keeps the report bytes stable
            replicas=workload.replicas,
            seed=seed,
        )
        jobs.append(Job(index, workload.kind, label, net.n, path, out, config, bridge))
    return jobs


def run_job(job: Job):
    """The timed part of one job; returns what ``check_job`` needs."""
    net = network.load_network(str(job.path))
    validation = network.validate_network(net)
    if not validation.ok:
        raise CheckFailed(f"{job.label}: invalid network: {validation.violations[:3]}")
    if job.kind == "analyze":
        payload, ok, _ = report.analyze(net, job.config)
        text = report.render_json(payload)
        with open(job.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        return payload, ok, text.encode("utf-8")
    cfg = job.config
    ens = gossip.simulate_ensemble(net, replicas=1, max_slots=cfg.max_slots, tol=cfg.tol, seed=cfg.seed)
    trace = gossip.run_replica(
        net,
        max_slots=cfg.max_slots,
        tol=cfg.tol,
        seed=np.random.SeedSequence(entropy=cfg.seed, spawn_key=(0,)),
    )
    gossip.write_trace_csv(str(job.out), trace)
    return ens, trace


def check_job(job: Job, outcome) -> tuple[str, float | None]:
    """Check one job's outputs; returns (sha256 of the output bytes, report z_score).

    Raises CheckFailed on the first violated check.
    """
    if job.kind == "trace":
        ens, trace = outcome
        if ens.converged_count != 1 or not trace.converged:
            raise CheckFailed(f"{job.label}: replica did not converge")
        if not trace.monotone:
            raise CheckFailed(f"{job.label}: trace spread not monotone")
        if not trace.spread[-1] <= job.config.tol:
            raise CheckFailed(f"{job.label}: final spread {trace.spread[-1]:.3e} > tol")
        if trace.value != ens.values[0]:
            raise CheckFailed(f"{job.label}: traced replica 0 {trace.value!r} != ensemble replica 0 {ens.values[0]!r}")
        return hashlib.sha256(job.out.read_bytes()).hexdigest(), None

    payload, ok, data = outcome
    if not ok:
        failed = [k for k, v in payload.items() if isinstance(v, dict) and "failed" in v]
        raise CheckFailed(f"{job.label}: analyze returned ok=False (failed sections: {failed})")
    cross = payload["stationary"]["cross_residual"]
    if not cross <= RESIDUAL_LIMIT:
        raise CheckFailed(f"{job.label}: stationary cross_residual {cross:.3e} > {RESIDUAL_LIMIT}")
    thm5 = float(np.max(payload["impact"]["thm5_residual"]))
    if not thm5 <= RESIDUAL_LIMIT:
        raise CheckFailed(f"{job.label}: max thm5_residual {thm5:.3e} > {RESIDUAL_LIMIT}")
    if job.bridge and payload["impact"]["thm6"] is None:
        raise CheckFailed(f"{job.label}: bridge closed form not evaluated ({payload['impact']['thm6_reason']})")
    exact = job.config.resolve_conductance_mode(job.n) == "exact"
    if (payload["spectral"]["conductance"] is not None) != exact:
        raise CheckFailed(f"{job.label}: conductance {'missing' if exact else 'computed'} at n={job.n}")
    z = None
    replicas = job.config.replicas
    if replicas > 0:
        sim = payload["simulation"]
        if sim["converged"] != replicas:
            raise CheckFailed(f"{job.label}: {sim['converged']}/{replicas} replicas converged")
        z = sim["z_score"]
        if replicas >= Z_MIN_REPLICAS and not (z is not None and math.isfinite(z) and abs(z) <= Z_BOUND):
            raise CheckFailed(f"{job.label}: |z_score| {z} > {Z_BOUND} with {replicas} replicas")
    return hashlib.sha256(data).hexdigest(), z


def combined_digest(digests: dict[int, str], count: int) -> str:
    """One sha256 over every job's output digest, in job order."""
    h = hashlib.sha256()
    for index in range(count):
        h.update(digests.get(index, "missing").encode())
    return h.hexdigest()
