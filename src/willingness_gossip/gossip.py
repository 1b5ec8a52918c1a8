"""Asynchronous meeting-process simulator.

One meeting happens per time slot: a uniformly chosen initiator i meets a
partner j drawn from its meeting row, and the pair's willingness values
update by mutual averaging, one-sided influence (j pulls i, retention
delta), or not at all.  Replicas are reproducible: replica k of an
ensemble draws from a counter-based Philox stream keyed by (seed, k), so
results do not depend on execution order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .network import AcquaintanceNetwork

_CHUNK_SLOTS = 16384


@dataclass(frozen=True)
class SimulationTrace:
    """Recorded trajectory of one replica.

    ``slots``/``snapshots``/``spread`` hold the recorded states (slot 0 is
    always included, the final state always last); ``final`` is the last
    willingness vector; ``value`` its arithmetic mean, the replica's
    converged common value when ``converged`` is set.
    """

    slots: np.ndarray
    snapshots: np.ndarray
    spread: np.ndarray
    final: np.ndarray
    value: float
    converged: bool
    slots_used: int
    monotone: bool
    seed: object


@dataclass(frozen=True)
class EnsembleSummary:
    """Aggregate over independent replicas."""

    replicas: int
    converged_count: int
    convergence_rate: float
    mean: float
    stderr: float
    mean_slots: float
    max_slots_used: int
    values: np.ndarray
    seed: object


def build_sampler(net: AcquaintanceNetwork):
    """CSR-style cumulative meeting table: (nbr_idx, nbr_cum, row_start).

    Row i's partners live in nbr_idx[row_start[i]:row_start[i+1]] with
    cumulative probabilities ending exactly at 1.0 (each row rescaled by
    its own sum, which the validator already pins to 1 within 1e-9).
    The cumulative sums run over the dense rows: adding a zero is exact,
    so each partner's entry equals the sum over that row's partners alone,
    and the last one, divided by itself, is exactly 1.0.
    """
    support = net.p != 0
    degree = support.sum(axis=1)
    if not degree.all():
        raise ValueError(f"node {int(np.argmin(degree))} has no meeting partners")
    cum = np.cumsum(net.p, axis=1)
    cum /= cum[:, -1:]
    rows, cols = np.nonzero(support)
    row_start = np.zeros(net.n + 1, dtype=np.int64)
    np.cumsum(degree, out=row_start[1:])
    return cols.astype(np.int64), cum[rows, cols], row_start


def sample_meetings_batch(net: AcquaintanceNetwork, count: int, rng: np.random.Generator):
    """Vectorized meeting sampler; returns (i, j, kind_code) arrays.

    Decodes ``count`` uniform triples exactly as the simulator does
    (``kernels.decode_meetings``).  kind codes: ``kernels.KIND_REGULAR``
    (0), ``KIND_INFLUENCE`` (1), ``KIND_PERSISTENT`` (2).
    """
    nbr_idx, nbr_cum, row_start = build_sampler(net)
    return kernels.decode_meetings(nbr_idx, nbr_cum, row_start, net.x, net.y, rng.random((count, 3)))


def apply_meeting(w: np.ndarray, i: int, j: int, kind: int, delta: float) -> np.ndarray:
    """One willingness update: initiator i meets partner j; pure (returns a new vector).

    ``kind`` is a ``kernels.KIND_*`` code.  Averaging sets both endpoints
    to their mean; influence moves only the initiator toward the partner
    with retention delta, clamped into the pre-meeting pair interval so the
    global spread cannot expand even under floating-point rounding;
    persistent meetings change nothing.  This is the reference rule that
    the tests fold to check ``kernels.gossip_chunk``.
    """
    out = np.array(w, dtype=np.float64, copy=True)
    if kind == kernels.KIND_REGULAR:
        avg = 0.5 * (out[i] + out[j])
        out[i] = avg
        out[j] = avg
    elif kind == kernels.KIND_INFLUENCE:
        a, b = out[i], out[j]
        v = delta * a + (1.0 - delta) * b
        out[i] = min(max(v, min(a, b)), max(a, b))
    elif kind != kernels.KIND_PERSISTENT:
        raise ValueError(f"unknown meeting kind {kind!r}")
    return out


def replica_seed(seed: int, k: int) -> np.random.SeedSequence:
    """Seed of replica k in an ensemble seeded with ``seed``: the Philox stream keyed by (seed, k)."""
    return np.random.SeedSequence(entropy=seed, spawn_key=(k,))


def run_replica(
    net: AcquaintanceNetwork,
    max_slots: int = 10**6,
    tol: float = 1e-6,
    record_every: int | None = None,
    seed: int | np.random.SeedSequence = 0,
) -> SimulationTrace:
    """Simulate one replica until the willingness spread drops to tol.

    ``record_every`` controls snapshot density (default: one per n slots;
    0 disables recording except for the initial and final states).
    Deterministic for a fixed (network, parameters, seed).

    The willingness values stay a list for the whole replica.  Each chunk
    of uniforms is drawn no longer than the slots left in ``max_slots``,
    so ``kernels.gossip_chunk`` never sees the budget; the kernel appends
    the recorded states to one list, turned into arrays once at the end.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    n = net.n
    if record_every is None:
        record_every = n
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    rng = np.random.Generator(np.random.Philox(seq))

    nbr_idx, nbr_cum, row_start = build_sampler(net)
    w0 = np.asarray(net.w0, dtype=np.float64)
    spread = float(w0.max() - w0.min())
    w = w0.tolist()
    records = [(0, spread, w.copy())]

    slot = 0
    monotone = True
    chunk = 4 * n
    while not spread <= tol and slot < max_slots:
        # Slots drawn past convergence are wasted, so chunks start at 4n and
        # double; the Philox stream does not depend on the chunk sizes.
        count = min(chunk, _CHUNK_SLOTS, max_slots - slot)
        chunk *= 2
        slot, spread, chunk_monotone = kernels.gossip_chunk(
            w, nbr_idx, nbr_cum, row_start, net.x, net.y, float(net.delta), float(tol),
            rng.random((count, 3)), slot, spread, record_every, records,
        )
        monotone = monotone and chunk_monotone

    if records[-1][0] != slot:
        records.append((slot, spread, w))
    slots, spreads, snapshots = zip(*records)
    final = np.array(w)
    return SimulationTrace(
        slots=np.array(slots, dtype=np.int64),
        snapshots=np.array(snapshots),
        spread=np.array(spreads),
        final=final,
        value=float(final.mean()),
        converged=spread <= tol,
        slots_used=slot,
        monotone=monotone,
        seed=seed,
    )


def simulate_ensemble(
    net: AcquaintanceNetwork,
    replicas: int,
    max_slots: int = 10**6,
    tol: float = 1e-6,
    seed: int = 0,
) -> EnsembleSummary:
    """Run independent replicas and summarize their converged values.

    Replica k draws from the stream keyed by (seed, k); the summary is
    identical however the replicas might be scheduled.
    """
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    values = np.empty(replicas)
    converged = np.zeros(replicas, dtype=bool)
    slots = np.empty(replicas, dtype=np.int64)
    for k in range(replicas):
        trace = run_replica(net, max_slots=max_slots, tol=tol, record_every=0, seed=replica_seed(seed, k))
        values[k] = trace.value
        converged[k] = trace.converged
        slots[k] = trace.slots_used

    good = values[converged]
    cnt = int(converged.sum())
    mean = float(good.mean()) if cnt else float("nan")
    stderr = float(good.std(ddof=1) / np.sqrt(cnt)) if cnt > 1 else 0.0
    return EnsembleSummary(
        replicas=replicas,
        converged_count=cnt,
        convergence_rate=cnt / replicas,
        mean=mean,
        stderr=stderr,
        mean_slots=float(slots.mean()),
        max_slots_used=int(slots.max()),
        values=values,
        seed=seed,
    )


def write_trace_csv(path: str, trace: SimulationTrace) -> None:
    """Trace export: one row per recorded slot, columns slot,node_*,spread."""
    n = trace.snapshots.shape[1]
    header = "slot," + ",".join(f"node_{k}" for k in range(n)) + ",spread"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in range(trace.slots.shape[0]):
            cells = [str(int(trace.slots[row]))]
            cells.extend(repr(float(v)) for v in trace.snapshots[row])
            cells.append(repr(float(trace.spread[row])))
            fh.write(",".join(cells) + "\n")
