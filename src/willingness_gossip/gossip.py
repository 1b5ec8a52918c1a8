"""Asynchronous meeting-process simulator.

One meeting happens per time slot: a uniformly chosen initiator i meets a
partner j drawn from its meeting row, and the pair's willingness values
update by mutual averaging, one-sided influence (j pulls i, retention
delta), or not at all.  Replicas are reproducible: replica k of an
ensemble draws from a counter-based Philox stream keyed by (seed, k), so
results do not depend on execution order.  The ensemble advances all live
replicas round by round and hands the kernel groups of them at once;
``run_replica`` is the one-replica group that records its trajectory.
``_run`` owns each replica's outcome and its trace's first and last states.

An ensemble wave with at least ``_MIN_SHARE`` replicas for each usable CPU
is cut into one contiguous share of its seeds per CPU.  The caller runs
the first share and helper processes run the others; the outcomes are
joined back in replica order, so the summary does not depend on the
shares.  Helpers are forked on the first wave that splits and kept; each
reads one pickled share a wave over one ``os.pipe`` and writes back its
outcomes over another.  A helper that cannot take its share, dies or
fails is stopped (killed and reaped), and its share runs in the caller.
An ``atexit`` hook stops the helpers when the caller exits; a caller that
dies closes their pipes, and each helper exits at end of file.  The pool
does not use ``multiprocessing``: its import alone would add 0.64 MiB to
every process, and its pools can orphan their workers.
"""

from __future__ import annotations

import atexit
import os
import pickle
import signal
from dataclasses import dataclass
from typing import BinaryIO, NamedTuple

import numpy as np

from . import kernels
from .network import AcquaintanceNetwork

# A replica's slot budget and the spread it stops at, unless the caller sets them.
DEFAULT_MAX_SLOTS = 10**6
DEFAULT_TOL = 1e-6
# Caps a replica's chunk of slots in a round and the uniforms rows one kernel call decodes.
_CHUNK_SLOTS = 4096
# An ensemble runs its replicas in waves of at most this many replicas and
# willingness values (a replica holds n values and a ~1.3 KiB generator),
# so its memory does not grow with the replica count.
_WAVE_REPLICAS = 1024
_WAVE_VALUES = 1 << 18
# A wave splits only when every process gets at least this many replicas.
# With both cores running, a split already wins at 2 a process; at 8 its
# fixed cost (pickles, pipes, a second sampler) stays under about 15% of
# the wave when the helper's core is busy (measured, see CHANGES.md).
_MIN_SHARE = 8


class _Helper(NamedTuple):
    """A forked process that runs shares of this process's waves: its pid and the caller's ends of its two pipes."""

    pid: int
    requests: BinaryIO
    replies: BinaryIO


# This process's helpers, forked on the first wave that splits.
_helpers: list[_Helper] = []


@dataclass(frozen=True)
class SimulationTrace:
    """Recorded trajectory of one replica.

    ``slots``/``snapshots``/``spread`` hold the recorded states (slot 0 is
    always included, the final state always last); ``final`` is the last
    willingness vector; ``value`` its arithmetic mean, the replica's
    converged common value when ``converged`` is set.  ``monotone`` is
    true when no recorded spread is greater than the one before it.
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
    """Aggregate over independent replicas.

    ``values``, ``converged`` and ``slots_used`` hold each replica's
    ``SimulationTrace`` field of the same name, in replica order.
    """

    replicas: int
    converged_count: int
    convergence_rate: float
    mean: float
    stderr: float
    mean_slots: float
    max_slots_used: int
    values: np.ndarray
    converged: np.ndarray
    slots_used: np.ndarray
    seed: object


def replica_seed(seed: int, k: int) -> np.random.SeedSequence:
    """Seed of replica k in an ensemble seeded with ``seed``: the Philox stream keyed by (seed, k)."""
    return np.random.SeedSequence(entropy=seed, spawn_key=(k,))


def _checked_w0(net: AcquaintanceNetwork, max_slots: int, tol: float, record_every: int) -> np.ndarray:
    """``net.w0`` as float64, once every argument ``_run`` takes is checked; raises ``ValueError`` if one is not."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    if max_slots < 0:
        raise ValueError("max_slots must be >= 0")
    if record_every < 0:
        raise ValueError("record_every must be >= 0")
    # a retention outside (0, 1) is not the model's, and a NaN one turns influenced values into NaN
    if not 0 < net.delta < 1:
        raise ValueError("delta must be in (0, 1)")
    w0 = np.asarray(net.w0, dtype=np.float64)
    if not np.all(np.abs(w0) <= np.finfo(np.float64).max / 2):
        raise ValueError("w0 must lie within +-DBL_MAX/2 and hold no NaN")
    return w0


def _run(net: AcquaintanceNetwork, seeds, max_slots: int, tol: float, record_every: int, records):
    """Advance one replica per seed, round by round, until each reaches tol or ``max_slots``.

    Every live replica stands at the same slot, so one chunk size serves
    them all in a round: chunks start at 4n slots and double, because slots
    drawn past convergence are wasted, and stop at ``_CHUNK_SLOTS`` and at
    the slots left in ``max_slots``, so ``kernels.gossip_chunk`` never sees
    the budget.  Each group of at most ``_CHUNK_SLOTS`` rows of live
    replicas gets one uniforms array, filled block by block from each
    replica's own stream, and one kernel call.  A Philox stream's values do
    not depend on how they are drawn in blocks, so each replica's meetings
    do not depend on the rounds or the groups.

    Raises ``ValueError`` unless every ``|w0| <= DBL_MAX/2``, which also
    refuses NaN: then ``a + b`` and ``delta a + (1 - delta) b`` stay within
    +-DBL_MAX, so no meeting overflows and the spread never grows.
    ``records`` is None, or one empty list per replica.  Each then holds the
    replica's recorded states ``(slot, spread, values)``: the slot-0 state,
    written here; each multiple of ``record_every`` the replica passes
    before it stops, written by the kernel; and the final state, written
    here unless the kernel recorded it at the budget's end, so a record
    list's last entry is the replica's final state.  Returns each
    replica's (slots used, value, converged): the value is the mean of its
    final willingness, converged is ``spread <= tol``.
    """
    w0 = _checked_w0(net, max_slots, tol, record_every)
    n = net.n
    sampler = kernels.build_sampler(net)
    rngs = [np.random.Generator(np.random.Philox(s)) for s in seeds]
    spread0 = float(w0.max() - w0.min())
    ws = [w0.tolist() for _ in rngs]
    for rec in records or ():
        rec.append((0, spread0, w0.tolist()))
    state = [(0, spread0)] * len(rngs)
    live = [] if spread0 <= tol else list(range(len(rngs)))
    slot = 0
    chunk = 4 * n
    while live and slot < max_slots:
        count = min(chunk, _CHUNK_SLOTS, max_slots - slot)
        chunk *= 2
        per_group = _CHUNK_SLOTS // count
        still = []
        for start in range(0, len(live), per_group):
            group = live[start : start + per_group]
            uniforms = np.empty((len(group) * count, 3))
            for q, k in enumerate(group):
                rngs[k].random(out=uniforms[q * count : (q + 1) * count])
            out = kernels.gossip_chunk(
                [ws[k] for k in group], *sampler, float(net.delta), float(tol),
                uniforms, slot, [state[k][1] for k in group], record_every,
                None if records is None else [records[k] for k in group],
            )
            for k, (used, spread) in zip(group, out):
                state[k] = (used, spread)
                if spread > tol:
                    still.append(k)
        live = still
        slot += count
    for rec, w, (used, spread) in zip(records or (), ws, state):
        if rec[-1][0] != used:
            rec.append((used, spread, w))
    return [(used, float(np.mean(w)), spread <= tol) for w, (used, spread) in zip(ws, state)]


def run_replica(
    net: AcquaintanceNetwork,
    max_slots: int = DEFAULT_MAX_SLOTS,
    tol: float = DEFAULT_TOL,
    record_every: int | None = None,
    seed: int | np.random.SeedSequence = 0,
) -> SimulationTrace:
    """Simulate one replica until the willingness spread drops to tol.

    ``record_every`` controls snapshot density (default: one per n slots;
    0 disables recording except for the initial and final states).
    Deterministic for a fixed (network, parameters, seed).  Raises
    ``ValueError`` unless every ``|w0| <= DBL_MAX/2`` (NaN included): under
    that bound no sum or weighted mean of two values overflows.

    The replica is a one-replica group of ``_run``, which writes its
    recorded states to one list, the final state last; this turns the
    list into arrays and takes ``final`` from its last record.
    """
    if record_every is None:
        record_every = net.n
    records = []
    ((slot, value, converged),) = _run(net, [seed], max_slots, tol, record_every, [records])
    slots, spreads, snapshots = zip(*records)
    spreads = np.array(spreads)
    return SimulationTrace(
        slots=np.array(slots, dtype=np.int64),
        snapshots=np.array(snapshots),
        spread=spreads,
        final=np.array(snapshots[-1]),
        value=value,
        converged=converged,
        slots_used=slot,
        monotone=bool(np.all(spreads[1:] <= spreads[:-1])),
        seed=seed,
    )


def _outcomes(net: AcquaintanceNetwork, seed, ks: range, max_slots: int, tol: float) -> list:
    """``_run``'s (slots used, value, converged) of each replica k in ``ks``, run unrecorded."""
    return _run(net, [replica_seed(seed, k) for k in ks], max_slots, tol, 0, None)


def _usable_cpus() -> int:
    """CPUs this process may run on, or 1 where it cannot fork or the platform cannot say."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _fork_helper() -> _Helper:
    """Fork a helper that runs each share it reads and writes back its outcomes.

    The helper exits, without running any exit hook, at end of file or
    when a share raises; the caller then runs the share itself.
    """
    request_r, request_w = os.pipe()
    reply_r, reply_w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (request_r, request_w, reply_r, reply_w):
            os.close(fd)
        raise
    if pid == 0:  # _forget_helpers has closed the other helpers' pipes
        try:
            os.close(request_w)
            os.close(reply_r)
            signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is the caller's to handle
            requests, replies = os.fdopen(request_r, "rb"), os.fdopen(reply_w, "wb")
            while True:
                pickle.dump(_outcomes(*pickle.load(requests)), replies)
                replies.flush()
        finally:
            os._exit(0)
    os.close(request_r)
    os.close(reply_w)
    return _Helper(pid, os.fdopen(request_w, "wb"), os.fdopen(reply_r, "rb"))


def _stop(helper: _Helper) -> None:
    """Close a helper's pipes, then kill and reap it: idle, dead, or running a share nobody will read."""
    pid, requests, replies = helper
    for pipe in (requests, replies):
        try:
            pipe.close()
        except OSError:  # the flush of a request a dead helper never read
            pass
    try:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    except (ProcessLookupError, ChildProcessError):  # reaped by someone else
        pass


def _forget_helpers() -> None:
    """In a forked child: close the parent's helper pipes, so each helper still reads end of file when its caller exits."""
    for _, requests, replies in _helpers:
        requests.close()
        replies.close()
    _helpers.clear()


atexit.register(lambda: [_stop(helper) for helper in _helpers])
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helpers)


def _send(helper: _Helper, args: tuple) -> None:
    """Write one share to a helper; raises ``OSError`` if it has died."""
    helper.requests.write(pickle.dumps(args))
    helper.requests.flush()


def _wave_outcomes(net: AcquaintanceNetwork, seed, ks: range, max_slots: int, tol: float) -> list:
    """``_outcomes`` of a wave of replicas ``ks``, split into one contiguous share per usable CPU.

    The wave stays whole, and runs here alone, when a share would hold
    fewer than ``_MIN_SHARE`` replicas.  A helper that cannot take its
    share, dies or fails is stopped, and its share runs here.
    """
    procs = max(1, min(_usable_cpus(), len(ks) // _MIN_SHARE))
    while len(_helpers) < procs - 1:
        try:
            _helpers.append(_fork_helper())
        except OSError:  # no process to spare: share the wave among those there are
            procs = len(_helpers) + 1
    bounds = [len(ks) * p // procs for p in range(procs + 1)]
    shares = [ks[a:b] for a, b in zip(bounds, bounds[1:])]
    parts = [None] * procs
    waiting = dict(enumerate(_helpers[: procs - 1], 1))  # share index -> the helper whose reply is unread
    try:
        for p, helper in waiting.items():
            _send(helper, (net, seed, shares[p], max_slots, tol))
        parts[0] = _outcomes(net, seed, shares[0], max_slots, tol)
        for p, helper in list(waiting.items()):
            parts[p] = pickle.load(helper.replies)
            del waiting[p]
    except (OSError, EOFError, pickle.UnpicklingError):  # a helper has ended
        pass
    finally:  # an unread reply would answer the next wave
        for helper in waiting.values():
            _helpers.remove(helper)
            _stop(helper)
    return [
        out for p, part in enumerate(parts)
        for out in (part if part is not None else _outcomes(net, seed, shares[p], max_slots, tol))
    ]


def simulate_ensemble(
    net: AcquaintanceNetwork,
    replicas: int,
    max_slots: int = DEFAULT_MAX_SLOTS,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
) -> EnsembleSummary:
    """Run independent replicas and summarize their converged values.

    Replica k draws from the stream keyed by (seed, k) and ends exactly as
    ``run_replica`` with that seed and ``record_every=0`` would; the
    summary is identical however the replicas are grouped into waves,
    shares and kernel calls.  A wave is cut into contiguous shares of its
    replica indices, one per usable CPU (``os.sched_getaffinity``), when
    each share holds at least ``_MIN_SHARE`` replicas; the caller runs the
    first and forked helpers the rest.  With one usable CPU, no
    ``os.fork`` or fewer replicas, the wave runs here alone.  Helpers are
    kept for later ensembles and end with the calling process; a helper
    that cannot take its share, dies or fails is stopped, and its share
    runs here, where a failure raises again.  Raises ``ValueError``,
    before any share is sent, unless every ``|w0| <= DBL_MAX/2`` (NaN
    included): under that bound no sum or weighted mean of two values
    overflows.
    """
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    _checked_w0(net, max_slots, tol, 0)  # before a helper is sent a share
    values = np.empty(replicas)
    converged = np.empty(replicas, dtype=bool)
    slots = np.empty(replicas, dtype=np.int64)
    wave = max(1, min(_WAVE_REPLICAS, _WAVE_VALUES // net.n))
    for first in range(0, replicas, wave):
        ks = range(first, min(first + wave, replicas))
        for k, (used, value, done) in zip(ks, _wave_outcomes(net, seed, ks, max_slots, tol)):
            values[k], converged[k], slots[k] = value, done, used

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
        converged=converged,
        slots_used=slots,
        seed=seed,
    )


def write_trace_csv(path: str, trace: SimulationTrace) -> None:
    """Trace export: one row per recorded slot, columns slot,node_*,spread.

    Values are written as ``repr`` of Python floats, which round-trip
    exactly.  About half the cells repeat a value (an untouched node keeps
    its value between records, and an averaged pair shares one), so one
    sort of the snapshots' 64-bit patterns finds the distinct ones and
    ``repr`` runs once per pattern.  Grouping by bits, not by value, keeps
    0.0 and -0.0 apart, so every cell's bytes are ``repr(float(v))``.
    Each row keeps its own newline and goes to the file by ``writelines``:
    one joined string of the whole file would be copied again when the
    text layer encodes it.
    """
    snapshots = np.ascontiguousarray(trace.snapshots, dtype=np.float64)
    n = snapshots.shape[1]
    distinct, index = np.unique(snapshots.view(np.uint64), return_inverse=True)
    texts = list(map(repr, distinct.view(np.float64).tolist()))
    lines = ["slot," + ",".join(f"node_{k}" for k in range(n)) + ",spread\n"]
    # the inverse's shape differs across numpy versions
    for slot, row, spread in zip(trace.slots.tolist(), index.reshape(snapshots.shape), trace.spread.tolist()):
        lines.append(f"{slot},{','.join([texts[i] for i in row.tolist()])},{spread!r}\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
