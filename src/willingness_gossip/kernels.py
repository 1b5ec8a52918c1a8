"""Hot inner loops: gossip slot iteration and conductance subset scan.

The gossip kernel consumes pre-drawn uniforms, three per slot.  It first
decodes a whole chunk of them into meetings with numpy
(``decode_meetings``), then applies the meetings in one scalar loop
(``_apply_meetings``) over Python lists, which index several times
faster than numpy arrays element by element.  The loop tracks the
running max and min instead of rescanning all n values every slot.

The conductance scan evaluates every subset containing node 0 with numpy,
in chunks of 2^14 subsets.
"""

from __future__ import annotations

import numpy as np

# perfbench reads this flag for its environment block.
NUMBA_ENABLED = False


def backend() -> str:
    """Name of the kernel backend; perfbench reads it."""
    return "numpy"


# Chunk status codes returned by the gossip kernel.
CHUNK_EXHAUSTED = 0
CONVERGED = 1
BUDGET_EXHAUSTED = 2

# Meeting kind codes returned by decode_meetings.
KIND_REGULAR = 0
KIND_INFLUENCE = 1
KIND_PERSISTENT = 2


def decode_meetings(nbr_idx, nbr_cum, row_start, x, y, uniforms):
    """Decode uniform triples, one row per slot, into meetings (i, j, kind).

    The initiator is ``min(int(u0 * n), n - 1)``.  The partner is the
    first entry of the initiator's CSR row whose cumulative probability
    exceeds u1, found by a bisection run in lockstep over all rows that
    makes the same ``nbr_cum[mid] > u1`` comparisons as a scalar search
    of that row alone.  The kind is regular if ``u2 < y[i, j]``, influence
    if ``u2 < y[i, j] + x[i, j]``, persistent otherwise.  Returns three
    int64 arrays.
    """
    n = row_start.shape[0] - 1
    u1 = uniforms[:, 1]
    u2 = uniforms[:, 2]
    i = (uniforms[:, 0] * n).astype(np.int64)
    np.minimum(i, n - 1, out=i)
    lo = row_start[i]
    hi = row_start[i + 1]
    # A settled search (lo == hi) is a fixed point of the step below:
    # nbr_cum[lo] > u1 holds there, because every row ends at 1.0 > u1.
    while (lo < hi).any():
        mid = (lo + hi) >> 1
        left = nbr_cum[mid] > u1
        hi = np.where(left, mid, hi)
        lo = np.where(left, lo, mid + 1)
    j = nbr_idx[lo]
    flat = i * n + j
    yy = y.take(flat)
    kind = np.full(i.shape[0], KIND_PERSISTENT, dtype=np.int64)
    kind[u2 < yy + x.take(flat)] = KIND_INFLUENCE
    kind[u2 < yy] = KIND_REGULAR
    return i, j, kind


def _apply_meetings(
    w,
    i,
    j,
    kind,
    mx,
    mn,
    delta,
    tol,
    slot,
    max_slots,
    prev_spread,
    record_every,
    rec_w,
    rec_spread,
    rec_slots,
    rec_count,
):
    """Apply decoded meetings one slot at a time; the gossip kernel's loop.

    Mutates the list ``w`` and the rec_* buffers in place; ``mx`` and
    ``mn`` are the max and min of ``w`` on entry.  Averaging sets both
    endpoints to their mean; influence moves the initiator toward the
    partner with retention delta, clamped into the pre-meeting pair
    interval so the willingness spread is exactly non-increasing in
    floating point.  Either way the new values lie inside the old pair
    interval, so the max and min can only change when an updated node held
    one of them; only then (or when a comparison fails on a NaN) are they
    recomputed.

    Returns (slot, prev_spread, rec_count, status, monotone_ok).
    """
    monotone_ok = True
    status = CHUNK_EXHAUSTED
    for a, b, k in zip(i, j, kind):
        if slot >= max_slots:
            status = BUDGET_EXHAUSTED
            break
        inside = True
        if k == KIND_REGULAR:
            wa = w[a]
            wb = w[b]
            avg = 0.5 * (wa + wb)
            w[a] = avg
            w[b] = avg
            inside = mn < wa < mx and mn < wb < mx
        elif k == KIND_INFLUENCE:
            wa = w[a]
            wb = w[b]
            v = delta * wa + (1.0 - delta) * wb
            pair_lo = wa if wa < wb else wb
            pair_hi = wa if wa > wb else wb
            if v < pair_lo:
                v = pair_lo
            if v > pair_hi:
                v = pair_hi
            w[a] = v
            inside = mn < wa < mx
        # else persistent: no change
        if not inside:
            mx = w[0]
            mn = w[0]
            for v in w:
                if v > mx:
                    mx = v
                if v < mn:
                    mn = v

        slot += 1
        spread = mx - mn
        if spread > prev_spread:
            monotone_ok = False
        prev_spread = spread

        if record_every > 0 and slot % record_every == 0:
            rec_slots[rec_count] = slot
            rec_spread[rec_count] = spread
            rec_w[rec_count, :] = w
            rec_count += 1

        if spread <= tol:
            status = CONVERGED
            break

    return slot, prev_spread, rec_count, status, monotone_ok


def conductance_scan(K: np.ndarray) -> float:
    """Exact conductance: evaluate all subsets containing node 0 in chunks."""
    n = K.shape[0]
    total = 1 << (n - 1)
    bit_cols = np.arange(n - 1, dtype=np.uint32)
    best = np.inf
    chunk = 1 << 14
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.uint32)
        masks = np.empty((idx.size, n))
        masks[:, 0] = 1.0
        masks[:, 1:] = (idx[:, None] >> bit_cols[None, :]) & 1
        size_a = masks.sum(axis=1)
        cut = ((masks @ K) * (1.0 - masks)).sum(axis=1)
        proper = size_a < n
        ratios = n * cut[proper] / (size_a[proper] * (n - size_a[proper]))
        if ratios.size:
            best = min(best, float(ratios.min()))
    return best


def gossip_chunk(
    w,
    nbr_idx,
    nbr_cum,
    row_start,
    x,
    y,
    delta,
    tol,
    uniforms,
    slot,
    max_slots,
    prev_spread,
    record_every,
    rec_w,
    rec_spread,
    rec_slots,
    rec_count,
):
    """Advance the meeting process through one chunk of uniforms.

    Mutates ``w`` and the rec_* buffers in place; the buffers must have
    room for every slot of the chunk that falls on a multiple of
    ``record_every``.  Each slot draws an initiator uniformly, a partner
    from the initiator's meeting row (CSR-style cumulative table) and a
    meeting kind from (y, x, rest); see ``decode_meetings`` and
    ``_apply_meetings``.

    Returns (slot, prev_spread, rec_count, status, monotone_ok).
    """
    i, j, kind = decode_meetings(nbr_idx, nbr_cum, row_start, x, y, uniforms)
    values = w.tolist()
    out = _apply_meetings(
        values, i.tolist(), j.tolist(), kind.tolist(), float(w.max()), float(w.min()),
        delta, tol, slot, max_slots, prev_spread, record_every, rec_w, rec_spread,
        rec_slots, rec_count,
    )
    w[:] = values
    return out


def warmup() -> None:
    """Run both kernels once on tiny inputs; perfbench times it at start-up."""
    w = np.array([0.0, 1.0])
    nbr_idx = np.array([1, 0], dtype=np.int64)
    nbr_cum = np.array([1.0, 1.0])
    row_start = np.array([0, 1, 2], dtype=np.int64)
    x = np.zeros((2, 2))
    y = np.ones((2, 2))
    uniforms = np.full((2, 3), 0.25)
    rec_w = np.zeros((4, 2))
    rec_spread = np.zeros(4)
    rec_slots = np.zeros(4, dtype=np.int64)
    gossip_chunk(
        w, nbr_idx, nbr_cum, row_start, x, y, 0.5, 1e-9, uniforms,
        0, 2, 1.0, 1, rec_w, rec_spread, rec_slots, 0,
    )
    conductance_scan(np.full((2, 2), 0.5))
