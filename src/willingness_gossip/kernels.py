"""Hot inner loops: gossip slot iteration and conductance subset scan.

The gossip kernel advances one replica through a chunk of pre-drawn
uniforms, three per slot.  It decodes the whole chunk into meetings with
numpy (``decode_meetings``), then applies them in one scalar loop over
the replica's willingness list, which Python indexes several times faster
than a numpy array element by element.  The loop tracks the running max
and min instead of rescanning all n values every slot, and appends the
recorded states to a list.  The caller sizes each chunk to the slots it
may still spend, so the kernel knows no budget.

The conductance scan evaluates every subset A containing node 0 by
meet-in-the-middle (Horowitz & Sahni, JACM 1974).  The nodes split into a
low block P = {0, ..., h-1}, h = ceil(n/2), and a high block H.  A half
table per block holds each of its subsets' size and cut inside the block;
one matrix product per row block of about 2^15 subsets adds the cut across
the blocks, with inner dimension 2|H| + 2 <= 22, so each subset costs O(n)
work.  Every cut stays a sum of nonnegative entries of K, which keeps
small cuts accurate to a few ulps.
"""

from __future__ import annotations

import numpy as np

# perfbench reads this flag for its environment block.
NUMBA_ENABLED = False


def backend() -> str:
    """Name of the kernel backend; perfbench reads it."""
    return "numpy"


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


def _subset_masks(bits: int) -> np.ndarray:
    """All 2^bits rows of 0/1 floats; row r holds the binary digits of r."""
    idx = np.arange(1 << bits)
    return ((idx[:, None] >> np.arange(bits)) & 1).astype(np.float64)


def _inner_cut(masks: np.ndarray, K: np.ndarray) -> np.ndarray:
    """Weight of K from each mask's members to its non-members, one row per mask."""
    return ((masks @ K) * (1.0 - masks)).sum(axis=1)


def conductance_scan(K: np.ndarray) -> float:
    """Exact conductance: min of n * cut(A) / (|A| (n - |A|)) over all proper A containing node 0.

    Row r of the low table is the subset of P with node 0 and the nodes
    whose bits r sets; column c of the high table is the subset of H that
    c's bits set.  The cut of (r, c) is entry (r, c) of
    ``[M_P K_PH | (1-M_P) K_HP^T | cut_P | 1] @ [(1-M_H) | M_H | 1 | cut_H]^T``,
    a sum of products of nonnegative factors.
    """
    n = K.shape[0]
    h = (n + 1) // 2
    low = np.hstack([np.ones((1 << (h - 1), 1)), _subset_masks(h - 1)])
    high = _subset_masks(n - h)
    left = np.hstack([
        low @ K[:h, h:],
        (1.0 - low) @ K[h:, :h].T,
        _inner_cut(low, K[:h, :h])[:, None],
        np.ones((low.shape[0], 1)),
    ])
    right = np.hstack([
        1.0 - high,
        high,
        np.ones((high.shape[0], 1)),
        _inner_cut(high, K[h:, h:])[:, None],
    ]).T
    low_size = low.sum(axis=1).astype(np.int64)
    high_size = high.sum(axis=1).astype(np.int64)
    sizes = np.arange(n + 1)
    # |A| (n - |A|) by size; the full set (last row, last column: size n, cut 0) is masked below
    denom = np.maximum(sizes * (n - sizes), 1.0)
    rows = max(1, (1 << 15) >> (n - h))  # about 2^15 subsets per block
    best = np.inf
    for start in range(0, len(left), rows):
        block = slice(start, start + rows)
        ratios = n * (left[block] @ right) / denom[low_size[block, None] + high_size]
        if start + rows >= len(left):
            ratios[-1, -1] = np.inf
        best = min(best, float(ratios.min()))
    return best


def gossip_chunk(
    w, nbr_idx, nbr_cum, row_start, x, y, delta, tol, uniforms, slot, spread, record_every, records
):
    """Advance the meeting process by one slot per row of ``uniforms``.

    ``w`` is the list of willingness values, updated in place, and
    ``spread`` its spread on entry.  Averaging sets both endpoints to their
    mean; influence moves the initiator toward the partner with retention
    delta, clamped into the pre-meeting pair interval so the spread is
    exactly non-increasing in floating point.  Either way the new values
    lie inside the old pair interval, so the max and min can only change
    when an updated node held one of them; only then (or when a comparison
    fails on a NaN) are they recomputed.

    Every slot that is a multiple of ``record_every`` (0: none) appends
    ``(slot, spread, w.copy())`` to ``records``.  The chunk ends early at
    the slot where the spread drops to ``tol``.  Returns (slot, spread,
    monotone), where monotone is false if the spread ever grew.
    """
    i, j, kind = decode_meetings(nbr_idx, nbr_cum, row_start, x, y, uniforms)
    mx = max(w)
    mn = min(w)
    if any(v != v for v in w):  # like numpy's max and min, a NaN anywhere makes both NaN
        mx = mn = float("nan")
    monotone = True
    for a, b, k in zip(i.tolist(), j.tolist(), kind.tolist()):
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
            # one pass in bytecode beats the max() and min() builtins here
            mx = w[0]
            mn = w[0]
            for v in w:
                if v > mx:
                    mx = v
                if v < mn:
                    mn = v

        slot += 1
        prev = spread
        spread = mx - mn
        if spread > prev:
            monotone = False
        if record_every and slot % record_every == 0:
            records.append((slot, spread, w.copy()))
        if spread <= tol:
            break
    return slot, spread, monotone


def warmup() -> None:
    """Run both kernels once on tiny inputs; perfbench times it at start-up."""
    nbr_idx = np.array([1, 0], dtype=np.int64)
    row_start = np.array([0, 1, 2], dtype=np.int64)
    gossip_chunk(
        [0.0, 1.0], nbr_idx, np.ones(2), row_start, np.zeros((2, 2)), np.ones((2, 2)),
        0.5, 1e-9, np.full((2, 3), 0.25), 0, 1.0, 1, [],
    )
    conductance_scan(np.full((2, 2), 0.5))
