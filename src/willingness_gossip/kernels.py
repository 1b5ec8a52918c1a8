"""Hot inner loops: gossip slot iteration and conductance subset scan.

The gossip kernel advances a group of replicas, all at the same slot,
through one chunk of pre-drawn uniforms each, three per slot.  It
decodes the whole group into meetings with one numpy call
(``decode_meetings``) from the padded meeting table of
``build_sampler``, whose docstring gives its layout: each partner is
found by the same log2(width) steps of a fixed-step search (Khuong &
Morin, ACM JEA 2017), run over all rows at once without a data-dependent
loop.  It drops the persistent meetings, which change nothing, and
applies the rest, each as a regular/influence flag and its two
endpoints, to each replica's willingness list, which Python indexes
several times faster than a numpy array element by element.  Finding the
slot where the spread reaches tol is the only reason to look at the
values, and every meeting leaves both endpoints inside the old pair
interval, because ``gossip._run`` refuses values beyond +-DBL_MAX/2 and
so no sum or weighted mean overflows; the spread never grows.  The loop
therefore applies blocks of at least 4n meetings without tracking
anything and takes the spread once per block; the block that ends at or
below tol is bisected, one ``max(w) - min(w)`` per halving, down to the
meeting that reaches it.  Recording splits the chunk at the recorded
slots instead of testing every slot; the kernel records only those a
replica passes before it stops, and ``gossip._run`` writes the rest of
the trace.  The caller sizes each chunk to the slots a replica may still
spend, so the kernel knows no budget.

The conductance scan evaluates every subset A containing node 0 by
meet-in-the-middle (Horowitz & Sahni, JACM 1974).  The nodes split into a
low block P = {0, ..., h-1}, h = ceil(n/2), and a high block H.  A half
table per block holds each of its subsets' size and cut inside the block;
one matrix product per row block of about 2^15 subsets adds the cut across
the blocks, with inner dimension 2|H| + 2 <= 22, so each subset costs O(n)
work.  Every cut stays a sum of nonnegative entries of K, which keeps
small cuts accurate to a few ulps.  The high table's columns run in order
of subset size, so each block reduces to the smallest cut of each size,
and only the n - 1 per-size minima are divided by |A| (n - |A|).  That is
the same float as dividing every cut, because rounded multiplication and
division by a positive number never decrease as the cut grows.  The masks
and every K-independent row of the high table depend on n alone; they are
built once per n and cached read-only (``_scan_tables``).  A call writes
its K columns in place, one low-table array and one copy of the high rows,
runs every block's product into one reused buffer, and reduces the
per-block minima over the low sizes once at the end.  Rebuilt on every
call, the tables and a fresh product per block were temporaries of 128 KiB
and more, and the first touch of their freshly mapped pages cost more than
the arithmetic.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .network import AcquaintanceNetwork

# perfbench reads this flag for its environment block.
NUMBA_ENABLED = False

# The slot loop applies a replica's meetings in blocks of at least this
# many, and of at least 4n, and checks the spread once per block.
_BLOCK_MEETINGS = 128


def backend() -> str:
    """Name of the kernel backend; perfbench reads it."""
    return "numpy"


# Meeting kind codes returned by decode_meetings.
KIND_REGULAR = 0
KIND_INFLUENCE = 1
KIND_PERSISTENT = 2


def build_sampler(net: AcquaintanceNetwork):
    """Padded cumulative meeting table: (table, partner, width, x, y).

    ``width`` is the smallest power of two at least the largest degree.
    Row i of the flat float64 ``table`` is ``table[i*width:(i+1)*width]``:
    the cumulative probabilities of i's partners in index order, ending
    exactly at 1.0 (each row rescaled by its own sum, which the validator
    already pins to 1 within 1e-9), then ``+inf``.  ``partner`` (int32),
    ``x`` and ``y`` hold each edge's head and type probabilities in the
    same layout, 0 in the padding.  The sums run along the zero-padded
    rows, and adding a zero is exact, so the last entry of a row, divided
    by itself, is exactly 1.0.
    """
    met = net.met
    degree = np.bincount(net.tails[met], minlength=net.n)
    if not degree.all():
        raise ValueError(f"node {int(np.argmin(degree))} has no meeting partners")
    width = 1 << int(degree.max() - 1).bit_length()
    # row i's first degree[i] cells; the mask fills row-major, the order of the edge list
    filled = (np.arange(width) < degree[:, None]).ravel()
    table, x, y = padded = np.zeros((3, net.n * width))
    padded[:, filled] = [net.p[met], net.x[met], net.y[met]]
    rows = table.reshape(net.n, width)
    np.cumsum(rows, axis=1, out=rows)
    rows /= rows[:, -1:]
    table[~filled] = np.inf
    partner = np.zeros(net.n * width, dtype=np.int32)
    partner[filled] = net.heads[met]
    return table, partner, width, x, y


def decode_meetings(table, partner, width, x, y, uniforms):
    """Decode uniform triples, one row per slot, into meetings (i, j, kind).

    ``(table, partner, width, x, y)`` is the padded meeting table of
    :func:`build_sampler`.  The initiator is ``min(int(u0 * n), n - 1)``.
    The partner is at the first position ``pos`` of the initiator's row
    with cumulative probability above u1, found by a fixed-step search over
    all rows at once: for step = width/2, ..., 1, pos moves on by step if
    the entry step - 1 ahead is ``<= u1``.  That is log2(width) steps with
    no test for whether every search has settled, and it ends on the first
    entry above u1 because the entries ``<= u1`` form a prefix of the row
    that never reaches its last real entry, 1.0.  The kind is regular if
    ``u2 < y[pos]``, influence if ``u2 < y[pos] + x[pos]``, persistent
    otherwise; as ``x >= 0``, that is the number of those two bounds that
    u2 reaches.  Returns three int64 arrays.
    """
    n = table.shape[0] // width
    u0, u1, u2 = uniforms.T.copy()
    i = (u0 * n).astype(np.int64)
    np.minimum(i, n - 1, out=i)
    pos = i * width
    step = width >> 1
    while step:
        pos += (table[step - 1 :].take(pos) <= u1) * step
        step >>= 1
    j = partner.take(pos).astype(np.int64)
    yy = y.take(pos)
    kind = np.add(u2 >= yy, u2 >= yy + x.take(pos), dtype=np.int64)
    return i, j, kind


def _subset_masks(bits: int) -> np.ndarray:
    """All 2^bits rows of 0/1 floats; row r holds the binary digits of r."""
    idx = np.arange(1 << bits)
    return ((idx[:, None] >> np.arange(bits)) & 1).astype(np.float64)


def _inner_cut(masks: np.ndarray, outside: np.ndarray, K: np.ndarray) -> np.ndarray:
    """Weight of K from each mask's members to its non-members, ``outside = 1 - masks``, one row per mask."""
    return ((masks @ K) * outside).sum(axis=1)


class _ScanTables(NamedTuple):
    """The K-independent tables of a conductance scan over n nodes, all read-only."""

    low: np.ndarray  # the low block's subsets, node 0's column included
    low_out: np.ndarray  # 1 - low
    high: np.ndarray  # the high block's subsets in binary order
    right: np.ndarray  # rows 1-high, high, ones of the size-sorted right table, F order
    by_size: np.ndarray  # the high subsets in stable order of size
    group_start: np.ndarray  # first column of each high size 0..n-h in ``right``
    low_order: np.ndarray  # the low rows in stable order of size
    low_start: np.ndarray  # first entry of each low size 1..h in ``low_order``


@functools.lru_cache(maxsize=4)
def _scan_tables(n: int) -> _ScanTables:
    """Build the tables of :func:`conductance_scan` for n nodes, once per n.

    They depend on n alone.  The four most recent sizes stay cached, so a
    portfolio of networks at a few sizes builds them once per size, and a
    direct call at a larger n is pushed out by the next four sizes.
    """
    h = (n + 1) // 2
    low = np.hstack([np.ones((1 << (h - 1), 1)), _subset_masks(h - 1)])
    high = _subset_masks(n - h)
    low_size = low.sum(axis=1).astype(np.int64)
    high_size = high.sum(axis=1).astype(np.int64)
    by_size = np.argsort(high_size, kind="stable")
    low_order = np.argsort(low_size, kind="stable")
    tables = _ScanTables(
        low=low,
        low_out=1.0 - low,
        high=high,
        right=np.hstack([1.0 - high, high, np.ones((high.shape[0], 1))])[by_size].T,
        by_size=by_size,
        group_start=np.searchsorted(high_size[by_size], np.arange(n - h + 1)),
        low_order=low_order,
        low_start=np.searchsorted(low_size[low_order], np.arange(1, h + 1)),
    )
    for table in tables:
        table.flags.writeable = False
    return tables


def conductance_scan(K: np.ndarray) -> float:
    """Exact conductance: min of n * cut(A) / (|A| (n - |A|)) over all proper A containing node 0.

    Row r of the low table is the subset of P with node 0 and the nodes
    whose bits r sets; the columns of the high table are the subsets of H,
    in stable order of size.  The cut of (r, c) is entry (r, c) of
    ``[M_P K_PH | (1-M_P) K_HP^T | cut_P | 1] @ [(1-M_H) | M_H | 1 | cut_H]^T``,
    a sum of products of nonnegative factors.  The masks and the first
    2|H| + 1 rows of the right factor depend on n alone and come from
    :func:`_scan_tables`; a call writes the three K columns of the left
    factor into one array and ``cut_H`` into the last row of one copy of
    the right rows.  Every row block's product goes into one reused buffer
    and is reduced there to the smallest cut of each high size; one
    ``reduceat`` over the low sizes and one ``minimum.at`` then give the
    smallest cut of each size k, divided once per size: ``fl(n c)`` and
    ``fl(fl(n c) / d)`` never decrease as c grows, so the smallest cut of
    a size gives exactly its smallest ratio.
    """
    n = K.shape[0]
    h = (n + 1) // 2
    t = _scan_tables(n)
    inner = 2 * (n - h) + 2
    left = np.empty((t.low.shape[0], inner))
    np.matmul(t.low, K[:h, h:], out=left[:, : n - h])
    np.matmul(t.low_out, K[h:, :h].T, out=left[:, n - h : -2])
    left[:, -2] = _inner_cut(t.low, t.low_out, K[:h, :h])
    left[:, -1] = 1.0
    right = np.empty((inner, t.high.shape[0]), order="F")
    right[:-1] = t.right
    right[-1] = _inner_cut(t.high, 1.0 - t.high, K[h:, h:])[t.by_size]
    rows = min(len(left), max(1, (1 << 15) >> (n - h)))  # about 2^15 subsets per block
    product = np.empty((rows, right.shape[1]))
    mins = np.empty((len(left), n - h + 1))  # smallest cut of each high size, one row per low subset
    for start in range(0, len(left), rows):
        block = slice(start, start + rows)
        # Every block has the same shape: BLAS may round an entry differently
        # in the last bit when the shape changes.  Size group g of the high
        # table holds C(n - h, g) >= 1 columns, and low size s in 1..h holds
        # C(h - 1, s - 1) >= 1 rows, so reduceat never meets an empty group
        # (it would return the entry at the group's start, not +inf).
        np.matmul(left[block], right, out=product)
        np.minimum.reduceat(product, t.group_start, axis=1, out=mins[block])
    by_low = np.minimum.reduceat(mins[t.low_order], t.low_start, axis=0)
    cut = np.full(n + 1, np.inf)  # smallest cut by subset size; size n, the full set, is never read
    np.minimum.at(cut, np.arange(1, h + 1)[:, None] + np.arange(n - h + 1), by_low)
    k = np.arange(1, n)
    return float((n * cut[1:n] / (k * (n - k))).min())


def _mix(w, meetings, delta):
    """Apply meetings (regular, i, j) to the list ``w``, tracking nothing.

    ``regular`` is true for an averaging meeting and false for an influence
    meeting.  This is the library's one copy of the update rule, with the
    arithmetic of ``apply_meeting`` in ``tests/conftest.py``, the reference
    rule the tests fold against it: averaging sets both endpoints to their
    mean, influence moves the initiator toward the partner with retention
    delta, clamped into the pre-meeting pair interval.
    """
    keep = 1.0 - delta
    for regular, a, b in meetings:
        wa = w[a]
        wb = w[b]
        if regular:
            w[a] = w[b] = 0.5 * (wa + wb)
            continue
        v = delta * wa + keep * wb
        if wa < wb:
            if v < wa:
                v = wa
            elif v > wb:
                v = wb
        elif v < wb:
            v = wb
        elif v > wa:
            v = wa
        w[a] = v


def _segment(w, regular, i_all, j_all, lo, hi, block, delta, tol, spread):
    """Apply the meetings in rows lo:hi of the lists to ``w`` until its spread reaches tol.

    Returns (1 + the list row of the meeting that reached tol, or 0;
    spread); ``gossip_chunk`` maps that row to its slot.  Each run of
    ``block`` meetings goes through ``_mix`` with the spread taken once, at
    its end.  No meeting moves a value outside the old pair interval, so
    the spread never grows and "spread <= tol" holds from one meeting of a
    block on.  A block whose spread stays above tol is kept.  One that
    reached tol is restored and bisected: its first half is applied and
    kept while the spread stays above tol, restored otherwise, down to the
    one meeting that reaches tol, which is then applied.
    """
    while lo < hi:
        end = min(lo + block, hi)
        saved = w.copy()
        _mix(w, zip(regular[lo:end], i_all[lo:end], j_all[lo:end]), delta)
        spread = max(w) - min(w)
        if spread <= tol:
            w[:] = saved
            while end - lo > 1:
                mid = (lo + end) // 2
                saved = w.copy()
                _mix(w, zip(regular[lo:mid], i_all[lo:mid], j_all[lo:mid]), delta)
                if max(w) - min(w) > tol:
                    lo = mid
                else:
                    w[:] = saved
                    end = mid
            _mix(w, ((regular[lo], i_all[lo], j_all[lo]),), delta)
            return lo + 1, max(w) - min(w)
        lo = end
    return 0, spread


def gossip_chunk(
    ws, table, partner, width, x, y, delta, tol, uniforms, slot, spreads, record_every, records
):
    """Advance a group of replicas, all standing at ``slot``, by one chunk of slots each.

    ``ws`` holds each replica's willingness list, updated in place, and
    ``spreads`` their spreads on entry, all above tol.  ``uniforms`` holds
    ``count`` rows per replica, one per slot, replica q's in the q-th block
    of ``count`` rows; one ``decode_meetings`` call decodes the whole group
    from the meeting table ``(table, partner, width, x, y)`` of
    ``build_sampler``.  The update rule (``_mix``) keeps the spread exactly
    non-increasing in floating point on values within +-DBL_MAX/2, the
    bound ``gossip._run`` enforces.  Persistent meetings change nothing, so
    only the others reach the slot loop (``_segment``), as three lists: a
    bool that is true for a regular meeting, the initiator and the partner.

    A replica stops at the slot where its spread drops to tol.  The loop
    applies blocks of ``max(_BLOCK_MEETINGS, 4n)`` meetings blind and takes
    the spread at each block's end; the block where it reaches tol is
    bisected down to the meeting that reaches it, and that meeting's row
    gives the stop slot.  The stop slot and the spread are those of a
    slot-by-slot check.  With ``record_every`` > 0, replica q appends
    ``(slot, spread, w.copy())`` to ``records[q]`` at every slot that is a
    multiple of it and comes before its stop slot: the loop runs from one
    such slot to the next and never tests for them.  The stop slot's state
    is the final one, which ``gossip._run`` records.  Returns one
    (slot, spread) per replica.
    """
    group = len(ws)
    count = uniforms.shape[0] // group
    i, j, kind = decode_meetings(table, partner, width, x, y, uniforms)
    rows = np.flatnonzero(kind != KIND_PERSISTENT)
    regular = (kind[rows] == KIND_REGULAR).tolist()
    i_all = i[rows].tolist()
    j_all = j[rows].tolist()
    end = slot + count
    marks = list(range(slot - slot % record_every + record_every, end + 1, record_every)) if record_every else []
    # row offsets where each replica's segments end: one per recorded slot, then the chunk's end
    ends = np.arange(group)[:, None] * count + np.array([m - slot for m in marks] + [count])
    cuts = np.searchsorted(rows, ends).tolist()
    block = max(_BLOCK_MEETINGS, 4 * len(ws[0]))
    out = []
    lo = 0
    for q, w in enumerate(ws):
        spread = spreads[q]
        for mark, cut in zip(marks + [0], cuts[q]):
            stop, spread = _segment(w, regular, i_all, j_all, lo, cut, block, delta, tol, spread)
            if stop:
                stop = int(rows[stop - 1]) % count + slot + 1
                break
            if mark:
                records[q].append((mark, spread, w.copy()))
            lo = cut
        out.append((stop or end, spread))
        lo = cuts[q][-1]
    return out


def warmup() -> None:
    """Run both kernels once on tiny inputs; perfbench times it at start-up."""
    # the complete averaging network on three nodes: two partners each, so width 2 and the search takes a step
    net = AcquaintanceNetwork(
        n=3, delta=0.5, w0=[0.0, 1.0, 0.5], tails=[0, 0, 1, 1, 2, 2], heads=[1, 2, 0, 2, 0, 1],
        p=np.full(6, 0.5), x=np.zeros(6), y=np.ones(6), z=np.zeros(6),
    )
    gossip_chunk(
        [net.w0.tolist(), net.w0.tolist()], *build_sampler(net),
        0.5, 1e-9, np.full((4, 3), 0.25), 0, [1.0, 1.0], 1, [[], []],
    )
    conductance_scan(np.full((2, 2), 0.5))
