"""The gossip kernel must agree with the meeting decoder and the reference update rule."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import apply_meeting, network_from_dense
from test_gossip import HALF_MAX, per_row_sampler

from willingness_gossip import kernels
from willingness_gossip.fixtures import bridged_clusters, random_network
from willingness_gossip.kernels import build_sampler
from willingness_gossip.meanfield import build_mean_matrices
from willingness_gossip.network import dense


def drive(net, uniforms, tol=1e-9, group=1):
    """Run one chunk of ``group`` replicas from w0 at slot 0, recording every slot.

    Returns each replica's (willingness list, records, (slot, spread));
    replica q reads the q-th block of ``len(uniforms) // group`` rows.
    """
    ws = [net.w0.tolist() for _ in range(group)]
    records = [[] for _ in range(group)]
    out = kernels.gossip_chunk(
        ws, *build_sampler(net), float(net.delta), tol,
        uniforms, 0, [float(net.w0.max() - net.w0.min())] * group, 1, records,
    )
    return list(zip(ws, records, out))


def _ring(*shifts):
    """Node k meets node k + s for each shift s, with equal weights: degree len(shifts), all three kinds.

    One shift gives width 1, a search of no steps; two give width 2, a search of one step.
    """
    p = sum(np.roll(np.eye(6), s, axis=1) for s in shifts) / len(shifts)
    return network_from_dense(n=6, delta=0.3, p=p, x=0.3 * p, y=0.5 * p, z=0.2 * p, w0=np.linspace(0.0, 1.0, 6))


def _tied_cumulative():
    """Row 0 holds two equal consecutive cumulative values: p[0, 2] is below one ulp of 0.5."""
    net = random_network(np.random.default_rng(4), 8, extra_edge_prob=1.0)
    p = net.p.copy()
    p[net.tails == 0] = [0.5, 1e-300, 0.5, 0.0, 0.0, 0.0, 0.0]  # row 0 lists partners 1..7
    return dataclasses.replace(net, p=p)


def test_decode_meetings_matches_per_row_searchsorted():
    # (name, network, largest degree): widths 32, 1, 2, 16, 32, 16, 64 and 8
    nets = [
        ("random-n30", random_network(np.random.default_rng(20260810), 30, extra_edge_prob=0.6), 23),
        ("ring", _ring(1), 1),
        ("two-way-ring", _ring(1, -1), 2),
        ("max-degree-16", random_network(np.random.default_rng(2), 30, extra_edge_prob=0.35), 16),
        ("max-degree-17", random_network(np.random.default_rng(1), 30, extra_edge_prob=0.4), 17),
        ("complete-n12", random_network(np.random.default_rng(5), 12, extra_edge_prob=1.0), 11),
        ("complete-n40", random_network(np.random.default_rng(6), 40, extra_edge_prob=1.0), 39),
        ("tied-cumulative", _tied_cumulative(), 7),
    ]
    for name, net, max_degree in nets:
        # the oracle reads net.p row by row, not the padded table
        nbr_idx, nbr_cum, row_start = per_row_sampler(net)
        n = net.n
        degree = np.diff(row_start)
        assert degree.max() == max_degree, name
        uniforms = np.random.default_rng(3).random((5000, 3))
        # u0 one ulp below 1 picks the last initiator
        uniforms[0, 0] = np.nextafter(1.0, 0.0)
        # u1 exactly on each row's cumulative boundaries, and one ulp either side
        rows = np.repeat(np.arange(n), degree)
        edges = np.concatenate([nbr_cum, np.nextafter(nbr_cum, 0.0), np.nextafter(nbr_cum, 2.0)])
        edge_rows = np.tile(rows, 3)
        keep = edges < 1.0
        m = int(keep.sum())
        uniforms[1 : 1 + m, 0] = (edge_rows[keep] + 0.5) / n
        uniforms[1 : 1 + m, 1] = edges[keep]
        uniforms[1 + m, 1] = 0.0

        i, j, kind = kernels.decode_meetings(*build_sampler(net), uniforms)
        assert i.dtype == j.dtype == kind.dtype == np.int64
        assert i[0] == n - 1, name
        # the same meetings again with u2 exactly on the bounds y and y + x of the kinds
        x, y = dense(net, net.x), dense(net, net.y)
        on_bounds = uniforms.copy()
        on_bounds[::2, 2] = y[i, j][::2]
        on_bounds[1::2, 2] = (y + x)[i, j][1::2]
        uniforms = np.vstack([uniforms, on_bounds])
        i, j, kind = kernels.decode_meetings(*build_sampler(net), uniforms)
        for t in range(uniforms.shape[0]):
            u0, u1, u2 = uniforms[t]
            ii = min(int(u0 * n), n - 1)
            row = slice(row_start[ii], row_start[ii + 1])
            k = int(np.searchsorted(nbr_cum[row], u1, side="right"))
            jj = nbr_idx[row][k]
            yy, xx = y[ii, jj], x[ii, jj]
            code = 0 if u2 < yy else 1 if u2 < yy + xx else 2
            assert (i[t], j[t], kind[t]) == (ii, jj, code), (name, t)
        if name == "tied-cumulative":
            assert nbr_cum[0] == nbr_cum[1] == 0.5 and nbr_cum[2] == 1.0


def test_gossip_chunk_equals_folded_apply_meeting(rng):
    base = random_network(rng, 8)
    # values in {0, 1} only: several nodes tie for the max and the min
    net = dataclasses.replace(base, w0=np.array([0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0]))
    uniforms = np.random.default_rng(11).random((3000, 3))
    ((w, records, (slots_used, spread_out)),) = drive(net, uniforms)
    assert slots_used > 100
    stopped = slots_used < uniforms.shape[0]
    assert len(records) == slots_used - stopped  # a stop slot's state is gossip._run's to record

    i, j, kind = kernels.decode_meetings(*build_sampler(net), uniforms)
    ref = net.w0.copy()
    prev = ref.max() - ref.min()
    monotone = True
    for t in range(slots_used):
        ref = apply_meeting(ref, int(i[t]), int(j[t]), int(kind[t]), net.delta)
        spread = ref.max() - ref.min()
        monotone = monotone and spread <= prev
        prev = spread
        if t < len(records):
            slot, rec_spread, rec_w = records[t]
            assert slot == t + 1
            assert np.array_equal(rec_w, ref), t
            assert rec_spread == spread
    assert np.array_equal(w, ref)
    assert spread_out == prev
    assert monotone
    assert (prev <= 1e-9) == stopped


def fold(net, uniforms, tol, record_every):
    """One replica from w0 at slot 0, slot by slot with ``apply_meeting``: (w, records, (slot, spread)).

    Like the kernel, it records no mark at or after the slot where the spread reaches tol.
    """
    i, j, kind = kernels.decode_meetings(*build_sampler(net), uniforms)
    w = net.w0.copy()
    records = []
    for t in range(uniforms.shape[0]):
        w = apply_meeting(w, int(i[t]), int(j[t]), int(kind[t]), net.delta)
        spread = w.max() - w.min()
        if spread <= tol:
            break
        if record_every and (t + 1) % record_every == 0:
            records.append((t + 1, float(spread), w.tolist()))
    return w.tolist(), records, (t + 1, float(spread))


def _no_persistent(net):
    """``net`` with every meeting regular or influence: slot t is row t - 1, so blocks end at slots 128, 256, ..."""
    return dataclasses.replace(net, y=np.where(net.p > 0.0, 1.0 - net.x, 0.0), z=np.zeros_like(net.z))


def _spread_at(net, uniforms, slot):
    """The spread after ``slot`` slots, folded with ``apply_meeting``: a tol that the replica reaches there."""
    return fold(net, uniforms[:slot], 0.0, 0)[2][1]


NET8 = _no_persistent(random_network(np.random.default_rng(3), 8))
NET50 = random_network(np.random.default_rng(1), 50, extra_edge_prob=8 / 50)


def _uniforms(seed, rows):
    return np.random.default_rng(seed).random((rows, 3))


# (network, uniforms, tol, group, record_every, slot each replica must stop at, or 0 for the chunk's end).
# NET8 has blocks of 128 meetings, one per slot; the seeds put a drop of the spread where each case needs it.
# The bisection of block 2 (slots 129..256) first takes the spread at slot 192.
BLOCK_CASES = {
    "cross-on-last-meeting-of-block-1": (NET8, _uniforms(1, 400), _spread_at(NET8, _uniforms(1, 400), 128), 1, 0, [128]),
    "cross-on-first-meeting-of-block-2": (NET8, _uniforms(2, 400), _spread_at(NET8, _uniforms(2, 400), 129), 1, 0, [129]),
    "cross-on-block-end-at-a-mark": (NET8, _uniforms(1, 400), _spread_at(NET8, _uniforms(1, 400), 128), 1, 8, [128]),
    "cross-on-slot-1": (NET8, _uniforms(15, 400), _spread_at(NET8, _uniforms(15, 400), 1), 1, 0, [1]),
    "cross-on-slot-191": (NET8, _uniforms(13, 400), _spread_at(NET8, _uniforms(13, 400), 191), 1, 0, [191]),
    "cross-on-slot-192-a-midpoint-of-block-2": (NET8, _uniforms(16, 400), _spread_at(NET8, _uniforms(16, 400), 192), 1, 0, [192]),
    "cross-on-slot-193": (NET8, _uniforms(31, 400), _spread_at(NET8, _uniforms(31, 400), 193), 1, 0, [193]),
    "mark-on-the-end-of-block-2": (NET8, _uniforms(2, 384), 1e-300, 1, 256, [0]),
    "chunk-shorter-than-a-block": (NET8, _uniforms(2, 50), 1e-300, 1, 0, [0]),
    "cross-in-a-chunk-shorter-than-a-block": (NET8, _uniforms(8, 100), 1e-4, 1, 0, [84]),
    "group-crosses-in-block-1-and-in-block-2": (NET8, np.vstack([_uniforms(8, 300), _uniforms(10, 300)]), 1e-4, 2, 0, [84, 171]),
    "random-n50-group-of-3": (NET50, _uniforms(5, 3 * 2000), 1e-3, 3, 0, None),
    "random-n50-group-of-3-marks-n": (NET50, _uniforms(5, 3 * 2000), 1e-3, 3, 50, None),
}


@pytest.mark.parametrize("case", BLOCK_CASES)
def test_blocks_equal_the_exact_loop_and_the_fold(case):
    """A chunk of blind blocks ends with the fold's stop slot, spread, values and records."""
    net, uniforms, tol, group, record_every, stops = BLOCK_CASES[case]
    count = uniforms.shape[0] // group
    spread0 = float(net.w0.max() - net.w0.min())
    ws = [net.w0.tolist() for _ in range(group)]
    records = [[] for _ in range(group)]
    out = kernels.gossip_chunk(
        ws, *build_sampler(net), float(net.delta), tol,
        uniforms, 0, [spread0] * group, record_every, records,
    )
    if stops is not None:
        assert [slot for slot, _ in out] == [stop or count for stop in stops]
    for q in range(group):
        ref = fold(net, uniforms[q * count : (q + 1) * count], tol, record_every)
        # repr compares floats exactly, the sign of zero included
        assert repr((ws[q], records[q], out[q])) == repr(ref)


# the values gossip._run accepts, with its bounds, subnormals and both zeros drawn often
ACCEPTED = st.one_of(
    st.floats(-HALF_MAX, HALF_MAX),
    st.sampled_from([HALF_MAX, -HALF_MAX, np.nextafter(HALF_MAX, 0.0), 5e-324, -5e-324, 1e-310, 0.0, -0.0]),
)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 8),
    pool=st.lists(ACCEPTED, min_size=1, max_size=4),
    picks=st.lists(st.integers(0, 3), min_size=8, max_size=8),
    delta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    tol_frac=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    tol_at=st.one_of(st.none(), st.integers(1, 600)),
    rows=st.integers(1, 600),
    record_every=st.sampled_from([0, 1, None]),
)
@example(seed=3, n=6, pool=[-HALF_MAX, HALF_MAX], picks=[0, 1, 1, 0, 1, 0, 0, 1], delta=0.3, tol_frac=1e-300,
         tol_at=None, rows=400, record_every=None)
def test_property_gossip_chunk_equals_the_fold_on_accepted_w0(
    seed, n, pool, picks, delta, tol_frac, tol_at, rows, record_every
):
    """On any w0 within +-DBL_MAX/2 the blind blocks end as the ``apply_meeting`` fold, whose spread never grows.

    ``w0`` takes its n values from a pool of at most four, so values tie.
    tol is the spread after ``tol_at`` slots, hit exactly, or when that is
    None or past the chunk a fraction of the starting spread;
    ``record_every`` None stands for n.
    """
    record_every = n if record_every is None else record_every
    w0 = np.array([pool[k % len(pool)] for k in picks[:n]])
    net = dataclasses.replace(random_network(np.random.default_rng(seed), n), w0=w0, delta=delta)
    uniforms = np.random.default_rng(seed).random((rows, 3))
    spread0 = float(w0.max() - w0.min())
    tol = spread0 * tol_frac if tol_at is None or tol_at > rows else _spread_at(net, uniforms, tol_at)
    assume(0.0 < tol < spread0)
    ws = [w0.tolist()]
    records = [[]]
    out = kernels.gossip_chunk(ws, *build_sampler(net), delta, tol, uniforms, 0, [spread0], record_every, records)
    w, steps, end = fold(net, uniforms, tol, 1)
    want = [step for step in steps if record_every and step[0] % record_every == 0]
    assert repr((ws[0], records[0], out[0])) == repr((w, want, end))
    spreads = [spread0] + [spread for _, spread, _ in steps] + [end[1]]
    assert all(b <= a for a, b in zip(spreads, spreads[1:]))


@pytest.mark.parametrize("record_every", [0, 1, NET50.n])
def test_stop_slot_counts_from_the_starting_slot_in_each_replicas_rows(record_every):
    """A group of 3 entering at slot 3 * 4n: each stop slot is its row within the replica's block plus the start.

    Replicas 1 and 2 reach tol inside the chunk, at rows past ``count`` of the
    group's decoded rows, and replica 0 runs to the chunk's end.
    """
    start = 3 * 4 * NET50.n
    count = 1100
    uniforms = np.vstack([_uniforms(seed, count) for seed in (6, 5, 8)])
    tol = 2e-3
    spread0 = float(NET50.w0.max() - NET50.w0.min())
    ws = [NET50.w0.tolist() for _ in range(3)]
    records = [[], [], []]
    out = kernels.gossip_chunk(
        ws, *build_sampler(NET50), float(NET50.delta), tol,
        uniforms, start, [spread0] * 3, record_every, records,
    )
    assert out[0][0] == start + count and start < out[1][0] < start + count and start < out[2][0] < start + count
    for q in range(3):
        w, ref_records, (stop, spread) = fold(NET50, uniforms[q * count : (q + 1) * count], tol, record_every)
        shifted = [(start + s, v, rec) for s, v, rec in ref_records]
        assert repr((ws[q], records[q], out[q])) == repr((w, shifted, (start + stop, spread)))


def test_chunk_stops_at_the_slot_where_spread_reaches_tol(regular_pair):
    ((w, records, (slot, spread)),) = drive(regular_pair, np.full((4, 3), 0.25))
    assert (slot, spread) == (1, 0.0)
    assert w == [0.5, 0.5]
    assert records == []  # the stop slot's state is the final one, which gossip._run records


def test_replica_that_stops_early_leaves_the_rest_of_its_group_running(rng):
    net = random_network(rng, 8)
    first = np.random.default_rng(6).random((3000, 3))
    second = np.random.default_rng(5).random((3000, 3))
    alone = [drive(net, u, tol=1e-6)[0] for u in (first, second)]
    assert alone[0][2][0] < alone[1][2][0] < 3000  # the first replica reaches tol first
    grouped = drive(net, np.vstack([first, second]), tol=1e-6, group=2)
    for (w, records, out), (want_w, want_records, want_out) in zip(grouped, alone):
        assert out == want_out
        assert w == want_w
        assert len(records) == out[0] - 1
        assert records == want_records


def test_backend_reports_name():
    assert kernels.backend() == "numpy"
    assert not kernels.NUMBA_ENABLED


def test_warmup_runs_both_kernels():
    kernels.warmup()  # perfbench times this call at start-up


def test_conductance_scan_peak_memory_at_n20():
    # per-size minima hold no per-subset ratio, denominator or index array:
    # one n=20 scan peaks near 0.7 MiB, the blockwise divide near 1.4 MiB
    K = build_mean_matrices(random_network(np.random.default_rng(20), 20)).K
    kernels.conductance_scan(K)
    tracemalloc.start()
    try:
        kernels.conductance_scan(K)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20


def test_conductance_scan_cold_peak_memory_at_n20():
    # a first call at n=20 builds its tables (about 350 KiB) on top of the warm peak
    K = build_mean_matrices(random_network(np.random.default_rng(20), 20)).K
    kernels._scan_tables.cache_clear()
    tracemalloc.start()
    try:
        kernels.conductance_scan(K)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 << 19


def test_conductance_scan_bits_across_sizes_and_calls(reference_conductance_scan):
    """Tables cached at one size serve later calls at that size unchanged, between calls at other sizes."""
    rng = np.random.default_rng(35)
    sizes = [19, 20, 18, 19, 2, 20]
    nets = [random_network(rng, n) for n in sizes]
    nets += [bridged_clusters(n // 2, n - n // 2, influence=0.5, delta=0.3) for n in sizes]
    kernels._scan_tables.cache_clear()
    before = {n: [table.copy() for table in kernels._scan_tables(n)] for n in set(sizes)}
    for net in nets:
        K = build_mean_matrices(net).K
        assert kernels.conductance_scan(K) == reference_conductance_scan(K)
    for n, copies in before.items():
        tables = kernels._scan_tables(n)
        for table, copy in zip(tables, copies):
            assert not table.flags.writeable
            assert table.dtype == copy.dtype and table.shape == copy.shape
            assert table.tobytes() == copy.tobytes()
    info = kernels._scan_tables.cache_info()
    assert info.currsize == len(set(sizes)) <= info.maxsize


def test_conductance_scan_cache_keeps_a_few_sizes():
    """A scan at a size beyond the report's limit is pushed out by the next few sizes."""
    kernels._scan_tables.cache_clear()
    kernels.conductance_scan(np.full((21, 21), 1.0 / 21))
    maxsize = kernels._scan_tables.cache_info().maxsize
    for n in range(2, 2 + maxsize):
        kernels.conductance_scan(np.full((n, n), 1.0 / n))
    # the n=21 tables are gone: asking for them again misses
    misses = kernels._scan_tables.cache_info().misses
    kernels._scan_tables(21)
    assert kernels._scan_tables.cache_info().misses == misses + 1
    kernels._scan_tables.cache_clear()


def test_mean_matrices_peak_memory_at_n200():
    # L is finished and its input dropped before K's input is scattered, all
    # in place, and Wbar is formed in L's buffer: the peak is three n x n
    # arrays plus about a quarter of one (vectors and pair columns), and two
    # are returned; out of place it was over five
    net = random_network(np.random.default_rng(200), 200)
    build_mean_matrices(net)
    tracemalloc.start()
    try:
        build_mean_matrices(net)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * 200 * 200 * 8
