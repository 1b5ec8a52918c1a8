"""The gossip kernel must agree with the meeting decoder and the reference update rule."""

import dataclasses

import numpy as np

from willingness_gossip import kernels
from willingness_gossip.fixtures import random_network
from willingness_gossip.gossip import apply_meeting, build_sampler


def drive(net, uniforms, tol=1e-9):
    nbr_idx, nbr_cum, row_start = build_sampler(net)
    w = net.w0.copy()
    n = net.n
    rec_w = np.zeros((uniforms.shape[0] + 2, n))
    rec_spread = np.zeros(uniforms.shape[0] + 2)
    rec_slots = np.zeros(uniforms.shape[0] + 2, dtype=np.int64)
    rec_w[0] = w
    rec_spread[0] = w.max() - w.min()
    out = kernels.gossip_chunk(
        w, nbr_idx, nbr_cum, row_start, net.x, net.y, float(net.delta), tol,
        uniforms, 0, uniforms.shape[0], float(w.max() - w.min()),
        1, rec_w, rec_spread, rec_slots, 1,
    )
    return w, rec_w, rec_spread, out


def test_decode_meetings_matches_per_row_searchsorted(rng):
    net = random_network(rng, 30, extra_edge_prob=0.6)
    nbr_idx, nbr_cum, row_start = build_sampler(net)
    n = net.n
    assert np.diff(row_start).max() >= 16  # rows need 5+ bisection steps
    uniforms = np.random.default_rng(3).random((5000, 3))
    # u0 one ulp below 1 picks the last initiator
    uniforms[0, 0] = np.nextafter(1.0, 0.0)
    # u1 exactly on each row's cumulative boundaries, and one ulp either side
    rows = np.repeat(np.arange(n), np.diff(row_start))
    edges = np.concatenate([nbr_cum, np.nextafter(nbr_cum, 0.0), np.nextafter(nbr_cum, 2.0)])
    edge_rows = np.tile(rows, 3)
    keep = edges < 1.0
    m = int(keep.sum())
    uniforms[1 : 1 + m, 0] = (edge_rows[keep] + 0.5) / n
    uniforms[1 : 1 + m, 1] = edges[keep]
    uniforms[1 + m, 1] = 0.0

    i, j, kind = kernels.decode_meetings(nbr_idx, nbr_cum, row_start, net.x, net.y, uniforms)
    assert i[0] == n - 1
    for t in range(uniforms.shape[0]):
        u0, u1, u2 = uniforms[t]
        ii = min(int(u0 * n), n - 1)
        row = slice(row_start[ii], row_start[ii + 1])
        k = int(np.searchsorted(nbr_cum[row], u1, side="right"))
        jj = nbr_idx[row][k]
        yy, xx = net.y[ii, jj], net.x[ii, jj]
        code = 0 if u2 < yy else 1 if u2 < yy + xx else 2
        assert (i[t], j[t], kind[t]) == (ii, jj, code), t


def test_gossip_chunk_equals_folded_apply_meeting(rng):
    base = random_network(rng, 8)
    # values in {0, 1} only: several nodes tie for the max and the min
    net = dataclasses.replace(base, w0=np.array([0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0]))
    uniforms = np.random.default_rng(11).random((3000, 3))
    w, rec_w, rec_spread, out = drive(net, uniforms)
    slots_used = out[0]
    assert slots_used > 100

    i, j, kind = kernels.decode_meetings(*build_sampler(net), net.x, net.y, uniforms)
    ref = net.w0.copy()
    prev = ref.max() - ref.min()
    monotone = True
    for t in range(slots_used):
        ref = apply_meeting(ref, int(i[t]), int(j[t]), int(kind[t]), net.delta)
        spread = ref.max() - ref.min()
        monotone = monotone and spread <= prev
        prev = spread
        assert np.array_equal(rec_w[t + 1], ref), t
        assert rec_spread[t + 1] == spread
    assert np.array_equal(w, ref)
    assert out[1] == prev
    assert out[2] == slots_used + 1
    assert out[4] == monotone
    assert (out[3] == kernels.CONVERGED) == (prev <= 1e-9)


def test_status_codes_cover_all_outcomes(regular_pair):
    # convergence inside the chunk
    uniforms = np.full((4, 3), 0.25)
    _, _, _, out = drive(regular_pair, uniforms)
    assert out[3] == kernels.CONVERGED
    # budget smaller than the chunk
    nbr_idx, nbr_cum, row_start = build_sampler(regular_pair)
    w = regular_pair.w0.copy()
    rec = np.zeros((8, 2))
    out = kernels.gossip_chunk(
        w, nbr_idx, nbr_cum, row_start, regular_pair.x, regular_pair.y, 0.5, 1e-30,
        np.full((4, 3), 0.25), 2, 2, 1.0, 0, rec, np.zeros(8), np.zeros(8, dtype=np.int64), 0,
    )
    assert out[3] == kernels.BUDGET_EXHAUSTED


def test_backend_reports_name():
    assert kernels.backend() == "numpy"
    assert not kernels.NUMBA_ENABLED
