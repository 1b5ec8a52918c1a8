import dataclasses
import hashlib
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import apply_meeting

from willingness_gossip import gossip
from willingness_gossip.fixtures import (
    barbell,
    bridged_clusters,
    complete,
    random_network,
    two_node_influencer,
    two_node_regular,
    without_influence,
)
from willingness_gossip.gossip import (
    SimulationTrace,
    replica_seed,
    run_replica,
    simulate_ensemble,
    write_trace_csv,
)
from willingness_gossip.kernels import KIND_INFLUENCE, KIND_PERSISTENT, KIND_REGULAR, build_sampler, decode_meetings
from willingness_gossip.meanfield import build_mean_matrices
from willingness_gossip.network import AcquaintanceNetwork, dense

HALF_MAX = np.finfo(np.float64).max / 2


class TestApplyMeeting:
    def test_regular_averages(self):
        out = apply_meeting(np.array([0.0, 1.0]), 0, 1, KIND_REGULAR, 0.5)
        np.testing.assert_array_equal(out, [0.5, 0.5])

    def test_influence_moves_initiator_only(self):
        out = apply_meeting(np.array([0.0, 1.0]), 0, 1, KIND_INFLUENCE, 0.5)
        np.testing.assert_array_equal(out, [0.5, 1.0])

    def test_persistent_is_identity(self):
        w = np.array([0.3, 0.9])
        out = apply_meeting(w, 0, 1, KIND_PERSISTENT, 0.5)
        np.testing.assert_array_equal(out, w)

    def test_other_coordinates_untouched(self):
        w = np.array([0.1, 0.5, 0.9, 0.3])
        out = apply_meeting(w, 1, 3, KIND_INFLUENCE, 0.25)
        assert out[0] == w[0] and out[2] == w[2]
        assert out[3] == w[3]
        assert out[1] == 0.25 * 0.5 + 0.75 * 0.3

    @settings(max_examples=100, deadline=None)
    @given(
        w=arrays(np.float64, 5, elements=st.floats(0.0, 1.0)),
        i=st.integers(0, 4),
        j=st.integers(0, 4),
        delta=st.floats(0.01, 0.5),
        kind=st.sampled_from([KIND_REGULAR, KIND_INFLUENCE, KIND_PERSISTENT]),
    )
    def test_spread_never_expands(self, w, i, j, delta, kind):
        if i == j:
            return
        out = apply_meeting(w, i, j, kind, delta)
        assert out.max() <= w.max()
        assert out.min() >= w.min()


class TestSampling:
    def test_influencer_pair_kinds(self, influencer_pair, rng, sample_meetings_batch):
        # every meeting initiated by node 0 is an influence meeting,
        # every meeting initiated by node 1 an averaging meeting
        i, j, kind = sample_meetings_batch(influencer_pair, 200, rng)
        assert set(i.tolist()) == {0, 1}
        np.testing.assert_array_equal(kind, np.where(i == 0, KIND_INFLUENCE, KIND_REGULAR))
        np.testing.assert_array_equal(j, 1 - i)

    def test_kind_never_without_probability(self, rng, sample_meetings_batch):
        net = random_network(rng, 6)
        i, j, kind = sample_meetings_batch(net, 20000, rng)
        p, x, y = (dense(net, col) for col in (net.p, net.x, net.y))
        assert np.all(i != j)
        assert np.all(p[i, j] > 0)
        assert np.all(x[i[kind == 1], j[kind == 1]] > 0)
        assert np.all(y[i[kind == 0], j[kind == 0]] > 0)

    def test_empirical_frequencies_three_sigma(self, sample_meetings_batch):
        # directed triangle with an extra reverse edge and mixed types
        rng = np.random.default_rng(42)
        net = random_network(rng, 3)
        count = 10**6
        i, j, kind = sample_meetings_batch(net, count, np.random.default_rng(7))
        n = net.n
        p, x, y = (dense(net, col) for col in (net.p, net.x, net.y))
        for a in range(n):
            for b in range(n):
                if p[a, b] == 0:
                    continue
                for code, mat in ((0, y), (1, x)):
                    prob = p[a, b] * mat[a, b] / n
                    hits = int(np.sum((i == a) & (j == b) & (kind == code)))
                    sigma = np.sqrt(prob * (1 - prob) * count)
                    assert abs(hits - prob * count) <= 3 * sigma + 1e-9, (a, b, code)

    def test_mean_update_matches_analytic(self, rng, empirical_mean_update):
        net = two_node_influencer()
        mean, stderr = empirical_mean_update(net, 50000, rng)
        wbar = build_mean_matrices(net).Wbar
        assert np.all(np.abs(mean - wbar) <= 3 * stderr + 1e-12)


def per_row_sampler(net):
    """Each row's partners and cumulative meeting probabilities, built row by row from the dense ``p``.

    Returns (nbr_idx, nbr_cum, row_start): row i's entries are
    ``[row_start[i]:row_start[i+1]]``.  The reference for the padded table
    of ``build_sampler`` and for the search of ``kernels.decode_meetings``.
    """
    nbr_idx, cums = [], []
    row_start = np.zeros(net.n + 1, dtype=np.int64)
    p = dense(net, net.p)
    for i in range(net.n):
        cols = np.nonzero(p[i])[0]
        cum = np.cumsum(p[i, cols])
        cum /= cum[-1]
        cum[-1] = 1.0
        nbr_idx.extend(int(c) for c in cols)
        cums.append(cum)
        row_start[i + 1] = row_start[i] + cols.size
    return np.asarray(nbr_idx, dtype=np.int64), np.concatenate(cums), row_start


def test_build_sampler_equals_per_row_loop(rng):
    nets = [barbell(3), two_node_influencer(), complete(17), complete(18)]
    nets += [random_network(rng, int(rng.integers(2, 30))) for _ in range(10)]
    for net in nets:
        table, partner, width, x, y = build_sampler(net)
        nbr_idx, nbr_cum, row_start = per_row_sampler(net)
        degree = np.diff(row_start)
        assert width == 1 << int(degree.max() - 1).bit_length()  # smallest power of two >= max degree
        assert table.dtype == x.dtype == y.dtype == np.float64 and partner.dtype == np.int32
        assert table.shape == partner.shape == x.shape == y.shape == (net.n * width,)
        dense_x, dense_y = dense(net, net.x), dense(net, net.y)
        for i in range(net.n):
            row = slice(i * width, (i + 1) * width)
            want = nbr_cum[row_start[i] : row_start[i + 1]]
            partners = nbr_idx[row_start[i] : row_start[i + 1]]
            assert table[row][: degree[i]].tobytes() == want.tobytes(), i  # bit for bit
            assert np.all(table[row][degree[i] :] == np.inf)
            assert np.array_equal(partner[row][: degree[i]], partners)
            assert np.array_equal(x[row][: degree[i]], dense_x[i, partners])
            assert np.array_equal(y[row][: degree[i]], dense_y[i, partners])


class TestRunReplica:
    def test_regular_pair_converges_in_one_meeting(self, regular_pair):
        trace = run_replica(regular_pair, seed=0)
        assert trace.converged
        assert trace.slots_used == 1
        np.testing.assert_array_equal(trace.final, [0.5, 0.5])
        assert trace.spread[-1] == 0.0
        assert trace.value == 0.5

    def test_influencer_pair_converges_seed_dependent(self, influencer_pair):
        values = {run_replica(influencer_pair, seed=s).value for s in range(20)}
        assert all(run_replica(influencer_pair, seed=s).converged for s in range(5))
        assert len(values) > 1  # limit is a random variable

    def test_already_converged_initially(self, regular_pair):
        net = two_node_regular(w0=(0.4, 0.4))
        trace = run_replica(net, seed=0)
        assert trace.converged and trace.slots_used == 0

    @pytest.mark.parametrize("max_slots", [1, 37, 41])  # 41 = 4n + 1: one slot into the second chunk
    def test_budget_exhaustion(self, rng, max_slots):
        net = random_network(rng, 10)
        trace = run_replica(net, max_slots=max_slots, tol=1e-12, seed=0)
        assert not trace.converged
        assert trace.slots_used == max_slots == trace.slots[-1]

    def test_spread_monotone_and_hull_confined(self, rng):
        for _ in range(10):
            net = random_network(rng, int(rng.integers(3, 11)))
            trace = run_replica(net, seed=int(rng.integers(0, 2**31)))
            assert trace.converged
            assert trace.monotone
            assert np.all(np.diff(trace.spread) <= 0.0)
            assert trace.snapshots.min() >= net.w0.min()
            assert trace.snapshots.max() <= net.w0.max()

    def test_determinism_bit_identical(self, rng):
        net = random_network(rng, 8)
        a = run_replica(net, seed=123)
        b = run_replica(net, seed=123)
        assert np.array_equal(a.snapshots, b.snapshots)
        assert np.array_equal(a.final, b.final)
        assert a.slots_used == b.slots_used

    def test_regular_meeting_conserves_sum_per_step(self, rng, sample_meetings_batch):
        net = without_influence(random_network(rng, 6))
        w = net.w0.copy()
        for i, j, kind in zip(*sample_meetings_batch(net, 500, rng)):
            nxt = apply_meeting(w, i, j, kind, net.delta)
            if kind == KIND_REGULAR:
                assert abs(nxt.sum() - w.sum()) <= 1e-12
            elif kind == KIND_PERSISTENT:
                np.testing.assert_array_equal(nxt, w)
            w = nxt

    def test_no_influence_keeps_mean_constant(self, rng):
        net = without_influence(random_network(rng, 7))
        trace = run_replica(net, seed=5)
        means = trace.snapshots.mean(axis=1)
        assert np.max(np.abs(means - net.w0.mean())) <= 1e-12

    @pytest.mark.parametrize("chunk", [1, 7, gossip._CHUNK_SLOTS])
    def test_chunk_size_does_not_change_trajectory(self, chunk, monkeypatch):
        net = random_network(np.random.default_rng(8), 9)
        want = run_replica(net, seed=17, record_every=3)
        monkeypatch.setattr(gossip, "_CHUNK_SLOTS", chunk)  # a one-replica run never reaches a helper
        got = run_replica(net, seed=17, record_every=3)
        assert got.slots_used == want.slots_used and got.converged
        for field in ("slots", "snapshots", "spread", "final"):
            assert np.array_equal(getattr(got, field), getattr(want, field))

    def test_snapshot_buffers_follow_slots_used(self):
        trace = run_replica(two_node_regular(), max_slots=10**12, record_every=1, seed=0)
        assert trace.converged and trace.slots_used == 1
        np.testing.assert_array_equal(trace.slots, [0, 1])

    def test_tol_must_be_positive(self, regular_pair):
        for tol in (0.0, float("nan")):
            with pytest.raises(ValueError):
                run_replica(regular_pair, tol=tol)

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.25, float("nan")])
    def test_delta_must_be_inside_the_unit_interval(self, delta):
        """At delta = 0 an influence meeting turns an inf initiator into NaN, which the blind blocks' max and min skip.

        Unrefused, this network reported spread 1.0 with values [0, nan, nan, 1]
        after the meetings (1, 2) regular, then (1, 3) and (2, 3) influence.
        """
        net = AcquaintanceNetwork(
            n=4, delta=delta, w0=[0.0, 1.7e308, 1.7e308, 1.0], tails=[0, 1, 1, 2, 3], heads=[1, 2, 3, 3, 1],
            p=[1.0, 0.5, 0.5, 1.0, 1.0], x=[0.0, 0.0, 1.0, 1.0, 0.0], y=[1.0, 1.0, 0.0, 0.0, 1.0], z=[0.0] * 5,
        )
        with pytest.raises(ValueError, match="delta"):
            run_replica(net, max_slots=100, seed=0)
        with pytest.raises(ValueError, match="delta"):
            simulate_ensemble(net, replicas=2, max_slots=100, seed=0)

    @pytest.mark.parametrize("name, value", [("record_every", -3), ("max_slots", -1)])
    def test_negative_record_step_or_budget_is_refused(self, name, value):
        """Unrefused, record_every=-3 recorded only slot 0 and the end, and max_slots=-1 stopped every replica at slot 0."""
        net = barbell(2)
        with pytest.raises(ValueError, match=name):
            run_replica(net, seed=0, **{name: value})
        if name == "max_slots":
            with pytest.raises(ValueError, match=name):
                simulate_ensemble(net, replicas=3, max_slots=value)

    def test_zero_record_step_and_budget_stay_valid(self):
        net = barbell(2)
        trace = run_replica(net, record_every=0, seed=0)
        assert trace.converged and trace.slots.tolist() == [0, trace.slots_used]
        idle = run_replica(net, max_slots=0, seed=0)
        assert idle.slots.tolist() == [0] and idle.slots_used == 0 and not idle.converged
        ens = simulate_ensemble(net, replicas=3, max_slots=0)
        assert ens.converged_count == 0 and not ens.slots_used.any()

    @pytest.mark.parametrize(
        "value", [np.nan, np.inf, -np.inf, np.nextafter(HALF_MAX, np.inf)], ids=["nan", "inf", "-inf", "above-half-max"]
    )
    @pytest.mark.parametrize("node", [0, 3])
    def test_w0_beyond_half_dbl_max_is_refused(self, value, node):
        """Two values above DBL_MAX/2 can average to inf, and a NaN or an infinity never settles."""
        base = random_network(np.random.default_rng(8), 8)
        w0 = base.w0.copy()
        w0[node] = value
        net = dataclasses.replace(base, w0=w0)
        with pytest.raises(ValueError, match="w0"):
            run_replica(net, max_slots=100, seed=0)
        with pytest.raises(ValueError, match="w0"):
            simulate_ensemble(net, replicas=3, max_slots=100, seed=2)

    def test_w0_at_half_dbl_max_runs_finite_and_equals_the_fold(self):
        """``a + b`` of two values at +-DBL_MAX/2 stays finite, so every recorded spread is finite and never grows."""
        base = random_network(np.random.default_rng(8), 6)
        net = dataclasses.replace(base, w0=np.array([-HALF_MAX, HALF_MAX, HALF_MAX, -HALF_MAX, 0.0, 1.0]))
        trace = run_replica(net, max_slots=3000, record_every=1, seed=4)
        assert trace.slots.tolist() == list(range(trace.slots_used + 1))
        assert np.isfinite(trace.spread).all() and trace.spread[0] == np.finfo(np.float64).max
        assert np.all(np.diff(trace.spread) <= 0.0) and trace.monotone
        # the replica's Philox stream does not depend on how it is drawn in chunks
        uniforms = np.random.Generator(np.random.Philox(np.random.SeedSequence(4))).random((trace.slots_used, 3))
        i, j, kind = decode_meetings(*build_sampler(net), uniforms)
        w = net.w0
        for t in range(trace.slots_used):
            w = apply_meeting(w, int(i[t]), int(j[t]), int(kind[t]), net.delta)
            assert repr(trace.snapshots[t + 1].tolist()) == repr(w.tolist()), t
            assert trace.spread[t + 1] == w.max() - w.min(), t


def folded_states(net, seed, max_slots, tol, record_every):
    """The states ``run_replica`` records, folded slot by slot with ``apply_meeting``: [(slot, spread, values)].

    Slot 0, each multiple of ``record_every`` before the run ends, and the
    final state, each once.  The stream is drawn one slot at a time.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    sampler = build_sampler(net)
    w = net.w0
    states = [(0, w.max() - w.min(), w)]
    while states[-1][1] > tol and len(states) <= max_slots:
        i, j, kind = (int(v[0]) for v in decode_meetings(*sampler, rng.random((1, 3))))
        w = apply_meeting(w, i, j, kind, net.delta)
        states.append((len(states), w.max() - w.min(), w))
    last = len(states) - 1
    return [st for st in states if st[0] in (0, last) or (record_every and st[0] % record_every == 0)]


# (max_slots, tol, record_every, settled w0, slots_used, converged); seed 18 reaches tol 1e-6 at slot 285
RUN_ENDS = {
    "stop-on-a-mark": (10**6, 1e-6, 15, False, 285, True),
    "stop-between-marks": (10**6, 1e-6, 9, False, 285, True),
    "budget-end-on-a-mark": (90, 1e-6, 9, False, 90, False),
    "budget-end-off-a-mark": (95, 1e-6, 9, False, 95, False),
    "record-every-0": (10**6, 1e-6, 0, False, 285, True),
    "w0-within-tol": (10**6, 1e-6, 9, True, 0, True),
}


@pytest.mark.parametrize("case", RUN_ENDS)
def test_run_replica_records_the_final_state_once_and_equals_the_fold(case):
    max_slots, tol, record_every, settled, slots_used, converged = RUN_ENDS[case]
    net = random_network(np.random.default_rng(8), 9)
    if settled:
        net = dataclasses.replace(net, w0=np.full(9, 0.25) + np.arange(9) * 1e-8)
    trace = run_replica(net, max_slots=max_slots, tol=tol, record_every=record_every, seed=18)
    assert (trace.slots_used, trace.converged) == (slots_used, converged)
    assert trace.slots.tolist().count(slots_used) == 1 and trace.slots[-1] == slots_used
    want = folded_states(net, 18, max_slots, tol, record_every)
    # repr compares floats exactly, the sign of zero included
    assert repr(list(zip(trace.slots.tolist(), trace.spread.tolist(), trace.snapshots.tolist()))) == repr(
        [(slot, float(spread), w.tolist()) for slot, spread, w in want]
    )
    assert repr(trace.final.tolist()) == repr(want[-1][2].tolist())
    assert trace.value == float(trace.final.mean())


class TestEnsemble:
    def test_regular_pair_exact(self, regular_pair):
        ens = simulate_ensemble(regular_pair, replicas=64, seed=0)
        assert ens.mean == 0.5
        assert ens.stderr == 0.0
        assert ens.convergence_rate == 1.0

    def test_influencer_pair_mean_matches_consensus_weights(self, influencer_pair):
        ens = simulate_ensemble(influencer_pair, replicas=4000, seed=0)
        assert ens.convergence_rate == 1.0
        assert abs(ens.mean - 2.0 / 3.0) <= 3 * ens.stderr

    def test_no_influence_values_equal_initial_mean(self, rng):
        net = without_influence(random_network(rng, 6))
        ens = simulate_ensemble(net, replicas=100, seed=9)
        assert ens.convergence_rate == 1.0
        assert np.max(np.abs(ens.values - net.w0.mean())) <= 1e-12

    def test_reproducible_across_runs(self, rng):
        net = random_network(rng, 6)
        a = simulate_ensemble(net, replicas=50, seed=4)
        b = simulate_ensemble(net, replicas=50, seed=4)
        assert np.array_equal(a.values, b.values)
        assert a.mean == b.mean

    def test_replicas_required(self, regular_pair):
        with pytest.raises(ValueError):
            simulate_ensemble(regular_pair, replicas=0)

    # Recorded from the one-replica-at-a-time ensemble that ran each replica
    # through run_replica: sha256 of values.tobytes(), converged count, total
    # and max slots.  max_slots=2300 stops 4 of the 12 replicas mid-round.
    @pytest.mark.parametrize(
        "make, replicas, seed, max_slots, digest, converged, total_slots, max_used",
        [
            (
                lambda: random_network(np.random.default_rng(8), 8), 16, 3, 10**6,
                "00630a01baaa2fb0a9fc6ba48ed3de760a435ce326941dea82e69a1dbd20a751", 16, 4705, 371,
            ),
            (
                lambda: bridged_clusters(4, 5), 16, 5, 10**6,
                "b715082e37ea9c42cf6a0194c1635f5d8fe618b103aa52f9480e133000e3cac0", 16, 23248, 1662,
            ),
            (
                lambda: random_network(np.random.default_rng(50), 50, extra_edge_prob=8 / 50), 12, 7, 2300,
                "b24a1ad0dae600ba3dc4d94fca642891b224c277906c9944471d5a8516e95805", 8, 26727, 2300,
            ),
            # Recorded from the lockstep bisection over unpadded rows: every row
            # fills the width 16 exactly; two rows of degree 17 pad the rest to 32.
            (
                lambda: random_network(np.random.default_rng(17), 17, extra_edge_prob=1.0), 16, 11, 10**6,
                "21433eac5bc5ce2a076e26a93e8139a648380e2f23a4fb3d15b43a24d3e9c8d4", 16, 10505, 764,
            ),
            (
                lambda: random_network(np.random.default_rng(1), 30, extra_edge_prob=0.4), 16, 13, 10**6,
                "fae361944091e7e1545485cd94eaa65f9210d6a2f28553f592a6acd286404c27", 16, 22300, 1617,
            ),
        ],
        ids=["random-n8", "bridged-4+5", "random-n50-budget", "complete-n17", "max-degree-17"],
    )
    @pytest.mark.parametrize("wave", [None, 5], ids=["one-wave", "waves-of-5"])
    def test_pinned_streams(
        self, make, replicas, seed, max_slots, digest, converged, total_slots, max_used, wave, monkeypatch
    ):
        net = make()
        if wave:
            monkeypatch.setattr(gossip, "_WAVE_VALUES", wave * net.n)
        ens = simulate_ensemble(net, replicas=replicas, seed=seed, max_slots=max_slots)
        assert hashlib.sha256(ens.values.tobytes()).hexdigest() == digest
        assert ens.converged_count == converged
        assert ens.mean_slots * replicas == total_slots
        assert ens.max_slots_used == max_used

    @pytest.mark.parametrize("chunk", [1, 7, gossip._CHUNK_SLOTS])
    @pytest.mark.parametrize("max_slots", [1, 4 * 9 + 1, 10**6])
    @pytest.mark.parametrize("settled", [False, True], ids=["w0-spread", "w0-within-tol"])
    def test_replica_k_is_run_replica(self, chunk, max_slots, settled, monkeypatch):
        net = random_network(np.random.default_rng(21), 9)
        if settled:
            net = dataclasses.replace(net, w0=np.full(9, 0.25) + np.arange(9) * 1e-8)
        monkeypatch.setattr(gossip, "_CHUNK_SLOTS", chunk)
        monkeypatch.setattr(gossip, "_usable_cpus", lambda: 1)  # helpers keep the chunk size they were forked with
        ens = simulate_ensemble(net, replicas=7, max_slots=max_slots, seed=13)
        for k in range(7):
            alone = run_replica(net, max_slots=max_slots, record_every=0, seed=replica_seed(13, k))
            assert ens.values[k] == alone.value, k
            assert ens.slots_used[k] == alone.slots_used, k
            assert ens.converged[k] == alone.converged, k
        assert ens.converged_count == ens.converged.sum()
        assert ens.mean_slots == ens.slots_used.mean() and ens.max_slots_used == ens.slots_used.max()
        if settled:
            assert ens.converged.all() and not ens.slots_used.any()
        elif max_slots < 10**6:
            assert not ens.converged.any()


# test_pinned_streams' networks, replica counts, seeds and budgets
PINNED = [
    (lambda: random_network(np.random.default_rng(8), 8), 16, 3, 10**6),
    (lambda: bridged_clusters(4, 5), 16, 5, 10**6),
    (lambda: random_network(np.random.default_rng(50), 50, extra_edge_prob=8 / 50), 12, 7, 2300),
    (lambda: random_network(np.random.default_rng(17), 17, extra_edge_prob=1.0), 16, 11, 10**6),
    (lambda: random_network(np.random.default_rng(1), 30, extra_edge_prob=0.4), 16, 13, 10**6),
]
PINNED_IDS = ["random-n8", "bridged-4+5", "random-n50-budget", "complete-n17", "max-degree-17"]


@pytest.fixture
def split(monkeypatch):
    """``split(cpus)`` sets the usable-CPU count, splits every wave with a replica per CPU, and returns the shares sent.

    Each sent share is recorded as its range of replica indices.  The
    caller alone decides the split, so patching ``_MIN_SHARE`` here needs
    not reach the helpers.
    """
    sent = []
    send = gossip._send

    def recording(helper, args):
        sent.append(args[2])
        return send(helper, args)

    monkeypatch.setattr(gossip, "_send", recording)
    monkeypatch.setattr(gossip, "_MIN_SHARE", 1)

    def use(cpus):
        monkeypatch.setattr(gossip, "_usable_cpus", lambda: cpus)
        return sent

    return use


def serial(net, monkeypatch, **kwargs):
    with monkeypatch.context() as patch:
        patch.setattr(gossip, "_usable_cpus", lambda: 1)
        return simulate_ensemble(net, **kwargs)


def assert_same_summary(got, want):
    assert got.values.tobytes() == want.values.tobytes()
    for field in dataclasses.fields(want):
        np.testing.assert_array_equal(getattr(got, field.name), getattr(want, field.name), err_msg=field.name)


class TestSplitEnsemble:
    """Shares of a wave run in helper processes; the summary must equal the serial one."""

    @pytest.mark.parametrize("case", PINNED, ids=PINNED_IDS)
    @pytest.mark.parametrize("wave", [None, 5], ids=["one-wave", "waves-of-5"])
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_pinned_networks(self, case, wave, cpus, split, monkeypatch):
        make, replicas, seed, max_slots = case
        net = make()
        if wave:  # waves are cut in the caller, so this patch needs not reach the helpers
            monkeypatch.setattr(gossip, "_WAVE_VALUES", wave * net.n)
        want = serial(net, monkeypatch, replicas=replicas, seed=seed, max_slots=max_slots)
        sent = split(cpus)
        assert_same_summary(simulate_ensemble(net, replicas=replicas, seed=seed, max_slots=max_slots), want)
        size = wave or replicas
        waves = [min(size, replicas - first) for first in range(0, replicas, size)]
        assert len(sent) == sum(min(cpus, count) - 1 for count in waves)

    @pytest.mark.parametrize("replicas", [17, 33])
    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("max_slots", [10**6, 4 * 9 + 1], ids=["converge", "budget"])
    def test_uneven_shares(self, replicas, cpus, max_slots, split, monkeypatch):
        net = random_network(np.random.default_rng(21), 9)
        want = serial(net, monkeypatch, replicas=replicas, seed=2, max_slots=max_slots)
        sent = split(cpus)
        assert_same_summary(simulate_ensemble(net, replicas=replicas, seed=2, max_slots=max_slots), want)
        lengths = [len(share) for share in sent]
        assert sum(lengths) < replicas and max(lengths) - min(lengths) <= 1
        assert [k for share in sent for k in share] == list(range(replicas - sum(lengths), replicas))
        if max_slots < 10**6:
            assert not want.converged.any() and np.isnan(want.mean)

    @pytest.mark.parametrize("replicas, cpus, shares", [(15, 2, 0), (16, 2, 1), (23, 3, 1), (24, 3, 2), (40, 1, 0)])
    def test_every_process_gets_min_share(self, replicas, cpus, shares, split, monkeypatch):
        monkeypatch.setattr(gossip, "_MIN_SHARE", 8)
        sent = split(cpus)
        simulate_ensemble(random_network(np.random.default_rng(3), 6), replicas=replicas, seed=1)
        assert len(sent) == shares

    @pytest.mark.parametrize(
        "change, kwargs",
        [
            ({}, {"tol": 0.0}),
            ({}, {"tol": float("nan")}),
            ({}, {"max_slots": -1}),
            ({"w0": np.array([0.0, np.nan, 1.0, 0.5, 0.2, 0.1])}, {}),
            ({"w0": np.array([0.0, 1.1 * HALF_MAX, 1.0, 0.5, 0.2, 0.1])}, {}),
        ],
        ids=["tol-zero", "tol-nan", "budget-negative", "w0-nan", "w0-huge"],
    )
    def test_bad_arguments_raise_before_any_share_is_sent(self, change, kwargs, split, monkeypatch):
        net = random_network(np.random.default_rng(4), 6)
        want = serial(net, monkeypatch, replicas=20, seed=6)
        sent = split(2)
        with pytest.raises(ValueError):
            simulate_ensemble(dataclasses.replace(net, **change), replicas=20, seed=6, **kwargs)
        assert sent == []
        assert_same_summary(simulate_ensemble(net, replicas=20, seed=6), want)

    def test_killed_helper_share_runs_in_the_caller(self, split, monkeypatch):
        net = random_network(np.random.default_rng(5), 12)
        want = serial(net, monkeypatch, replicas=30, seed=8)
        split(3)
        assert_same_summary(simulate_ensemble(net, replicas=30, seed=8), want)
        pid = gossip._helpers[0].pid
        os.kill(pid, signal.SIGKILL)
        assert_same_summary(simulate_ensemble(net, replicas=30, seed=8), want)
        assert pid not in [helper.pid for helper in gossip._helpers]
        with pytest.raises(ChildProcessError):  # reaped
            os.waitpid(pid, os.WNOHANG)
        assert_same_summary(simulate_ensemble(net, replicas=30, seed=8), want)
        assert len(gossip._helpers) >= 2

    def test_failed_fork_shares_the_wave_among_the_processes_there_are(self, split, monkeypatch):
        net = random_network(np.random.default_rng(7), 8)
        want = serial(net, monkeypatch, replicas=24, seed=4)
        split(2)
        simulate_ensemble(net, replicas=24, seed=4)  # at least one helper
        helpers = list(gossip._helpers)
        sent = split(len(helpers) + 2)
        sent.clear()

        def no_fork():
            raise BlockingIOError("fork: resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        assert_same_summary(simulate_ensemble(net, replicas=24, seed=4), want)
        assert gossip._helpers == helpers and len(sent) == len(helpers)

    def test_interrupted_wave_leaves_no_unread_reply(self, split, monkeypatch):
        net = random_network(np.random.default_rng(6), 10)
        want = serial(net, monkeypatch, replicas=20, seed=9)
        split(2)
        simulate_ensemble(net, replicas=20, seed=9)
        helper = gossip._helpers[0]
        outcomes = gossip._outcomes

        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(gossip, "_outcomes", interrupted)  # the caller's own share; the helper runs its copy
        with pytest.raises(KeyboardInterrupt):
            simulate_ensemble(net, replicas=20, seed=9)
        assert helper not in gossip._helpers
        monkeypatch.setattr(gossip, "_outcomes", outcomes)
        assert_same_summary(simulate_ensemble(net, replicas=20, seed=9), want)

    def test_failed_share_stops_its_helper_and_runs_in_the_caller(self, split, monkeypatch):
        net = random_network(np.random.default_rng(8), 9)
        want = serial(net, monkeypatch, replicas=20, seed=3)
        while gossip._helpers:  # helpers keep the module they were forked with
            gossip._stop(gossip._helpers.pop())
        caller, outcomes, fork = os.getpid(), gossip._outcomes, gossip._fork_helper
        forked = []

        def fails_in_a_helper(*args):
            if os.getpid() != caller:
                raise RuntimeError("share failed")
            return outcomes(*args)

        monkeypatch.setattr(gossip, "_outcomes", fails_in_a_helper)
        monkeypatch.setattr(gossip, "_fork_helper", lambda: forked.append(fork()) or forked[-1])
        split(2)
        assert_same_summary(simulate_ensemble(net, replicas=20, seed=3), want)
        assert len(forked) == 1 and gossip._helpers == []
        with pytest.raises(ChildProcessError):  # reaped
            os.waitpid(forked[0].pid, os.WNOHANG)

    def test_helpers_end_with_the_caller(self):
        script = (
            "import os, numpy as np\n"
            "from willingness_gossip import gossip, fixtures\n"
            "gossip._usable_cpus = lambda: 3\n"
            "gossip.simulate_ensemble(fixtures.random_network(np.random.default_rng(7), 8), replicas=40, seed=1)\n"
            "print(*[helper.pid for helper in gossip._helpers])\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        pids = [int(pid) for pid in out.stdout.split()]
        assert len(pids) == 2
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


    def test_helpers_end_when_the_caller_is_killed(self):
        """A killed caller runs no exit hook; its helpers read end of file and exit.

        An orphan that has exited may stay a zombie (state ``Z``) when no
        process reaps it, so a zombie counts as ended.
        """
        script = (
            "import os, signal, numpy as np\n"
            "from willingness_gossip import gossip, fixtures\n"
            "gossip._usable_cpus = lambda: 3\n"
            "gossip.simulate_ensemble(fixtures.random_network(np.random.default_rng(7), 8), replicas=40, seed=1)\n"
            "print(*[helper.pid for helper in gossip._helpers], flush=True)\n"
            "os.kill(os.getpid(), signal.SIGKILL)\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        with subprocess.Popen([sys.executable, "-c", script], env=env, stdout=subprocess.PIPE, text=True) as proc:
            pids = [int(pid) for pid in proc.stdout.readline().split()]
            assert proc.wait(timeout=120) == -signal.SIGKILL
        assert len(pids) == 2

        def running(pid):
            try:
                with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
                    return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
            except FileNotFoundError:
                return False

        deadline = time.monotonic() + 10
        while any(map(running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(running, pids))


def test_trace_csv_layout(tmp_path, rng):
    net = barbell(2)
    trace = run_replica(net, seed=1)
    out = tmp_path / "trace.csv"
    write_trace_csv(str(out), trace)
    lines = out.read_text().splitlines()
    assert lines[0] == "slot,node_0,node_1,node_2,node_3,spread"
    assert len(lines) == trace.slots.shape[0] + 1
    first = lines[1].split(",")
    assert first[0] == "0"
    np.testing.assert_allclose([float(v) for v in first[1:-1]], net.w0)


def test_trace_csv_bytes_equal_the_value_by_value_formula(tmp_path):
    """Rows built from ``tolist`` floats are the bytes of ``repr(float(v))`` per numpy value, subnormals and -0.0 included."""
    net = dataclasses.replace(barbell(2), w0=np.array([1.0, 5e-324, -0.0, 1e-310]))
    trace = run_replica(net, max_slots=40, tol=1e-300, record_every=7, seed=1)
    tiny = np.finfo(np.float64).tiny
    subnormal = (trace.snapshots != 0.0) & (np.abs(trace.snapshots) < tiny)
    assert subnormal[1:].any() and ((trace.snapshots == 0.0) & np.signbit(trace.snapshots)).any()
    lines = ["slot,node_0,node_1,node_2,node_3,spread"]
    for row in range(trace.slots.shape[0]):
        cells = [str(int(trace.slots[row]))]
        cells.extend(repr(float(v)) for v in trace.snapshots[row])
        cells.append(repr(float(trace.spread[row])))
        lines.append(",".join(cells))
    out = tmp_path / "trace.csv"
    write_trace_csv(str(out), trace)
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


def _value_by_value_csv(trace):
    """The trace file written cell by cell: ``repr(float(v))`` of every numpy value."""
    n = trace.snapshots.shape[1]
    lines = ["slot," + ",".join(f"node_{k}" for k in range(n)) + ",spread"]
    for row in range(trace.slots.shape[0]):
        cells = [str(int(trace.slots[row]))]
        cells.extend(repr(float(v)) for v in trace.snapshots[row])
        cells.append(repr(float(trace.spread[row])))
        lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode("utf-8")


_NAN_PAYLOAD = np.uint64(0x7FF8000000000001).view(np.float64)
_NEGATIVE_NAN = np.copysign(np.nan, -1.0)
_WIDE = np.random.default_rng(4).random((6, 9))


@pytest.mark.parametrize(
    "snapshots",
    [
        np.array([[0.0, -0.0, 0.0], [-0.0, -0.0, 0.0]]),
        np.array([[np.nan, _NAN_PAYLOAD, _NEGATIVE_NAN, 1.0], [_NEGATIVE_NAN, _NAN_PAYLOAD, np.nan, -1.0]]),
        np.array([[np.inf, -np.inf, 5e-324, -5e-324], [5e-324, np.inf, 0.0, -np.inf]]),
        np.array([[0.1, 0.2, 0.1], [0.2, 0.1, 0.3], [0.3, 0.3, 0.3]]),
        _WIDE[::2, 1::3],
        _WIDE[:4, :5].astype(np.float32),
    ],
    ids=["signed-zeros", "nan-payloads", "infinities-and-subnormals", "repeats-across-rows", "strided", "float32"],
)
def test_trace_csv_edge_values_equal_the_value_by_value_formula(tmp_path, snapshots):
    """The export groups cells by bit pattern, so values that compare equal but print apart keep their own bytes."""
    rows = snapshots.shape[0]
    spread = np.array([-0.0, np.nan, 5e-324, 0.25, np.inf, 1e-310])[:rows]
    trace = SimulationTrace(
        slots=np.arange(rows, dtype=np.int64) * 7, snapshots=snapshots, spread=spread, final=snapshots[-1],
        value=0.0, converged=False, slots_used=7 * (rows - 1), monotone=False, seed=0,
    )
    out = tmp_path / "trace.csv"
    write_trace_csv(str(out), trace)
    assert out.read_bytes() == _value_by_value_csv(trace)


# sha256 of the export, recorded when every cell went through its own repr.
@pytest.mark.parametrize(
    "make, seed, digest",
    [
        (
            lambda: random_network(np.random.default_rng(1), 200, 8 / 200), 23,
            "47d980aa992b3f1c1bdb4e8f47b009324cb49cde1f27544b7841f5bc4a7adcc4",
        ),
        (lambda: barbell(4), 5, "0ffe2ebaa63aa7f6513802ff1e92a88cf76b2ff8cfed41ee08ce0d63e09934c4"),
    ],
    ids=["random-n200", "barbell-4"],
)
def test_trace_csv_bytes_are_pinned(tmp_path, make, seed, digest):
    out = tmp_path / "trace.csv"
    write_trace_csv(str(out), run_replica(make(), seed=replica_seed(seed, 0)))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "make",
    [lambda n=n: random_network(np.random.default_rng(n), n, min(0.35, 8 / n)) for n in (2, 12, 50, 500)]
    + [lambda: bridged_clusters(5, 6)],
    ids=["random-n2", "random-n12", "random-n50", "random-n500", "bridged-5-6"],
)
def test_replica_trace_csv_equals_the_value_by_value_formula(tmp_path, make):
    trace = run_replica(make(), seed=replica_seed(3, 0))
    out = tmp_path / "trace.csv"
    write_trace_csv(str(out), trace)
    assert out.read_bytes() == _value_by_value_csv(trace)
