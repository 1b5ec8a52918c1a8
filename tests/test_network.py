import collections
import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from conftest import network_from_dense
from hypothesis import given, settings
from hypothesis import strategies as st

from willingness_gossip.errors import NetworkFormatError, NotStronglyConnectedError
from willingness_gossip.fixtures import barbell, bridged_clusters, complete, cycle, path, random_network
from willingness_gossip.kernels import build_sampler
from willingness_gossip.network import (
    MAX_N,
    AcquaintanceNetwork,
    dense,
    diameter,
    edge_partition,
    parse_network,
    reachable,
    serialize_network,
    validate_network,
)

INFLUENCER_PAIR_DOC = json.dumps(
    {
        "n": 2,
        "delta": 0.5,
        "w0": [0.0, 1.0],
        "edges": [
            {"from": 0, "to": 1, "p": 1.0, "x": 1.0, "y": 0.0, "z": 0.0},
            {"from": 1, "to": 0, "p": 1.0, "x": 0.0, "y": 1.0, "z": 0.0},
        ],
    }
)

MISSING = object()


def permute(net: AcquaintanceNetwork, perm) -> AcquaintanceNetwork:
    perm = np.asarray(perm)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(net.n)
    return network_from_dense(
        n=net.n,
        delta=net.delta,
        p=dense(net, net.p)[np.ix_(inv, inv)],
        x=dense(net, net.x)[np.ix_(inv, inv)],
        y=dense(net, net.y)[np.ix_(inv, inv)],
        z=dense(net, net.z)[np.ix_(inv, inv)],
        w0=net.w0[inv],
    )


class TestParse:
    def test_influencer_pair_document(self):
        net = parse_network(INFLUENCER_PAIR_DOC)
        assert net.n == 2
        assert net.delta == 0.5
        assert (net.tails.tolist(), net.heads.tolist()) == ([0, 1], [1, 0])
        assert net.p.tolist() == [1.0, 1.0]
        assert net.x.tolist() == [1.0, 0.0]
        assert net.y.tolist() == [0.0, 1.0]
        assert net.w0.tolist() == [0.0, 1.0]

    def test_missing_delta_names_field(self):
        doc = json.loads(INFLUENCER_PAIR_DOC)
        del doc["delta"]
        with pytest.raises(NetworkFormatError, match="delta"):
            parse_network(json.dumps(doc))

    def test_out_of_range_index(self):
        doc = {
            "n": 3,
            "delta": 0.5,
            "w0": [0, 0, 0],
            "edges": [{"from": 5, "to": 0, "p": 1.0, "x": 0.0, "y": 1.0, "z": 0.0}],
        }
        with pytest.raises(NetworkFormatError, match="node index out of range"):
            parse_network(json.dumps(doc))

    def test_duplicate_edge(self):
        doc = json.loads(INFLUENCER_PAIR_DOC)
        doc["edges"].append(dict(doc["edges"][0]))
        with pytest.raises(NetworkFormatError, match="duplicate"):
            parse_network(json.dumps(doc))

    def test_missing_edge_field(self):
        doc = json.loads(INFLUENCER_PAIR_DOC)
        del doc["edges"][0]["x"]
        with pytest.raises(NetworkFormatError, match="'x'"):
            parse_network(json.dumps(doc))

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400", "9" * 400])
    def test_non_finite_number(self, literal):
        text = INFLUENCER_PAIR_DOC.replace('"delta": 0.5', f'"delta": {literal}')
        with pytest.raises(NetworkFormatError, match="'delta' must be a finite number"):
            parse_network(text)

    def test_invalid_json(self):
        with pytest.raises(NetworkFormatError, match="invalid JSON"):
            parse_network("{not json")

    def test_n_above_cap_is_refused_before_allocation(self):
        doc = {"n": MAX_N + 1, "delta": 0.5, "w0": [0] * (MAX_N + 1), "edges": []}
        with pytest.raises(NetworkFormatError, match=f"'n' = {MAX_N + 1} exceeds"):
            parse_network(json.dumps(doc))

    def test_round_trip_via_serialize(self, rng):
        lone = np.zeros((1, 1))
        nets = [network_from_dense(n=1, delta=0.25, p=lone, x=lone, y=lone, z=lone, w0=np.array([0.5]))]
        nets += [random_network(rng, n) for n in (3, 6, 9)]
        nets.append(random_network(rng, 500, extra_edge_prob=8 / 500))
        for net in nets:
            again = parse_network(serialize_network(net))
            assert validate_network(again).ok == (net.n > 1)  # one node has no meetings to sum to 1
            assert again.delta == net.delta
            for name in ("tails", "heads", "p", "x", "y", "z", "w0"):
                np.testing.assert_array_equal(getattr(again, name), getattr(net, name))

    @pytest.mark.parametrize(
        "edit",
        [
            {1: "not an edge"},
            {1: {"from": MISSING}},
            {2: {"from": 2**63}},  # beyond int64
            {2: {"from": -(2**64)}},
            {2: {"to": True}},
            {2: {"from": 1.0}},
            {2: {"to": 3}},
            {2: {"from": 0, "to": 1}},  # repeats edges[0]
            {2: {"p": 10**400}},  # beyond the float range
            {2: {"x": float("nan")}},
            {2: {"y": -float("inf")}},
            {2: {"z": False}},
            {2: {"p": None}},
            {1: {"z": "0"}, 2: {"from": 2**70}},  # the first faulty edge is named
            {1: {"from": 2, "to": 0}, 2: {"p": float("inf")}},
        ],
        ids=lambda edit: repr(edit)[:40],
    )
    def test_column_refusal_names_the_first_faulty_edge(self, reference_parse_network, edit):
        doc = json.loads(serialize_network(cycle(3)))
        for idx, fields in edit.items():
            if isinstance(fields, dict):
                merged = {**doc["edges"][idx], **fields}
                fields = {key: value for key, value in merged.items() if value is not MISSING}
            doc["edges"][idx] = fields
        text = json.dumps(doc)
        with pytest.raises(NetworkFormatError) as expected:
            reference_parse_network(text)
        with pytest.raises(NetworkFormatError) as refused:
            parse_network(text)
        assert str(refused.value) == str(expected.value)


class TestValidate:
    def test_influencer_pair_ok(self, influencer_pair):
        assert validate_network(influencer_pair).ok

    def test_self_meeting(self, influencer_pair):
        pair = influencer_pair
        p, x, y, z = (dense(pair, col) for col in (pair.p, pair.x, pair.y, pair.z))
        p[0, 0] = 0.1
        net = network_from_dense(n=2, delta=0.5, p=p, x=x, y=y, z=z, w0=pair.w0)
        report = validate_network(net)
        assert not report.ok
        assert any("self-meeting probability nonzero at node 0" in s for s in report.violations)

    def test_disconnected(self):
        # two disjoint 2-cliques
        p = np.zeros((4, 4))
        p[0, 1] = p[1, 0] = 1.0
        p[2, 3] = p[3, 2] = 1.0
        y = (p > 0).astype(float)
        net = network_from_dense(n=4, delta=0.5, p=p, x=np.zeros((4, 4)), y=y, z=np.zeros((4, 4)), w0=np.zeros(4))
        report = validate_network(net)
        assert not report.ok
        assert any("not strongly connected" in s for s in report.violations)

    def test_persistent_only_edge(self):
        p = np.array([[0.0, 1.0], [1.0, 0.0]])
        z = np.array([[0.0, 1.0], [0.0, 0.0]])
        y = np.array([[0.0, 0.0], [1.0, 0.0]])
        net = network_from_dense(n=2, delta=0.5, p=p, x=np.zeros((2, 2)), y=y, z=z, w0=np.zeros(2))
        report = validate_network(net)
        assert not report.ok
        assert any("persistent-only edge (0, 1)" in s for s in report.violations)

    def test_row_sum_violation(self):
        p = np.array([[0.0, 0.9], [1.0, 0.0]])
        y = (p > 0).astype(float)
        net = network_from_dense(n=2, delta=0.5, p=p, x=np.zeros((2, 2)), y=y, z=np.zeros((2, 2)), w0=np.zeros(2))
        report = validate_network(net)
        assert any("sum to 0.9" in s for s in report.violations)

    def test_w0_out_of_range(self):
        net = barbell(2)
        bad = dataclasses.replace(net, w0=np.array([0.0, 0.5, 1.5, 1.0]))
        report = validate_network(bad)
        assert any("w0[2]" in s for s in report.violations)

    def test_non_finite_entries(self):
        net = barbell(2)
        x = dense(net, net.x)
        x[0, 1] = np.nan
        p = dense(net, net.p)
        p[2, 3] = np.inf
        w0 = np.array([0.0, np.nan, -np.inf, 1.0])
        bad = network_from_dense(n=net.n, delta=np.nan, p=p, x=x, y=dense(net, net.y), z=dense(net, net.z), w0=w0)
        report = validate_network(bad)
        assert not report.ok
        for expected in ("non-finite p[2, 3]", "non-finite x[0, 1]", "non-finite w0[1] (2 ", "delta nan"):
            assert any(expected in s for s in report.violations), expected

    def test_random_fixtures_valid(self, rng):
        for _ in range(20):
            net = random_network(rng, int(rng.integers(3, 13)))
            assert validate_network(net).ok


class TestDiameter:
    def test_pair(self, influencer_pair):
        assert diameter(influencer_pair) == 1

    def test_path3(self):
        assert diameter(path(3)) == 2

    def test_cycle5(self):
        assert diameter(cycle(5)) == 2

    def test_barbell(self):
        assert diameter(barbell(3)) == 3

    def test_disconnected_raises(self):
        p = np.zeros((3, 3))
        p[0, 1] = 1.0
        p[1, 0] = 1.0
        p[2, 0] = 1.0  # node 2 unreachable
        y = (p > 0).astype(float)
        net = network_from_dense(n=3, delta=0.5, p=p, x=np.zeros((3, 3)), y=y, z=np.zeros((3, 3)), w0=np.zeros(3))
        with pytest.raises(NotStronglyConnectedError):
            diameter(net)

    @settings(max_examples=25, deadline=None)
    @given(perm=st.permutations(list(range(7))))
    def test_relabeling_invariance(self, perm):
        net = random_network(np.random.default_rng(7), 7)
        assert diameter(permute(net, perm)) == diameter(net)


def plain_bfs(adj: np.ndarray, seeds: np.ndarray) -> tuple[np.ndarray, int]:
    """One queue-based breadth-first search per seed row: the reference for ``reachable``."""
    rows = np.atleast_2d(seeds)
    reached = np.zeros(rows.shape, dtype=bool)
    hops = 0
    for row, start in enumerate(rows):
        dist = dict.fromkeys(np.flatnonzero(start).tolist(), 0)
        queue = collections.deque(dist)
        while queue:
            u = queue.popleft()
            for v in np.flatnonzero(adj[u]).tolist():
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        reached[row, list(dist)] = True
        hops = max(hops, *dist.values(), 0)
    return reached.reshape(np.shape(seeds)), hops


def _graphs():
    """Each graph as (dense adjacency for ``plain_bfs``, tails, heads for ``reachable``)."""
    rng = np.random.default_rng(130)
    net = random_network(rng, 130, extra_edge_prob=8 / 130)
    connected = dense(net, net.p) > 0.0
    sink = connected.copy()
    sink[7, :] = False  # node 7 meets no one
    sink[:, 3] = False  # no one meets node 3
    graphs = {
        name: (adj, *np.nonzero(adj))
        for name, adj in (("random-n130", connected), ("sink-n130", sink), ("n1", np.zeros((1, 1), dtype=bool)))
    }
    # both directions of every edge, as edge_partition lists them, and each forward edge twice
    tails, heads = np.nonzero(sink)
    graphs["sink-n130-undirected-repeated"] = (
        sink | sink.T,
        np.concatenate((tails, heads, tails)),
        np.concatenate((heads, tails, heads)),
    )
    return graphs


GRAPHS = _graphs()


class TestReachable:
    @pytest.mark.parametrize("graph", GRAPHS)
    def test_single_seed_set(self, graph):
        adj, tails, heads = GRAPHS[graph]
        for start in (0, adj.shape[0] - 1):
            seeds = np.arange(adj.shape[0]) == start
            reached, hops = reachable(tails, heads, seeds)
            expected, expected_hops = plain_bfs(adj, seeds)
            assert reached.shape == seeds.shape and reached.dtype == bool
            np.testing.assert_array_equal(reached, expected)
            assert hops == expected_hops

    @pytest.mark.parametrize("k", [1, 63, 64, 65, "n"])
    @pytest.mark.parametrize("graph", GRAPHS)
    def test_many_seed_sets_across_words(self, graph, k):
        adj, tails, heads = GRAPHS[graph]
        n = adj.shape[0]
        k = n if k == "n" else k
        rng = np.random.default_rng(k)
        seeds = rng.random((k, n)) < 2.0 / n  # some rows empty, some with several seeds
        seeds[-1] = np.arange(n) == 3  # the highest bit in use: a search from node 3 alone
        for rows in (seeds, np.eye(n, dtype=bool)[rng.integers(0, n, size=k)]):
            reached, hops = reachable(tails, heads, rows)
            expected, expected_hops = plain_bfs(adj, rows)
            assert reached.shape == (k, n) and reached.dtype == bool
            np.testing.assert_array_equal(reached, expected)
            assert hops == expected_hops


class TestEdgePartition:
    def test_pair_bridge(self, influencer_pair):
        side = edge_partition(influencer_pair, 0, 1)
        np.testing.assert_array_equal(side, [True, False])

    def test_cycle_has_no_bridge(self):
        assert edge_partition(cycle(4), 0, 1) is None

    def test_barbell_bridge(self):
        net = barbell(3)
        side = edge_partition(net, 2, 3)
        np.testing.assert_array_equal(np.flatnonzero(side), [0, 1, 2])
        np.testing.assert_array_equal(np.flatnonzero(~side), [3, 4, 5])

    def test_not_an_edge(self):
        net = path(4)
        with pytest.raises(ValueError, match="not an edge"):
            edge_partition(net, 0, 3)

    def test_partition_covers_all_nodes(self, rng):
        for a in range(1, 5):
            for b in range(1, 5):
                net = bridged_clusters(a, b)
                side = edge_partition(net, a - 1, a)
                assert side is not None
                assert side.dtype == bool and side.shape == (net.n,)
                np.testing.assert_array_equal(np.flatnonzero(side), np.arange(a))


def test_complete_graph_all_edges():
    net = complete(5)
    assert validate_network(net).ok
    assert net.edges[0].size == 20


def test_bridge_weight_moves_only_the_bridge_rows():
    base = bridged_clusters(3, 4, influence=0.5)
    net = bridged_clusters(3, 4, influence=0.5, bridge_p=1e-6)
    assert validate_network(net).ok
    P, P_base = dense(net, net.p), dense(base, base.p)
    assert P[2, 3] == P[3, 2] == 1e-6
    np.testing.assert_array_equal(P[2, :2], (1.0 - 1e-6) / 2)
    np.testing.assert_array_equal(P[3, 4:], (1.0 - 1e-6) / 3)
    others = [0, 1, 4, 5, 6]
    np.testing.assert_array_equal(P[others], P_base[others])
    for name in ("tails", "heads", "x", "y", "z"):
        np.testing.assert_array_equal(getattr(net, name), getattr(base, name))


@pytest.mark.parametrize("sizes, bridge_p", [((3, 4), 0.0), ((3, 4), 1.0), ((1, 4), 0.5), ((3, 1), 0.5)])
def test_bridge_weight_refuses_rows_it_cannot_fill(sizes, bridge_p):
    with pytest.raises(ValueError, match="bridge_p"):
        bridged_clusters(*sizes, bridge_p=bridge_p)


def _pair_columns(tails, heads):
    """The columns of a network that lists the pairs (tails[e], heads[e]) of n = 3 nodes, each meeting for sure."""
    ones, zeros = np.ones(len(tails)), np.zeros(len(tails))
    return dict(n=3, delta=0.5, w0=np.zeros(3), tails=tails, heads=heads, p=ones, x=zeros, y=ones, z=zeros)


@pytest.mark.parametrize(
    "tails, heads, message",
    [
        ([1, 0, 2], [0, 1, 0], "row-major"),  # unsorted
        ([0, 0, 1], [1, 2, 0], None),  # sorted and distinct: accepted
        ([0, 1, 1], [1, 0, 0], "distinct"),  # (1, 0) repeats
        ([0, 1, 3], [1, 0, 0], "out of range"),  # tail n
        ([0, 1, 2], [1, 0, -1], "out of range"),  # negative head
        ([0, 1, 2], [1, 0, 3], "out of range"),  # head n: its key 2n + 3 would pass the order check
    ],
)
def test_constructor_refuses_unsorted_repeated_or_out_of_range_pairs(tails, heads, message):
    if message is None:
        AcquaintanceNetwork(**_pair_columns(tails, heads))
        return
    with pytest.raises(ValueError, match=message):
        AcquaintanceNetwork(**_pair_columns(tails, heads))


def test_constructor_refuses_columns_of_unequal_length():
    columns = _pair_columns([0, 1, 2], [1, 2, 0])
    with pytest.raises(ValueError, match="x must have shape"):
        AcquaintanceNetwork(**{**columns, "x": [0.0, 0.0]})


@pytest.mark.parametrize("name", ["w0", "tails", "x"])
@pytest.mark.parametrize("replace", [False, True], ids=["constructor", "replace"])
def test_network_keeps_a_copy_of_the_callers_array(name, replace):
    """The caller's array stays writable, and writing to it does not change the network."""
    columns = _pair_columns(np.array([0, 1, 2]), np.array([1, 2, 0]))
    arr = np.array(columns[name])
    kept = arr.copy()
    if replace:
        net = dataclasses.replace(AcquaintanceNetwork(**columns), **{name: arr})
    else:
        net = AcquaintanceNetwork(**{**columns, name: arr})
    assert arr.flags.writeable and not getattr(net, name).flags.writeable
    arr[0] += 1
    np.testing.assert_array_equal(getattr(net, name), kept)


def test_network_shares_the_columns_of_another_network():
    """A read-only array that owns its data, such as another network's column, is kept without a copy."""
    net = AcquaintanceNetwork(**_pair_columns([0, 1, 2], [1, 2, 0]))
    other = dataclasses.replace(net, w0=np.ones(3))
    assert all(getattr(other, name) is getattr(net, name) for name in ("tails", "heads", "p", "x", "y", "z"))


def test_listed_pair_without_meeting_is_validated_but_never_met():
    """A listed pair with p = 0 and x = 7: validation reports it, and it is no edge, is not written, is never met."""
    doc = json.loads(serialize_network(cycle(3)))
    doc["edges"].append({"from": 0, "to": 0, "p": 0.0, "x": 7.0, "y": 0.0, "z": 0.0})
    net = parse_network(json.dumps(doc))
    assert (net.tails[0], net.heads[0], net.p[0], net.x[0]) == (0, 0, 0.0, 7.0)  # sorted first
    assert validate_network(net).violations == ["interaction probability x out of [0, 1] at (0, 0)"]
    ring = cycle(3)
    for got, want in zip(net.edges, ring.edges):
        np.testing.assert_array_equal(got, want)
    assert serialize_network(net) == serialize_network(ring)
    for got, want in zip(build_sampler(net), build_sampler(ring)):
        np.testing.assert_array_equal(got, want)


def test_max_n_ring_loads_in_memory_proportional_to_its_edges():
    """Parse, validate, serialize and sample a valid MAX_N ring (10000 edges) within 64 MiB.

    A dense n x n float matrix alone is 191 MiB at MAX_N.
    """
    text = serialize_network(cycle(MAX_N))
    tracemalloc.start()
    try:
        net = parse_network(text)
        assert validate_network(net).ok
        serialize_network(net)
        build_sampler(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert net.tails.size == 2 * MAX_N
    assert peak < 64 * 2**20
