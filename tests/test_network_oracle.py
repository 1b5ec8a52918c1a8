"""Graph routines of ``network.py`` against networkx as an independent oracle.

Covers seeded random valid networks, bridged networks, supports that are
deliberately not strongly connected, and the single-node network.
"""

import networkx as nx
import numpy as np
import pytest
from conftest import network_from_dense

from willingness_gossip.errors import NotStronglyConnectedError
from willingness_gossip.fixtures import barbell, bridged_clusters, path, random_network
from willingness_gossip.network import AcquaintanceNetwork, dense, diameter, edge_partition, validate_network


def on_support(support: np.ndarray) -> AcquaintanceNetwork:
    """Averaging-only network on a directed support; rows without out-edges stay zero."""
    n = support.shape[0]
    p = support.astype(float)
    sums = p.sum(axis=1, keepdims=True)
    p = np.divide(p, sums, out=np.zeros_like(p), where=sums > 0)
    zeros = np.zeros((n, n))
    return network_from_dense(n=n, delta=0.5, p=p, x=zeros, y=support.astype(float), z=zeros, w0=np.zeros(n))


def _corpus():
    rng = np.random.default_rng(314)
    nets = [("n1", on_support(np.zeros((1, 1), dtype=bool)))]
    for n in (2, 3, 5, 12, 30, 60):
        nets.append((f"random-n{n}", random_network(rng, n, extra_edge_prob=min(0.35, 8 / n))))
    for a, b in ((1, 1), (1, 5), (3, 4), (6, 2)):
        nets.append((f"bridged-{a}-{b}", bridged_clusters(a, b, influence=0.5)))
    nets += [("barbell-4", barbell(4)), ("path-6", path(6))]

    one_way = np.eye(6, k=1, dtype=bool)  # 0 -> 1 -> ... -> 5
    nets.append(("one-way-chain", on_support(one_way)))
    halves = np.zeros((6, 6), dtype=bool)
    halves[:3, :3] = halves[3:, 3:] = True
    np.fill_diagonal(halves, False)
    nets.append(("two-components", on_support(halves)))
    net = random_network(rng, 9)
    sink = dense(net, net.p) > 0.0
    sink[:, 4] = False  # nothing reaches node 4
    nets.append(("unreachable-node", on_support(sink)))
    for n, prob in ((4, 0.3), (8, 0.15), (15, 0.1), (25, 0.06), (40, 0.04)):
        for k in range(3):
            support = rng.random((n, n)) < prob
            np.fill_diagonal(support, False)
            nets.append((f"sparse-n{n}-{k}", on_support(support)))
    # more than 128 nodes: an all-source search spans three 64-bit words per node
    nets.append(("random-n130", random_network(rng, 130, extra_edge_prob=8 / 130)))
    return nets


CORPUS = _corpus()
IDS = [label for label, _ in CORPUS]
NETWORKS = [net for _, net in CORPUS]


def edge_pairs(net):
    """The network's directed edges as (tail, head) pairs of ints, in row-major order."""
    return list(zip(*(ends.tolist() for ends in net.edges)))


def digraph(net):
    g = nx.DiGraph()
    g.add_nodes_from(range(net.n))
    g.add_edges_from(edge_pairs(net))
    return g


def test_corpus_has_both_connectivity_verdicts():
    verdicts = [nx.is_strongly_connected(digraph(net)) for net in NETWORKS]
    assert sum(verdicts) >= 10 and verdicts.count(False) >= 10


@pytest.mark.parametrize("net", NETWORKS, ids=IDS)
def test_diameter_and_connectivity(net):
    g = digraph(net)
    strong = nx.is_strongly_connected(g)
    assert ("not strongly connected" in validate_network(net).violations) == (not strong)
    if strong:
        assert diameter(net) == nx.diameter(g)
    else:
        with pytest.raises(NotStronglyConnectedError):
            diameter(net)


@pytest.mark.parametrize("net", NETWORKS, ids=IDS)
def test_edge_partition(net):
    g = digraph(net).to_undirected()
    bridges = {frozenset(e) for e in nx.bridges(g)}
    connected = nx.is_connected(g)
    for i, j in edge_pairs(net):
        side = edge_partition(net, i, j)
        g.remove_edge(i, j)
        side_i = sorted(nx.node_connected_component(g, i))
        side_j = sorted(nx.node_connected_component(g, j))
        g.add_edge(i, j)
        assert (side is None) == (frozenset((i, j)) not in bridges) == (j in side_i)
        if side is not None:
            assert side.dtype == bool and side.shape == (net.n,)
            assert np.flatnonzero(side).tolist() == side_i
            if connected:
                assert np.flatnonzero(~side).tolist() == side_j
