"""Canonical network constructions for tests, demos and benchmarks."""

from __future__ import annotations

import dataclasses

import numpy as np

from .network import AcquaintanceNetwork

# random_network: share of influential edges, and the cap on each edge's z.
INFLUENCE_PROB = 0.65
MAX_PERSISTENT = 0.5


def _averaging(n: int, tails, heads, w0=None, delta: float = 0.5) -> AcquaintanceNetwork:
    """Averaging-only network on the directed edges tails -> heads, in any order; repeats and self-loops are dropped.

    Meetings are uniform over each node's out-neighbors; ``w0`` defaults to
    ``linspace(0, 1, n)``.
    """
    keys = np.sort(np.asarray(tails) * n + heads)  # not np.unique, which imports numpy.ma (about 1.7 MiB)
    keys = keys[(np.diff(keys, prepend=-1) > 0) & (keys % (n + 1) != 0)]  # drop repeats and each self-loop (i, i)
    tails, heads = np.divmod(keys, n)
    degree = np.bincount(tails, minlength=n)
    if not degree.all():
        raise ValueError("every node needs at least one out-neighbor")
    if w0 is None:
        w0 = np.linspace(0.0, 1.0, n)
    zeros = np.zeros(len(tails))
    return AcquaintanceNetwork(
        n=n, delta=delta, w0=np.asarray(w0, dtype=float), tails=tails, heads=heads,
        p=1.0 / degree[tails], x=zeros, y=np.ones(len(tails)), z=zeros,
    )


def two_node_regular(w0=(0.0, 1.0), delta: float = 0.5) -> AcquaintanceNetwork:
    """Two users who always meet and always average."""
    return complete(2, w0, delta)


def two_node_influencer(w0=(0.0, 1.0), delta: float = 0.5) -> AcquaintanceNetwork:
    """Two users: node 1 influences node 0, node 1 averages with node 0.

    Meetings initiated by node 0 are always influence meetings (node 1 is
    the influencer); meetings initiated by node 1 are always averaging.
    """
    return AcquaintanceNetwork(
        n=2, delta=delta, w0=np.asarray(w0, dtype=float), tails=[0, 1], heads=[1, 0],
        p=[1.0, 1.0], x=[1.0, 0.0], y=[0.0, 1.0], z=[0.0, 0.0],
    )


def cycle(n: int, w0=None, delta: float = 0.5) -> AcquaintanceNetwork:
    """Bidirectional ring with uniform meeting probabilities, averaging only."""
    i = np.arange(n)
    return _averaging(n, np.tile(i, 2), np.concatenate(((i + 1) % n, (i - 1) % n)), w0, delta)


def path(n: int, w0=None, delta: float = 0.5) -> AcquaintanceNetwork:
    """Bidirectional path graph, averaging only."""
    i = np.arange(n - 1)
    return _averaging(n, np.concatenate((i, i + 1)), np.concatenate((i + 1, i)), w0, delta)


def complete(n: int, w0=None, delta: float = 0.5) -> AcquaintanceNetwork:
    """Complete graph with uniform meeting probabilities, averaging only."""
    return _averaging(n, np.repeat(np.arange(n), n), np.tile(np.arange(n), n), w0, delta)


def bridged_clusters(
    size_i: int,
    size_j: int,
    influence: float = 0.0,
    delta: float = 0.5,
    w0=None,
    bridge_p: float | None = None,
) -> AcquaintanceNetwork:
    """Two complete clusters joined by a single undirected bridge.

    The bridge runs from the last node of the first cluster (node
    ``size_i - 1``) to the first node of the second (node ``size_i``).
    With ``influence > 0`` the ordered bridge edge (tail, head) carries
    influence probability ``influence`` (head influences tail) and every
    other meeting averages, which makes the bridge the only influential
    edge in the network.  ``bridge_p`` in (0, 1) sets the meeting
    probability ``p`` of both bridge directions, and the other partners of
    the two bridge nodes share the rest of their rows; by default every
    node meets its partners uniformly.
    """
    n = size_i + size_j
    tails, heads = np.repeat(np.arange(n), n), np.tile(np.arange(n), n)
    same = (tails >= size_i) == (heads >= size_i)
    tail, head = size_i - 1, size_i
    net = _averaging(n, np.append(tails[same], [tail, head]), np.append(heads[same], [head, tail]), w0, delta)
    if bridge_p is not None:
        if not (0.0 < bridge_p < 1.0 and min(size_i, size_j) >= 2):
            raise ValueError("bridge_p must lie in (0, 1), with at least two nodes in each cluster")
        crossing = (net.tails < size_i) != (net.heads < size_i)  # the two bridge directions
        ends = (net.tails == tail) | (net.tails == head)
        partners = np.where(net.tails < size_i, size_i - 1, size_j - 1)
        p = np.where(crossing, bridge_p, np.where(ends, (1.0 - bridge_p) / partners, net.p))
        net = dataclasses.replace(net, p=p)
    if influence <= 0.0:
        return net
    bridge = (net.tails == tail) & (net.heads == head)
    x = np.where(bridge, influence, net.x)
    y = np.where(bridge, 1.0 - influence, net.y)
    return dataclasses.replace(net, x=x, y=y)


def barbell(k: int = 3, influence: float = 0.5, delta: float = 0.5) -> AcquaintanceNetwork:
    """Two complete k-cliques joined by one bridge edge (influential by default)."""
    return bridged_clusters(k, k, influence=influence, delta=delta)


def random_network(
    rng: np.random.Generator,
    n: int,
    extra_edge_prob: float = 0.35,
) -> AcquaintanceNetwork:
    """Random valid network: strongly connected, normalized rows, mixed types.

    A random directed Hamiltonian cycle guarantees strong connectivity;
    every other ordered pair joins the support independently.  Each edge
    keeps ``x + y`` bounded away from zero so the influence assumption
    holds with margin, which also keeps simulated convergence fast.
    """
    support = np.zeros((n, n), dtype=bool)
    order = rng.permutation(n)
    for k in range(n):
        support[order[k], order[(k + 1) % n]] = True
    extra = rng.random((n, n)) < extra_edge_prob
    np.fill_diagonal(extra, False)
    support |= extra

    weights = np.where(support, rng.uniform(0.2, 1.0, size=(n, n)), 0.0)
    tails, heads = np.divmod(np.flatnonzero(support), n)
    # row sums over the dense rows: their zeros set the pairwise-summation order, and so the last bit of p
    p = weights[tails, heads] / weights.sum(axis=1)[tails]

    x, y, z = np.zeros((3, len(tails)))
    for e in range(len(tails)):
        z[e] = rng.uniform(0.0, MAX_PERSISTENT)
        if rng.random() < INFLUENCE_PROB:
            x[e] = (1.0 - z[e]) * rng.uniform(0.1, 0.9)
        y[e] = 1.0 - z[e] - x[e]

    w0 = rng.uniform(0.0, 1.0, size=n)
    delta = float(rng.uniform(0.05, 0.5))
    return AcquaintanceNetwork(n=n, delta=delta, w0=w0, tails=tails, heads=heads, p=p, x=x, y=y, z=z)


def without_influence(net: AcquaintanceNetwork) -> AcquaintanceNetwork:
    """Copy of ``net`` with all influence probability moved onto averaging."""
    return dataclasses.replace(net, x=np.zeros_like(net.x), y=net.y + net.x)
