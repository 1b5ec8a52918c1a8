"""Canonical network constructions for tests, demos and benchmarks."""

from __future__ import annotations

import dataclasses

import numpy as np

from .network import AcquaintanceNetwork

# random_network: share of influential edges, and the cap on each edge's z.
INFLUENCE_PROB = 0.65
MAX_PERSISTENT = 0.5


def _averaging(support: np.ndarray, w0=None, delta: float = 0.5) -> AcquaintanceNetwork:
    """Averaging-only network on ``support``, meetings uniform over each node's out-neighbors.

    ``w0`` defaults to ``linspace(0, 1, n)``.
    """
    n = len(support)
    y = support.astype(np.float64)
    sums = y.sum(axis=1)
    if np.any(sums == 0):
        raise ValueError("every node needs at least one out-neighbor")
    if w0 is None:
        w0 = np.linspace(0.0, 1.0, n)
    p, x, z = y / sums[:, None], np.zeros_like(y), np.zeros_like(y)
    return AcquaintanceNetwork(n=n, delta=delta, p=p, x=x, y=y, z=z, w0=np.asarray(w0, dtype=float))


def two_node_regular(w0=(0.0, 1.0), delta: float = 0.5) -> AcquaintanceNetwork:
    """Two users who always meet and always average."""
    return complete(2, w0, delta)


def two_node_influencer(w0=(0.0, 1.0), delta: float = 0.5) -> AcquaintanceNetwork:
    """Two users: node 1 influences node 0, node 1 averages with node 0.

    Meetings initiated by node 0 are always influence meetings (node 1 is
    the influencer); meetings initiated by node 1 are always averaging.
    """
    p = np.array([[0.0, 1.0], [1.0, 0.0]])
    x = np.array([[0.0, 1.0], [0.0, 0.0]])
    y = np.array([[0.0, 0.0], [1.0, 0.0]])
    z = np.zeros((2, 2))
    return AcquaintanceNetwork(n=2, delta=delta, p=p, x=x, y=y, z=z, w0=np.asarray(w0, dtype=float))


def cycle(n: int, w0=None, delta: float = 0.5) -> AcquaintanceNetwork:
    """Bidirectional ring with uniform meeting probabilities, averaging only."""
    eye = np.eye(n, dtype=bool)
    support = np.roll(eye, 1, axis=1) | np.roll(eye, -1, axis=1)
    np.fill_diagonal(support, False)
    return _averaging(support, w0, delta)


def path(n: int, w0=None, delta: float = 0.5) -> AcquaintanceNetwork:
    """Bidirectional path graph, averaging only."""
    return _averaging(np.eye(n, k=1, dtype=bool) | np.eye(n, k=-1, dtype=bool), w0, delta)


def complete(n: int, w0=None, delta: float = 0.5) -> AcquaintanceNetwork:
    """Complete graph with uniform meeting probabilities, averaging only."""
    return _averaging(~np.eye(n, dtype=bool), w0, delta)


def bridged_clusters(
    size_i: int,
    size_j: int,
    influence: float = 0.0,
    delta: float = 0.5,
    w0=None,
) -> AcquaintanceNetwork:
    """Two complete clusters joined by a single undirected bridge.

    The bridge runs from the last node of the first cluster (node
    ``size_i - 1``) to the first node of the second (node ``size_i``).
    With ``influence > 0`` the ordered bridge edge (tail, head) carries
    influence probability ``influence`` (head influences tail) and every
    other meeting averages, which makes the bridge the only influential
    edge in the network.
    """
    n = size_i + size_j
    side = np.arange(n) >= size_i
    support = (side[:, None] == side[None, :]) & ~np.eye(n, dtype=bool)
    tail, head = size_i - 1, size_i
    support[tail, head] = True
    support[head, tail] = True

    net = _averaging(support, w0, delta)
    if influence <= 0.0:
        return net
    x, y = net.x.copy(), net.y.copy()
    x[tail, head] = influence
    y[tail, head] = 1.0 - influence
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
    p = weights / weights.sum(axis=1)[:, None]

    x = np.zeros((n, n))
    y = np.zeros((n, n))
    z = np.zeros((n, n))
    for i, j in np.argwhere(support):
        zz = rng.uniform(0.0, MAX_PERSISTENT)
        rem = 1.0 - zz
        if rng.random() < INFLUENCE_PROB:
            t = rng.uniform(0.1, 0.9)
            xx = rem * t
        else:
            xx = 0.0
        x[i, j] = xx
        y[i, j] = rem - xx
        z[i, j] = zz

    w0 = rng.uniform(0.0, 1.0, size=n)
    delta = float(rng.uniform(0.05, 0.5))
    return AcquaintanceNetwork(n=n, delta=delta, p=p, x=x, y=y, z=z, w0=w0)


def without_influence(net: AcquaintanceNetwork) -> AcquaintanceNetwork:
    """Copy of ``net`` with all influence probability moved onto averaging."""
    x = np.zeros_like(net.x)
    y = np.asarray(net.y + net.x)
    return AcquaintanceNetwork(n=net.n, delta=net.delta, p=net.p.copy(), x=x, y=y, z=net.z.copy(), w0=net.w0.copy())
