import numpy as np
import pytest

from willingness_gossip.fixtures import two_node_influencer, two_node_regular
from willingness_gossip.gossip import build_sampler
from willingness_gossip.kernels import KIND_INFLUENCE, KIND_REGULAR, decode_meetings
from willingness_gossip.network import serialize_network


def _sample_meetings_batch(net, count: int, rng: np.random.Generator):
    """``count`` meetings (i, j, kind) decoded from ``rng`` exactly as the simulator decodes them."""
    nbr_idx, nbr_cum, row_start = build_sampler(net)
    return decode_meetings(nbr_idx, nbr_cum, row_start, net.x, net.y, rng.random((count, 3)))


def _empirical_mean_update(net, count: int, rng: np.random.Generator):
    """Monte-Carlo estimate of the mean one-slot update matrix.

    Samples ``count`` meetings, accumulates the induced update matrices
    entrywise and returns (mean, stderr) arrays: the oracle that checks
    the analytic mean matrices at 3-sigma resolution.
    """
    n = net.n
    i, j, kind = _sample_meetings_batch(net, count, rng)
    dsum = np.zeros((n, n))
    dsq = np.zeros((n, n))

    reg = kind == KIND_REGULAR
    inf = kind == KIND_INFLUENCE
    one_minus_delta = 1.0 - net.delta
    # Averaging meeting deviation from I: -1/2 at (i,i),(j,j); +1/2 at (i,j),(j,i)
    for rows, cols, val in (
        (i[reg], i[reg], -0.5),
        (j[reg], j[reg], -0.5),
        (i[reg], j[reg], 0.5),
        (j[reg], i[reg], 0.5),
        # Influence meeting deviation: -(1-delta) at (i,i); +(1-delta) at (i,j)
        (i[inf], i[inf], -one_minus_delta),
        (i[inf], j[inf], one_minus_delta),
    ):
        np.add.at(dsum, (rows, cols), val)
        np.add.at(dsq, (rows, cols), val * val)

    mean = np.eye(n) + dsum / count
    var = np.maximum(dsq / count - (dsum / count) ** 2, 0.0)
    stderr = np.sqrt(var / count)
    return mean, stderr


@pytest.fixture()
def sample_meetings_batch():
    """The vectorized meeting sampler, as a function (net, count, rng) -> (i, j, kind)."""
    return _sample_meetings_batch


@pytest.fixture()
def empirical_mean_update():
    """The sampled mean-matrix oracle, as a function (net, count, rng)."""
    return _empirical_mean_update


@pytest.fixture()
def influencer_pair():
    return two_node_influencer()


@pytest.fixture()
def regular_pair():
    return two_node_regular()


@pytest.fixture()
def influencer_pair_path(tmp_path):
    path = tmp_path / "influencer_pair.json"
    path.write_text(serialize_network(two_node_influencer()), encoding="utf-8")
    return str(path)


@pytest.fixture()
def regular_pair_path(tmp_path):
    path = tmp_path / "regular_pair.json"
    path.write_text(serialize_network(two_node_regular()), encoding="utf-8")
    return str(path)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260810)
