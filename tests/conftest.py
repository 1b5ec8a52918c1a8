import numpy as np
import pytest

from willingness_gossip.fixtures import two_node_influencer, two_node_regular
from willingness_gossip.network import serialize_network


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
