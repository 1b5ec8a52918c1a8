import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from willingness_gossip.errors import Thm6InapplicableError
from willingness_gossip.fixtures import (
    barbell,
    bridged_clusters,
    cycle,
    random_network,
    two_node_influencer,
    without_influence,
)
from willingness_gossip.impact import (
    build_impact_report,
    impact_exact,
    impact_thm5,
    impact_thm6,
    impact_thm7_bound,
    rank_clients,
    render_impact_csv,
)
from willingness_gossip.meanfield import (
    build_mean_matrices,
    fundamental_matrix,
    fundamental_solve,
    mean_first_passage,
    stationary_distribution,
)
from willingness_gossip.network import dense, parse_network, serialize_network
from willingness_gossip.report import RunConfig, analyze, render_json
from willingness_gossip.spectral import conductance


def influenced_cycle():
    """The 4-cycle with one influential edge (0, 1), which is not a bridge."""
    net = cycle(4)
    x = net.x.copy()
    y = net.y.copy()
    x[0] = 0.5  # (0, 1), the first listed pair
    y[0] = 0.5
    return dataclasses.replace(net, x=x, y=y)


def exact_pipeline(net):
    mm = build_mean_matrices(net)
    pi = stationary_distribution(mm)
    return mm, pi, impact_exact(pi)


class TestExact:
    def test_no_influence_all_zero(self, rng):
        net = without_influence(random_network(rng, 7))
        _, _, exact = exact_pipeline(net)
        assert np.max(np.abs(exact)) <= 1e-12

    def test_influencer_pair(self):
        _, _, exact = exact_pipeline(two_node_influencer())
        np.testing.assert_allclose(exact, [-1.0 / 6.0, 1.0 / 6.0], atol=1e-14)

    def test_sums_to_zero(self, rng):
        for _ in range(10):
            net = random_network(rng, int(rng.integers(3, 13)))
            _, _, exact = exact_pipeline(net)
            assert abs(exact.sum()) <= 1e-12


class TestPassageTimeIdentity:
    def test_influencer_pair_hand_values(self):
        net = two_node_influencer()
        mm, pi, exact = exact_pipeline(net)
        values, residual = impact_thm5(net, pi, mm.K)
        # single influential term, delta=1/2 kills the first coefficient:
        # value_1 = (1/8) * pi_1 * (m_01 - m_11) = (1/8)(2/3)(2) = 1/6
        assert values[1] == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert values[0] == pytest.approx(-1.0 / 6.0, abs=1e-12)
        assert residual.max() <= 1e-12

    def test_exact_identity_on_random_networks(self, rng):
        worst = 0.0
        for _ in range(30):
            net = random_network(rng, 10)
            mm, pi, exact = exact_pipeline(net)
            _, residual = impact_thm5(net, pi, mm.K)
            worst = max(worst, float(residual.max()))
        assert worst <= 1e-8

    def test_matches_passage_time_sum(self):
        # oracle: the theorem's double sum over influential pairs, with the
        # passage times m taken from the full fundamental matrix
        nets = [random_network(np.random.default_rng(s), n) for s, n in enumerate((4, 9, 14, 19, 30, 50))]
        worst = 0.0
        for net in nets + [bridged_clusters(8, 9, influence=0.5)]:
            mm, pi, _ = exact_pipeline(net)
            n = net.n
            m = mean_first_passage(fundamental_matrix(mm.K), np.full(n, 1.0 / n))
            coef = dense(net, net.p) * dense(net, net.x) * ((1.0 - 2.0 * net.delta) * pi[:, None] + pi[None, :])
            oracle = (np.einsum("ij,ik->k", coef, m) - np.einsum("ij,jk->k", coef, m)) / (2.0 * n * n)
            values, _ = impact_thm5(net, pi, mm.K)
            worst = max(worst, float(np.max(np.abs(values - oracle))))
        assert worst <= 1e-12


    @pytest.mark.parametrize("seed, n", enumerate((2, 4, 9, 14, 19, 30, 50, 120)))
    def test_per_pair_coefficients_equal_the_dense_product_bit_for_bit(self, seed, n):
        # the coefficients are scattered per listed pair; every pair not listed contributes +0.0 either way
        net = random_network(np.random.default_rng(seed), n, extra_edge_prob=0.35 if n < 100 else 8 / n)
        mm, pi, _ = exact_pipeline(net)
        n = net.n
        coef = dense(net, net.influence) * ((1.0 - 2.0 * net.delta) * pi[:, None] + pi[None, :])
        want = -fundamental_solve(mm.K, coef.sum(axis=1) - coef.sum(axis=0)) / (2.0 * n)
        assert impact_thm5(net, pi, mm.K)[0].tobytes() == want.tobytes()


class TestBridgeClosedForm:
    def test_influencer_pair_values(self):
        net = two_node_influencer()
        _, _, exact = exact_pipeline(net)
        result = impact_thm6(net, exact)
        assert result.mu == pytest.approx(0.5)
        assert result.edge == (0, 1)
        np.testing.assert_allclose(result.values, exact, atol=1e-12)
        assert result.residual <= 1e-12

    def test_within_cluster_equality(self, rng):
        for size_i, size_j in ((2, 2), (3, 3), (1, 4), (4, 2)):
            net = bridged_clusters(size_i, size_j, influence=0.5)
            _, _, exact = exact_pipeline(net)
            left, right = exact[:size_i], exact[size_i:]
            assert np.max(np.abs(left - left[0])) <= 1e-9
            assert np.max(np.abs(right - right[0])) <= 1e-9
            # influencer side is pulled up, the other side down
            assert right[0] > 0 > left[0]

    def test_balanced_sides_match_exact(self):
        net = barbell(3, influence=0.6, delta=0.35)
        _, _, exact = exact_pipeline(net)
        assert impact_thm6(net, exact).residual <= 1e-9

    def test_unbalanced_residual_is_reported(self):
        net = bridged_clusters(2, 5, influence=0.5)
        _, _, exact = exact_pipeline(net)
        result = impact_thm6(net, exact)
        assert result.residual == float(np.max(np.abs(result.values - exact)))  # surfaced, not hidden
        assert result.residual <= 1e-12

    def test_non_bridge_refused(self):
        net = influenced_cycle()
        _, _, exact = exact_pipeline(net)
        with pytest.raises(Thm6InapplicableError, match=r"^influential edge \(0, 1\) is not a bridge$"):
            impact_thm6(net, exact)

    def test_multiple_influential_edges_refused(self, rng):
        net = random_network(rng, 6)
        assert net.influence_mass > 0
        _, _, exact = exact_pipeline(net)
        with pytest.raises(Thm6InapplicableError, match="multiple|no influential"):
            impact_thm6(net, exact)

    def test_listed_pair_without_meeting_is_no_influential_edge(self):
        """A listed pair with p = 0 and x > 0 beside the influential bridge: thm6 sees the bridge alone."""
        doc = json.loads(serialize_network(barbell(3)))
        doc["edges"].append({"from": 0, "to": 5, "p": 0.0, "x": 0.5, "y": 0.5, "z": 0.0})
        net = parse_network(json.dumps(doc))
        assert net.tails.size == barbell(3).tails.size + 1
        want = impact_thm6(barbell(3), exact_pipeline(barbell(3))[2])
        result = impact_thm6(net, exact_pipeline(net)[2])
        assert result.edge == want.edge
        np.testing.assert_array_equal(result.values, want.values)
        assert result.residual <= 1e-9

    def test_no_influential_edge_refused(self, rng):
        net = without_influence(random_network(rng, 5))
        _, _, exact = exact_pipeline(net)
        with pytest.raises(Thm6InapplicableError, match="^no influential edge$"):
            impact_thm6(net, exact)


class TestConductanceBound:
    def test_influencer_pair_value(self):
        net = two_node_influencer()
        bound = impact_thm7_bound(net, 1.0)
        assert bound == pytest.approx(1.0 + math.log(2.0))
        assert bound >= 1.0 / 6.0

    def test_no_influence_zero(self, rng):
        net = without_influence(random_network(rng, 5))
        assert impact_thm7_bound(net, 0.8) == 0.0

    def test_absent_without_conductance(self, rng):
        net = random_network(rng, 5)
        assert impact_thm7_bound(net, None) is None

    def test_dominates_exact_impacts(self, rng):
        for _ in range(25):
            net = random_network(rng, int(rng.integers(3, 13)))
            mm, pi, exact = exact_pipeline(net)
            bound = impact_thm7_bound(net, conductance(mm.K))
            assert np.max(np.abs(exact)) <= bound + 1e-12


class TestRanking:
    def test_influencer_pair_order(self):
        ranking = rank_clients(np.array([-1.0 / 6.0, 1.0 / 6.0]))
        assert [r.node for r in ranking] == [1, 0]
        assert ranking[0].tier == "incentivize"
        assert ranking[0].score == 1.0
        assert ranking[1].tier == "standard"

    def test_all_zero_ties(self):
        ranking = rank_clients(np.zeros(5))
        assert [r.node for r in ranking] == [0, 1, 2, 3, 4]
        assert all(r.tier == "review" for r in ranking)
        assert all(r.score == 0.0 for r in ranking)

    def test_relabeling_gives_isomorphic_ranking(self, rng):
        impacts = rng.normal(size=9)
        perm = rng.permutation(9)
        base = rank_clients(impacts)
        permuted = rank_clients(impacts[perm])
        # rank sequence of impact values is identical
        assert [round(r.impact, 12) for r in base] == [round(r.impact, 12) for r in permuted]

    def test_quartile_tiers(self):
        impacts = np.array([0.4, 0.3, 0.2, 0.1, -0.1, -0.2, -0.3, -0.4])
        ranking = {r.node: r.tier for r in rank_clients(impacts)}
        assert ranking[0] == ranking[1] == "incentivize"
        assert ranking[6] == ranking[7] == "standard"
        assert ranking[2] == ranking[5] == "review"

    def test_solver_noise_ties_break_by_node_id(self):
        # impacts equal up to the last bits must rank by node id, not noise
        base = 0.03494580165021835
        noisy = np.array([-3 * base, base + 8e-17, base, base, base + 8e-17])
        order = [r.node for r in rank_clients(noisy)]
        assert order == [1, 2, 3, 4, 0]

    def test_within_cluster_ties_rank_by_node_id(self):
        net = bridged_clusters(3, 4, influence=0.6, delta=0.4)
        _, _, exact = exact_pipeline(net)
        order = [r.node for r in rank_clients(exact)]
        assert order == [3, 4, 5, 6, 0, 1, 2]

    def test_scaling_w0_does_not_change_ranking(self, rng):
        # impacts depend only on the network, not on w0
        net = random_network(rng, 8)
        mm = build_mean_matrices(net)
        pi = stationary_distribution(mm)
        order1 = [r.node for r in rank_clients(impact_exact(pi))]
        scaled = dataclasses.replace(net, w0=net.w0 * 0.25)
        pi2 = stationary_distribution(build_mean_matrices(scaled))
        order2 = [r.node for r in rank_clients(impact_exact(pi2))]
        assert order1 == order2


def test_report_and_csv():
    net = two_node_influencer()
    mm, pi, _ = exact_pipeline(net)
    report = build_impact_report(net, pi, mm.K, conductance(mm.K))
    assert report.thm6 is not None and report.thm6_reason is None
    assert report.thm6.residual <= 1e-12
    assert abs(report.exact.sum()) <= 1e-12
    assert np.max(np.abs(report.exact)) <= report.thm7_bound

    lines = render_impact_csv(report).splitlines()
    assert lines[0] == "node,exact,thm5,thm5_residual,thm6,thm7_bound,rank,tier"
    assert len(lines) == 3
    row0 = lines[1].split(",")
    assert row0[0] == "0" and row0[-1] == "standard" and row0[-2] == "2"


def test_csv_blank_cells_when_inapplicable(rng):
    net = random_network(rng, 5)
    mm, pi, _ = exact_pipeline(net)
    report = build_impact_report(net, pi, mm.K, None)
    assert report.thm7_bound is None and report.thm6 is None
    row = render_impact_csv(report).splitlines()[1].split(",")
    assert row[4] == "" and row[5] == ""


# The impact section is the ImpactReport dataclass as a dict: a new field
# would change every report, so the schema is pinned once per thm6 outcome.
@pytest.mark.parametrize(
    "make_net, reason",
    [
        (lambda: bridged_clusters(2, 5, influence=0.5), None),
        (lambda: without_influence(bridged_clusters(2, 5, influence=0.5)), "no influential edge"),
        (lambda: random_network(np.random.default_rng(0), 5), "multiple influential edges (5)"),
        (influenced_cycle, "influential edge (0, 1) is not a bridge"),
    ],
    ids=["bridge", "no-influence", "random", "non-bridge-cycle"],
)
def test_impact_section_schema(make_net, reason):
    payload, ok, _ = analyze(make_net(), RunConfig(command="analyze", network="mem", replicas=0))
    impact = json.loads(render_json(payload))["impact"]
    assert ok and set(impact) == {"exact", "thm5", "thm5_residual", "thm7_bound", "thm6", "thm6_reason", "ranking"}
    assert set(impact["ranking"][0]) == {"node", "impact", "score", "rank", "tier"}
    assert impact["thm6_reason"] == reason
    if reason is None:
        assert set(impact["thm6"]) == {"values", "mu", "edge", "side_i", "side_j", "residual"}
        assert impact["thm6"]["edge"] == [1, 2] and impact["thm6"]["residual"] <= 1e-12
    else:
        assert impact["thm6"] is None


# sha256 of each network's impact CSV: the bytes, every value's repr included, are pinned.
CSV_SHA256 = {
    "random-n500": "ab6afe5d141db268262f4f8f4934d8985d210f1be3dab024b9fe841f8a5ab239",
    "bridged-5-6": "eccdd2131725de994dbcb51f23993fc6479c6bf476f2df840eca8206eec88b87",
}


@pytest.mark.parametrize(
    "label, make_net",
    [
        ("random-n500", lambda: random_network(np.random.default_rng(1), 500, extra_edge_prob=8 / 500)),
        ("bridged-5-6", lambda: bridged_clusters(5, 6, influence=0.5)),
    ],
)
def test_csv_bytes_are_pinned(label, make_net):
    _, ok, report = analyze(make_net(), RunConfig(command="analyze", network="mem", replicas=0))
    assert ok and (report.thm6 is not None) == label.startswith("bridged")
    assert hashlib.sha256(render_impact_csv(report).encode("utf-8")).hexdigest() == CSV_SHA256[label]
