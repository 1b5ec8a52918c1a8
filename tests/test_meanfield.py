import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_network_oracle import CORPUS

from willingness_gossip.fixtures import (
    barbell,
    bridged_clusters,
    cycle,
    random_network,
    two_node_influencer,
    two_node_regular,
    without_influence,
)
from willingness_gossip.errors import NumericalError
from willingness_gossip.meanfield import (
    COND_LIMIT,
    MeanMatrices,
    _cond_bound,
    _deflated,
    _stationary_system,
    _system_norm1,
    build_mean_matrices,
    build_passage_data,
    fundamental_matrix,
    mean_first_passage,
    stationary_distribution,
    stationary_perturbation,
)

DOUBLY_STOCHASTIC_TOL = 1e-12


def power_iteration_rows(Wbar, iters=4000):
    """Independent oracle: rows of Wbar^k all converge to the left fixed point."""
    M = np.linalg.matrix_power(Wbar, iters)
    return M


class TestMeanMatrices:
    def test_influencer_pair_exact(self, closed_form_mean_matrices):
        net = two_node_influencer()
        mm = build_mean_matrices(net)
        np.testing.assert_array_equal(mm.K, [[0.5, 0.5], [0.5, 0.5]])
        np.testing.assert_array_equal(closed_form_mean_matrices(net)[1], [[0.0, 0.0], [-0.25, 0.25]])
        np.testing.assert_array_equal(mm.Wbar, [[0.5, 0.5], [0.25, 0.75]])

    def test_no_influence_means_zero_L(self, rng, closed_form_mean_matrices):
        net = without_influence(random_network(rng, 7))
        mm = build_mean_matrices(net)
        np.testing.assert_array_equal(closed_form_mean_matrices(net)[1], np.zeros((7, 7)))
        np.testing.assert_array_equal(mm.Wbar, mm.K)

    def test_split_consistency(self, rng, closed_form_mean_matrices):
        for _ in range(10):
            net = random_network(rng, int(rng.integers(3, 13)))
            mm = build_mean_matrices(net)
            np.testing.assert_allclose(mm.Wbar, mm.K + closed_form_mean_matrices(net)[1], atol=1e-12)

    def test_social_matrix_properties(self, rng):
        # symmetry and double stochasticity must survive asymmetric p
        for _ in range(10):
            net = random_network(rng, int(rng.integers(3, 13)))
            K = build_mean_matrices(net).K
            np.testing.assert_allclose(K, K.T, atol=DOUBLY_STOCHASTIC_TOL)
            np.testing.assert_allclose(K.sum(axis=0), 1.0, atol=1e-9)
            np.testing.assert_allclose(K.sum(axis=1), 1.0, atol=1e-9)
            assert K.min() >= 0.0

    def test_influence_rows_sum_to_zero(self, rng, closed_form_mean_matrices):
        for _ in range(5):
            net = random_network(rng, 9)
            L = closed_form_mean_matrices(net)[1]
            np.testing.assert_allclose(L.sum(axis=1), 0.0, atol=1e-14)

    def test_wbar_is_stochastic(self, rng):
        net = random_network(rng, 11)
        Wbar = build_mean_matrices(net).Wbar
        assert Wbar.min() >= 0.0
        np.testing.assert_allclose(Wbar.sum(axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("net", [net for _, net in CORPUS] + [bridged_clusters(5, 6, influence=0.3)])
    def test_in_place_build_equals_the_closed_forms_bit_for_bit(self, net, closed_form_mean_matrices):
        """The arrays are updated in place to bound the peak; each element keeps the closed forms' IEEE operations."""
        K, L = closed_form_mean_matrices(net)
        mm = build_mean_matrices(net)
        for got, want in ((mm.K, K), (mm.Wbar, K + L)):
            assert got.tobytes() == want.tobytes()


    @pytest.mark.parametrize("net", [net for _, net in CORPUS])
    def test_one_buffer_systems_equal_the_identity_forms_bit_for_bit(self, net):
        mm = build_mean_matrices(net)
        n = net.n
        A = mm.Wbar.T - np.eye(n)
        A[-1, :] = 1.0
        assert _stationary_system(mm.Wbar).tobytes() == A.tobytes()
        for M in (mm.Wbar.T, mm.K):
            assert _deflated(M).tobytes() == (np.eye(n) - M + 1.0 / n).tobytes()


class TestStationary:
    def test_influencer_pair(self):
        pi = stationary_distribution(build_mean_matrices(two_node_influencer()))
        np.testing.assert_allclose(pi, [1.0 / 3.0, 2.0 / 3.0], atol=1e-14)
        assert not pi.flags.writeable and pi.flags.c_contiguous

    def test_no_influence_uniform(self, rng):
        net = without_influence(random_network(rng, 8))
        pi = stationary_distribution(build_mean_matrices(net))
        np.testing.assert_allclose(pi, np.full(8, 1.0 / 8.0), atol=1e-12)

    @pytest.mark.parametrize(
        "wbar",
        [np.eye(3), np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]])],
        ids=["identity", "block-reducible"],
    )
    def test_singular_system_is_refused(self, wbar):
        mm = MeanMatrices(Wbar=wbar, K=wbar)
        with pytest.raises(NumericalError, match="ill-conditioned"):
            stationary_distribution(mm)

    def test_matches_power_iteration(self, rng):
        for _ in range(5):
            net = random_network(rng, int(rng.integers(3, 10)))
            mm = build_mean_matrices(net)
            pi = stationary_distribution(mm)
            rows = power_iteration_rows(mm.Wbar)
            for i in range(net.n):
                np.testing.assert_allclose(rows[i], pi, atol=1e-9)

    def test_strictly_positive(self, rng):
        for _ in range(10):
            net = random_network(rng, 8)
            pi = stationary_distribution(build_mean_matrices(net))
            assert pi.min() > 0.0

    def test_left_fixed_point(self, rng):
        net = random_network(rng, 10)
        mm = build_mean_matrices(net)
        pi = stationary_distribution(mm)
        np.testing.assert_allclose(pi @ mm.Wbar, pi, atol=1e-9)
        assert abs(pi.sum() - 1.0) <= 1e-10


def bound_and_cond(Wbar):
    """The hitting-time bound U and the exact cond_1 of the stationary system of ``Wbar``."""
    A = _stationary_system(Wbar)
    e_last = np.zeros(A.shape[0])
    e_last[-1] = 1.0
    return _cond_bound(Wbar, A, e_last), np.linalg.cond(A, 1)


WEAK_BRIDGES = [1e-6, 1e-9, 1e-12]


@pytest.fixture
def cond_calls(monkeypatch):
    """Count the calls of the exact ``np.linalg.cond``."""
    calls = []
    exact = np.linalg.cond

    def counted(*args, **kwargs):
        calls.append(args)
        return exact(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "cond", counted)
    return calls


def full_norm1(Wbar):
    """``||A||_1`` of the stationary system of ``Wbar``, reduced over the whole of ``|A|``."""
    return float(np.abs(_stationary_system(Wbar)).sum(axis=0).max())


class TestConditionBound:
    @pytest.mark.parametrize("net", [net for _, net in CORPUS], ids=[label for label, _ in CORPUS])
    def test_row_sum_norm_equals_the_full_reduction_on_corpus(self, net):
        Wbar = build_mean_matrices(net).Wbar
        assert _system_norm1(Wbar) == pytest.approx(full_norm1(Wbar), rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40), density=st.floats(0.0, 1.0))
    def test_row_sum_norm_equals_the_full_reduction(self, seed, n, density):
        Wbar = build_mean_matrices(random_network(np.random.default_rng(seed), n, extra_edge_prob=density)).Wbar
        assert _system_norm1(Wbar) == pytest.approx(full_norm1(Wbar), rel=1e-12)

    @pytest.mark.parametrize("node", [0, 1, 2])
    def test_row_sum_norm_with_a_diagonal_entry_near_one(self, node):
        # row j is nearly e_j, so R_j - W_jl - W_jj cancels to about 2.5e-13 and |W_jj - 1| is 5e-13
        Wbar = np.array([[0.5, 0.3, 0.2], [0.25, 0.5, 0.25], [0.1, 0.6, 0.3]])
        Wbar[node] = 0.25e-12
        Wbar[node, node] = 1.0 - 0.5e-12
        assert abs(Wbar[node, node] - 1.0) < 1e-12 and Wbar.min() >= 0.0
        assert _system_norm1(Wbar) == pytest.approx(full_norm1(Wbar), rel=1e-12)

    @pytest.mark.parametrize("net", [net for _, net in CORPUS], ids=[label for label, _ in CORPUS])
    def test_bounds_exact_cond_on_corpus(self, net):
        # U is inf where the bound does not apply (a reducible support), so it still bounds cond
        bound, exact = bound_and_cond(build_mean_matrices(net).Wbar)
        assert bound >= exact * (1.0 - 1e-9)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40), density=st.floats(0.0, 1.0))
    def test_bounds_exact_cond_within_return_time(self, seed, n, density):
        # exact <= U <= exact / pi_l: the bound is loose by at most the mean return time to the last node
        mm = build_mean_matrices(random_network(np.random.default_rng(seed), n, extra_edge_prob=density))
        bound, exact = bound_and_cond(mm.Wbar)
        pi_last = stationary_distribution(mm)[-1]
        assert exact * (1.0 - 1e-9) <= bound <= exact / pi_last * (1.0 + 1e-6)

    @pytest.mark.parametrize("bridge_p", WEAK_BRIDGES)
    def test_bounds_exact_cond_on_weak_bridges(self, bridge_p):
        bound, exact = bound_and_cond(build_mean_matrices(bridged_clusters(5, 5, bridge_p=bridge_p)).Wbar)
        assert exact <= bound < np.inf

    @pytest.mark.parametrize("bridge_p, accepted", zip(WEAK_BRIDGES, [True, True, False]))
    def test_decision_matches_exact_gate(self, bridge_p, accepted):
        mm = build_mean_matrices(bridged_clusters(5, 5, bridge_p=bridge_p))
        exact = bound_and_cond(mm.Wbar)[1]
        assert (exact <= COND_LIMIT) == accepted
        if accepted:
            np.testing.assert_allclose(stationary_distribution(mm), 0.1, rtol=1e-6)
        else:
            with pytest.raises(NumericalError, match=re.escape(f"ill-conditioned (cond={exact:.3e})")):
                stationary_distribution(mm)

    @pytest.mark.parametrize("net", [random_network(np.random.default_rng(7), 60), bridged_clusters(5, 5, bridge_p=1e-9)])
    def test_accepted_without_exact_cond(self, net, monkeypatch):
        mm = build_mean_matrices(net)
        expected = stationary_distribution(mm)

        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.cond called")

        monkeypatch.setattr(np.linalg, "cond", refuse)
        np.testing.assert_array_equal(stationary_distribution(mm), expected)

    def test_weak_bridge_falls_back_once(self, cond_calls):
        with pytest.raises(NumericalError, match="ill-conditioned"):
            stationary_distribution(build_mean_matrices(bridged_clusters(5, 5, bridge_p=1e-12)))
        assert len(cond_calls) == 1

    def test_negative_entry_falls_back_once(self, cond_calls):
        # the bound needs Wbar >= 0; the exact cond (about 7) accepts this system
        wbar = np.array([[0.5, 0.6, -0.1], [0.25, 0.5, 0.25], [0.2, 0.3, 0.5]])
        pi = stationary_distribution(MeanMatrices(Wbar=wbar, K=wbar))
        assert len(cond_calls) == 1
        np.testing.assert_allclose(pi @ wbar, pi, atol=1e-14)


class TestPerturbation:
    def test_no_influence_zero_correction(self, rng):
        mm = build_mean_matrices(without_influence(random_network(rng, 6)))
        pi = stationary_perturbation(mm)
        np.testing.assert_allclose(pi, np.full(6, 1.0 / 6.0), atol=1e-14)

    def test_influencer_pair_correction(self):
        mm = build_mean_matrices(two_node_influencer())
        pi = stationary_perturbation(mm)
        np.testing.assert_allclose(pi - 0.5, [-1.0 / 6.0, 1.0 / 6.0], atol=1e-14)

    def test_agrees_with_direct_solve(self, rng):
        for _ in range(20):
            net = random_network(rng, 8)
            mm = build_mean_matrices(net)
            a = stationary_distribution(mm)
            b = stationary_perturbation(mm)
            assert np.max(np.abs(a - b)) <= 1e-10


class TestFundamentalMatrix:
    def test_two_state_closed_form(self):
        K = np.full((2, 2), 0.5)
        np.testing.assert_allclose(fundamental_matrix(K), [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)

    def test_identity_is_reducible(self):
        with pytest.raises(ValueError, match="reducible"):
            fundamental_matrix(np.eye(3))

    def test_matches_truncated_series(self, rng):
        net = random_network(rng, 6)
        K = build_mean_matrices(net).K
        Y = fundamental_matrix(K)
        # series oracle: sum K^k - K_inf until the tail is negligible
        Kinf = np.full((6, 6), 1.0 / 6.0)
        term = np.eye(6)
        acc = np.zeros((6, 6))
        for _ in range(100000):
            acc += term - Kinf
            term = term @ K
            if np.max(np.abs(term - Kinf)) < 1e-10:
                break
        np.testing.assert_allclose(Y, acc, atol=1e-8)

    def test_defining_property(self, rng):
        for _ in range(5):
            net = random_network(rng, 9)
            K = build_mean_matrices(net).K
            Y = fundamental_matrix(K)
            lhs = (np.eye(9) - K) @ Y
            np.testing.assert_allclose(lhs, np.eye(9) - np.full((9, 9), 1.0 / 9.0), atol=1e-10)
            np.testing.assert_allclose(Y.sum(axis=1), 0.0, atol=1e-10)


class TestMeanFirstPassage:
    def test_two_state_geometric(self):
        pd = build_passage_data(np.full((2, 2), 0.5))
        assert pd.m[0, 1] == pytest.approx(2.0)
        assert pd.m[1, 0] == pytest.approx(2.0)
        assert pd.m[0, 0] == 0.0

    def test_one_step_recurrence(self, rng):
        # oracle: m[i, j] = 1 + sum_{k != j} K[i, k] m[k, j]  (m[j, j] = 0)
        for _ in range(5):
            n = int(rng.integers(3, 10))
            net = random_network(rng, n)
            K = build_mean_matrices(net).K
            m = build_passage_data(K).m
            for j in range(n):
                rhs = 1.0 + K @ m[:, j]
                for i in range(n):
                    if i != j:
                        assert abs(m[i, j] - rhs[i]) <= 1e-8

    def test_offdiagonal_at_least_one(self, rng):
        net = random_network(rng, 8)
        m = build_passage_data(build_mean_matrices(net).K).m
        off = m[~np.eye(8, dtype=bool)]
        assert off.min() >= 1.0

    def test_ring_distance_symmetry(self):
        m = build_passage_data(build_mean_matrices(cycle(4)).K).m
        # same ring distance, same passage time
        assert m[0, 1] == pytest.approx(m[1, 2])
        assert m[0, 1] == pytest.approx(m[3, 2])
        assert m[0, 2] == pytest.approx(m[1, 3])
        assert m[0, 1] == pytest.approx(m[0, 3])

    def test_uniform_pi_identity(self, rng):
        net = random_network(rng, 6)
        K = build_mean_matrices(net).K
        Y = fundamental_matrix(K)
        m = mean_first_passage(Y, np.full(6, 1.0 / 6.0))
        for i in range(6):
            for j in range(6):
                if i != j:
                    assert m[i, j] == pytest.approx(6.0 * (Y[j, j] - Y[i, j]))


class TestEmpiricalLaw:
    def test_sampled_update_mean_matches_wbar(self, empirical_mean_update):
        for make, seed in ((two_node_influencer, 1), (two_node_regular, 2), (lambda: barbell(3), 3)):
            net = make()
            mean, stderr = empirical_mean_update(net, 10**5, np.random.default_rng(seed))
            wbar = build_mean_matrices(net).Wbar
            assert np.all(np.abs(mean - wbar) <= 3 * stderr + 1e-12)

