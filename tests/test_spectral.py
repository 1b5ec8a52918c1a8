import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from willingness_gossip.fixtures import (
    barbell,
    bridged_clusters,
    complete,
    path,
    random_network,
    without_influence,
)
from willingness_gossip.meanfield import build_mean_matrices, stationary_distribution
from willingness_gossip.spectral import (
    bound_expectation,
    bound_l2,
    bound_linf,
    build_spectral_report,
    classify_mixing,
    conductance,
    lambda2_gap,
    performance,
    rho_constant,
    theorem3_constants,
)


def brute_force_conductance(K):
    """Independent oracle: explicit enumeration over all proper subsets."""
    n = K.shape[0]
    pi = np.full(n, 1.0 / n)
    best = np.inf
    for r in range(1, n):
        for subset in itertools.combinations(range(n), r):
            a = np.zeros(n, dtype=bool)
            a[list(subset)] = True
            q = float(pi[a] @ K[np.ix_(a, ~a)].sum(axis=1))
            best = min(best, q / (pi[a].sum() * pi[~a].sum()))
    return best


def masked_scan_conductance(K):
    """Reference scan: one masked n x n product per chunk of 2^14 subsets containing node 0."""
    n = K.shape[0]
    total = 1 << (n - 1)
    bit_cols = np.arange(n - 1, dtype=np.uint32)
    best = np.inf
    chunk = 1 << 14
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.uint32)
        masks = np.empty((idx.size, n))
        masks[:, 0] = 1.0
        masks[:, 1:] = (idx[:, None] >> bit_cols[None, :]) & 1
        size_a = masks.sum(axis=1)
        cut = ((masks @ K) * (1.0 - masks)).sum(axis=1)
        proper = size_a < n
        ratios = n * cut[proper] / (size_a[proper] * (n - size_a[proper]))
        if ratios.size:
            best = min(best, float(ratios.min()))
    return best


class TestPerformance:
    def test_no_influence_is_zero(self, rng):
        net = without_influence(random_network(rng, 7))
        pi = stationary_distribution(build_mean_matrices(net))
        P, gamma = performance(pi, net.w0)
        assert abs(P) <= 1e-12
        assert gamma == pytest.approx(net.w0.mean())

    def test_influencer_pair(self):
        P, gamma = performance(np.array([1.0 / 3.0, 2.0 / 3.0]), np.array([0.0, 1.0]))
        assert gamma == 0.5
        assert P == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_constant_initial_vector(self, rng):
        net = random_network(rng, 6)
        pi = stationary_distribution(build_mean_matrices(net))
        P, _ = performance(pi, np.full(6, 0.37))
        assert abs(P) <= 1e-12


class TestContractionConstants:
    def test_influencer_pair(self, influencer_pair):
        psi1, rho = theorem3_constants(influencer_pair, build_mean_matrices(influencer_pair).K)
        assert psi1 == pytest.approx(0.5)
        assert rho == pytest.approx(0.0)

    def test_path3_enumeration(self):
        # four directed edges, all with symmetrized weight 1/4; d = 2
        net = path(3)
        psi1, rho = theorem3_constants(net, build_mean_matrices(net).K)
        assert psi1 == pytest.approx(0.25)
        assert rho == pytest.approx(math.sqrt(13.0) / 4.0)

    def test_persistence_shrinks_psi1(self):
        base = path(3)
        z = np.where(base.p > 0, 0.4, 0.0)
        y = np.asarray(base.y) * 0.6
        slowed = dataclasses.replace(base, y=y, z=z)
        psi_base, _ = theorem3_constants(base, build_mean_matrices(base).K)
        psi_slow, _ = theorem3_constants(slowed, build_mean_matrices(slowed).K)
        assert psi_slow < psi_base

    def test_rho_inapplicable_and_zero(self):
        assert rho_constant(4, 0.9, 1) is None  # n*psi1 > 1
        assert rho_constant(4, 0.25, 1) == 0.0  # n*psi1 == 1
        assert rho_constant(2, 0.25, 2) == pytest.approx(math.sqrt(0.875))

    def test_valid_networks_always_contract(self, rng):
        for _ in range(20):
            net = random_network(rng, int(rng.integers(3, 13)))
            _, rho = theorem3_constants(net, build_mean_matrices(net).K)
            assert rho is not None and 0.0 <= rho < 1.0


class TestBounds:
    def test_influencer_pair_values(self, influencer_pair):
        _, rho = theorem3_constants(influencer_pair, build_mean_matrices(influencer_pair).K)
        b = bound_linf(influencer_pair, rho)
        assert b == pytest.approx(0.25)
        assert bound_expectation(b, influencer_pair.w0) == pytest.approx(0.25)
        lam2, _ = lambda2_gap(build_mean_matrices(influencer_pair).K)
        assert bound_l2(influencer_pair, lam2) == pytest.approx(0.5)

    def test_no_influence_bound_zero(self, rng):
        net = without_influence(random_network(rng, 6))
        _, rho = theorem3_constants(net, build_mean_matrices(net).K)
        assert bound_linf(net, rho) == 0.0

    def test_inapplicable_rho(self, influencer_pair):
        assert bound_linf(influencer_pair, None) is None
        assert bound_linf(influencer_pair, 1.0) is None
        assert bound_l2(influencer_pair, 1.0) is None

    def test_zero_initial_vector(self, influencer_pair):
        _, rho = theorem3_constants(influencer_pair, build_mean_matrices(influencer_pair).K)
        b = bound_linf(influencer_pair, rho)
        assert bound_expectation(b, np.zeros(2)) == 0.0

    def test_bounds_dominate_exact(self, rng):
        for _ in range(50):
            net = random_network(rng, int(rng.integers(3, 13)))
            mm = build_mean_matrices(net)
            pi = stationary_distribution(mm)
            dev = pi - 1.0 / net.n
            _, rho = theorem3_constants(net, mm.K)
            lam2, _ = lambda2_gap(mm.K)
            b_inf = bound_linf(net, rho)
            b_l2 = bound_l2(net, lam2)
            P, _ = performance(pi, net.w0)
            assert np.max(np.abs(dev)) <= b_inf + 1e-12
            assert np.linalg.norm(dev) <= b_l2 + 1e-12
            assert abs(P) <= bound_expectation(b_inf, net.w0) + 1e-12

    def test_bound_monotone_in_influence_mass(self):
        # shifting mass from averaging to influence keeps K (and rho) fixed
        lo = barbell(3, influence=0.2)
        hi = barbell(3, influence=0.6)
        psi1_lo, rho_lo = theorem3_constants(lo, build_mean_matrices(lo).K)
        psi1_hi, rho_hi = theorem3_constants(hi, build_mean_matrices(hi).K)
        assert psi1_lo == psi1_hi and rho_lo == rho_hi
        assert bound_linf(hi, rho_hi) > bound_linf(lo, rho_lo)


class TestLambda2:
    def test_two_state(self):
        lam2, gap = lambda2_gap(np.full((2, 2), 0.5))
        assert lam2 == pytest.approx(0.0, abs=1e-15)
        assert gap == pytest.approx(1.0)

    def test_barbell_slow(self):
        lam2, gap = lambda2_gap(build_mean_matrices(barbell(3)).K)
        assert lam2 > 0.9
        assert classify_mixing(gap) == "slow"

    def test_clique_fast(self):
        _, gap = lambda2_gap(build_mean_matrices(complete(4)).K)
        assert classify_mixing(gap) == "fast"

    def test_top_eigenvalue_is_one(self, rng):
        net = random_network(rng, 9)
        K = build_mean_matrices(net).K
        vals = np.linalg.eigvalsh(K)
        assert vals[-1] == pytest.approx(1.0, abs=1e-10)
        ones = np.ones(9)
        np.testing.assert_allclose(K @ ones, ones, atol=1e-12)


class TestConductance:
    def test_two_state(self):
        assert conductance(np.full((2, 2), 0.5)) == pytest.approx(1.0)

    def test_uniform_complete(self):
        K = np.full((4, 4), 0.25)
        psi = conductance(K)
        assert psi == pytest.approx(1.0)
        assert psi == pytest.approx(brute_force_conductance(K))

    def test_barbell_bottleneck(self):
        K = build_mean_matrices(barbell(3)).K
        psi = conductance(K)
        assert psi == pytest.approx(brute_force_conductance(K), rel=1e-9)
        assert psi < 0.1

    def test_matches_brute_force_random(self, rng):
        for _ in range(5):
            net = random_network(rng, int(rng.integers(3, 8)))
            K = build_mean_matrices(net).K
            assert conductance(K) == pytest.approx(brute_force_conductance(K), rel=1e-9)

    def test_matches_brute_force_across_scan_chunks(self):
        # n = 16: 2^15 subsets, checked against explicit enumeration
        K = build_mean_matrices(random_network(np.random.default_rng(3), 16)).K
        assert conductance(K) == pytest.approx(brute_force_conductance(K), rel=1e-12)

    @pytest.mark.parametrize(
        "net",
        [random_network(np.random.default_rng(n), n) for n in (17, 18, 19, 20)]
        + [bridged_clusters(9, 10, influence=0.4), bridged_clusters(10, 10, influence=0.4, delta=0.2)],
        ids=["random17", "random18", "random19", "random20", "bridged9x10", "bridged10x10"],
    )
    def test_matches_masked_scan(self, net):
        # odd and even splits, several row blocks, up to CONDUCTANCE_MAX_N
        K = build_mean_matrices(net).K
        assert conductance(K) == pytest.approx(masked_scan_conductance(K), rel=1e-12, abs=0)

    @pytest.mark.parametrize(
        "net",
        [barbell(5), bridged_clusters(5, 5, influence=0.5), bridged_clusters(6, 6, influence=0.3, delta=0.2)],
        ids=["barbell5", "bridged5x5", "bridged6x6"],
    )
    def test_small_cut_accuracy(self, net):
        # a cut taken as a difference of large sums cancels to ~1e-14 here
        K = build_mean_matrices(net).K
        assert conductance(K) == pytest.approx(brute_force_conductance(K), rel=1e-14, abs=0)

    @pytest.mark.parametrize(
        "net",
        [random_network(np.random.default_rng(n), n) for n in range(2, 21)]
        + [bridged_clusters(i, j, influence=0.5, delta=0.3) for i, j in ((7, 12), (8, 11), (9, 10), (10, 9))]
        + [barbell(5), bridged_clusters(5, 5, influence=0.5), bridged_clusters(6, 6, influence=0.3, delta=0.2)],
        ids=[f"random{n}" for n in range(2, 21)]
        + ["bridged7+12", "bridged8+11", "bridged9+10", "bridged10+9", "barbell5", "bridged5x5", "bridged6x6"],
    )
    def test_equals_reference_scan_exactly(self, net, reference_conductance_scan):
        # per-size minima, one division per size: the same float as dividing every cut
        K = build_mean_matrices(net).K
        assert conductance(K) == reference_conductance_scan(K)

    def test_uniform_ties_equal_reference_scan_exactly(self, reference_conductance_scan):
        # every subset of a size has the same cut up to rounding
        K = np.full((20, 20), 1.0 / 20.0)
        assert conductance(K) == reference_conductance_scan(K)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 12), seed=st.integers(0, 2**32 - 1), tied=st.booleans())
    @example(n=2, seed=0, tied=False)  # the low table holds a single subset, the high one a single node
    @example(n=3, seed=0, tied=False)  # the high table holds a single node
    @example(n=2, seed=0, tied=True)
    @example(n=3, seed=0, tied=True)
    def test_property_equals_reference_scan_exactly(self, n, seed, tied, reference_conductance_scan):
        rng = np.random.default_rng(seed)
        if tied:
            # few distinct entries, many zeros: ties and zero cuts within a size
            K = rng.integers(0, 3, size=(n, n)) / 8.0
        else:
            K = build_mean_matrices(random_network(rng, n, extra_edge_prob=float(rng.uniform(0.0, 1.0)))).K
        assert conductance(K) == reference_conductance_scan(K)

    def test_matches_brute_force_every_small_n(self):
        # n = 2 and 3 leave a half block with a single node or subset
        for n in range(2, 12):
            K = build_mean_matrices(random_network(np.random.default_rng(100 + n), n)).K
            assert conductance(K) == pytest.approx(brute_force_conductance(K), rel=1e-12, abs=0), n

    def test_size_cap(self):
        with pytest.raises(ValueError, match="skip"):
            conductance(np.full((21, 21), 1.0 / 21.0))

    def test_skip_mode(self):
        assert conductance(np.full((4, 4), 0.25), mode="skip") is None

    def test_cheeger_sanity(self, rng):
        for _ in range(20):
            net = random_network(rng, int(rng.integers(3, 11)))
            K = build_mean_matrices(net).K
            psi = conductance(K)
            _, gap = lambda2_gap(K)
            assert psi >= gap / 2.0 - 1e-12
            assert psi * psi / 2.0 <= gap + 1e-12


class TestClassify:
    def test_threshold_rule(self):
        assert classify_mixing(1.0) == "fast"
        assert classify_mixing(0.05) == "slow"
        assert classify_mixing(0.05, threshold=0.01) == "fast"

    def test_threshold_domain(self):
        with pytest.raises(ValueError):
            classify_mixing(0.5, threshold=2.5)


def test_full_report_influencer_pair(influencer_pair):
    mm = build_mean_matrices(influencer_pair)
    pi = stationary_distribution(mm)
    rep = build_spectral_report(influencer_pair, mm.K, pi)
    assert rep.d == 1
    assert rep.psi1 == pytest.approx(0.5)
    assert rep.rho == pytest.approx(0.0)
    assert rep.lambda2 == pytest.approx(0.0, abs=1e-15)
    assert rep.gap == pytest.approx(1.0)
    assert rep.conductance == pytest.approx(1.0)
    assert rep.performance == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert rep.gamma == 0.5
    assert rep.bound_linf == pytest.approx(0.25)
    assert rep.bound_l2 == pytest.approx(0.5)
    assert rep.bound_expectation == pytest.approx(0.25)
    assert rep.mixing_class == "fast"
