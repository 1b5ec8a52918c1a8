"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All tolerances and runtime budgets are pinned here.  A last test keeps
the dense formulas that psi1 and the bridge closed form once used as
exact oracles for their edge-list routes, so reports stay byte-identical.
"""

import dataclasses
import itertools
import math
import time

import numpy as np
import pytest

from willingness_gossip.cli import main
from willingness_gossip.errors import Thm6InapplicableError
from willingness_gossip.fixtures import (
    barbell,
    bridged_clusters,
    cycle,
    random_network,
    two_node_influencer,
    two_node_regular,
    without_influence,
)
from willingness_gossip.gossip import replica_seed, run_replica, simulate_ensemble
from willingness_gossip.impact import impact_exact, impact_thm5, impact_thm6, impact_thm7_bound
from willingness_gossip.meanfield import (
    build_mean_matrices,
    build_passage_data,
    stationary_distribution,
    stationary_perturbation,
)
from willingness_gossip.network import dense, serialize_network, validate_network
from willingness_gossip.spectral import (
    bound_expectation,
    bound_l2,
    bound_linf,
    conductance,
    lambda2_gap,
    performance,
    theorem3_constants,
)

MACHINE_PRECISION_TOL = 1e-12  # accumulated-rounding allowance for exact cases
DOMINANCE_ATOL = 1e-12  # floating-point slack when checking bound >= exact


def report_line(num, name, passed, detail):
    print(f"criterion {num} ({name}): {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def corpus():
    """200 random valid networks, n <= 12, shared by criteria 4-6."""
    rng = np.random.default_rng(424242)
    nets = []
    for _ in range(200):
        net = random_network(rng, int(rng.integers(3, 13)))
        assert validate_network(net).ok
        nets.append(net)
    return nets


@pytest.fixture(scope="module")
def corpus_stationary(corpus):
    out = []
    for net in corpus:
        mm = build_mean_matrices(net)
        out.append((net, mm, stationary_distribution(mm)))
    return out


def test_criterion_1_convergence():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    replicas = 0
    worst_slots = 0
    for trial in range(50):
        n = int(rng.integers(3, 13))
        net = random_network(rng, n)
        assert validate_network(net).ok
        for s in range(100):
            trace = run_replica(net, max_slots=10**6, tol=1e-6, record_every=n, seed=replica_seed(trial, s))
            ok = (
                trace.converged
                and trace.spread[-1] <= 1e-6
                and trace.monotone
                and bool(np.all(np.diff(trace.spread) <= 0.0))
            )
            if not ok:
                report_line(1, "convergence", False, f"trial {trial} seed {s}: {trace}")
            replicas += 1
            worst_slots = max(worst_slots, trace.slots_used)
    elapsed = time.perf_counter() - start
    report_line(
        1,
        "convergence",
        elapsed < 120.0,
        f"{replicas} replicas all converged, monotone spread, worst {worst_slots} slots, {elapsed:.1f}s",
    )


def test_criterion_2_expected_consensus():
    start = time.perf_counter()
    net = two_node_influencer()
    ens = simulate_ensemble(net, replicas=10**4, seed=0)
    target = 2.0 / 3.0
    z = abs(ens.mean - target) / ens.stderr
    ok = ens.convergence_rate == 1.0 and z <= 3.0

    rng = np.random.default_rng(77)
    exact_err = 0.0
    for _ in range(3):
        net0 = without_influence(random_network(rng, int(rng.integers(3, 11))))
        ens0 = simulate_ensemble(net0, replicas=200, seed=1)
        exact_err = max(exact_err, float(np.max(np.abs(ens0.values - net0.w0.mean()))))
    ok = ok and exact_err <= MACHINE_PRECISION_TOL
    elapsed = time.perf_counter() - start
    report_line(
        2,
        "expected consensus",
        ok and elapsed < 30.0,
        f"|mean-2/3| = {z:.2f} stderr; influence-free value error {exact_err:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_mean_matrix_law(empirical_mean_update):
    start = time.perf_counter()
    fixtures = [
        (two_node_influencer(), 11),
        (barbell(3, influence=0.5, delta=0.4), 12),
        (random_network(np.random.default_rng(500), 5), 13),
    ]
    worst = -np.inf
    for net, seed in fixtures:
        mean, stderr = empirical_mean_update(net, 10**5, np.random.default_rng(seed))
        wbar = build_mean_matrices(net).Wbar
        excess = np.abs(mean - wbar) - (3.0 * stderr + 1e-12)
        worst = max(worst, float(excess.max()))
        if excess.max() > 0:
            report_line(3, "mean-matrix law", False, f"entrywise 3-sigma exceeded by {excess.max():.2e}")
    elapsed = time.perf_counter() - start
    report_line(
        3,
        "mean-matrix law",
        elapsed < 30.0,
        f"3 fixtures x 1e5 samples within 3 sigma (closest approach {worst:.2e}), {elapsed:.1f}s",
    )


def test_criterion_4_dual_stationary_methods(corpus):
    start = time.perf_counter()
    worst = 0.0
    for net in corpus:
        mm = build_mean_matrices(net)
        a = stationary_distribution(mm)
        b = stationary_perturbation(mm)
        worst = max(worst, float(np.max(np.abs(a - b))))
    elapsed = time.perf_counter() - start
    report_line(
        4,
        "dual stationary methods",
        worst <= 1e-10 and elapsed < 30.0,
        f"200 networks, max disagreement {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_5_passage_time_identity(corpus_stationary):
    start = time.perf_counter()
    worst = 0.0
    for net, mm, pi in corpus_stationary:
        _, residual = impact_thm5(net, pi, mm.K)
        worst = max(worst, float(residual.max()))

    netb = two_node_influencer()
    mmb = build_mean_matrices(netb)
    pib = stationary_distribution(mmb)
    values, _ = impact_thm5(netb, pib, mmb.K)
    spot = max(abs(values[0] + 1.0 / 6.0), abs(values[1] - 1.0 / 6.0))
    elapsed = time.perf_counter() - start
    report_line(
        5,
        "passage-time identity",
        worst <= 1e-8 and spot <= 1e-12 and elapsed < 30.0,
        f"max residual {worst:.2e}; two-node spot error {spot:.2e}, {elapsed:.1f}s",
    )


def test_criterion_6_bound_validity(corpus_stationary):
    start = time.perf_counter()
    violations = 0
    checked = 0
    for net, mm, pi in corpus_stationary:
        _, rho = theorem3_constants(net, mm.K)
        if rho is None or rho >= 1.0:
            continue
        checked += 1
        dev = pi - 1.0 / net.n
        b_inf = bound_linf(net, rho)
        b_exp = bound_expectation(b_inf, net.w0)
        lam2, _ = lambda2_gap(mm.K)
        b_l2 = bound_l2(net, lam2)
        P, _ = performance(pi, net.w0)
        psi = conductance(mm.K)
        b_thm7 = impact_thm7_bound(net, psi)
        if np.max(np.abs(dev)) > b_inf + DOMINANCE_ATOL:
            violations += 1
        if abs(P) > b_exp + DOMINANCE_ATOL:
            violations += 1
        if np.linalg.norm(dev) > b_l2 + DOMINANCE_ATOL:
            violations += 1
        if np.max(np.abs(dev)) > b_thm7 + DOMINANCE_ATOL:
            violations += 1

    netb = two_node_influencer()
    mmb = build_mean_matrices(netb)
    pib = stationary_distribution(mmb)
    devb = pib - 0.5
    _, rhob = theorem3_constants(netb, mmb.K)
    spot = (
        abs(np.max(np.abs(devb)) - 1.0 / 6.0) < 1e-12
        and bound_linf(netb, rhob) == 0.25
        and abs(np.linalg.norm(devb) - math.sqrt(2.0) / 6.0) < 1e-12
        and bound_l2(netb, lambda2_gap(mmb.K)[0]) == 0.5
        and impact_thm7_bound(netb, conductance(mmb.K)) == pytest.approx(1.0 + math.log(2.0))
    )
    elapsed = time.perf_counter() - start
    report_line(
        6,
        "bound validity",
        violations == 0 and checked == 200 and spot and elapsed < 120.0,
        f"{checked} networks, {violations} violations; two-node spot values hold, {elapsed:.1f}s",
    )


def test_criterion_7_bridge_closed_form():
    def thm6_residual(net, exact, label):
        try:
            return impact_thm6(net, exact).residual
        except Thm6InapplicableError as exc:
            report_line(7, "bridge closed form", False, f"{label}: {exc}")

    start = time.perf_counter()
    combos = list(itertools.product(range(1, 7), repeat=2))[:20]
    worst_eq = 0.0
    worst_residual = 0.0
    for size_i, size_j in combos:
        net = bridged_clusters(size_i, size_j, influence=0.6, delta=0.4)
        assert validate_network(net).ok
        pi = stationary_distribution(build_mean_matrices(net))
        exact = impact_exact(pi)
        left, right = exact[:size_i], exact[size_i:]
        worst_eq = max(
            worst_eq,
            float(np.max(np.abs(left - left[0]))),
            float(np.max(np.abs(right - right[0]))),
        )
        worst_residual = max(worst_residual, thm6_residual(net, exact, f"sides ({size_i},{size_j})"))

    netb = two_node_influencer()
    pib = stationary_distribution(build_mean_matrices(netb))
    residual_b = thm6_residual(netb, impact_exact(pib), "two-node")
    elapsed = time.perf_counter() - start
    detail = (
        f"within-cluster equality {worst_eq:.2e}; closed form vs exact on 20 bridged "
        f"fixtures {worst_residual:.2e}; two-node closed form {residual_b:.2e}, {elapsed:.1f}s"
    )
    report_line(
        7,
        "bridge closed form",
        worst_eq <= 1e-9
        and worst_residual <= MACHINE_PRECISION_TOL
        and residual_b <= MACHINE_PRECISION_TOL
        and elapsed < 30.0,
        detail,
    )


def test_criterion_8_mfpt_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(606)
    worst = 0.0
    nets = [two_node_influencer(), two_node_regular(), barbell(3)] + [
        random_network(rng, int(rng.integers(3, 13))) for _ in range(10)
    ]
    for net in nets:
        K = build_mean_matrices(net).K
        m = build_passage_data(K).m
        for j in range(net.n):
            rhs = 1.0 + K @ m[:, j]
            err = np.abs(m[:, j] - rhs)
            err[j] = 0.0
            worst = max(worst, float(err.max()))
    m2 = build_passage_data(np.full((2, 2), 0.5)).m
    two_state_ok = m2[0, 1] == 2.0 and m2[1, 0] == 2.0
    elapsed = time.perf_counter() - start
    report_line(
        8,
        "mean first passage times",
        worst <= 1e-8 and two_state_ok and elapsed < 5.0,
        f"one-step recurrence residual {worst:.2e}; symmetric 2-state time = 2, {elapsed:.1f}s",
    )


def test_criterion_9_deterministic_reports(tmp_path):
    path = tmp_path / "net.json"
    path.write_text(serialize_network(two_node_influencer()), encoding="utf-8")
    out = tmp_path / "report.json"
    argv = ["analyze", "--network", str(path), "--replicas", "300", "--seed", "9", "--out", str(out)]
    assert main(argv) == 0
    first = out.read_bytes()
    assert main(argv) == 0
    identical = out.read_bytes() == first
    report_line(
        9,
        "deterministic reports",
        identical,
        f"two analyze runs, {len(first)} bytes, byte-identical={identical}",
    )


def dense_psi1(net):
    """psi1 as the minimum of (s + s.T) / (2n) over the edges p > 0, s the social weights."""
    s = dense(net, net.social)
    return float(((s + s.T) / (2.0 * net.n))[dense(net, net.p) > 0.0].min())


def dense_thm6_edge(net):
    """The influential pairs of the dense influence matrix, and mu of the first one."""
    q, s = dense(net, net.influence), dense(net, net.social)
    pairs = [(int(i), int(j)) for i, j in np.argwhere(q > 0.0)]
    if not pairs:
        return pairs, None
    i, j = pairs[0]
    return pairs, float(q[i, j] / (s[i, j] + s[j, i]))


def test_edge_list_routes_match_dense_formulas(corpus):
    bridged = [bridged_clusters(a, b, influence=0.6, delta=0.4) for a, b in itertools.product(range(1, 7), repeat=2)]
    bridged += [barbell(4), bridged_clusters(3, 5), two_node_influencer()]
    ring = cycle(5)
    x, y = ring.x.copy(), ring.y.copy()
    x[0], y[0] = 0.5, 0.5  # (0, 1), the first listed pair: one influential edge that is not a bridge
    bridged.append(dataclasses.replace(ring, x=x, y=y))
    outcomes = set()
    for net in corpus + bridged:
        psi1, _ = theorem3_constants(net, build_mean_matrices(net).K)
        assert psi1 == dense_psi1(net)
        pairs, mu = dense_thm6_edge(net)
        try:
            result = impact_thm6(net, np.zeros(net.n))
        except Thm6InapplicableError as exc:
            reason = str(exc)
        else:
            assert (result.edge, result.mu) == (pairs[0], mu) and len(pairs) == 1
            outcomes.add("closed form")
            continue
        if not pairs:
            expected = "no influential edge"
        elif len(pairs) > 1:
            expected = f"multiple influential edges ({len(pairs)})"
        else:
            expected = f"influential edge {pairs[0]} is not a bridge"
        assert reason == expected
        outcomes.add(("none", "not a bridge", "multiple")[min(len(pairs), 2)])
    assert outcomes == {"closed form", "none", "not a bridge", "multiple"}
