"""Performance function, deviation bounds, conductance and mixing class.

Everything here is a function of the social matrix K, the influence mass
sum_ij p_ij * x_ij, and the network geometry (diameter).  The bounds cap
how far the consensus weights can drift from uniform, and the spectral
gap of K classifies the network as fast- or slow-mixing, which is the
top-level signal an insurer acts on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .network import AcquaintanceNetwork, diameter

CONDUCTANCE_MAX_N = 20
DEFAULT_MIXING_THRESHOLD = 0.1

FAST = "fast"
SLOW = "slow"


@dataclass(frozen=True)
class SpectralReport:
    """Spectral and bound summary for one network."""

    lambda2: float
    gap: float
    psi1: float
    rho: float | None
    d: int
    conductance: float | None
    performance: float
    gamma: float
    bound_linf: float | None
    bound_l2: float | None
    bound_expectation: float | None
    mixing_class: str
    mixing_threshold: float


def performance(pi_bar: np.ndarray, w0: np.ndarray) -> tuple[float, float]:
    """Deviation of the expected consensus from the plain initial average.

    Returns (P, gamma) with gamma = mean(w0) and
    P = sum_i (pi_i - 1/n) w0_i = pi . w0 - gamma.
    """
    pi_bar = np.asarray(pi_bar, dtype=float)
    w0 = np.asarray(w0, dtype=float)
    gamma = float(w0.mean())
    return float(pi_bar @ w0 - gamma), gamma


def rho_constant(n: int, psi1: float, d: int) -> float | None:
    """Per-slot contraction constant (1 - n * psi1**d)**(1/d).

    Returns None when n * psi1**d > 1, where the expression stops being a
    real contraction rate (cannot happen for valid networks, where psi1
    never exceeds 1/n).
    """
    base = 1.0 - n * psi1**d
    if base < 0.0:
        return None
    return float(base ** (1.0 / d))


def theorem3_constants(net: AcquaintanceNetwork, K: np.ndarray, d: int | None = None) -> tuple[float, float | None]:
    """Edge-bottleneck constant psi1 and contraction rate rho.

    psi1 is the minimum over the directed edges (i, j) of the network of
    the symmetrized non-persistent meeting weight
    (1/n)[p_ij(1-z_ij)/2 + p_ji(1-z_ji)/2], which is the entry K[i, j] of
    the social matrix ``K`` built from ``net``.
    """
    if d is None:
        d = diameter(net)
    tails, heads = net.edges
    if tails.size == 0:
        raise ValueError("network has no edges")
    psi1 = float(K[tails, heads].min())
    return psi1, rho_constant(net.n, psi1, d)


def bound_linf(net: AcquaintanceNetwork, rho: float | None) -> float | None:
    """Sup-norm cap on pi_bar - e/n: influence mass / (2n(1 - rho)).

    None when rho is not a contraction rate in [0, 1).
    """
    if rho is None or rho >= 1.0:
        return None
    return net.influence_mass / (2.0 * net.n * (1.0 - rho))


def bound_expectation(bound_linf_value: float, w0: np.ndarray) -> float:
    """Cap on |expected consensus - mean(w0)|: sup bound times ||w0||_inf."""
    return bound_linf_value * float(np.max(np.abs(np.asarray(w0, dtype=float))))


def lambda2_gap(K: np.ndarray) -> tuple[float, float]:
    """Second-largest (signed) eigenvalue of symmetric K and its gap 1 - lambda2."""
    n = K.shape[0]
    if n < 2:
        raise ValueError("need at least 2 nodes for a second eigenvalue")
    vals = np.linalg.eigvalsh(K)
    lam2 = float(vals[-2])
    return lam2, 1.0 - lam2


def bound_l2(net: AcquaintanceNetwork, lambda2: float) -> float | None:
    """Euclidean cap on pi_bar - e/n: influence mass / (n(1 - lambda2)).

    None when the spectral gap is closed (lambda2 >= 1).
    """
    if lambda2 >= 1.0:
        return None
    return net.influence_mass / (net.n * (1.0 - lambda2))


def conductance(K: np.ndarray, mode: str = "exact") -> float | None:
    """Bottleneck ratio min over cuts of Q(A, A^c) / (pi(A) pi(A^c)).

    Exact mode enumerates every nonempty proper subset (complement
    symmetry halves the work: only subsets containing node 0 are scanned)
    with the uniform stationary distribution of the doubly stochastic K.
    ``kernels.conductance_scan`` splits the nodes into two halves and
    builds each subset's cut from two half tables and one cross product,
    O(n) work per subset; every cut is a sum of nonnegative entries of K.
    It keeps the smallest cut of each subset size and divides only those
    n - 1 minima, which gives the same float as dividing every cut, since
    rounding preserves the order of cuts of one size.  The half tables
    depend on n alone and are built once per n; a call writes only its K
    columns beside them and reuses one product buffer for every block,
    sparing the page faults of fresh per-call tables and products.
    Refuses above n = 20; pass mode="skip" to omit the value.
    """
    if mode == "skip":
        return None
    if mode != "exact":
        raise ValueError(f"unknown conductance mode {mode!r}")
    n = K.shape[0]
    if n > CONDUCTANCE_MAX_N:
        raise ValueError(
            f"exact conductance enumerates 2^(n-1) subsets; n={n} exceeds "
            f"{CONDUCTANCE_MAX_N} (use mode='skip')"
        )
    if n < 2:
        raise ValueError("conductance undefined for a single node")
    return float(kernels.conductance_scan(np.ascontiguousarray(K, dtype=np.float64)))


def classify_mixing(gap: float, threshold: float = DEFAULT_MIXING_THRESHOLD) -> str:
    """Slow-mixing iff the spectral gap falls below the policy threshold."""
    if not (0.0 < threshold < 2.0):
        raise ValueError("threshold must lie in (0, 2)")
    return SLOW if gap < threshold else FAST


def build_spectral_report(
    net: AcquaintanceNetwork,
    K: np.ndarray,
    pi_bar: np.ndarray,
    mixing_threshold: float = DEFAULT_MIXING_THRESHOLD,
    conductance_mode: str = "exact",
) -> SpectralReport:
    """Assemble the full spectral summary for one network."""
    d = diameter(net)
    psi1, rho = theorem3_constants(net, K, d=d)
    lam2, gap = lambda2_gap(K)
    P, gamma = performance(pi_bar, net.w0)

    b_linf = bound_linf(net, rho)
    b_exp = bound_expectation(b_linf, net.w0) if b_linf is not None else None

    psi = conductance(K, mode=conductance_mode)

    return SpectralReport(
        lambda2=lam2,
        gap=gap,
        psi1=psi1,
        rho=rho,
        d=d,
        conductance=psi,
        performance=P,
        gamma=gamma,
        bound_linf=b_linf,
        bound_l2=bound_l2(net, lam2),
        bound_expectation=b_exp,
        mixing_class=classify_mixing(gap, mixing_threshold),
        mixing_threshold=mixing_threshold,
    )
