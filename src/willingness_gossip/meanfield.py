"""Expected-dynamics matrices and Markov-chain objects.

The one-slot update matrix of the gossip process is random; its mean
splits into a symmetric doubly stochastic social part ``K`` (meeting
structure only) plus a zero-row-sum influence part ``L`` (all the
asymmetry).  The stationary distribution of ``Wbar = K + L`` weighs each
user's pull on the consensus value; the fundamental matrix and mean first
passage times of ``K`` power the per-user impact identities.  The report
uses them only through matrix-vector products, so it takes those by one
linear solve (:func:`fundamental_solve`); the full matrices remain as
reference routines.

All computations are dense, on n x n matrices formed by ``network.dense``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .network import AcquaintanceNetwork, dense, reachable, readonly

# Bound on the 1-norm condition number of the stationary system; the
# 2-norm value differs from it by at most a factor n either way.
COND_LIMIT = 1e12


@dataclass(frozen=True)
class MeanMatrices:
    """Mean one-slot update matrix and its social/influence split."""

    Wbar: np.ndarray
    K: np.ndarray
    L: np.ndarray

    def __post_init__(self):
        for name in ("Wbar", "K", "L"):
            object.__setattr__(self, name, readonly(getattr(self, name)))


@dataclass(frozen=True)
class PassageData:
    """Fundamental matrix Y and mean-first-passage-time matrix m of K."""

    Y: np.ndarray
    m: np.ndarray

    def __post_init__(self):
        for name in ("Y", "m"):
            object.__setattr__(self, name, readonly(getattr(self, name)))


def build_mean_matrices(net: AcquaintanceNetwork) -> MeanMatrices:
    """Assemble K, L and Wbar = K + L from the network parameters.

    Per ordered pair (i, j), an averaging meeting contributes the
    symmetric pair-averaging matrix, an influence meeting the one-sided
    pull matrix, and a persistent meeting the identity, each weighted by
    its per-slot probability p_ij * type / n.  The sums collapse to dense
    closed forms: the social part is a scaled graph Laplacian of the
    symmetrized non-persistent weights, the influence part a combination
    of row/column sums of p*x.  Every sum runs over the dense matrices, so
    its rounding does not depend on which zero-weight pairs are listed.
    """
    n = net.n
    s = dense(net, net.social)
    q = dense(net, net.influence)
    total_p = float(dense(net, net.p).sum())

    r = s.sum(axis=1)
    c = s.sum(axis=0)
    K = (s + s.T) / (2.0 * n)
    K[np.diag_indices(n)] += total_p / n - (r + c) / (2.0 * n)

    rq = q.sum(axis=1)
    cq = q.sum(axis=0)
    L = (net.delta - 0.5) * (np.diag(rq) - q) + 0.5 * (np.diag(cq) - q.T)
    L /= n

    return MeanMatrices(Wbar=K + L, K=K, L=L)


def stationary_distribution(mm: MeanMatrices) -> np.ndarray:
    """Stationary distribution of Wbar by direct dense linear solve.

    Solves the left fixed-point equations with one equation replaced by
    the normalization sum(pi) = 1 (partial-pivot LU underneath), and
    returns pi as a read-only array.

    Raises
    ------
    NumericalError
        If the system is singular or its 1-norm condition number exceeds
        ``COND_LIMIT``.
    """
    n = mm.Wbar.shape[0]
    A = mm.Wbar.T - np.eye(n)
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    cond = np.linalg.cond(A, 1)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise NumericalError(f"stationary solve too ill-conditioned (cond={cond:.3e})")
    return _cleanup_distribution(_solve(A, b, "stationary solve"))


def _solve(A: np.ndarray, b: np.ndarray, what: str) -> np.ndarray:
    """Dense ``solve(A, b)``; a singular A raises NumericalError naming ``what``."""
    try:
        return np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"{what} failed: {exc}") from exc


def _deflated(M: np.ndarray) -> np.ndarray:
    """``I - M + J/n`` for a stochastic n x n matrix M (J the all-ones matrix)."""
    n = M.shape[0]
    return np.eye(n) - M + 1.0 / n


def _cleanup_distribution(pi: np.ndarray) -> np.ndarray:
    if pi.min() < -1e-8:
        raise NumericalError(f"stationary solve produced negative mass {pi.min():.3e}")
    pi = np.maximum(pi, 0.0)
    return readonly(pi / pi.sum())


def fundamental_solve(K: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``Z @ rhs`` with ``Z = inv(I - K + K_inf)``, ``K_inf = ones/n``, by one solve.

    ``K`` is a doubly stochastic social matrix.  Irreducibility is checked
    first: node 0 must reach every node along the nonzeros of K
    (symmetric, so one search suffices; a diagonal nonzero is a self-loop,
    which reaches nothing new).  Raises ValueError for a reducible K.
    """
    n = K.shape[0]
    if not reachable(*np.divmod(np.flatnonzero(K > 0.0), n), np.arange(n) == 0)[0].all():
        raise ValueError("social matrix is reducible; fundamental matrix undefined")
    return _solve(_deflated(K), rhs, "fundamental solve")  # cannot fail for irreducible K


def fundamental_matrix(K: np.ndarray) -> np.ndarray:
    """Deviation-series matrix Y = sum_k (K^k - K_inf) of the social chain.

    Computed in closed form as inv(I - K + K_inf) - K_inf, valid because
    K is doubly stochastic and irreducible (checked by
    :func:`fundamental_solve`).  A reference routine: the report never
    forms Y.
    """
    n = K.shape[0]
    return fundamental_solve(K, np.eye(n)) - 1.0 / n


def mean_first_passage(Y: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Mean first passage times m[i, j] = (Y[j, j] - Y[i, j]) / pi[j].

    ``pi`` is the stationary distribution of the chain that produced Y
    (uniform for a doubly stochastic social matrix); the diagonal is 0 by
    convention.
    """
    m = (np.diagonal(Y)[None, :] - Y) / np.asarray(pi)[None, :]
    np.fill_diagonal(m, 0.0)
    return m


def build_passage_data(K: np.ndarray) -> PassageData:
    """Fundamental matrix and passage times of a doubly stochastic K."""
    n = K.shape[0]
    Y = fundamental_matrix(K)
    m = mean_first_passage(Y, np.full(n, 1.0 / n))
    return PassageData(Y=Y, m=m)


def stationary_perturbation(mm: MeanMatrices) -> np.ndarray:
    """Stationary distribution via the influence-perturbation identity.

    Treats Wbar as the social chain K perturbed by L.  With Y the
    fundamental matrix of K, the identity

        (pi_bar - e/n)^T = (1/n) e^T (LY) (I - LY)^{-1}

    reduces, because L e = 0 and Y = Z - J/n, to the single solve

        (I - Wbar^T + J/n) pi_bar = e/n.

    A second, differently posed dense solve of Wbar's fixed point, which
    cross-checks :func:`stationary_distribution`.
    """
    n = mm.Wbar.shape[0]
    pi = _solve(_deflated(mm.Wbar.T), np.full(n, 1.0 / n), "perturbation solve (I - Wbar^T + J/n singular)")
    return _cleanup_distribution(pi)
