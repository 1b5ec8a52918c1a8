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
Only ``Wbar`` and ``K`` are kept; ``L`` lives only inside
:func:`build_mean_matrices`.  Each solve's matrix is built in one buffer,
so a stationary solve holds four n x n arrays at its peak: Wbar, K, the
system and LAPACK's copy of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .network import AcquaintanceNetwork, dense, reachable, readonly

# Bound on the 1-norm condition number of the stationary system; the
# 2-norm value differs from it by at most a factor n either way.  The
# exact value is computed only when the hitting-time bound of
# stationary_distribution cannot show that it is at most COND_LIMIT / 2.
COND_LIMIT = 1e12


@dataclass(frozen=True)
class MeanMatrices:
    """Mean one-slot update matrix Wbar = K + L and its social part K.

    The influence part L = Wbar - K is not kept: nothing after
    :func:`build_mean_matrices` reads it, and at n x n doubles it would
    be a third dense array held for the whole analysis.
    """

    Wbar: np.ndarray
    K: np.ndarray

    def __post_init__(self):
        for name in ("Wbar", "K"):
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
    """Assemble K and Wbar = K + L from the network parameters.

    Per ordered pair (i, j), an averaging meeting contributes the
    symmetric pair-averaging matrix, an influence meeting the one-sided
    pull matrix, and a persistent meeting the identity, each weighted by
    its per-slot probability p_ij * type / n.  The sums collapse to dense
    closed forms: the social part is a scaled graph Laplacian of the
    symmetrized non-persistent weights, the influence part a combination
    of row/column sums of p*x.  Every sum runs over the dense matrices, so
    its rounding does not depend on which zero-weight pairs are listed.
    L is built and its input dropped before K's input is scattered, every
    array is updated in place and Wbar is formed in L's buffer, so at most
    three n x n arrays are alive at once and two are returned.
    """
    n = net.n
    q = dense(net, net.influence)
    rq = q.sum(axis=1)
    cq = q.sum(axis=0)
    # L = (delta - 0.5) * (diag(rq) - q) + 0.5 * (diag(cq) - q.T), then / n
    L = np.diag(rq)
    L -= q
    L *= net.delta - 0.5
    pull = np.diag(cq)
    pull -= q.T
    del q
    pull *= 0.5
    L += pull
    del pull
    L /= n

    s = dense(net, net.social)
    total_p = float(dense(net, net.p).sum())
    r = s.sum(axis=1)
    c = s.sum(axis=0)
    K = s + s.T
    del s
    K /= 2.0 * n
    K[np.diag_indices(n)] += total_p / n - (r + c) / (2.0 * n)

    L += K  # Wbar, elementwise the same sum as K + L
    return MeanMatrices(Wbar=L, K=K)


def stationary_distribution(mm: MeanMatrices) -> np.ndarray:
    """Stationary distribution of Wbar by direct dense linear solve.

    Solves the left fixed-point equations ``A pi = e_l`` (A = Wbar.T - I
    with its last row set to ones, l the last node), where the last
    equation is the normalization sum(pi) = 1 (partial-pivot LU
    underneath), and returns pi as a read-only array.

    The solve is refused when cond_1(A) exceeds ``COND_LIMIT``.  The
    exact value needs inv(A), about three solves' work, so the gate
    first tries to prove ``cond_1(A) <= COND_LIMIT / 2`` from one solve
    with A.T.  With S every node but l, Q = Wbar[S, S], r = Wbar[l, S]:

        A.T = [[Q - I, e], [r, 1]],   v = solve(A.T, e_l) = [t / s; 1 / s],

    where t = (I - Q)^-1 e holds the expected hitting times of l from S
    and s = 1 + r t = 1 / pi_l is the mean return time to l (Kac).  If
    Wbar >= 0 and (I - Q) x > 0 for some x > 0, then I - Q is a
    nonsingular M-matrix, so N = (I - Q)^-1 >= 0 (Berman & Plemmons,
    *Nonnegative Matrices in the Mathematical Sciences*, 1979, ch. 6,
    thm 2.3).  Block inversion gives

        inv(A.T) = [[-N + t (r N) / s, t / s], [r N / s, 1 / s]],

    whose row i has absolute sum at most t_i + t_i (r t + 1) / s = 2 t_i
    and at least 2 t_i / s; the last row sums to 1.  Hence

        cond_1(A) = ||A||_1 ||inv(A.T)||_inf <= U = 2 ||A||_1 max(1, max t),

    and U <= cond_1(A) / pi_l (Kemeny & Snell, *Finite Markov Chains*,
    1960, the absorbing chain's fundamental matrix N; Cho & Meyer,
    Linear Algebra Appl. 2001, conditioning by mean first passage
    times).  Where Wbar >= 0, every entry of A off its diagonal and last
    row is its own absolute value, so ||A||_1 comes from Wbar's row sums
    R with no |A| formed: column j sums to ``R_j - W_jl - W_jj +
    |W_jj - 1| + 1`` for j < l and to ``R_l - W_ll + 1`` for j = l.  The
    computed v is not trusted for t: with x = v[:-1] and g the computed
    residual ``(I - Q) x = v_l e - (A.T v)[:-1]``, ``N g = x`` bounds
    ``max t <= max(x) / min(g)`` for whatever v the solve returned.  The
    factor-2 margin covers the rounding of U, and of the exact value
    near the limit (relative error about cond * eps <= 1e-4).  Where the
    bound fails (a negative entry in Wbar, a singular or nonpositive v,
    or U > COND_LIMIT / 2) the exact ``np.linalg.cond`` decides.

    Raises
    ------
    NumericalError
        If the system is singular or its 1-norm condition number exceeds
        ``COND_LIMIT``.
    """
    A = _stationary_system(mm.Wbar)
    b = np.zeros(A.shape[0])
    b[-1] = 1.0
    if not _cond_bound(mm.Wbar, A, b) <= COND_LIMIT / 2:
        cond = np.linalg.cond(A, 1)
        if not np.isfinite(cond) or cond > COND_LIMIT:
            raise NumericalError(f"stationary solve too ill-conditioned (cond={cond:.3e})")
    return _cleanup_distribution(_solve(A, b, "stationary solve"))


def _stationary_system(Wbar: np.ndarray) -> np.ndarray:
    """``Wbar.T - I`` with its last row set to ones: the matrix of the stationary solve, in one buffer."""
    A = Wbar.T.copy()
    A[np.diag_indices(A.shape[0])] -= 1.0
    A[-1, :] = 1.0
    return A


def _cond_bound(Wbar: np.ndarray, A: np.ndarray, e_last: np.ndarray) -> float:
    """Hitting-time bound U >= cond_1(A) of :func:`stationary_distribution`; inf where it does not apply.

    ``||A||_1`` needs no |A|: with R = Wbar's row sums, column j of A sums
    in absolute value to ``R_j - W_jl - W_jj + |W_jj - 1| + 1`` for j < l
    and ``R_l - W_ll + 1`` for j = l, but only where Wbar >= 0, so that
    every entry off A's diagonal and last row is its own absolute value.
    """
    if not Wbar.min() >= 0.0:
        return np.inf
    try:
        v = _solve(A.T, e_last, "conditioning check")
    except NumericalError:
        return np.inf
    g = np.min(v[-1] - (A.T @ v)[:-1], initial=v[-1])  # with v_l in the minimum, max(v) / g >= max(1, max t)
    if not (v.min() > 0.0 and g > 0.0):
        return np.inf
    return float(2.0 * _system_norm1(Wbar) * v.max() / g)


def _system_norm1(Wbar: np.ndarray) -> float:
    """``||A||_1`` of the stationary system of a nonnegative ``Wbar``, by the closed form in :func:`_cond_bound`."""
    rows = Wbar.sum(axis=1)
    diag = np.diagonal(Wbar)
    cols = rows - Wbar[:, -1] - diag + np.abs(diag - 1.0) + 1.0
    cols[-1] = rows[-1] - diag[-1] + 1.0
    return float(cols.max())


def _solve(A: np.ndarray, b: np.ndarray, what: str) -> np.ndarray:
    """Dense ``solve(A, b)``; a singular A raises NumericalError naming ``what``."""
    try:
        return np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"{what} failed: {exc}") from exc


def _deflated(M: np.ndarray) -> np.ndarray:
    """``I - M + J/n`` for a stochastic n x n matrix M (J the all-ones matrix), in one buffer.

    Elementwise ``(-m + 1) + 1/n`` on the diagonal and ``-m + 1/n`` off
    it: the same floats as ``(I - M) + J/n``, since ``1 - m == -m + 1``
    and ``0 - m`` differs from ``-m`` only in the sign of a zero, which
    adding 1/n erases.
    """
    n = M.shape[0]
    D = np.negative(M)
    D[np.diag_indices(n)] += 1.0
    D += 1.0 / n
    return D


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
