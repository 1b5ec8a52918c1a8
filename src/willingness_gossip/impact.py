"""Per-client impact on the consensus value, and premium ranking.

A client's impact is its stationary weight minus the uniform share 1/n:
positive impact means the client drags the consensus above the plain
average of initial willingness.  Three routes are computed: the exact
value from the stationary distribution, an exact identity through mean
first passage times, and (when a single influential bridge splits the
network) a closed form in the two component sizes, which carries its
residual against the exact value and otherwise the reason it does not
apply.  A conductance-based cap completes the picture for arbitrary
topologies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import Thm6InapplicableError
from .meanfield import fundamental_solve
from .network import AcquaintanceNetwork, dense, edge_partition

ZERO_IMPACT_FLOOR = 1e-13

TIER_INCENTIVIZE = "incentivize"
TIER_REVIEW = "review"
TIER_STANDARD = "standard"


@dataclass(frozen=True)
class Thm6Result:
    """Closed-form impacts for a single-influential-bridge network.

    ``side_i`` and ``side_j`` hold the nodes of i's and j's side in ascending order.
    """

    values: np.ndarray
    mu: float
    edge: tuple[int, int]
    side_i: np.ndarray
    side_j: np.ndarray
    residual: float


@dataclass(frozen=True)
class ClientRank:
    node: int
    impact: float
    score: float
    rank: int
    tier: str


@dataclass(frozen=True)
class ImpactReport:
    """Everything the insurer needs to differentiate client premiums."""

    exact: np.ndarray
    thm5: np.ndarray
    thm5_residual: np.ndarray
    thm7_bound: float | None
    thm6: Thm6Result | None
    thm6_reason: str | None
    ranking: list[ClientRank]


def impact_exact(pi_bar: np.ndarray) -> np.ndarray:
    """Per-node deviation of the stationary weight from the uniform 1/n."""
    pi_bar = np.asarray(pi_bar, dtype=float)
    return pi_bar - 1.0 / pi_bar.shape[0]


def impact_thm5(
    net: AcquaintanceNetwork,
    pi_bar: np.ndarray,
    K: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Impact through the passage-time identity, plus residuals vs exact.

    Evaluates, per node k, with m the mean first passage times of the
    social matrix K,

        (1/(2 n^2)) sum_ij p_ij x_ij ((1 - 2 delta) pi_i + pi_j) (m_ik - m_jk)

    which is algebraically exact for any valid network.  The second
    coefficient is the stationary weight of the influencer j (the
    derivation combines (1/2 - delta) pi_i with (1/2) pi_j).  The sum is
    m^T w / (2 n^2) for per-node weights w; since w sums to 0 and K is
    symmetric, that equals -Z w / (2n) with Z = inv(I - K + J/n), so m is
    never formed.  The coefficients are computed per listed pair and
    scattered into one n x n array, which is dropped before the solve;
    every pair not listed has coefficient 0.
    """
    n = net.n
    pi_bar = np.asarray(pi_bar, dtype=float)
    coef = dense(net, net.influence * ((1.0 - 2.0 * net.delta) * pi_bar[net.tails] + pi_bar[net.heads]))
    weights = coef.sum(axis=1) - coef.sum(axis=0)
    del coef
    values = -fundamental_solve(K, weights) / (2.0 * n)
    residual = np.abs(values - impact_exact(pi_bar))
    return values, residual


def impact_thm6(net: AcquaintanceNetwork, exact: np.ndarray) -> Thm6Result:
    """Closed-form impacts when one influential bridge splits the network.

    Applies when exactly one ordered pair (i, j) has p_ij * x_ij > 0 (two
    opposite influential directions on the same pair count as multiple
    edges) and removing it splits the network.  Every node on j's side
    then shares the value proportional to +|side_i|, every node on i's
    side the value proportional to -|side_j|, with the common factor

        (2 / n^2) mu (1 - delta) / (1 - (mu/n)(|side_i| + (2 delta - 1)|side_j|)).

    The denominator follows from the rank-one influence part L and the
    bridge hitting time |side_i| / K_ij; it differs from the printed
    statement's (1 + 2 delta)|side_i| - |side_j|, which agrees only on
    equal sides.  Returned with its max absolute residual against
    ``exact`` rather than trusted blindly; raises Thm6InapplicableError,
    with the reason the report prints, where the form does not apply.
    """
    n = net.n
    q = net.influence
    influential = np.flatnonzero(net.met & (q > 0.0))
    if influential.size == 0:
        raise Thm6InapplicableError("no influential edge")
    if influential.size > 1:
        raise Thm6InapplicableError(f"multiple influential edges ({influential.size})")
    e = influential[0]
    i, j = int(net.tails[e]), int(net.heads[e])
    side = edge_partition(net, i, j)
    if side is None:
        raise Thm6InapplicableError(f"influential edge ({i}, {j}) is not a bridge")
    s = net.social
    mu = float(q[e] / (s[e] + s[(net.tails == j) & (net.heads == i)].sum()))  # the sum is 0.0 if (j, i) is not listed
    size_i = int(side.sum())
    size_j = n - size_i
    denom = 1.0 - (mu / n) * (size_i + (2.0 * net.delta - 1.0) * size_j)
    if denom == 0.0:
        raise Thm6InapplicableError("degenerate closed-form denominator")
    base = (2.0 / (n * n)) * mu * (1.0 - net.delta) / denom
    values = np.where(side, -base * size_j, base * size_i)
    return Thm6Result(
        values=values,
        mu=mu,
        edge=(i, j),
        side_i=np.flatnonzero(side),
        side_j=np.flatnonzero(~side),
        residual=float(np.max(np.abs(values - exact))),
    )


def impact_thm7_bound(net: AcquaintanceNetwork, psi: float | None) -> float | None:
    """Conductance cap on every |impact|: (2/n) sum p_ij x_ij (1 + ln n)/psi.

    None when the conductance was skipped.  The logarithm is natural; the
    bound is validated against exact impacts rather than used as a
    guarantee, so the base only affects looseness.
    """
    if psi is None:
        return None
    if psi <= 0.0:
        raise ValueError(f"conductance must be positive, got {psi}")
    n = net.n
    return (2.0 * net.influence_mass / n) * (1.0 + math.log(n)) / psi


def round12(value: float) -> float:
    """``value`` rounded to 12 significant digits, the precision reports are written at."""
    return float(f"{value:.12g}")


def rank_clients(impacts: np.ndarray) -> list[ClientRank]:
    """Descending impact ranking with normalized scores and premium tiers.

    Sorting uses impacts rounded by ``round12``, the precision reports
    serialize at, so clients whose printed impacts are equal tie and break
    by node id; solver noise at the last bits cannot reorder mathematically
    equal clients.  Top quartile of ranks is tagged for
    incentives, bottom quartile for standard contracts, the middle for
    review.  When every impact is zero (below 1e-13 in magnitude, covering
    solver noise on influence-free networks) all nodes tie: ranks follow
    node ids and everyone lands in review.
    """
    impacts = np.asarray(impacts, dtype=float)
    n = impacts.shape[0]
    peak = float(np.max(np.abs(impacts))) if n else 0.0
    if peak <= ZERO_IMPACT_FLOOR:
        return [ClientRank(node=k, impact=float(impacts[k]), score=0.0, rank=k + 1, tier=TIER_REVIEW) for k in range(n)]
    values = impacts.tolist()
    scores = (impacts / peak).tolist()
    order = sorted(range(n), key=lambda k: (-round12(values[k]), k))
    quart = math.ceil(n / 4)
    ranking = []
    for rank, node in enumerate(order, start=1):
        if rank <= quart:
            tier = TIER_INCENTIVIZE
        elif rank > n - quart:
            tier = TIER_STANDARD
        else:
            tier = TIER_REVIEW
        ranking.append(ClientRank(node=node, impact=values[node], score=scores[node], rank=rank, tier=tier))
    return ranking


def build_impact_report(
    net: AcquaintanceNetwork,
    pi_bar: np.ndarray,
    K: np.ndarray,
    psi: float | None,
) -> ImpactReport:
    """Assemble every impact route plus the premium ranking."""
    exact = impact_exact(pi_bar)
    thm5, thm5_res = impact_thm5(net, pi_bar, K)
    thm6, thm6_reason = None, None
    try:
        thm6 = impact_thm6(net, exact)
    except Thm6InapplicableError as exc:
        thm6_reason = str(exc)
    return ImpactReport(
        exact=exact,
        thm5=thm5,
        thm5_residual=thm5_res,
        thm7_bound=impact_thm7_bound(net, psi),
        thm6=thm6,
        thm6_reason=thm6_reason,
        ranking=rank_clients(exact),
    )


def render_impact_csv(report: ImpactReport) -> str:
    """Impact table: node, exact, thm5, thm5_residual, thm6, thm7_bound, rank, tier.

    Each float cell is ``repr`` of a Python float, read from one ``tolist`` per column.
    """
    n = report.exact.shape[0]
    thm6 = list(map(repr, report.thm6.values.tolist())) if report.thm6 is not None else [""] * n
    thm7 = repr(float(report.thm7_bound)) if report.thm7_bound is not None else ""
    by_node = sorted(report.ranking, key=lambda r: r.node)
    columns = zip(report.exact.tolist(), report.thm5.tolist(), report.thm5_residual.tolist(), thm6, by_node)
    rows = [f"{k},{e!r},{t5!r},{res!r},{t6},{thm7},{r.rank},{r.tier}\n" for k, (e, t5, res, t6, r) in enumerate(columns)]
    return "node,exact,thm5,thm5_residual,thm6,thm7_bound,rank,tier\n" + "".join(rows)
