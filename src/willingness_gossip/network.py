"""Acquaintance-network model: parsing, validation, and basic graph metrics.

A network lists the ordered pairs (i, j) of users who meet, each with its
meeting probability ``p`` and interaction-type probabilities ``x``
(one-sided influence), ``y`` (mutual averaging) and ``z`` (no change),
plus an influence-retention factor ``delta`` and an initial willingness
vector ``w0``; only :func:`dense` forms n x n matrices.  Node ids are
0-based everywhere, both in memory and in the JSON file format.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from typing import NoReturn

import numpy as np

from .errors import NetworkFormatError, NotStronglyConnectedError

ROW_SUM_TOL = 1e-9
TYPE_SUM_TOL = 1e-9
MAX_N = 5000  # largest accepted network; one dense n x n float matrix of the analytic path is then ~200 MB


def readonly(value, dtype=np.float64) -> np.ndarray:
    """``value`` as a C-contiguous array of ``dtype`` that cannot be written."""
    arr = np.ascontiguousarray(value, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class AcquaintanceNetwork:
    """Immutable acquaintance network, held as one column per field of its listed pairs.

    Attributes
    ----------
    n : int
        Number of users.
    delta : float
        Influence retention in (0, 1/2]; at 1/2 an influence meeting is
        indistinguishable from averaging for the influenced side.
    w0 : ndarray, shape (n,)
        Initial willingness values in [0, 1]; 1 marks an adopter.
    tails, heads : ndarray, shape (E,), int64
        The listed ordered pairs (tails[e], heads[e]) in row-major order:
        the keys ``tails * n + heads`` are in range and strictly
        increasing.  Every pair not listed has p = x = y = z = 0.
    p, x, y, z : ndarray, shape (E,)
        Per listed pair: p, the probability that the tail, when initiating,
        meets the head (no self-meetings; each user's sum to 1), and the
        interaction types given the meeting: influence x (the head pulls
        the tail), regular y (mutual averaging), persistent z (no change),
        with ``x + y + z = 1`` wherever ``p > 0``.

    Each column is kept as a read-only copy of what it is given, so the
    caller's array stays writable and a later write to it does not change
    the network.  An array that is already read-only and owns its data,
    such as a column of another network, is shared instead.
    """

    n: int
    delta: float
    w0: np.ndarray
    tails: np.ndarray
    heads: np.ndarray
    p: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        for name in ("tails", "heads", "p", "x", "y", "z", "w0"):
            arr, dtype = getattr(self, name), np.int64 if name in ("tails", "heads") else np.float64
            frozen = isinstance(arr, np.ndarray) and arr.flags.owndata and not arr.flags.writeable
            if not (frozen and arr.dtype == dtype):
                arr = readonly(np.array(arr, dtype=dtype), dtype)
            shape = (self.n,) if name == "w0" else np.shape(self.tails)
            if arr.shape != shape or arr.ndim != 1:
                raise ValueError(f"{name} must have shape {shape}")
            object.__setattr__(self, name, arr)
        if not np.all((self.tails >= 0) & (self.tails < self.n) & (self.heads >= 0) & (self.heads < self.n)):
            raise ValueError(f"a listed pair is out of range for n={self.n}")
        keys = self.tails * self.n + self.heads
        if not np.all(keys[1:] > keys[:-1]):
            raise ValueError("listed pairs must be distinct and in row-major order")

    @property
    def met(self) -> np.ndarray:
        """Mask of the listed pairs that are directed edges: those with p > 0, the only pairs that ever meet."""
        return self.p > 0.0

    @property
    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """``(tails, heads)`` of the directed edges (:attr:`met`), in row-major order."""
        met = self.met
        return self.tails[met], self.heads[met]

    @property
    def influence(self) -> np.ndarray:
        """Influence weight p * x of each listed pair (the head pulls the tail)."""
        return self.p * self.x

    @property
    def social(self) -> np.ndarray:
        """Non-persistent meeting weight p * (1 - z) of each listed pair."""
        return self.p * (1.0 - self.z)

    @property
    def influence_mass(self) -> float:
        """Total influence weight sum_ij p[i, j] * x[i, j]."""
        return float(np.sum(self.influence))


def dense(net: AcquaintanceNetwork, values: np.ndarray) -> np.ndarray:
    """The n x n matrix holding ``values[e]`` at (tails[e], heads[e]) and 0 at every pair not listed."""
    out = np.zeros((net.n, net.n))
    out[net.tails, net.heads] = values
    return out


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate_network`; violations are data, not faults."""

    ok: bool
    violations: list[str] = field(default_factory=list)


def _require_key(obj: dict, key: str, context: str):
    if key not in obj:
        raise NetworkFormatError(f"missing required field '{key}' in {context}")
    return obj[key]


def _as_number(value, key: str):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise NetworkFormatError(f"field '{key}' must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise NetworkFormatError(f"field '{key}' must be a finite number, got {value!r}")
    return number


def parse_network(text: str) -> AcquaintanceNetwork:
    """Parse a UTF-8 JSON network document.

    The document carries ``n``, ``delta``, ``w0`` and an ``edges`` array of
    ``{"from", "to", "p", "x", "y", "z"}`` objects; ordered pairs absent
    from ``edges`` have meeting probability 0.  Structural problems raise
    :class:`NetworkFormatError` naming the offending key, as does an ``n``
    above ``MAX_N`` (refused before any array is allocated); semantic
    checks are deferred to :func:`validate_network`.
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer literal over the digit limit
        raise NetworkFormatError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise NetworkFormatError("invalid JSON: nested too deeply") from exc
    if not isinstance(doc, dict):
        raise NetworkFormatError("top-level document must be a JSON object")

    n_raw = _require_key(doc, "n", "document")
    if isinstance(n_raw, bool) or not isinstance(n_raw, int) or n_raw < 1:
        raise NetworkFormatError(f"field 'n' must be a positive integer, got {n_raw!r}")
    if n_raw > MAX_N:
        raise NetworkFormatError(f"field 'n' = {n_raw} exceeds the supported maximum {MAX_N}")
    n = n_raw

    delta = _as_number(_require_key(doc, "delta", "document"), "delta")

    w0_raw = _require_key(doc, "w0", "document")
    if not isinstance(w0_raw, list) or len(w0_raw) != n:
        raise NetworkFormatError(f"field 'w0' must be an array of {n} numbers")
    w0 = np.array([_as_number(v, "w0") for v in w0_raw], dtype=np.float64)

    edges = _require_key(doc, "edges", "document")
    if not isinstance(edges, list):
        raise NetworkFormatError("field 'edges' must be an array")
    try:  # _edge_columns checks types and finiteness, the constructor the index range and pair order
        tails, heads, (p, x, y, z) = _edge_columns(edges, n)
        return AcquaintanceNetwork(n=n, delta=delta, w0=w0, tails=tails, heads=heads, p=p, x=x, y=y, z=z)
    except (KeyError, TypeError, OverflowError, ValueError):
        _raise_first_faulty_edge(edges, n)


_EDGE_FIELDS = ("from", "to", "p", "x", "y", "z")
_EDGE_TYPES = ({int},) * 2 + ({int, float},) * 4  # bool is not int here: type(True) is bool


def _edge_columns(edges: list, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``edges`` as index columns ``i``, ``j`` and a (4, len(edges)) p/x/y/z block, sorted by ``i * n + j``.

    One pass per field, then whole-column checks of the field types and
    finiteness; the index range and repeated pairs are left to
    :class:`AcquaintanceNetwork`.  A faulty edge raises KeyError,
    TypeError, OverflowError or ValueError, and :func:`parse_network` then
    has :func:`_raise_first_faulty_edge` name it.
    """
    columns = [list(map(operator.itemgetter(key), edges)) for key in _EDGE_FIELDS]
    if not all(set(map(type, col)) <= types for col, types in zip(columns, _EDGE_TYPES)):
        raise ValueError("an edge field has the wrong type")
    i, j = np.array(columns[:2], dtype=np.int64)
    values = np.array(columns[2:], dtype=np.float64)
    if not np.isfinite(values).all():
        raise ValueError("an edge holds a non-finite number")
    order = np.argsort(i * n + j, kind="stable")  # a file written by serialize_network is already sorted
    return i[order], j[order], values[:, order]


def _raise_first_faulty_edge(edges: list, n: int) -> NoReturn:
    """Raise the error of the first faulty edge, checking each edge field by field."""
    seen: set[tuple[int, int]] = set()
    for idx, edge in enumerate(edges):
        ctx = f"edges[{idx}]"
        if not isinstance(edge, dict):
            raise NetworkFormatError(f"{ctx} must be an object")
        i = _require_key(edge, "from", ctx)
        j = _require_key(edge, "to", ctx)
        for key, val in (("from", i), ("to", j)):
            if isinstance(val, bool) or not isinstance(val, int):
                raise NetworkFormatError(f"{ctx}: field '{key}' must be an integer")
        if not (0 <= i < n) or not (0 <= j < n):
            raise NetworkFormatError(f"{ctx}: node index out of range (from={i}, to={j}, n={n})")
        if (i, j) in seen:
            raise NetworkFormatError(f"{ctx}: duplicate edge ({i}, {j})")
        seen.add((i, j))
        for key in _EDGE_FIELDS[2:]:
            _as_number(_require_key(edge, key, ctx), key)
    raise AssertionError("the column or constructor checks refused edges that every per-edge check accepts")


def serialize_network(net: AcquaintanceNetwork) -> str:
    """Serialize a network back to the JSON document format."""
    met = net.met
    columns = [col[met] for col in (net.tails, net.heads, net.p, net.x, net.y, net.z)]
    edges = [dict(zip(_EDGE_FIELDS, row)) for row in zip(*(col.tolist() for col in columns))]
    doc = {
        "n": net.n,
        "delta": float(net.delta),
        "w0": [float(v) for v in net.w0],
        "edges": edges,
    }
    return json.dumps(doc, indent=2)


def load_network(path: str) -> AcquaintanceNetwork:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise NetworkFormatError(f"not UTF-8 text: {exc}") from exc
    return parse_network(text)


def reachable(tails: np.ndarray, heads: np.ndarray, seeds: np.ndarray) -> tuple[np.ndarray, int]:
    """Nodes reachable along the directed edges ``tails[e] -> heads[e]`` from each seed set.

    The edges may come in any order and may repeat.  ``seeds`` is a
    boolean array of shape (n,) or (k, n); each row is the start set of
    one search.  Returns ``(reached, hops)``: ``reached`` has the shape of
    ``seeds``, and ``hops`` is the number of expansions that reached a new
    node, i.e. the largest shortest-path hop count from a seed set to a
    node it reaches.

    All searches run together as one bitset BFS: each node holds one bit
    per search, packed into uint64 words (Then et al., "The More the
    Merrier: Efficient Multi-Source Graph Traversal", VLDB 2014).  A hop
    ORs the words of each node's in-neighbours into its own, one
    ``reduceat`` over the edges grouped by head; a self-loop per node
    keeps its own words and gives every node a nonempty group.
    """
    seeds = np.asarray(seeds, dtype=bool)
    rows = np.atleast_2d(seeds)
    k, n = rows.shape
    nodes = np.arange(n)
    heads = np.concatenate((heads, nodes))
    # heads < n: a stable sort on the smallest integer type is a radix sort
    order = np.argsort(heads.astype(np.min_scalar_type(n)), kind="stable")
    tails = np.concatenate((tails, nodes))[order]
    groups = np.searchsorted(heads[order], nodes)

    packed = np.zeros((n, 8 * -(-k // 64)), dtype=np.uint8)  # whole uint64 words per node
    packed[:, : -(-k // 8)] = np.packbits(rows, axis=0, bitorder="little").T
    words = packed.view(np.uint64)
    hops = 0
    while True:
        grown = np.bitwise_or.reduceat(words.take(tails, axis=0), groups, axis=0)
        if np.array_equal(grown, words):
            break
        words = grown
        hops += 1
    reached = np.unpackbits(words.view(np.uint8), axis=1, count=k, bitorder="little")
    return reached.T.view(bool).reshape(seeds.shape), hops


def validate_network(net: AcquaintanceNetwork) -> ValidationReport:
    """Check every model invariant; returns ok or the full violation list."""
    v: list[str] = []
    n = net.n

    for name in ("p", "x", "y", "z", "w0"):
        bad = np.flatnonzero(~np.isfinite(getattr(net, name)))
        if bad.size:
            e = bad[0]
            where = e if name == "w0" else f"{net.tails[e]}, {net.heads[e]}"
            v.append(f"non-finite {name}[{where}] ({bad.size} non-finite entries in {name})")

    # also rejects a NaN or infinite delta
    if not (0.0 < net.delta <= 0.5):
        v.append(f"delta {net.delta} outside (0, 0.5]")

    for i in net.tails[(net.tails == net.heads) & (net.p != 0.0)]:
        v.append(f"self-meeting probability nonzero at node {i}")

    bad = np.flatnonzero((net.p < 0.0) | (net.p > 1.0))
    if bad.size:
        v.append(f"meeting probability out of [0, 1] at ({net.tails[bad[0]]}, {net.heads[bad[0]]})")

    row_sums = np.bincount(net.tails, weights=net.p, minlength=n)
    for i in np.nonzero(np.abs(row_sums - 1.0) > ROW_SUM_TOL)[0]:
        v.append(f"meeting probabilities of node {i} sum to {row_sums[i]:.12g}, expected 1")

    for name in ("x", "y", "z"):
        col = getattr(net, name)
        bad = np.flatnonzero((col < -TYPE_SUM_TOL) | (col > 1.0 + TYPE_SUM_TOL))
        if bad.size:
            v.append(f"interaction probability {name} out of [0, 1] at ({net.tails[bad[0]]}, {net.heads[bad[0]]})")

    tails, heads = net.edges
    x, y, z = (col[net.met] for col in (net.x, net.y, net.z))
    type_sum = x + y + z
    for e in np.flatnonzero(np.abs(type_sum - 1.0) > TYPE_SUM_TOL):
        v.append(f"interaction probabilities at edge ({tails[e]}, {heads[e]}) sum to {type_sum[e]:.12g}, expected 1")

    for e in np.flatnonzero(x + y <= 0.0):
        v.append(f"persistent-only edge ({tails[e]}, {heads[e]}): x + y must be positive")

    # node 0 reaches every node, and every node reaches node 0
    root = np.arange(n) == 0
    if not (reachable(tails, heads, root)[0].all() and reachable(heads, tails, root)[0].all()):
        v.append("not strongly connected")

    for i in np.nonzero((net.w0 < 0.0) | (net.w0 > 1.0))[0]:
        v.append(f"initial willingness w0[{i}] = {net.w0[i]:.12g} outside [0, 1]")

    return ValidationReport(ok=not v, violations=v)


def diameter(net: AcquaintanceNetwork) -> int:
    """Maximum directed shortest-path hop count over all ordered node pairs.

    One all-source :func:`reachable` search; raises
    :class:`NotStronglyConnectedError` naming the first node that does not
    reach every other node.
    """
    nodes = np.arange(net.n)
    reached, hops = reachable(*net.edges, nodes[:, None] == nodes)
    short = np.nonzero(~reached.all(axis=1))[0]
    if short.size:
        raise NotStronglyConnectedError(f"no path from node {short[0]} to some node")
    return hops


def edge_partition(net: AcquaintanceNetwork, i: int, j: int) -> np.ndarray | None:
    """Split the node set by removing undirected edge {i, j}.

    Returns the bool mask of i's side (its complement is j's side) when the
    undirected support graph minus {i, j} is disconnected, or ``None`` when
    the edge is not a bridge.  Bridges are undirected because the social
    matrix built from the network is symmetric.
    """
    if not (0 <= i < net.n and 0 <= j < net.n) or i == j:
        raise ValueError(f"invalid node pair ({i}, {j})")
    tails, heads = net.edges
    pair = ((tails == i) & (heads == j)) | ((tails == j) & (heads == i))
    if not pair.any():
        raise ValueError(f"({i}, {j}) is not an edge")
    tails, heads = tails[~pair], heads[~pair]
    # each edge in both directions; a pair met both ways is then listed twice
    seen = reachable(np.concatenate((tails, heads)), np.concatenate((heads, tails)), np.arange(net.n) == i)[0]
    return None if seen[j] else seen
