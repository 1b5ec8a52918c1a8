import dataclasses
import json
import math

import numpy as np
import pytest

from willingness_gossip.errors import NetworkFormatError
from willingness_gossip.fixtures import two_node_influencer, two_node_regular
from willingness_gossip.impact import round12
from willingness_gossip.kernels import KIND_INFLUENCE, KIND_PERSISTENT, KIND_REGULAR, build_sampler, decode_meetings
from willingness_gossip.network import MAX_N, AcquaintanceNetwork, _as_number, _require_key, dense, serialize_network


def network_from_dense(n, delta, p, x, y, z, w0) -> AcquaintanceNetwork:
    """The network of the n x n matrices ``p, x, y, z``: it lists every cell where any of them is nonzero."""
    p, x, y, z = (np.asarray(m, dtype=np.float64) for m in (p, x, y, z))
    tails, heads = np.nonzero((p != 0.0) | (x != 0.0) | (y != 0.0) | (z != 0.0))
    return AcquaintanceNetwork(
        n=n, delta=delta, w0=w0, tails=tails, heads=heads,
        p=p[tails, heads], x=x[tails, heads], y=y[tails, heads], z=z[tails, heads],
    )


def _sample_meetings_batch(net, count: int, rng: np.random.Generator):
    """``count`` meetings (i, j, kind) decoded from ``rng`` exactly as the simulator decodes them."""
    return decode_meetings(*build_sampler(net), rng.random((count, 3)))


def _empirical_mean_update(net, count: int, rng: np.random.Generator):
    """Monte-Carlo estimate of the mean one-slot update matrix.

    Samples ``count`` meetings, accumulates the induced update matrices
    entrywise and returns (mean, stderr) arrays: the oracle that checks
    the analytic mean matrices at 3-sigma resolution.
    """
    n = net.n
    i, j, kind = _sample_meetings_batch(net, count, rng)
    dsum = np.zeros((n, n))
    dsq = np.zeros((n, n))

    reg = kind == KIND_REGULAR
    inf = kind == KIND_INFLUENCE
    one_minus_delta = 1.0 - net.delta
    # Averaging meeting deviation from I: -1/2 at (i,i),(j,j); +1/2 at (i,j),(j,i)
    for rows, cols, val in (
        (i[reg], i[reg], -0.5),
        (j[reg], j[reg], -0.5),
        (i[reg], j[reg], 0.5),
        (j[reg], i[reg], 0.5),
        # Influence meeting deviation: -(1-delta) at (i,i); +(1-delta) at (i,j)
        (i[inf], i[inf], -one_minus_delta),
        (i[inf], j[inf], one_minus_delta),
    ):
        np.add.at(dsum, (rows, cols), val)
        np.add.at(dsq, (rows, cols), val * val)

    mean = np.eye(n) + dsum / count
    var = np.maximum(dsq / count - (dsum / count) ** 2, 0.0)
    stderr = np.sqrt(var / count)
    return mean, stderr


def apply_meeting(w: np.ndarray, i: int, j: int, kind: int, delta: float) -> np.ndarray:
    """One willingness update: initiator i meets partner j; pure (returns a new vector).

    ``kind`` is a ``kernels.KIND_*`` code.  Averaging sets both endpoints
    to their mean; influence moves only the initiator toward the partner
    with retention delta, clamped into the pre-meeting pair interval so the
    global spread cannot expand even under floating-point rounding;
    persistent meetings change nothing.  This is the reference rule that
    the tests fold to check ``kernels.gossip_chunk``, whose ``_mix`` is the
    library's one copy of the update.
    """
    out = np.array(w, dtype=np.float64, copy=True)
    if kind == KIND_REGULAR:
        avg = 0.5 * (out[i] + out[j])
        out[i] = avg
        out[j] = avg
    elif kind == KIND_INFLUENCE:
        a, b = out[i], out[j]
        v = delta * a + (1.0 - delta) * b
        out[i] = min(max(v, min(a, b)), max(a, b))
    elif kind != KIND_PERSISTENT:
        raise ValueError(f"unknown meeting kind {kind!r}")
    return out


def _closed_form_mean_matrices(net):
    """(K, L) of ``net`` from the dense closed forms, out of place: the oracle for ``build_mean_matrices``.

    ``build_mean_matrices`` keeps K and Wbar = K + L, updated in place;
    each of their elements must equal these forms bit for bit.
    """
    n = net.n
    s, q = dense(net, net.social), dense(net, net.influence)
    K = (s + s.T) / (2.0 * n)
    K[np.diag_indices(n)] += float(dense(net, net.p).sum()) / n - (s.sum(axis=1) + s.sum(axis=0)) / (2.0 * n)
    L = (net.delta - 0.5) * (np.diag(q.sum(axis=1)) - q) + 0.5 * (np.diag(q.sum(axis=0)) - q.T)
    L /= n
    return K, L


def _reference_parse_network(text: str) -> AcquaintanceNetwork:
    """The per-edge network parser: one loop iteration and four number checks per edge.

    The reference that ``network.parse_network``'s column checks must
    match, error message for error message and bit for bit.
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

    cells: dict[tuple[int, int], tuple[float, float, float, float]] = {}
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
        if (i, j) in cells:
            raise NetworkFormatError(f"{ctx}: duplicate edge ({i}, {j})")
        cells[i, j] = tuple(_as_number(_require_key(edge, key, ctx), key) for key in ("p", "x", "y", "z"))

    pairs = sorted(cells)  # row-major: every listed pair, whatever its values
    p, x, y, z = np.array([cells[pair] for pair in pairs], dtype=np.float64).reshape(-1, 4).T
    return AcquaintanceNetwork(
        n=n, delta=delta, w0=w0, tails=[i for i, _ in pairs], heads=[j for _, j in pairs], p=p, x=x, y=y, z=z
    )


def _reference_float(value: float):
    """A float as the report writes it: rounded by ``round12``, or None when it is not finite."""
    return round12(value) if math.isfinite(value) else None


def _reference_jsonify(obj):
    """``obj`` as plain JSON values: str keys, lists for arrays and sets, floats rounded by ``round12``."""
    if obj is None or isinstance(obj, (str, int, bool)):
        return obj
    if isinstance(obj, float):
        return _reference_float(obj)
    if isinstance(obj, (np.floating,)):
        return _reference_float(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_reference_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _reference_jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, frozenset, set)):
        items = sorted(obj) if isinstance(obj, (frozenset, set)) else obj
        return [_reference_jsonify(v) for v in items]
    if dataclasses.is_dataclass(obj):
        return _reference_jsonify(dataclasses.asdict(obj))
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _reference_render_json(payload) -> str:
    """The two-pass report renderer: the bytes ``report.render_json`` must write."""
    return json.dumps(_reference_jsonify(payload), sort_keys=True, indent=2) + "\n"


def _reference_conductance_scan(K) -> float:
    """The blockwise-divide conductance scan: the value ``kernels.conductance_scan`` must return bit for bit.

    The same half tables and ``left[block] @ right`` products as the kernel,
    with the high table in binary order; every entry of each block is
    divided by its own gathered ``|A| (n - |A|)`` and the full set is masked.
    """
    n = K.shape[0]
    h = (n + 1) // 2

    def masks(bits):
        idx = np.arange(1 << bits)
        return ((idx[:, None] >> np.arange(bits)) & 1).astype(np.float64)

    def inner_cut(m, KK):
        return ((m @ KK) * (1.0 - m)).sum(axis=1)

    low = np.hstack([np.ones((1 << (h - 1), 1)), masks(h - 1)])
    high = masks(n - h)
    left = np.hstack([
        low @ K[:h, h:],
        (1.0 - low) @ K[h:, :h].T,
        inner_cut(low, K[:h, :h])[:, None],
        np.ones((low.shape[0], 1)),
    ])
    right = np.hstack([
        1.0 - high,
        high,
        np.ones((high.shape[0], 1)),
        inner_cut(high, K[h:, h:])[:, None],
    ]).T
    low_size = low.sum(axis=1).astype(np.int64)
    high_size = high.sum(axis=1).astype(np.int64)
    sizes = np.arange(n + 1)
    denom = np.maximum(sizes * (n - sizes), 1.0)
    rows = max(1, (1 << 15) >> (n - h))
    best = np.inf
    for start in range(0, len(left), rows):
        block = slice(start, start + rows)
        ratios = n * (left[block] @ right) / denom[low_size[block, None] + high_size]
        if start + rows >= len(left):
            ratios[-1, -1] = np.inf
        best = min(best, float(ratios.min()))
    return best


@pytest.fixture(scope="session")
def reference_parse_network():
    """The per-edge network parser, as a function (text) -> AcquaintanceNetwork."""
    return _reference_parse_network


@pytest.fixture(scope="session")
def reference_render_json():
    """The two-pass report renderer, as a function (payload) -> str."""
    return _reference_render_json


@pytest.fixture(scope="session")
def closed_form_mean_matrices():
    """The closed-form mean matrices, as a function (net) -> (K, L)."""
    return _closed_form_mean_matrices


@pytest.fixture(scope="session")
def reference_conductance_scan():
    """The blockwise-divide conductance scan, as a function (K) -> float."""
    return _reference_conductance_scan


@pytest.fixture()
def sample_meetings_batch():
    """The vectorized meeting sampler, as a function (net, count, rng) -> (i, j, kind)."""
    return _sample_meetings_batch


@pytest.fixture()
def empirical_mean_update():
    """The sampled mean-matrix oracle, as a function (net, count, rng)."""
    return _empirical_mean_update


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
