"""Analysis report assembly and deterministic serialization.

``analyze`` builds the report payload: a dict of sections, each a
one-level dict whose values may be numpy arrays and the builders'
dataclasses, none of them copied.  ``render_json`` is the one
serializer.  It writes the payload in a single walk, with sorted keys, a
two-space indent and floats rounded to at most 12 significant digits
(shortest round-trip decimal of the rounded value), so identical
configurations produce byte-identical files.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .gossip import DEFAULT_MAX_SLOTS, DEFAULT_TOL, EnsembleSummary, simulate_ensemble
from .impact import TIER_INCENTIVIZE, ImpactReport, build_impact_report, round12
from .meanfield import build_mean_matrices, stationary_distribution, stationary_perturbation
# Not called here: perfbench/tracing.py wraps report.build_passage_data by name.
from .meanfield import build_passage_data  # noqa: F401
from .network import AcquaintanceNetwork
from .spectral import CONDUCTANCE_MAX_N, DEFAULT_MIXING_THRESHOLD, SLOW, SpectralReport, build_spectral_report

FORMAT_VERSION = "willingness-gossip-report/1"


@dataclass(frozen=True)
class RunConfig:
    """Resolved CLI configuration embedded into every report."""

    command: str
    network: str
    replicas: int = 1000
    max_slots: int = DEFAULT_MAX_SLOTS
    tol: float = DEFAULT_TOL
    seed: int = 0
    mixing_threshold: float = DEFAULT_MIXING_THRESHOLD
    conductance_mode: str | None = None  # None = auto (exact up to n=20)
    format: str = "json"
    out: str | None = None
    trace: str | None = None

    def resolve_conductance_mode(self, n: int) -> str:
        if self.conductance_mode is not None:
            return self.conductance_mode
        return "exact" if n <= CONDUCTANCE_MAX_N else "skip"


_encode_str = json.encoder.encode_basestring_ascii
_DBL_MIN = sys.float_info.min  # the smallest normal double


@functools.cache
def _field_keys(cls) -> tuple[tuple[str, str], ...]:
    """A dataclass's field names, sorted, each with its encoded JSON key."""
    return tuple((name, _encode_str(name) + ": ") for name in sorted(f.name for f in dataclasses.fields(cls)))


def _float_text(value) -> str:
    """A float's JSON text, ``repr`` of its ``round12`` value, or null when it is not finite.

    ``f"{v:.12g}"`` already holds the digits of that ``repr``: two
    different decimals of at most 15 significant digits never round to
    one normal double, so the shortest round-trip text of the rounded value is the
    rounded text itself.  The two spell it alike except that ``repr``
    ends an integral value in ``.0`` and writes exponents 12 to 15 in
    full; a subnormal, whose precision is below 15 digits, and those
    exponents go through ``repr``.
    """
    v = float(value)
    if not math.isfinite(v):
        return "null"
    text = f"{v:.12g}"
    if "e" in text:
        if 12 <= int(text[text.index("e") + 1:]) <= 15 or (v and abs(v) < _DBL_MIN):
            return repr(round12(v))
        return text
    return text if "." in text else text + ".0"


def _write(obj, put, newline: str) -> None:
    """Append ``obj``'s JSON text through ``put``.

    ``newline`` is a line break plus the indent of the line that ``obj``
    starts on; nested items go two spaces deeper.  Module-level, and
    handed ``put`` rather than closing over it, so that a render leaves
    no reference cycle behind.  The scalar types a payload holds most
    are written by an exact-type lookup, before the ``isinstance`` chain
    that serves their subclasses and everything else.
    """
    scalar = _SCALAR_TEXT.get(type(obj))
    if scalar is not None:
        put(scalar(obj))
    elif obj is None:
        put("null")
    elif isinstance(obj, str):
        put(_encode_str(obj))
    elif isinstance(obj, (float, np.floating)):
        put(_float_text(obj))
    elif isinstance(obj, int):
        put(int.__repr__(obj))
    elif isinstance(obj, np.integer):
        put(repr(int(obj)))
    elif isinstance(obj, np.ndarray) and obj.ndim:  # a 0-d array is refused below
        if obj.ndim == 1 and obj.dtype.kind == "f" and obj.size:  # the common case, without a call per item
            inner = newline + "  "
            put("[" + inner + ("," + inner).join(map(_float_text, obj.tolist())) + newline + "]")
        else:
            _write_list(obj.tolist(), put, newline)
    elif isinstance(obj, dict):
        keyed = {str(k): v for k, v in obj.items()}
        _write_fields([(k, _encode_str(k) + ": ") for k in sorted(keyed)], keyed.__getitem__, put, newline)
    elif isinstance(obj, (list, tuple)):
        _write_list(obj, put, newline)
    elif isinstance(obj, (frozenset, set)):
        _write_list(sorted(obj), put, newline)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        _write_fields(_field_keys(type(obj)), obj.__getattribute__, put, newline)
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


_SCALAR_TEXT = {
    bool: lambda b: "true" if b else "false",
    int: int.__repr__,
    float: _float_text,
    np.float64: _float_text,
    str: _encode_str,
}


def _write_list(items, put, newline: str) -> None:
    """A JSON array, one item per line."""
    if not items:
        put("[]")
        return
    inner = newline + "  "
    sep, comma = "[" + inner, "," + inner
    for value in items:
        put(sep)
        _write(value, put, inner)
        sep = comma
    put(newline + "]")


def _write_fields(keys, get, put, newline: str) -> None:
    """A JSON object of (name, encoded key) pairs, one member per line; ``get`` maps a name to its value."""
    if not keys:
        put("{}")
        return
    inner = newline + "  "
    sep, comma = "{" + inner, "," + inner
    for name, key in keys:
        put(sep + key)
        _write(get(name), put, inner)
        sep = comma
    put(newline + "}")


def render_json(payload: dict) -> str:
    """The payload as JSON: keys sorted, two-space indent, floats through ``_float_text``, non-finite as null."""
    parts: list[str] = []
    _write(payload, parts.append, "\n")
    parts.append("\n")
    return "".join(parts)


def _fields(value) -> dict:
    """A dataclass's fields as a one-level dict; the values are not copied."""
    return {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}


def _solve(net: AcquaintanceNetwork):
    """Mean matrices and the stationary distribution by both methods: (K, pi, check)."""
    mm = build_mean_matrices(net)
    return mm.K, stationary_distribution(mm), stationary_perturbation(mm)


def _stationary_section(solved) -> dict:
    _, pi, check = solved
    return {
        "pi": pi,
        "method_primary": "eigen",
        "method_check": "perturbation",
        "cross_residual": float(np.max(np.abs(pi - check))),
    }


def _simulation_section(net: AcquaintanceNetwork, pi_bar: np.ndarray, ens: EnsembleSummary) -> dict:
    expected = float(np.asarray(pi_bar) @ net.w0)
    abs_error = abs(ens.mean - expected)  # NaN when nothing converged; rendered as null
    return {
        "replicas": ens.replicas,
        "converged": ens.converged_count,
        "convergence_rate": ens.convergence_rate,
        "mean": ens.mean,
        "stderr": ens.stderr,
        "expected_consensus": expected,
        "abs_error": abs_error,
        # the stderr needs at least two converged values; with fewer it is 0
        "z_score": abs_error / max(ens.stderr, np.finfo(float).eps) if ens.converged_count >= 2 else None,
        "mean_slots": ens.mean_slots,
        "max_slots_used": ens.max_slots_used,
        "seed": ens.seed,
    }


def _verdicts(spectral: SpectralReport, impact: ImpactReport) -> dict:
    if spectral.mixing_class == SLOW:
        note = (
            "slow-mixing social graph (gap {g}): influence persists; "
            "preferred insurance target with incentive contracts for high-impact clients"
        )
    else:
        note = (
            "fast-mixing social graph (gap {g}): influence washes out toward the plain "
            "initial average; differentiate contracts by impact before insuring"
        )
    note = note.format(g=_float_text(spectral.gap))
    if spectral.bound_expectation is not None:
        note += f"; worst-case consensus deviation {_float_text(spectral.bound_expectation)}"
    top = [r.node for r in impact.ranking if r.tier == TIER_INCENTIVIZE]
    return {
        "mixing_class": spectral.mixing_class,
        "insurability": note,
        "top_clients": top,
    }


def analyze(net: AcquaintanceNetwork, config: RunConfig) -> tuple[dict, bool, ImpactReport | None]:
    """Run the full analysis pipeline.

    Returns (report payload, ok flag, impact report object).  Every
    section is a one-level dict: the fields of its builder's result, or
    the section's own keys.  Numpy arrays and nested dataclasses
    (``ClientRank``, ``Thm6Result``) are left as they are, uncopied, for
    ``render_json`` to write.

    Each section (stationary, spectral, impact, simulation) fails
    independently: an exception is recorded as {"failed": reason} for
    that section, leaving the rest of the report intact.  Without a
    stationary distribution the spectral and impact sections, and the
    simulation when replicas were requested, fail with "stationary
    distribution unavailable"; the verdicts need both spectral and
    impact.  ``simulation`` is None only when ``config.replicas`` is 0.
    ok is False exactly when some section failed.
    """
    payload: dict = {
        "version": FORMAT_VERSION,
        "config": _fields(config),
        "network": {
            "n": net.n,
            "edges": net.edges[0].size,
            "influence_mass": net.influence_mass,
            "delta": net.delta,
        },
        "simulation": None,
    }

    def run(name, build, render=_fields):
        # The builders are looked up as module globals at call time:
        # perfbench wraps them by their names in this module.
        try:
            value = build()
            payload[name] = render(value)
        except Exception as exc:
            payload[name] = {"failed": str(exc)}
            return None
        return value

    spectral = impact_report = None
    solved = run("stationary", lambda: _solve(net), _stationary_section)
    if solved is None:
        for name in ["spectral", "impact"] + ["simulation"] * (config.replicas > 0):
            payload[name] = {"failed": "stationary distribution unavailable"}
    else:
        K, pi, _ = solved
        mode = config.resolve_conductance_mode(net.n)
        spectral = run(
            "spectral",
            lambda: build_spectral_report(net, K, pi, mixing_threshold=config.mixing_threshold, conductance_mode=mode),
        )
        psi = None if spectral is None else spectral.conductance
        impact_report = run("impact", lambda: build_impact_report(net, pi, K, psi))
        if config.replicas > 0:
            run(
                "simulation",
                lambda: simulate_ensemble(
                    net, replicas=config.replicas, max_slots=config.max_slots, tol=config.tol, seed=config.seed
                ),
                lambda ens: _simulation_section(net, pi, ens),
            )

    if spectral is not None and impact_report is not None:
        payload["verdicts"] = _verdicts(spectral, impact_report)
    else:
        payload["verdicts"] = {"failed": "analysis incomplete"}

    ok = not any("failed" in section for section in payload.values() if isinstance(section, dict))
    return payload, ok, impact_report
