"""Analysis report assembly and deterministic serialization.

Reports serialize to JSON with sorted keys and floats rounded to at most
12 significant digits (shortest round-trip decimal of the rounded value),
so identical configurations produce byte-identical files.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from .gossip import EnsembleSummary, simulate_ensemble
from .impact import ImpactReport, build_impact_report
from .meanfield import build_mean_matrices, stationary_distribution, stationary_perturbation
# Not called here: perfbench/tracing.py wraps report.build_passage_data by name.
from .meanfield import build_passage_data  # noqa: F401
from .network import AcquaintanceNetwork
from .spectral import CONDUCTANCE_MAX_N, DEFAULT_MIXING_THRESHOLD, SpectralReport, build_spectral_report

FORMAT_VERSION = "willingness-gossip-report/1"


@dataclass(frozen=True)
class RunConfig:
    """Resolved CLI configuration embedded into every report."""

    command: str
    network: str
    replicas: int = 1000
    max_slots: int = 10**6
    tol: float = 1e-6
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


def _fmt(value):
    """Round floats to 12 significant digits; refuse silent non-finites."""
    v = float(value)
    if not math.isfinite(v):
        return None
    return float(f"{v:.12g}")


def _jsonify(obj):
    if obj is None or isinstance(obj, (str, int, bool)):
        return obj
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, (np.floating,)):
        return _fmt(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, frozenset, set)):
        items = sorted(obj) if isinstance(obj, (frozenset, set)) else obj
        return [_jsonify(v) for v in items]
    if dataclasses.is_dataclass(obj):
        return _jsonify(dataclasses.asdict(obj))
    raise TypeError(f"cannot serialize {type(obj)!r}")


def render_json(payload: dict) -> str:
    return json.dumps(_jsonify(payload), sort_keys=True, indent=2) + "\n"


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
    if spectral.mixing_class == "slow":
        note = (
            "slow-mixing social graph (gap {g}): influence persists; "
            "preferred insurance target with incentive contracts for high-impact clients"
        )
    else:
        note = (
            "fast-mixing social graph (gap {g}): influence washes out toward the plain "
            "initial average; differentiate contracts by impact before insuring"
        )
    note = note.format(g=_fmt(spectral.gap))
    if spectral.bound_expectation is not None:
        note += f"; worst-case consensus deviation {_fmt(spectral.bound_expectation)}"
    top = [r.node for r in impact.ranking if r.tier == "incentivize"]
    return {
        "mixing_class": spectral.mixing_class,
        "insurability": note,
        "top_clients": top,
    }


def analyze(net: AcquaintanceNetwork, config: RunConfig) -> tuple[dict, bool, ImpactReport | None]:
    """Run the full analysis pipeline.

    Returns (report payload, ok flag, impact report object).  Each section
    (stationary, spectral, impact, simulation) fails independently: an
    exception is recorded as {"failed": reason} for that section, leaving
    the rest of the report intact.  Without a stationary distribution the
    spectral and impact sections, and the simulation when replicas were
    requested, fail with "stationary distribution unavailable"; the
    verdicts need both spectral and impact.  ``simulation`` is None only
    when ``config.replicas`` is 0.  ok is False exactly when some section
    failed.
    """
    payload: dict = {
        "version": FORMAT_VERSION,
        "config": dataclasses.asdict(config),
        "network": {
            "n": net.n,
            "edges": len(net.edge_list()),
            "influence_mass": net.influence_mass,
            "delta": net.delta,
        },
        "simulation": None,
    }

    def run(name, build, render=dataclasses.asdict):
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
