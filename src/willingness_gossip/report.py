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


def _simulation_section(net: AcquaintanceNetwork, pi_bar: np.ndarray, ens: EnsembleSummary) -> dict:
    expected = float(np.asarray(pi_bar) @ net.w0)
    abs_error = abs(ens.mean - expected) if math.isfinite(ens.mean) else None
    z = None
    # the stderr needs at least two converged values; with fewer it is 0
    if abs_error is not None and ens.converged_count >= 2:
        z = abs_error / max(ens.stderr, np.finfo(float).eps)
    return {
        "replicas": ens.replicas,
        "converged": ens.converged_count,
        "convergence_rate": ens.convergence_rate,
        "mean": ens.mean if math.isfinite(ens.mean) else None,
        "stderr": ens.stderr,
        "expected_consensus": expected,
        "abs_error": abs_error,
        "z_score": z,
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
    fails independently: a numerical failure is recorded as
    {"failed": reason} for that section and flips the ok flag, leaving the
    rest of the report intact.
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
    }
    ok = True
    pi = None
    mm = None

    try:
        mm = build_mean_matrices(net)
        primary = stationary_distribution(mm)
        check = stationary_perturbation(mm)
        pi = primary
        payload["stationary"] = {
            "pi": pi,
            "method_primary": "eigen",
            "method_check": "perturbation",
            "cross_residual": float(np.max(np.abs(primary - check))),
        }
    except Exception as exc:
        payload["stationary"] = {"failed": str(exc)}
        ok = False

    spectral = None
    if mm is not None and pi is not None:
        try:
            spectral = build_spectral_report(
                net,
                mm.K,
                pi,
                mixing_threshold=config.mixing_threshold,
                conductance_mode=config.resolve_conductance_mode(net.n),
            )
            payload["spectral"] = dataclasses.asdict(spectral)
        except Exception as exc:
            payload["spectral"] = {"failed": str(exc)}
            ok = False
    else:
        payload["spectral"] = {"failed": "stationary distribution unavailable"}

    impact_report = None
    if mm is not None and pi is not None:
        try:
            psi = spectral.conductance if spectral is not None else None
            impact_report = build_impact_report(net, pi, mm.K, psi)
            payload["impact"] = dataclasses.asdict(impact_report)
        except Exception as exc:
            payload["impact"] = {"failed": str(exc)}
            ok = False
    else:
        payload["impact"] = {"failed": "stationary distribution unavailable"}

    if config.replicas > 0 and pi is not None:
        try:
            ens = simulate_ensemble(
                net,
                replicas=config.replicas,
                max_slots=config.max_slots,
                tol=config.tol,
                seed=config.seed,
            )
            payload["simulation"] = _simulation_section(net, pi, ens)
        except Exception as exc:
            payload["simulation"] = {"failed": str(exc)}
            ok = False
    else:
        payload["simulation"] = None

    if spectral is not None and impact_report is not None:
        payload["verdicts"] = _verdicts(spectral, impact_report)
    else:
        payload["verdicts"] = {"failed": "analysis incomplete"}

    return payload, ok, impact_report
