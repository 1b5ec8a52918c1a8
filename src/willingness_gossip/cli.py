"""Command line interface: validate, simulate, analyze.

Every flag can also be set through an environment variable named after it
with the ``WG_`` prefix (``--max-slots`` -> ``WG_MAX_SLOTS``); explicit
flags win, and a variable's value must pass the flag's own checks.
Exit codes: 0 ok, 1 IO/parse failure, 2 invalid network (or invalid
arguments), 3 no replica converged, 4 partial analysis failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .errors import NetworkFormatError
from .gossip import run_replica, simulate_ensemble, write_trace_csv
from .impact import render_impact_csv
from .network import load_network, validate_network
from .report import RunConfig, analyze, render_json
from .spectral import DEFAULT_MIXING_THRESHOLD

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INVALID = 2
EXIT_NO_CONVERGENCE = 3
EXIT_PARTIAL = 4


def _env(name: str, cast, fallback):
    raw = os.environ.get(f"WG_{name}")
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except ValueError as exc:
        raise SystemExit(f"invalid value for WG_{name}: {raw!r} ({exc})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wgossip",
        description="Willingness-diffusion analysis for acquaintance networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, simulation: bool):
        p.add_argument(
            "--network",
            default=_env("NETWORK", str, None),
            required=_env("NETWORK", str, None) is None,
            help="path to the network JSON document",
        )
        if simulation:
            p.add_argument("--replicas", type=int, default=_env("REPLICAS", int, 1000))
            p.add_argument("--max-slots", type=int, default=_env("MAX_SLOTS", int, 10**6))
            p.add_argument("--tol", type=float, default=_env("TOL", float, 1e-6))
            p.add_argument("--seed", type=int, default=_env("SEED", int, 0))

    p_validate = sub.add_parser("validate", help="check the network invariants")
    add_common(p_validate, simulation=False)

    p_sim = sub.add_parser("simulate", help="run a replica ensemble")
    add_common(p_sim, simulation=True)
    p_sim.add_argument("--trace", default=_env("TRACE", str, None), help="write replica 0's trace CSV here")

    p_an = sub.add_parser("analyze", help="full spectral/impact report")
    add_common(p_an, simulation=True)
    p_an.add_argument(
        "--mixing-threshold",
        type=float,
        default=_env("MIXING_THRESHOLD", float, DEFAULT_MIXING_THRESHOLD),
    )
    p_an.add_argument(
        "--conductance",
        choices=["exact", "skip"],
        default=_env("CONDUCTANCE", str, None),
        help="subset-enumeration mode (default: exact up to n=20, then skip)",
    )
    p_an.add_argument("--format", choices=["json", "csv"], default=_env("FORMAT", str, "json"))
    p_an.add_argument("--out", default=_env("OUT", str, None), help="output path (default stdout)")
    p_an.add_argument("--trace", default=_env("TRACE", str, None), help="write replica 0's trace CSV here")
    return parser


def _load(path: str):
    try:
        return load_network(path), None
    except OSError as exc:
        return None, f"cannot read network file: {exc}"
    except NetworkFormatError as exc:
        return None, f"network parse error: {exc}"


def _check_args(parser: argparse.ArgumentParser, args) -> str | None:
    # argparse checks choices only for flags on the command line; a WG_*
    # value arrives as a default, so it is checked here against the same list.
    command = next(a for a in parser._actions if a.dest == "command").choices[args.command]
    for action in command._actions:
        value = getattr(args, action.dest, None)
        if action.choices and value is not None and value not in action.choices:
            choices = ", ".join(action.choices)
            return f"invalid value for WG_{action.dest.upper()}: {value!r} (choose from {choices})"
    if getattr(args, "replicas", 1) < 1:
        return "--replicas must be >= 1"
    if getattr(args, "tol", 1.0) <= 0:
        return "--tol must be positive"
    thr = getattr(args, "mixing_threshold", DEFAULT_MIXING_THRESHOLD)
    if not (0.0 < thr < 2.0):
        return "--mixing-threshold must lie in (0, 2)"
    return None


def cmd_validate(args) -> int:
    net, err = _load(args.network)
    if net is None:
        print(err, file=sys.stderr)
        return EXIT_PARSE
    report = validate_network(net)
    if report.ok:
        print(f"network OK: n={net.n}, edges={len(net.edge_list())}, delta={net.delta}")
        return EXIT_OK
    for violation in report.violations:
        print(f"violation: {violation}")
    return EXIT_INVALID


def cmd_simulate(args) -> int:
    net, err = _load(args.network)
    if net is None:
        print(err, file=sys.stderr)
        return EXIT_PARSE
    report = validate_network(net)
    if not report.ok:
        for violation in report.violations:
            print(f"violation: {violation}")
        return EXIT_INVALID

    ens = simulate_ensemble(net, replicas=args.replicas, max_slots=args.max_slots, tol=args.tol, seed=args.seed)
    print(f"replicas: {ens.replicas}")
    print(f"converged: {ens.converged_count} ({100.0 * ens.convergence_rate:.2f}%)")
    if ens.converged_count:
        print(f"mean converged willingness: {ens.mean:.12g}")
        print(f"standard error: {ens.stderr:.12g}")
    print(f"mean slots: {ens.mean_slots:.1f}, max slots: {ens.max_slots_used}")

    if args.trace:
        trace = run_replica(
            net,
            max_slots=args.max_slots,
            tol=args.tol,
            seed=np.random.SeedSequence(entropy=args.seed, spawn_key=(0,)),
        )
        write_trace_csv(args.trace, trace)
        print(f"trace written to {args.trace}")

    return EXIT_OK if ens.converged_count > 0 else EXIT_NO_CONVERGENCE


def cmd_analyze(args) -> int:
    net, err = _load(args.network)
    if net is None:
        print(err, file=sys.stderr)
        return EXIT_PARSE
    report = validate_network(net)
    if not report.ok:
        for violation in report.violations:
            print(f"violation: {violation}")
        return EXIT_INVALID

    config = RunConfig(
        command="analyze",
        network=args.network,
        replicas=args.replicas,
        max_slots=args.max_slots,
        tol=args.tol,
        seed=args.seed,
        mixing_threshold=args.mixing_threshold,
        conductance_mode=args.conductance,
        format=args.format,
        out=args.out,
        trace=args.trace,
    )
    payload, ok, impact_report = analyze(net, config)

    if args.format == "json":
        text, what = render_json(payload), "report"
    elif impact_report is None:
        print("impact analysis failed; no CSV to write", file=sys.stderr)
        return EXIT_PARTIAL
    else:
        text, what = render_impact_csv(impact_report), "impact table"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"{what} written to {args.out}")
    else:
        sys.stdout.write(text)

    if args.trace:
        trace = run_replica(
            net,
            max_slots=args.max_slots,
            tol=args.tol,
            seed=np.random.SeedSequence(entropy=args.seed, spawn_key=(0,)),
        )
        write_trace_csv(args.trace, trace)

    return EXIT_OK if ok else EXIT_PARTIAL


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    problem = _check_args(parser, args)
    if problem:
        parser.error(problem)
    if args.command == "validate":
        return cmd_validate(args)
    if args.command == "simulate":
        return cmd_simulate(args)
    return cmd_analyze(args)


if __name__ == "__main__":
    sys.exit(main())
