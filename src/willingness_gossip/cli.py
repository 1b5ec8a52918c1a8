"""Command line interface: validate, simulate, analyze.

Every flag can also be set through an environment variable named after it
with the ``WG_`` prefix (``--max-slots`` -> ``WG_MAX_SLOTS``); explicit
flags win, and a variable's value must pass the flag's own checks (a
variable for a flag the subcommand does not have is ignored).
Exit codes: 0 ok, 1 IO/parse failure, 2 invalid network (or invalid
arguments), 3 no replica converged, 4 partial analysis failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import NamedTuple

import numpy as np

from .errors import NetworkFormatError
from .gossip import run_replica, simulate_ensemble, write_trace_csv
from .impact import render_impact_csv
from .network import load_network, validate_network
from .report import RunConfig, analyze, render_json

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INVALID = 2
EXIT_NO_CONVERGENCE = 3
EXIT_PARTIAL = 4


class EnvValue(NamedTuple):
    """A WG_* variable's text, held as a flag default that argparse leaves unconverted."""

    name: str
    text: str


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wgossip",
        description="Willingness-diffusion analysis for acquaintance networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def env(name, fallback=None):
        return EnvValue(name, os.environ[name]) if name in os.environ else fallback

    def add_common(p, simulation: bool):
        p.add_argument(
            "--network",
            default=env("WG_NETWORK"),
            required="WG_NETWORK" not in os.environ,
            help="path to the network JSON document",
        )
        if simulation:
            p.add_argument("--replicas", type=int, default=env("WG_REPLICAS", RunConfig.replicas))
            p.add_argument("--max-slots", type=int, default=env("WG_MAX_SLOTS", RunConfig.max_slots))
            p.add_argument("--tol", type=float, default=env("WG_TOL", RunConfig.tol))
            p.add_argument("--seed", type=int, default=env("WG_SEED", RunConfig.seed))

    p_validate = sub.add_parser("validate", help="check the network invariants")
    add_common(p_validate, simulation=False)

    p_sim = sub.add_parser("simulate", help="run a replica ensemble")
    add_common(p_sim, simulation=True)
    p_sim.add_argument("--trace", default=env("WG_TRACE"), help="write replica 0's trace CSV here")

    p_an = sub.add_parser("analyze", help="full spectral/impact report")
    add_common(p_an, simulation=True)
    # The analyze namespace holds exactly RunConfig's fields.
    p_an.add_argument("--mixing-threshold", type=float, default=env("WG_MIXING_THRESHOLD", RunConfig.mixing_threshold))
    p_an.add_argument(
        "--conductance",
        dest="conductance_mode",
        choices=["exact", "skip"],
        default=env("WG_CONDUCTANCE"),
        help="subset-enumeration mode (default: exact up to n=20, then skip)",
    )
    p_an.add_argument("--format", choices=["json", "csv"], default=env("WG_FORMAT", RunConfig.format))
    p_an.add_argument("--out", default=env("WG_OUT"), help="output path (default stdout)")
    p_an.add_argument("--trace", default=env("WG_TRACE"), help="write replica 0's trace CSV here")
    return parser


def _load_valid(path: str):
    """Load and validate a network; returns (net, EXIT_OK) or (None, exit code).

    Says why on failure: a read or parse error on stderr, each violation
    on stdout.
    """
    try:
        net = load_network(path)
    except OSError as exc:
        print(f"cannot read network file: {exc}", file=sys.stderr)
        return None, EXIT_PARSE
    except NetworkFormatError as exc:
        print(f"network parse error: {exc}", file=sys.stderr)
        return None, EXIT_PARSE
    report = validate_network(net)
    for violation in report.violations:
        print(f"violation: {violation}")
    return (net, EXIT_OK) if report.ok else (None, EXIT_INVALID)


def _write_trace(net, args) -> None:
    """Re-run replica 0 of the ensemble with recording and write its trace CSV."""
    trace = run_replica(
        net,
        max_slots=args.max_slots,
        tol=args.tol,
        seed=np.random.SeedSequence(entropy=args.seed, spawn_key=(0,)),
    )
    write_trace_csv(args.trace, trace)


def _check_args(parser: argparse.ArgumentParser, args) -> str | None:
    # A WG_* value left as the default of a flag the chosen subcommand has
    # is converted and checked here, against the flag's own type and choices.
    command = next(a for a in parser._actions if a.dest == "command").choices[args.command]
    for action in command._actions:
        value = getattr(args, action.dest, None)
        if not isinstance(value, EnvValue):
            continue
        try:
            converted = action.type(value.text) if action.type else value.text
        except ValueError:
            return f"invalid {action.type.__name__} value for {value.name}: {value.text!r}"
        if action.choices and converted not in action.choices:
            choices = ", ".join(action.choices)
            return f"invalid value for {value.name}: {value.text!r} (choose from {choices})"
        setattr(args, action.dest, converted)
    if getattr(args, "replicas", 1) < 1:
        return "--replicas must be >= 1"
    if getattr(args, "tol", 1.0) <= 0:
        return "--tol must be positive"
    thr = getattr(args, "mixing_threshold", RunConfig.mixing_threshold)
    if not (0.0 < thr < 2.0):
        return "--mixing-threshold must lie in (0, 2)"
    return None


def cmd_validate(args) -> int:
    net, code = _load_valid(args.network)
    if net is None:
        return code
    print(f"network OK: n={net.n}, edges={len(net.edge_list())}, delta={net.delta}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    net, code = _load_valid(args.network)
    if net is None:
        return code

    ens = simulate_ensemble(net, replicas=args.replicas, max_slots=args.max_slots, tol=args.tol, seed=args.seed)
    print(f"replicas: {ens.replicas}")
    print(f"converged: {ens.converged_count} ({100.0 * ens.convergence_rate:.2f}%)")
    if ens.converged_count:
        print(f"mean converged willingness: {ens.mean:.12g}")
        print(f"standard error: {ens.stderr:.12g}")
    print(f"mean slots: {ens.mean_slots:.1f}, max slots: {ens.max_slots_used}")

    if args.trace:
        _write_trace(net, args)
        print(f"trace written to {args.trace}")

    return EXIT_OK if ens.converged_count > 0 else EXIT_NO_CONVERGENCE


def cmd_analyze(args) -> int:
    net, code = _load_valid(args.network)
    if net is None:
        return code

    payload, ok, impact_report = analyze(net, RunConfig(**vars(args)))

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
        _write_trace(net, args)

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
