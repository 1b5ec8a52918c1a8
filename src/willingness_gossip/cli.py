"""Command line interface: validate, simulate, analyze.

Every flag can also be set through an environment variable named after it
with the ``WG_`` prefix (``--max-slots`` -> ``WG_MAX_SLOTS``); explicit
flags win, and a variable's value must pass the flag's own checks (a
variable for a flag the subcommand does not have is ignored).  A flag
absent from both the command line and the environment takes
``RunConfig``'s default.
Exit codes: 0 ok, 1 IO/parse failure, 2 invalid network (or invalid
arguments), 3 no replica converged, 4 partial analysis failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from . import __version__
from .errors import NetworkFormatError
from .gossip import replica_seed, run_replica, simulate_ensemble, write_trace_csv
from .impact import render_impact_csv
from .network import load_network, validate_network
from .report import RunConfig, analyze, render_json

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INVALID = 2
EXIT_NO_CONVERGENCE = 3
EXIT_PARTIAL = 4

# Largest --replicas: the ensemble keeps three per-replica arrays (17 bytes a replica), about 170 MB at the cap.
MAX_REPLICAS = 10**7


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wgossip",
        description="Willingness-diffusion analysis for acquaintance networks",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # A flag left off the command line leaves no attribute; resolve_config fills it.
    commands = {}
    for name, text in (
        ("validate", "check the network invariants"),
        ("simulate", "run a replica ensemble"),
        ("analyze", "full spectral/impact report"),
    ):
        p = commands[name] = sub.add_parser(name, help=text, argument_default=argparse.SUPPRESS)
        p.add_argument("--network", required="WG_NETWORK" not in os.environ, help="path to the network JSON document")
        if name != "validate":
            p.add_argument("--replicas", type=int)
            p.add_argument("--max-slots", type=int)
            p.add_argument("--tol", type=float)
            p.add_argument("--seed", type=int)

    p_an = commands["analyze"]
    p_an.add_argument("--mixing-threshold", type=float)
    p_an.add_argument(
        "--conductance",
        dest="conductance_mode",
        choices=["exact", "skip"],
        help="subset-enumeration mode (default: exact up to n=20, then skip)",
    )
    p_an.add_argument("--format", choices=["json", "csv"])
    p_an.add_argument("--out", help="output path (default stdout)")
    for name in ("simulate", "analyze"):
        commands[name].add_argument("--trace", help="write replica 0's trace CSV here")
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


def _write(path: str, what: str, write) -> bool:
    """Call ``write(path)``; when that raises OSError, say so on stderr and return False."""
    try:
        write(path)
    except OSError as exc:
        print(f"cannot write {what}: {exc}", file=sys.stderr)
        return False
    return True


def _writable(path: str, what: str) -> bool:
    """Whether the OS lets ``path`` be opened for writing; says why not on stderr.

    Probes by opening the file for append, which leaves an existing file
    as it is, and removes the file if the probe created it.  Checked
    before the analysis, so a bad output path fails at once; errors that
    show only when the file is written are left to ``_write``.
    """
    existed = os.path.lexists(path)
    try:
        open(path, "a").close()
    except OSError as exc:
        print(f"cannot write {what}: {exc}", file=sys.stderr)
        return False
    if not existed:
        os.remove(path)
    return True


def _write_trace(net, config: RunConfig) -> bool:
    """Re-run replica 0 of the ensemble with recording and write its trace CSV; False if unwritable."""
    trace = run_replica(net, max_slots=config.max_slots, tol=config.tol, seed=replica_seed(config.seed, 0))
    return _write(config.trace, "trace", lambda path: write_trace_csv(path, trace))


def _emit(out: str | None, text: str, what: str) -> bool:
    """Write ``text`` to the file ``out`` and say so, or to stdout when no file is given; False if unwritable."""
    if not out:
        sys.stdout.write(text)
        return True
    if not _write(out, what, lambda path: Path(path).write_text(text, encoding="utf-8")):
        return False
    print(f"{what} written to {out}")
    return True


def _file_key(path: str):
    """The file ``path`` names: its device and inode when it exists, so hard links match, else its real path."""
    try:
        stat = os.stat(path)
    except OSError:
        return os.path.realpath(path)
    return stat.st_dev, stat.st_ino


def resolve_config(argv=None) -> RunConfig:
    """Parse ``argv`` into the run's ``RunConfig``; a usage error exits 2.

    A flag absent from the command line is read from its ``WG_*``
    variable, converted and checked against the flag's own type and
    choices; a flag absent from both takes ``RunConfig``'s default.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    command = next(a for a in parser._actions if a.dest == "command").choices[args.command]
    for action in command._actions:
        name = "WG_" + action.option_strings[-1][2:].upper().replace("-", "_")
        if action.dest == "help" or action.dest in args or name not in os.environ:
            continue
        text = os.environ[name]
        try:
            value = action.type(text) if action.type else text
        except ValueError:
            parser.error(f"invalid {action.type.__name__} value for {name}: {text!r}")
        if action.choices and value not in action.choices:
            parser.error(f"invalid value for {name}: {text!r} (choose from {', '.join(action.choices)})")
        setattr(args, action.dest, value)
    config = RunConfig(**vars(args))

    if not 1 <= config.replicas <= MAX_REPLICAS:
        parser.error(f"--replicas must lie in [1, {MAX_REPLICAS}]")
    if config.max_slots < 1:
        parser.error("--max-slots must be >= 1")
    if not (0 < config.tol < math.inf):
        parser.error("--tol must be positive and finite")
    if config.seed < 0:
        parser.error("--seed must be >= 0")
    if not (0.0 < config.mixing_threshold < 2.0):
        parser.error("--mixing-threshold must lie in (0, 2)")
    # a file named twice would be overwritten by the later write, or the input by an output
    named = {}
    for flag in ("network", "out", "trace"):
        path = getattr(config, flag)
        if path:
            first = named.setdefault(_file_key(path), flag)
            if first != flag:
                parser.error(f"--{first} and --{flag} name the same file: {path}")
    return config


def cmd_validate(config: RunConfig) -> int:
    net, code = _load_valid(config.network)
    if net is None:
        return code
    print(f"network OK: n={net.n}, edges={net.edges[0].size}, delta={net.delta}")
    return EXIT_OK


def cmd_simulate(config: RunConfig) -> int:
    net, code = _load_valid(config.network)
    if net is None:
        return code
    if config.trace and not _writable(config.trace, "trace"):
        return EXIT_PARSE

    ens = simulate_ensemble(net, replicas=config.replicas, max_slots=config.max_slots, tol=config.tol, seed=config.seed)
    print(f"replicas: {ens.replicas}")
    print(f"converged: {ens.converged_count} ({100.0 * ens.convergence_rate:.2f}%)")
    if ens.converged_count:
        print(f"mean converged willingness: {ens.mean:.12g}")
        print(f"standard error: {ens.stderr:.12g}")
    print(f"mean slots: {ens.mean_slots:.1f}, max slots: {ens.max_slots_used}")

    if config.trace:
        if not _write_trace(net, config):
            return EXIT_PARSE
        print(f"trace written to {config.trace}")

    return EXIT_OK if ens.converged_count > 0 else EXIT_NO_CONVERGENCE


def cmd_analyze(config: RunConfig) -> int:
    net, code = _load_valid(config.network)
    if net is None:
        return code
    what = "report" if config.format == "json" else "impact table"
    if (config.out and not _writable(config.out, what)) or (config.trace and not _writable(config.trace, "trace")):
        return EXIT_PARSE

    payload, ok, impact_report = analyze(net, config)

    if config.format == "json":
        written = _emit(config.out, render_json(payload), what)
    elif impact_report is None:
        print("impact analysis failed; no CSV to write", file=sys.stderr)
        written = True
    else:
        written = _emit(config.out, render_impact_csv(impact_report), what)
    if not written or (config.trace and not _write_trace(net, config)):
        return EXIT_PARSE

    return EXIT_OK if ok else EXIT_PARTIAL


def main(argv=None) -> int:
    config = resolve_config(argv)
    return {"validate": cmd_validate, "simulate": cmd_simulate, "analyze": cmd_analyze}[config.command](config)


if __name__ == "__main__":
    sys.exit(main())
