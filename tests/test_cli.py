import argparse
import copy
import dataclasses
import errno
import functools
import json
import math
import operator
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from willingness_gossip import cli, report
from willingness_gossip.cli import main
from willingness_gossip.errors import NetworkFormatError, NumericalError
from willingness_gossip.fixtures import cycle, random_network, two_node_influencer
from willingness_gossip.gossip import replica_seed, run_replica, simulate_ensemble, write_trace_csv
from willingness_gossip.network import MAX_N, parse_network, serialize_network
from willingness_gossip.report import RunConfig, analyze, render_json


def write_net(tmp_path, net, name="net.json"):
    path = tmp_path / name
    path.write_text(serialize_network(net), encoding="utf-8")
    return str(path)


class TestValidateCommand:
    def test_valid_network(self, influencer_pair_path, capsys):
        assert main(["validate", "--network", influencer_pair_path]) == 0
        assert "network OK" in capsys.readouterr().out

    def test_invalid_network(self, tmp_path, capsys):
        doc = json.loads(serialize_network(two_node_influencer()))
        doc["edges"][0]["p"] = 0.9
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", "--network", str(path)]) == 2
        assert "violation" in capsys.readouterr().out

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", "--network", str(tmp_path / "nope.json")]) == 1

    def test_parse_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{", encoding="utf-8")
        assert main(["validate", "--network", str(path)]) == 1
        assert "parse error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "analyze"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_number_is_parse_error(self, tmp_path, capsys, command, value):
        doc = json.loads(serialize_network(two_node_influencer()))
        doc["w0"][0] = value
        doc["edges"][0]["x"] = value
        path = tmp_path / "non_finite.json"
        path.write_text(json.dumps(doc), encoding="utf-8")  # writes NaN / Infinity tokens
        assert main([command, "--network", str(path)]) == 1
        captured = capsys.readouterr()
        assert "must be a finite number" in captured.err
        assert "network OK" not in captured.out

    @pytest.mark.parametrize(
        "text",
        [b'{"n": ' + b"9" * 5000 + b"}", b"[" * 100000, b"\xff\xfe{}"],
        ids=["integer-over-digit-limit", "nested-too-deeply", "not-utf-8"],
    )
    def test_json_beyond_parser_limits_is_parse_error(self, tmp_path, capsys, text):
        path = tmp_path / "limits.json"
        path.write_bytes(text)
        assert main(["validate", "--network", str(path)]) == 1
        err = capsys.readouterr().err
        assert "network parse error" in err
        assert "Traceback" not in err


    @pytest.mark.parametrize("command", ["validate", "analyze"])
    def test_n_above_cap_is_parse_error(self, tmp_path, capsys, command):
        path = tmp_path / "huge.json"
        doc = {"n": MAX_N + 1, "delta": 0.5, "w0": [0] * (MAX_N + 1), "edges": []}
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main([command, "--network", str(path)]) == 1
        err = capsys.readouterr().err
        assert "exceeds the supported maximum" in err
        assert "Traceback" not in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "0.1.0" in capsys.readouterr().out


class TestSimulateCommand:
    def test_regular_pair(self, regular_pair_path, capsys):
        rc = main(["simulate", "--network", regular_pair_path, "--replicas", "20"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "converged: 20 (100.00%)" in out
        assert "mean converged willingness: 0.5" in out
        assert "standard error: 0" in out

    def test_budget_exhaustion_exit_code(self, tmp_path, capsys):
        net = random_network(np.random.default_rng(3), 10)
        path = write_net(tmp_path, net)
        rc = main(["simulate", "--network", path, "--replicas", "5", "--max-slots", "1"])
        assert rc == 3
        assert "converged: 0" in capsys.readouterr().out

    def test_trace_file(self, regular_pair_path, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        rc = main(["simulate", "--network", regular_pair_path, "--replicas", "3", "--trace", str(trace)])
        assert rc == 0
        lines = trace.read_text().splitlines()
        assert lines[0] == "slot,node_0,node_1,spread"

    def test_trace_is_replica_zero_of_the_ensemble(self, tmp_path, capsys):
        net = random_network(np.random.default_rng(12), 12)
        trace = tmp_path / "trace.csv"
        argv = ["simulate", "--network", write_net(tmp_path, net), "--replicas", "3", "--seed", "5"]
        assert main(argv + ["--trace", str(trace)]) == 0
        replica = run_replica(net, max_slots=RunConfig.max_slots, tol=RunConfig.tol, seed=replica_seed(5, 0))
        expected = tmp_path / "expected.csv"
        write_trace_csv(str(expected), replica)
        assert trace.read_bytes() == expected.read_bytes()
        assert replica.value == simulate_ensemble(net, replicas=3, seed=5).values[0]

    def test_env_override(self, regular_pair_path, capsys, monkeypatch):
        monkeypatch.setenv("WG_REPLICAS", "7")
        rc = main(["simulate", "--network", regular_pair_path])
        assert rc == 0
        assert "replicas: 7" in capsys.readouterr().out

    def test_flag_beats_env(self, regular_pair_path, capsys, monkeypatch):
        monkeypatch.setenv("WG_REPLICAS", "7")
        main(["simulate", "--network", regular_pair_path, "--replicas", "4"])
        assert "replicas: 4" in capsys.readouterr().out


class TestAnalyzeCommand:
    def test_influencer_pair_report(self, influencer_pair_path, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main([
            "analyze", "--network", influencer_pair_path, "--replicas", "100",
            "--out", str(out),
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {
            "version", "config", "network", "stationary", "spectral",
            "simulation", "impact", "verdicts",
        }
        assert payload["stationary"]["pi"] == [0.333333333333, 0.666666666667]
        assert payload["stationary"]["cross_residual"] <= 1e-10
        assert (payload["stationary"]["method_primary"], payload["stationary"]["method_check"]) == ("eigen", "perturbation")
        assert payload["spectral"]["performance"] == pytest.approx(1.0 / 6.0, abs=1e-11)
        assert payload["spectral"]["bound_linf"] == 0.25
        assert payload["spectral"]["bound_l2"] == 0.5
        assert payload["spectral"]["gap"] == 1.0
        assert payload["spectral"]["mixing_class"] == "fast"
        assert payload["impact"]["thm7_bound"] == pytest.approx(1.69314718056)
        assert payload["impact"]["exact"] == [-0.166666666667, 0.166666666667]
        assert payload["verdicts"]["top_clients"] == [1]
        assert payload["simulation"]["convergence_rate"] == 1.0

    def test_byte_identical_reruns(self, influencer_pair_path, tmp_path):
        out = tmp_path / "report.json"
        main(["analyze", "--network", influencer_pair_path, "--replicas", "50", "--out", str(out)])
        first = out.read_bytes()
        main(["analyze", "--network", influencer_pair_path, "--replicas", "50", "--out", str(out)])
        assert out.read_bytes() == first

    def test_csv_format(self, influencer_pair_path, tmp_path):
        out = tmp_path / "impact.csv"
        rc = main([
            "analyze", "--network", influencer_pair_path, "--replicas", "10",
            "--format", "csv", "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("node,exact,thm5")
        assert len(lines) == 3

    def test_exact_conductance_over_cap_is_partial_failure(self, tmp_path, capsys):
        path = write_net(tmp_path, cycle(22))
        out = tmp_path / "report.json"
        rc = main([
            "analyze", "--network", path, "--replicas", "2",
            "--conductance", "exact", "--out", str(out),
        ])
        assert rc == 4
        payload = json.loads(out.read_text())
        assert "failed" in payload["spectral"]

    def test_csv_impact_failure_still_writes_trace(self, influencer_pair_path, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise NumericalError("injected")

        monkeypatch.setattr(report, "build_impact_report", fail)
        traces = {}
        for fmt in ("csv", "json"):
            trace = tmp_path / f"t_{fmt}.csv"
            rc = main([
                "analyze", "--network", influencer_pair_path, "--replicas", "2",
                "--format", fmt, "--trace", str(trace),
            ])
            assert rc == 4
            if fmt == "csv":
                assert "impact analysis failed; no CSV to write" in capsys.readouterr().err
            traces[fmt] = trace.read_bytes()
        assert traces["csv"] == traces["json"]

    def test_auto_skip_over_cap(self, tmp_path):
        path = write_net(tmp_path, cycle(22))
        out = tmp_path / "report.json"
        rc = main(["analyze", "--network", path, "--replicas", "2", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["spectral"]["conductance"] is None
        assert payload["impact"]["thm7_bound"] is None

    def test_csv_to_stdout_when_no_out(self, influencer_pair_path, capsys):
        rc = main(["analyze", "--network", influencer_pair_path, "--replicas", "1", "--format", "csv"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "node,exact,thm5,thm5_residual,thm6,thm7_bound,rank,tier"
        assert len(lines) == 3

    def test_stdout_when_no_out(self, influencer_pair_path, capsys):
        rc = main(["analyze", "--network", influencer_pair_path, "--replicas", "5"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == "willingness-gossip-report/1"

    def test_invalid_network_exit(self, tmp_path, capsys):
        doc = json.loads(serialize_network(two_node_influencer()))
        doc["edges"][0]["p"] = 0.5
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["analyze", "--network", str(path)]) == 2

    @pytest.mark.parametrize("name, value", [("FORMAT", "xml"), ("CONDUCTANCE", "bogus")])
    def test_env_value_outside_choices_is_usage_error(self, influencer_pair_path, capsys, monkeypatch, name, value):
        monkeypatch.setenv(f"WG_{name}", value)
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--network", influencer_pair_path, "--replicas", "1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"WG_{name}: {value!r}" in captured.err
        assert captured.out == ""

    def test_bad_env_value_for_a_flag_the_command_lacks_is_ignored(self, influencer_pair_path, monkeypatch):
        monkeypatch.setenv("WG_TOL", "abc")
        assert main(["validate", "--network", influencer_pair_path]) == 0

    def test_bad_env_value_is_usage_error(self, influencer_pair_path, capsys, monkeypatch):
        monkeypatch.setenv("WG_TOL", "abc")
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--network", influencer_pair_path, "--replicas", "1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "WG_TOL" in captured.err and "'abc'" in captured.err
        assert captured.out == ""

    def test_flag_beats_bad_env_value(self, influencer_pair_path, capsys, monkeypatch):
        monkeypatch.setenv("WG_TOL", "abc")
        assert main(["analyze", "--network", influencer_pair_path, "--tol", "1e-6", "--replicas", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["tol"] == 1e-6


@pytest.mark.parametrize(
    "argv, env, flag",
    [
        (["simulate", "--replicas", "0"], {}, "--replicas"),
        (["simulate", "--tol", "0"], {}, "--tol"),
        (["analyze", "--mixing-threshold", "0"], {}, "--mixing-threshold"),
        (["analyze", "--mixing-threshold", "2"], {}, "--mixing-threshold"),
        (["simulate", "--seed", "-1"], {}, "--seed"),
        (["analyze", "--seed", "-1"], {}, "--seed"),
        (["analyze", "--seed", "-1", "--trace", "TRACE"], {}, "--seed"),
        (["simulate", "--tol", "inf"], {}, "--tol"),
        (["simulate", "--tol", "nan"], {}, "--tol"),
        (["simulate"], {"WG_SEED": "-1"}, "--seed"),
        (["analyze"], {"WG_TOL": "inf"}, "--tol"),
        (["analyze"], {"WG_TOL": "nan"}, "--tol"),
        (["simulate", "--replicas", str(cli.MAX_REPLICAS + 1)], {}, "--replicas"),
        (["analyze"], {"WG_REPLICAS": "1000000000000"}, "--replicas"),
    ],
    ids=[
        "replicas-0", "tol-0", "threshold-0", "threshold-2", "seed-negative-simulate", "seed-negative-analyze",
        "seed-negative-analyze-trace", "tol-inf", "tol-nan", "env-seed-negative", "env-tol-inf", "env-tol-nan",
        "replicas-over-cap", "env-replicas-over-memory",
    ],
)
def test_out_of_range_value_is_usage_error(influencer_pair_path, tmp_path, capsys, monkeypatch, argv, env, flag):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    trace = tmp_path / "trace.csv"
    # A small slot budget keeps a check that lets the value through from running long.
    argv = [str(trace) if a == "TRACE" else a for a in argv] + ["--network", influencer_pair_path, "--max-slots", "100"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert flag in captured.err
    assert captured.out == ""
    assert not trace.exists()


@pytest.mark.parametrize(
    "argv, env",
    [
        (["simulate", "--max-slots", "-5"], {}),
        (["simulate", "--max-slots", "0"], {}),
        (["analyze", "--max-slots", "-1"], {}),
        (["simulate"], {"WG_MAX_SLOTS": "0"}),
        (["analyze"], {"WG_MAX_SLOTS": "-1"}),
    ],
    ids=["simulate-negative", "simulate-0", "analyze-negative", "env-simulate-0", "env-analyze-negative"],
)
def test_max_slots_below_one_is_usage_error(influencer_pair_path, tmp_path, capsys, monkeypatch, argv, env):
    # test_out_of_range_value_is_usage_error appends its own --max-slots, which would win
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    out = tmp_path / "report.json"
    argv = argv + ["--network", influencer_pair_path] + (["--out", str(out)] if argv[0] == "analyze" else [])
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--max-slots" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_negative_seed_env_is_ignored_by_validate(influencer_pair_path, monkeypatch):
    monkeypatch.setenv("WG_SEED", "-1")
    assert main(["validate", "--network", influencer_pair_path]) == 0


SUBCOMMANDS = next(a for a in cli.build_parser()._actions if a.dest == "command").choices
# flag -> (its variable, a valid value other than RunConfig's default, that value converted)
VARIABLES = {
    "--network": ("WG_NETWORK", "env.json", "env.json"),
    "--replicas": ("WG_REPLICAS", "7", 7),
    "--max-slots": ("WG_MAX_SLOTS", "9", 9),
    "--tol": ("WG_TOL", "0.5", 0.5),
    "--seed": ("WG_SEED", "3", 3),
    "--mixing-threshold": ("WG_MIXING_THRESHOLD", "1.5", 1.5),
    "--conductance": ("WG_CONDUCTANCE", "skip", "skip"),
    "--format": ("WG_FORMAT", "csv", "csv"),
    "--out": ("WG_OUT", "o.json", "o.json"),
    "--trace": ("WG_TRACE", "t.csv", "t.csv"),
}


@pytest.mark.parametrize(
    "command, action",
    [(name, a) for name, p in SUBCOMMANDS.items() for a in p._actions if a.dest != "help"],
    ids=lambda v: v if isinstance(v, str) else v.option_strings[-1][2:],
)
def test_each_flag_is_read_from_its_variable(tmp_path, monkeypatch, command, action):
    """Only the flag's ``WG_*`` variable is set; the command's ``RunConfig`` holds its value and every other default."""
    for name in [k for k in os.environ if k.startswith("WG_")]:
        monkeypatch.delenv(name)
    seen = []
    for name in ("cmd_validate", "cmd_simulate", "cmd_analyze"):
        monkeypatch.setattr(cli, name, seen.append)
    monkeypatch.chdir(tmp_path)
    flag = action.option_strings[-1]
    variable, text, value = VARIABLES[flag]
    monkeypatch.setenv(variable, text)
    main([command] + ([] if flag == "--network" else ["--network", "net.json"]))
    assert value != getattr(RunConfig, action.dest, None)
    assert seen == [RunConfig(**{"command": command, "network": "net.json", action.dest: value})]


def test_every_default_comes_from_run_config():
    """No option carries a default of its own: a flag left off leaves no attribute, and ``RunConfig`` fills it."""
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    for command in SUBCOMMANDS.values():
        for action in command._actions:
            assert action.default is argparse.SUPPRESS, action.option_strings
            assert action.dest == "help" or action.dest in fields


@pytest.mark.parametrize("target", ["missing-dir", "directory", "parent-is-file"])
@pytest.mark.parametrize(
    "argv, what",
    [
        (["analyze", "--out"], "report"),
        (["analyze", "--format", "csv", "--out"], "impact table"),
        (["analyze", "--trace"], "trace"),
        (["simulate", "--trace"], "trace"),
    ],
    ids=["analyze-out", "analyze-csv-out", "analyze-trace", "simulate-trace"],
)
def test_unwritable_output_is_io_failure(influencer_pair_path, tmp_path, capsys, monkeypatch, argv, what, target):
    def not_called(*args, **kwargs):
        raise AssertionError("the path is checked before any work")

    for name in ("analyze", "simulate_ensemble", "run_replica"):
        monkeypatch.setattr(cli, name, not_called)
    afile = tmp_path / "afile"
    afile.write_text("")
    path, reason = {
        "missing-dir": (tmp_path / "missing" / "out.txt", errno.ENOENT),
        "directory": (tmp_path, errno.EISDIR),
        "parent-is-file": (afile / "out.txt", errno.ENOTDIR),
    }[target]
    rc = main([argv[0], "--network", influencer_pair_path, "--replicas", "2", *argv[1:], str(path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"cannot write {what}: [Errno {reason}] {os.strerror(reason)}")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["analyze", "--out", "{out}", "--trace", "{out}"], ("--out", "--trace")),
        (["analyze", "--out", "{net}"], ("--network", "--out")),
        (["simulate", "--trace", "{net}"], ("--network", "--trace")),
        (["analyze", "--out", "out.json", "--trace", "{out}"], ("--out", "--trace")),
        (["simulate", "--trace", "{link}"], ("--network", "--trace")),
    ],
    ids=[
        "analyze-out-is-trace", "analyze-out-is-network", "simulate-trace-is-network", "relative-and-absolute",
        "hard-link-to-network",
    ],
)
def test_one_file_named_by_two_flags_is_usage_error(tmp_path, capsys, monkeypatch, argv, flags):
    """Unrefused, ``analyze --out F --trace F`` said "report written to F" and left the trace CSV in F."""
    def not_called(*args, **kwargs):
        raise AssertionError("the paths are checked before any work")

    for name in ("load_network", "analyze", "simulate_ensemble", "run_replica"):
        monkeypatch.setattr(cli, name, not_called)
    monkeypatch.chdir(tmp_path)
    net = tmp_path / "net.json"
    net.write_text(serialize_network(two_node_influencer()), encoding="utf-8")
    link = tmp_path / "link.json"
    os.link(net, link)
    out = tmp_path / "out.json"
    argv = [a.format(net=net, out=out, link=link) for a in argv] + ["--network", str(net)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"{flags[0]} and {flags[1]} name the same file" in captured.err
    assert captured.out == ""
    assert net.read_text(encoding="utf-8") == serialize_network(two_node_influencer())
    assert not out.exists()


def test_output_probe_leaves_files_as_it_found_them(tmp_path, capsys):
    kept = tmp_path / "kept.csv"
    kept.write_text("old")
    assert cli._writable(str(kept), "trace")
    assert kept.read_text() == "old"
    new = tmp_path / "new.csv"
    assert cli._writable(str(new), "trace")
    assert not new.exists()
    assert capsys.readouterr().err == ""


class TestReportLibrary:
    def test_zero_replicas_skips_simulation(self, influencer_pair):
        config = RunConfig(command="analyze", network="mem", replicas=0)
        payload, ok, impact = analyze(influencer_pair, config)
        assert ok
        assert payload["simulation"] is None
        assert impact is not None

    def test_one_replica_has_no_z_score(self, influencer_pair):
        config = RunConfig(command="analyze", network="mem", replicas=1)
        payload, ok, _ = analyze(influencer_pair, config)
        sim = payload["simulation"]
        assert ok and sim["converged"] == 1
        assert sim["stderr"] == 0.0
        assert sim["abs_error"] is not None
        assert sim["z_score"] is None
        assert '"z_score": null' in render_json(payload)

    def test_floats_capped_at_12_significant_digits(self, influencer_pair):
        config = RunConfig(command="analyze", network="mem", replicas=0)
        payload, _, _ = analyze(influencer_pair, config)
        text = render_json(payload)
        for token in ("0.3333333333333",):  # 13 significant digits must not appear
            assert token not in text

    @pytest.mark.parametrize("replicas", [0, 3])
    @pytest.mark.parametrize("builder", [
        "build_mean_matrices", "stationary_distribution", "stationary_perturbation",
        "build_spectral_report", "build_impact_report", "simulate_ensemble",
    ])
    def test_failed_section_names_its_reason(self, monkeypatch, builder, replicas):
        def fail(*args, **kwargs):
            raise NumericalError("injected")

        monkeypatch.setattr(report, builder, fail)
        config = RunConfig(command="analyze", network="mem", replicas=replicas)
        payload, ok, impact = analyze(two_node_influencer(), config)
        unavailable = "stationary distribution unavailable"
        if builder.startswith(("build_mean", "stationary")):
            expected = {"stationary": "injected", "spectral": unavailable, "impact": unavailable}
            if replicas:
                expected["simulation"] = unavailable
        elif builder == "build_spectral_report":
            expected = {"spectral": "injected"}
        elif builder == "build_impact_report":
            expected = {"impact": "injected"}
        else:  # the ensemble runs only when replicas are requested
            expected = {"simulation": "injected"} if replicas else {}
        if {"stationary", "spectral", "impact"} & set(expected):
            expected["verdicts"] = "analysis incomplete"

        sections = {name: section for name, section in payload.items() if isinstance(section, dict)}
        failed = {name: section["failed"] for name, section in sections.items() if "failed" in section}
        assert failed == expected
        assert ok == (not expected)
        assert (impact is None) == ("impact" in expected)
        if builder == "build_spectral_report":
            assert json.loads(render_json(payload))["impact"]["thm7_bound"] is None
        if not replicas:
            assert payload["simulation"] is None

    def test_report_embeds_config_and_version(self, influencer_pair):
        config = RunConfig(command="analyze", network="some/path.json", replicas=0, seed=5)
        payload, _, _ = analyze(influencer_pair, config)
        assert payload["config"]["seed"] == 5
        assert payload["config"]["network"] == "some/path.json"
        assert payload["version"] == "willingness-gossip-report/1"


BASE_DOC = json.loads(serialize_network(random_network(np.random.default_rng(2), 3)))
DELETE = object()
FIELDS = [("n",), ("delta",), ("w0",)] + [("w0", k) for k in range(3)]
FIELDS += [("edges", k, key) for k in range(len(BASE_DOC["edges"])) for key in ("from", "to", "p", "x", "y", "z")]
# Arbitrary JSON, plus in-range numbers so that some documents still parse
# or even validate and reach the analysis.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
) | st.floats(0.0, 1.0) | st.integers(-1, 4) | st.sampled_from([MAX_N, MAX_N + 1])


def mutated(mutations) -> dict:
    """A copy of ``BASE_DOC`` with each (field path, value) mutation applied in turn."""
    doc = copy.deepcopy(BASE_DOC)
    for (*parents, key), value in mutations:
        try:
            target = functools.reduce(operator.getitem, parents, doc)
            if value is DELETE:
                del target[key]
            else:
                target[key] = value
        except (KeyError, IndexError, TypeError):
            pass  # an earlier mutation deleted or replaced the parent
    return doc


@settings(max_examples=60, deadline=None)
@given(mutations=st.lists(st.tuples(st.sampled_from(FIELDS), JSON_VALUES | st.just(DELETE)), min_size=1, max_size=3))
def test_malformed_document_ends_in_documented_exit_code(tmp_path_factory, mutations):
    doc = mutated(mutations)
    path = tmp_path_factory.getbasetemp() / "malformed.json"
    path.write_text(json.dumps(doc), encoding="utf-8")  # NaN / Infinity tokens included
    rc = main(["validate", "--network", str(path)])
    code = main(["analyze", "--network", str(path), "--replicas", "2", "--max-slots", "5000"])
    assert rc in (0, 1, 2)
    assert code == rc if rc else code in (0, 4)
    if doc.get("n") in (MAX_N, MAX_N + 1):
        # a w0 of at most 4 entries cannot match n: refused before any n x n array
        assert rc == 1


# The same mutations, plus whole edges and the edge array replaced, so that
# non-object edges and a non-array ``edges`` reach the parser too, and values
# that each column check refuses: non-finite numbers, integers beyond int64 or
# the float range, a bool, and node ids that repeat a pair.
WHOLE_EDGES = [("edges",)] + [("edges", k) for k in range(len(BASE_DOC["edges"]))]
COLUMN_FAULTS = st.sampled_from([math.nan, math.inf, -math.inf, 10**400, 2**63, -(2**64), True]) | st.integers(0, 2)


@settings(max_examples=300, deadline=None)
@given(
    mutations=st.lists(
        st.tuples(st.sampled_from(FIELDS + WHOLE_EDGES), JSON_VALUES | COLUMN_FAULTS | st.just(DELETE)), max_size=3
    )
)
def test_parse_matches_the_per_edge_reference(reference_parse_network, mutations):
    text = json.dumps(mutated(mutations))
    try:
        expected = reference_parse_network(text)
    except NetworkFormatError as exc:
        with pytest.raises(NetworkFormatError) as refused:
            parse_network(text)
        assert str(refused.value) == str(exc)
        return
    net = parse_network(text)
    assert (net.n, np.float64(net.delta).tobytes()) == (expected.n, np.float64(expected.delta).tobytes())
    for name in ("tails", "heads", "p", "x", "y", "z", "w0"):
        assert getattr(net, name).tobytes() == getattr(expected, name).tobytes(), name
