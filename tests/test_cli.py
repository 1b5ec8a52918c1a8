import copy
import functools
import json
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from willingness_gossip import report
from willingness_gossip.cli import main
from willingness_gossip.errors import NumericalError
from willingness_gossip.fixtures import cycle, random_network, two_node_influencer
from willingness_gossip.network import MAX_N, serialize_network
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
        ['{"n": ' + "9" * 5000 + "}", "[" * 100000],
        ids=["integer-over-digit-limit", "nested-too-deeply"],
    )
    def test_json_beyond_parser_limits_is_parse_error(self, tmp_path, capsys, text):
        path = tmp_path / "limits.json"
        path.write_text(text, encoding="utf-8")
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


@settings(max_examples=60, deadline=None)
@given(mutations=st.lists(st.tuples(st.sampled_from(FIELDS), JSON_VALUES | st.just(DELETE)), min_size=1, max_size=3))
def test_malformed_document_ends_in_documented_exit_code(tmp_path_factory, mutations):
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
    path = tmp_path_factory.getbasetemp() / "malformed.json"
    path.write_text(json.dumps(doc), encoding="utf-8")  # NaN / Infinity tokens included
    rc = main(["validate", "--network", str(path)])
    code = main(["analyze", "--network", str(path), "--replicas", "2", "--max-slots", "5000"])
    assert rc in (0, 1, 2)
    assert code == rc if rc else code in (0, 4)
    if doc.get("n") in (MAX_N, MAX_N + 1):
        # a w0 of at most 4 entries cannot match n: refused before any n x n array
        assert rc == 1
