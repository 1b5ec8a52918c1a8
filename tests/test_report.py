"""``report.render_json`` against the two-pass reference renderer, byte for byte."""

import gc
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from test_network_oracle import CORPUS

from willingness_gossip import report
from willingness_gossip.errors import NumericalError
from willingness_gossip.fixtures import barbell, bridged_clusters, random_network, two_node_influencer
from willingness_gossip.impact import TIER_INCENTIVIZE, round12
from willingness_gossip.report import RunConfig, analyze, render_json


def payload_of(net, replicas, network="mem"):
    return analyze(net, RunConfig(command="analyze", network=network, replicas=replicas))[0]


@pytest.mark.parametrize("replicas", [0, 3])
@pytest.mark.parametrize("net", [net for _, net in CORPUS], ids=[label for label, _ in CORPUS])
def test_corpus_reports_match_reference(reference_render_json, net, replicas):
    payload = payload_of(net, replicas)
    assert render_json(payload) == reference_render_json(payload)


def test_corpus_verdicts_quote_the_rendered_numbers_and_the_incentivized_clients():
    """The verdict's note spells ``gap`` and ``bound_expectation`` as the report writes them."""
    checked = 0
    for label, net in CORPUS:
        payload = payload_of(net, 0)
        verdicts, spectral = payload["verdicts"], payload["spectral"]
        if "failed" in verdicts:
            assert "failed" in spectral or "failed" in payload["impact"], label
            continue
        note = verdicts["insurability"]
        assert f"(gap {report._float_text(spectral['gap'])})" in note, label
        if spectral["bound_expectation"] is not None:
            assert note.endswith(report._float_text(spectral["bound_expectation"])), label
        incentivized = [r.node for r in payload["impact"]["ranking"] if r.tier == TIER_INCENTIVIZE]
        assert verdicts["top_clients"] == incentivized, label
        checked += 1
    assert checked >= 10


@pytest.mark.parametrize("replicas", [0, 3])
def test_bridge_closed_form_report_matches_reference(reference_render_json, replicas):
    payload = payload_of(bridged_clusters(5, 6, influence=0.5), replicas)
    assert payload["impact"]["thm6"] is not None
    assert render_json(payload) == reference_render_json(payload)


@pytest.mark.parametrize("builder", ["stationary_distribution", "build_spectral_report", "build_impact_report", "simulate_ensemble"])
def test_failed_sections_match_reference(reference_render_json, monkeypatch, builder):
    def fail(*args, **kwargs):
        raise NumericalError("injected")

    monkeypatch.setattr(report, builder, fail)
    payload = payload_of(two_node_influencer(), 3)
    assert any(isinstance(section, dict) and "failed" in section for section in payload.values())
    assert render_json(payload) == reference_render_json(payload)


EDGE_VALUES = {
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "negative zero": -0.0,
    "subnormal": 5e-324,
    "above 2**53": 2**53 + 1,
    "float32": np.float32(0.1),
    "int64": np.int64(-7),
    "empty list": [],
    "empty dict": {},
    "empty array": np.array([]),
    "float array with nan": np.array([1.0, math.nan, -math.inf, 1 / 3]),
    "float32 array": np.array([0.1, 2.5], dtype=np.float32),
    "int matrix": np.arange(6).reshape(2, 3),
    "bool array": np.array([True, False]),
    "tuple": (1, 2.5, "a"),
    "frozenset": frozenset({3, 1, 2}),
    "int keys": {10: "ten", 9: "nine", 1: [True, False, None]},
    "nested": {"b": [{"z": (), "a": {}}], "a": [[]]},
}


@pytest.mark.parametrize("value", EDGE_VALUES.values(), ids=EDGE_VALUES.keys())
def test_edge_values_match_reference(reference_render_json, value):
    payload = {"value": value, "list": [value], "dict": {"k": value}}
    assert render_json(payload) == reference_render_json(payload)


def _doubles_where_the_spellings_differ(rng, count):
    """Random doubles, weighted to where ``repr`` and ``.12g`` spell or round a value apart, both signs."""
    powers = 10.0 ** np.arange(-323, 308)
    magnitudes = np.concatenate([
        [0.0, 5e-324, np.finfo(float).tiny, np.finfo(float).max],
        rng.integers(0, 1 << 64, size=count, dtype=np.uint64).view(np.float64),  # any bit pattern
        rng.integers(1, 1 << 52, size=count, dtype=np.uint64).view(np.float64),  # subnormals
        10.0 ** rng.uniform(11.5, 16.5, size=count),
        np.round(10.0 ** rng.uniform(11.5, 16.5, size=count)),
        rng.integers(0, 1 << 62, size=count).astype(np.float64),
        rng.integers(0, 10**6, size=count).astype(np.float64),
        np.finfo(float).max * (1.0 - rng.uniform(0.0, 1e-9, size=count)),
        *(powers * m for m in (1.0, 9.99999999999949, 9.9999999999995, 9.99999999999951)),
    ])
    magnitudes = magnitudes[np.isfinite(magnitudes)]
    return np.concatenate([magnitudes, -magnitudes]).tolist()


def test_float_text_spells_each_double_as_repr_of_its_rounded_value():
    values = _doubles_where_the_spellings_differ(np.random.default_rng(12), 20000)
    assert len(values) > 280000
    mismatches = [v for v in values if report._float_text(v) != repr(round12(v))]
    assert mismatches == []


def test_int_keys_sort_as_strings():
    assert render_json({10: 0, 9: 0}).index('"10"') < render_json({10: 0, 9: 0}).index('"9"')


def test_non_ascii_network_name_matches_reference(reference_render_json):
    payload = payload_of(two_node_influencer(), 0, network="réseau/\x07ü☃.json")
    text = render_json(payload)
    assert text == reference_render_json(payload)
    assert text.isascii() and '"r\\u00e9seau/\\u0007\\u00fc\\u2603.json"' in text


@pytest.mark.parametrize(
    "value",
    [object(), 1 + 2j, np.bool_(True), np.array(0.0), np.array([1j])],
    ids=["object", "complex", "np.bool_", "0-d array", "complex array"],
)
def test_unserializable_values_raise_type_error(reference_render_json, value):
    with pytest.raises(TypeError):
        reference_render_json({"value": value})
    with pytest.raises(TypeError):
        render_json({"value": value})


def test_render_leaves_no_cyclic_garbage():
    payload = payload_of(random_network(np.random.default_rng(1), 50, extra_edge_prob=8 / 50), 3)
    render_json(payload)
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        render_json(payload)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_analyze_holds_about_three_dense_arrays_at_n200():
    # Wbar, K and the system being solved; LAPACK's copy of the system is
    # allocated outside numpy's tracked memory.  With L kept and each system
    # built from an identity it was about 5.1 n^2 doubles.
    net = random_network(np.random.default_rng(200), 200, extra_edge_prob=8 / 200)
    payload_of(net, 0)
    tracemalloc.start()
    try:
        payload_of(net, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * 200 * 200 * 8


# sha256 of each network's report JSON: every section's value, the ensemble's included, is pinned.
REPORT_SHA256 = {
    "barbell-4": "8110d49652418c484e03408b7ec2aa861b120749d7bf337377f78a8cd366e010",
    "bridged-5-6": "e23256eaec2e804aa3c8bda523b774b0557a527afdd0a328565ab0645b3393b4",
    "random-n50": "e2f628dc9f9630eb2f926a210680b282963ab5c957c52ffdac2a9ee3e21ba268",
}


@pytest.mark.parametrize(
    "label, make_net",
    [
        ("barbell-4", lambda: barbell(4)),
        ("bridged-5-6", lambda: bridged_clusters(5, 6, influence=0.5)),
        ("random-n50", lambda: random_network(np.random.default_rng(1), 50, 8 / 50)),
    ],
)
def test_report_bytes_are_pinned(label, make_net):
    payload = payload_of(make_net(), 40, network="net.json")
    assert hashlib.sha256(render_json(payload).encode("utf-8")).hexdigest() == REPORT_SHA256[label]
