"""The reports of a fixed corpus against their committed renderings in ``tests/golden``, key by key.

A change in a report's bytes fails here with every changed, added or
removed key path and its old and new text.  ``tests/write_golden.py``
rewrites the files from the current code; no test runs it.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest
from conftest import check_verdict_rules, parse_report, value_text
from test_report import REPORT_SHA256

from willingness_gossip.fixtures import barbell, bridged_clusters, complete, cycle, random_network, without_influence
from willingness_gossip.report import RunConfig, analyze, render_json

GOLDEN_DIR = Path(__file__).parent / "golden"

# label -> (network, RunConfig fields).  The first three are the networks of
# REPORT_SHA256; each other one is a case that a report format change moves.
# The weak bridges run no ensemble: 40 replicas would spend the default
# 1e6 slots each, about 5 s, and converge none.
GOLDEN = {
    "barbell-4": (lambda: barbell(4), {"replicas": 40}),
    "bridged-5-6": (lambda: bridged_clusters(5, 6, influence=0.5), {"replicas": 40}),
    "random-n50": (lambda: random_network(np.random.default_rng(1), 50, 8 / 50), {"replicas": 40}),
    "bridged-weak-1e-6": (lambda: bridged_clusters(5, 5, bridge_p=1e-6), {"replicas": 0}),
    "bridged-weak-1e-9": (lambda: bridged_clusters(5, 5, bridge_p=1e-9), {"replicas": 0}),
    "complete-4": (lambda: complete(4), {"replicas": 40}),
    "complete-12": (lambda: complete(12), {"replicas": 40}),
    "random-n12": (lambda: random_network(np.random.default_rng(1), 12, 0.35), {"replicas": 40}),
    "cycle-60": (lambda: cycle(60), {"replicas": 3, "max_slots": 1000}),
    "no-influence-4-5": (lambda: without_influence(bridged_clusters(4, 5, influence=0.5)), {"replicas": 40}),
}


def render_golden(label: str) -> str:
    """The report of corpus network ``label`` as the current code renders it."""
    make_net, fields = GOLDEN[label]
    return render_json(analyze(make_net(), RunConfig(command="analyze", network="net.json", **fields))[0])


def golden_text(label: str) -> str:
    return (GOLDEN_DIR / f"{label}.json").read_text(encoding="utf-8")


def _leaves(value, path=""):
    """Each leaf of a parsed report, an empty container included, as (key path, its text)."""
    if isinstance(value, dict) and value:
        for key, child in value.items():
            yield from _leaves(child, f"{path}.{key}" if path else key)
    elif isinstance(value, list) and value:
        for i, child in enumerate(value):
            yield from _leaves(child, f"{path}[{i}]")
    else:
        yield path, value_text(value)


def key_diff(old: str, new: str) -> list[str]:
    """Every key path where two rendered reports differ, with its old and new text."""
    before, after = dict(_leaves(parse_report(old))), dict(_leaves(parse_report(new)))
    changed = [f"{path}: {text} -> {after[path]}" for path, text in before.items() if after.get(path, text) != text]
    removed = [f"{path}: removed {text}" for path, text in before.items() if path not in after]
    added = [f"{path}: added {text}" for path, text in after.items() if path not in before]
    return changed + removed + added


@pytest.mark.parametrize("label", list(GOLDEN))
def test_report_matches_its_golden_file(label):
    rendered, golden = render_golden(label), golden_text(label)
    if rendered != golden:
        changes = key_diff(golden, rendered) or ["no key path changed: the layout did"]
        pytest.fail(f"{label} differs from tests/golden/{label}.json:\n  " + "\n  ".join(changes), pytrace=False)


@pytest.mark.parametrize("label", list(REPORT_SHA256))
def test_golden_files_of_the_digest_networks_carry_the_pinned_digests(label):
    assert hashlib.sha256(golden_text(label).encode("utf-8")).hexdigest() == REPORT_SHA256[label]


@pytest.mark.parametrize("label", list(GOLDEN))
def test_golden_verdicts_quote_the_rendered_numbers_and_the_incentivized_clients(label):
    assert check_verdict_rules(parse_report(golden_text(label)), label)


def test_key_diff_names_each_changed_added_and_removed_path():
    old = golden_text("complete-4")
    new = (
        old.replace('"mixing_class": "fast",\n    "top', '"mixing_class": "slow",\n    "top')
        .replace('"trace": null\n', '"trace": "t.csv",\n    "verbose": true\n')
        .replace('      0.25,\n      0.25,\n      0.25,\n      0.25\n', '      0.25,\n      0.25,\n      0.5\n')
    )
    assert key_diff(old, new) == [
        'config.trace: null -> "t.csv"',
        "stationary.pi[2]: 0.25 -> 0.5",
        'verdicts.mixing_class: "fast" -> "slow"',
        "stationary.pi[3]: removed 0.25",
        "config.verbose: added true",
    ]
    assert key_diff(old, old) == []
