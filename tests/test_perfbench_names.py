"""The library names the benchmark harness looks up must keep resolving.

``perfbench/tracing.py`` wraps each ``(module, attr)`` of ``TARGETS`` with
``getattr`` and no default, and ``perfbench/run.py`` reads the kernel
backend names; a refactor that drops one of them breaks the traced
benchmark without failing any library test.
"""

import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing as module
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads as module
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


def test_every_traced_target_resolves(tracing):
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in tracing.TARGETS if not hasattr(module, attr)]
    assert missing == []


def test_kernel_names_read_by_the_harness_exist():
    from willingness_gossip import kernels

    assert isinstance(kernels.NUMBA_ENABLED, bool)
    assert callable(kernels.backend) and callable(kernels.warmup)


def test_tracer_sees_every_layer(tracing, tmp_path):
    """One small job through every traced layer records a call at each span name.

    A refactor that stops calling a wrapped name through its module would
    otherwise leave that layer's benchmark number at 0 without failing.
    """
    from willingness_gossip import fixtures, gossip, network, report

    path = tmp_path / "net.json"
    path.write_text(network.serialize_network(fixtures.bridged_clusters(3, 4, influence=0.5)), encoding="utf-8")
    tracer = tracing.Tracer()
    with tracer.installed():
        net = network.load_network(str(path))
        assert network.validate_network(net).ok
        payload, ok, _ = report.analyze(net, report.RunConfig(command="analyze", network=str(path), replicas=2))
        report.render_json(payload)
        gossip.simulate_ensemble(net, replicas=1)
        gossip.write_trace_csv(str(tmp_path / "trace.csv"), gossip.run_replica(net))
    assert ok
    calls = tracer.totals()[0]
    # analyze forms no fundamental matrix, so these two spans stay empty.
    idle = {"meanfield.passage", "meanfield.fundamental"}
    silent = sorted({name for _, _, name, _ in tracing.TARGETS if name not in idle and calls[name] == 0})
    assert silent == []


def test_traced_ensemble_counts_every_slot_it_draws(tracing):
    """The ensemble calls the kernel through its module, and the draw counter covers every slot used."""
    from willingness_gossip import fixtures, kernels, report

    net = fixtures.bridged_clusters(3, 4, influence=0.5)
    tracer = tracing.Tracer()
    with tracer.installed():
        payload, ok, _ = report.analyze(net, report.RunConfig(command="analyze", network="net.json", replicas=2))
    assert ok
    assert tracer.totals()[0]["kernels.gossip_chunk"] > 0
    sim = payload["simulation"]
    assert tracer.counts["gossip.slots_drawn"] >= sim["mean_slots"] * sim["replicas"] > 0
    # the draw counter reads the uniforms as the kernel's positional argument 8
    assert list(inspect.signature(kernels.gossip_chunk).parameters).index("uniforms") == 8


def test_trace_write_records_one_span_and_every_row(tracing, tmp_path):
    """The trace export's benchmark numbers come from one span per write and a row counter that matches the file."""
    from willingness_gossip import fixtures, gossip

    trace = gossip.run_replica(fixtures.barbell(4), seed=gossip.replica_seed(5, 0))
    out = tmp_path / "trace.csv"
    tracer = tracing.Tracer()
    with tracer.installed():
        gossip.write_trace_csv(str(out), trace)
    assert [span[0] for span in tracer.spans] == ["gossip.trace_write"]
    assert tracer.counts["gossip.trace_rows"] == len(out.read_text().splitlines()) - 1 == trace.slots.shape[0]


def test_trace_job_traces_replica_zero(workloads, tmp_path):
    """The benchmark's trace job records replica 0 of its ensemble, on the stream ``gossip.replica_seed`` gives it.

    ``run_job`` writes that stream's key by hand, so a change to the
    library's replica key rule must fail here rather than leave the
    benchmark tracing another replica.
    """
    from willingness_gossip import fixtures, gossip, network, report

    path = tmp_path / "net.json"
    path.write_text(network.serialize_network(fixtures.random_network(np.random.default_rng(23), 12)), encoding="utf-8")
    config = report.RunConfig(command="analyze", network=path.name, replicas=1, seed=23)
    ens, trace = workloads.run_job(workloads.Job(0, "trace", "random-n12", 12, path, tmp_path / "trace.csv", config))
    want = gossip.run_replica(network.load_network(str(path)), seed=gossip.replica_seed(23, 0))
    assert trace.value == want.value == ens.values[0]
    assert trace.slots.tolist() == want.slots.tolist()
    assert trace.snapshots.tobytes() == want.snapshots.tobytes()
