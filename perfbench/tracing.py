"""Span recording around the library's public functions, from outside it.

``Tracer.installed()`` replaces each function in ``TARGETS`` at the name
its caller looks it up (``report.build_spectral_report`` is the name
``report.analyze`` calls, ``kernels.gossip_chunk`` the one ``run_replica``
calls) with a wrapper that records a span, and restores the originals on
exit.  Spans stay in memory; the benchmark writes them out when the run
ends.  Per-layer times are self times: a span's duration minus the time
its direct children cover.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from willingness_gossip import gossip, impact, kernels, meanfield, network, report, spectral


def _count_subsets(counts, args, result):
    counts["kernels.conductance_subsets"] += (1 << (args[0].shape[0] - 1)) - 1


def _count_replica(counts, args, result):
    counts["gossip.replica_slots"] += result.slots_used
    counts["gossip.replicas"] += 1
    counts["gossip.converged"] += int(result.converged)


def _count_drawn(counts, args, result):
    counts["gossip.slots_drawn"] += args[8].shape[0]  # the uniforms chunk, one row per slot


def _count_bytes(counts, args, result):
    counts["report.bytes"] += len(result.encode("utf-8"))


def _count_rows(counts, args, result):
    counts["gossip.trace_rows"] += args[1].slots.shape[0]


# (module, attribute its caller looks up, span name, counter hook)
TARGETS = [
    (network, "load_network", "network.load", None),
    (network, "validate_network", "network.validate", None),
    (report, "analyze", "report.analyze", None),
    (report, "build_mean_matrices", "meanfield.mean_matrices", None),
    (report, "stationary_distribution", "meanfield.stationary", None),
    (report, "stationary_perturbation", "meanfield.perturbation", None),
    (report, "build_passage_data", "meanfield.passage", None),
    (meanfield, "fundamental_matrix", "meanfield.fundamental", None),
    (report, "build_spectral_report", "spectral.report", None),
    (spectral, "diameter", "network.diameter", None),
    (spectral, "lambda2_gap", "spectral.lambda2", None),
    (kernels, "conductance_scan", "spectral.conductance", _count_subsets),
    (report, "build_impact_report", "impact.report", None),
    (impact, "edge_partition", "network.edge_partition", None),
    (report, "simulate_ensemble", "gossip.ensemble", None),
    (gossip, "simulate_ensemble", "gossip.ensemble", None),
    (gossip, "run_replica", "gossip.replica", _count_replica),
    (kernels, "gossip_chunk", "kernels.gossip_chunk", _count_drawn),
    (report, "render_json", "report.render", _count_bytes),
    (gossip, "write_trace_csv", "gossip.trace_write", _count_rows),
]


class Tracer:
    """In-memory span and counter store for one benchmark run.

    A span is ``[name, start, end, parent index or -1, job id]``; times
    are ``time.perf_counter()`` seconds.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.job = None
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.job])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for module, attr, name, hook in TARGETS:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, hook))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def totals(self):
        """Per span name: (call count, inclusive seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = Counter()
        incl = defaultdict(float)
        self_time = defaultdict(float)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            incl[name] += end - start
            self_time[name] += end - start - child[idx]
        return calls, incl, self_time
