#!/usr/bin/env python3
"""Benchmark the compiled kernels against their fallback paths.

Times the gossip meeting decoder (numpy, shared by both backends), the
slot loop that applies the meetings (numba njit on arrays vs Python on
lists) and the exact-conductance scan (njit gray-code vs vectorized numpy)
on the same inputs, then prints per-kernel timings and speedups.  Run
after ``pip install -e .`` (``.[fast]`` for the numba paths):

    python3 benchmarks/bench_kernels.py [--slots N] [--conductance-n N]
"""

import argparse
import time

import numpy as np

from willingness_gossip import kernels
from willingness_gossip.fixtures import barbell, random_network
from willingness_gossip.gossip import build_sampler
from willingness_gossip.meanfield import build_mean_matrices


def time_call(fn, *args, repeats=3):
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, result


def bench_gossip(slots: int):
    net = random_network(np.random.default_rng(1), 12)
    sampler = build_sampler(net)
    uniforms = np.random.default_rng(2).random((slots, 3))
    t_decode, (i, j, kind) = time_call(kernels.decode_meetings, *sampler, net.x, net.y, uniforms)
    rec = np.zeros((1, net.n))

    def run(apply_fn):
        w = net.w0.copy()
        # negative tol: the loop never exits early, both paths do identical work
        return apply_fn(
            w, i, j, kind, float(w.max()), float(w.min()), float(net.delta), -1.0, 0, slots,
            float(w.max() - w.min()), 0, rec, np.zeros(1), np.zeros(1, dtype=np.int64), 0,
        )

    if kernels.NUMBA_ENABLED:
        kernels.warmup()
        t_jit, out_jit = time_call(run, kernels._apply)
    else:
        t_jit, out_jit = None, None
    t_py, out_py = time_call(run, kernels._apply_meetings_lists, repeats=1)
    if out_jit is not None:
        assert out_jit == out_py, "paths disagree"
    return t_decode, t_jit, t_py


def bench_conductance(n: int):
    K = build_mean_matrices(barbell(n // 2)).K if n % 2 == 0 else build_mean_matrices(random_network(np.random.default_rng(3), n)).K
    if kernels.NUMBA_ENABLED:
        kernels.warmup()
        t_jit, psi_jit = time_call(kernels.conductance_scan, K)
    else:
        t_jit, psi_jit = None, None
    t_np, psi_np = time_call(kernels._conductance_numpy, K)
    if psi_jit is not None:
        assert abs(psi_jit - psi_np) <= 1e-9 * max(abs(psi_np), 1.0), "paths disagree on conductance"
    return t_jit, t_np


def fmt(seconds):
    return "n/a" if seconds is None else f"{seconds * 1e3:10.2f} ms"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--slots", type=int, default=2_000_000, help="gossip slots to simulate")
    parser.add_argument("--conductance-n", type=int, default=18, help="chain size for the subset scan")
    args = parser.parse_args()

    print(f"active backend: {kernels.backend()}")
    print(f"(set WG_NO_NUMBA=1 to force the fallback backend)\n")

    t_decode, t_jit, t_py = bench_gossip(args.slots)
    print(f"gossip loop, {args.slots} slots on a 12-node network")
    print(f"  decode     : {fmt(t_decode)}")
    print(f"  numba njit : {fmt(t_jit)}")
    print(f"  python     : {fmt(t_py)}")
    if t_jit:
        print(f"  speedup    : {t_py / t_jit:10.1f} x")

    t_jit, t_np = bench_conductance(args.conductance_n)
    print(f"\nconductance scan, n={args.conductance_n} ({2 ** (args.conductance_n - 1) - 1} subsets)")
    print(f"  numba njit : {fmt(t_jit)}")
    print(f"  numpy      : {fmt(t_np)}")
    if t_jit:
        print(f"  speedup    : {t_np / t_jit:10.1f} x")


if __name__ == "__main__":
    main()
