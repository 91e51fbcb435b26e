"""One benchmark run: set up, warm up, measure untraced, optionally measure
traced, check outputs, and assemble the result."""

from __future__ import annotations

import os
import platform
import statistics
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager

import numpy as np

from repro import obs
from repro.kernels import plan_cache_stats
from repro.tensor.flops import FlopCounter, count_flops
from repro.tensor.workspace import arena

from . import inputs
from .checks import CheckFailed
from .metrics import PER_LAYER, end_to_end, layer_metrics
from .tracing import ROOTS, TraceError, Tracer, guard, installed, profile
from .workloads import WORKLOADS, Phase

#: Operations run under ``tracemalloc`` for the allocation peak.
ALLOC_OPS = 3


def environment(threads: int, pinned: bool) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name, "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "blas_threads": threads, "pinned_before_numpy": pinned,
            "obs_enabled": obs.is_enabled(),
            "held_out_seed": inputs.HELD_OUT_SEED}


def _lookups() -> tuple[int, int, int, int]:
    plans = plan_cache_stats().values()
    ws = arena().stats()
    return (sum(c["hits"] for c in plans), sum(c["misses"] for c in plans),
            ws["hits"], ws["misses"])


def _frac(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def traced_phase(workload, seconds: float, spans_path: str | None):
    """Alternate plain and traced operations for ``seconds``; the traced
    ones run with every target wrapped and FLOPs counted.  Each traced
    operation repeats the plain one before it where the workload allows,
    so the two phases compare like with like under the same machine
    conditions."""
    tracer, flops = Tracer(workload.clock.ns), FlopCounter()
    plain, traced = Phase(), Phase()
    before = _lookups()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        mark = workload.mark()
        workload.one(plain)
        workload.restore(mark)
        with count_flops(flops), installed(tracer):
            workload.one(traced)
    delta = [a - b for a, b in zip(_lookups(), before)]
    if spans_path is not None:
        tracer.write(spans_path)
    return (plain, traced, tracer.spans, flops,
            (_frac(*delta[:2]), _frac(*delta[2:])))


def alloc_peak(workload) -> float:
    """Mean ``tracemalloc`` peak of :data:`ALLOC_OPS` operations."""
    peaks = []
    tracemalloc.start()
    try:
        for k in range(ALLOC_OPS):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            workload.alloc_op(k)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return statistics.mean(peaks)


class PhaseClock:
    """Wall time of each named phase of a run."""

    def __init__(self):
        self.times: dict[str, float] = {}

    @contextmanager
    def __call__(self, phase: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.times[phase] = time.perf_counter() - t0


def run(name: str, seed: int, seconds: float, trace: bool,
        spans_path: str | None = None) -> tuple[dict, dict]:
    """``(result, report)``: ``result`` is the contract line, ``report``
    the detail (environment, named metrics with sample counts, checks)."""
    if obs.is_enabled():
        raise RuntimeError("repro.obs must stay disabled in timed runs")
    clock = PhaseClock()
    workload = WORKLOADS[name](seed)
    with clock("setup"):
        setup_times = workload.setup()
    with clock("warmup"):
        workload.warmup()
    with clock("measure"):
        untraced = workload.measure(seconds)
    problems: list[str] = []
    report: dict = {"workload": name, "seed": seed, "seconds": seconds,
                    "phase_s": clock.times, "setup_times_s": setup_times}
    metrics, report["end_to_end"] = end_to_end(name, setup_times, untraced)
    attempted, failed = untraced.attempted, untraced.failed
    if trace:
        with clock("traced"):
            plain, traced, spans, flops, fracs = traced_phase(
                workload, seconds / 2, spans_path)
        with clock("alloc"):
            peak = alloc_peak(workload)
        attempted += plain.attempted + traced.attempted
        failed += plain.failed + traced.failed
        problems += guard(name, Counter(s.name for s in spans))
        try:
            prof = profile(spans, ROOTS[name])
            metrics, report["reconciliation"] = layer_metrics(
                name, untraced, plain, traced, prof, spans, flops, fracs, peak,
                workload.model_config())
        except (TraceError, ValueError) as exc:
            problems.append(str(exc))
            metrics = {k: {"value": 0.0, "unit": u}
                       for k, u in PER_LAYER.items()}
    with clock("check"):
        try:
            workload.check()
        except CheckFailed as exc:
            problems.append(str(exc))
    report["problems"] = problems
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, report
