"""Spans around the library's public functions, installed from outside.

:class:`Tracer` keeps spans in memory (name, start, end, parent span and
optional attributes); :func:`installed` swaps each target attribute for a
timing wrapper and restores the original on exit.  Functions that other
modules import by name (the fused kernels and the window plans) are wrapped
where they are looked up, otherwise the wrapper would never fire.

Self time is a span's duration minus the durations of its direct children.
Times are integer nanoseconds so the self times of every span under a root
sum *exactly* to the root's duration.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

ALL = frozenset({"train", "forecast", "serve"})


@dataclass(frozen=True)
class Target:
    """One wrapped function: ``module[.owner].attr``, and the workloads
    whose traced run must call it (every other workload must not)."""

    name: str
    module: str
    owner: str | None
    attr: str
    runs_on: frozenset
    annotate: Callable | None = None

    def resolve(self):
        holder = importlib.import_module(self.module)
        if self.owner is not None:
            holder = getattr(holder, self.owner)
        return holder


def _rows(args, kwargs, result):
    return {"rows": int(args[1].shape[0])}


def _request_id(args, kwargs, result):
    return {"request_id": args[1].request_id}


def _batch(args, kwargs, result):
    batch = result[0]
    if batch is None:
        return None
    return {"members": batch.n_members,
            "request_ids": [p.request.request_id for p in batch.requests]}


def _cache_hit(args, kwargs, result):
    return {"hit": result is not None}


def _forwards(args, kwargs, result):
    return {"forwards": int(result[2]["forwards"])}


_SERVE = frozenset({"serve"})
_TRAIN = frozenset({"train"})
_DIFFUSION = frozenset({"forecast", "serve"})

#: Every wrapped function.  The first three are the workload roots.
TARGETS = (
    Target("Trainer.train_step", "repro.train.trainer", "Trainer",
           "train_step", _TRAIN),
    Target("ResidualForecaster.ensemble_rollout", "repro.diffusion.sampler",
           "ResidualForecaster", "ensemble_rollout",
           frozenset({"forecast"})),
    Target("ForecastService.run", "repro.serve.service", "ForecastService",
           "run", _SERVE),
    Target("SyntheticReanalysis.training_batch", "repro.data.era5",
           "SyntheticReanalysis", "training_batch", _TRAIN),
    Target("TrigFlow.training_pair", "repro.diffusion.trigflow", "TrigFlow",
           "training_pair", _TRAIN),
    Target("Aeris.forward", "repro.model.aeris", "Aeris", "forward", ALL,
           _rows),
    Target("MultiHeadAttention.forward", "repro.nn.attention",
           "MultiHeadAttention", "forward", ALL),
    Target("fused_apply_rotary", "repro.nn.attention", None,
           "fused_apply_rotary", ALL),
    Target("fused_dot_product_attention", "repro.nn.attention", None,
           "fused_dot_product_attention", ALL),
    Target("plan_partition", "repro.model.blocks", None, "plan_partition",
           ALL),
    Target("plan_merge", "repro.model.blocks", None, "plan_merge", ALL),
    Target("SwiGLU.forward", "repro.nn.swiglu", "SwiGLU", "forward", ALL),
    Target("RMSNorm.forward", "repro.nn.norm", "RMSNorm", "forward", ALL),
    Target("AdaLNModulation.forward", "repro.nn.norm", "AdaLNModulation",
           "forward", ALL),
    Target("weighted_velocity_loss", "repro.train.trainer", None,
           "weighted_velocity_loss", _TRAIN),
    Target("Tensor.backward", "repro.tensor.tensor", "Tensor", "backward",
           _TRAIN),
    Target("AdamW.step", "repro.nn.optim", "AdamW", "step", _TRAIN),
    Target("EMA.update", "repro.nn.optim", "EMA", "update", _TRAIN),
    Target("DpmSolver2S.sample_members", "repro.diffusion.solver",
           "DpmSolver2S", "sample_members", _DIFFUSION),
    Target("ResidualForecaster.step_members", "repro.diffusion.sampler",
           "ResidualForecaster", "step_members", _DIFFUSION),
    Target("OneStepForecaster.step_members", "repro.serve.samplers",
           "OneStepForecaster", "step_members", _SERVE),
    Target("AdmissionQueue.submit", "repro.serve.queue", "AdmissionQueue",
           "submit", _SERVE, _request_id),
    Target("MicroBatcher.next_batch", "repro.serve.batcher", "MicroBatcher",
           "next_batch", _SERVE, _batch),
    Target("ForecastCache.get", "repro.serve.cache", "ForecastCache", "get",
           _SERVE, _cache_hit),
    Target("ForecastCache.put", "repro.serve.cache", "ForecastCache", "put",
           _SERVE),
    Target("ForecastValidator.validate", "repro.serve.guardrails",
           "ForecastValidator", "validate", _SERVE),
    Target("ServeWorkerPool.dispatch", "repro.serve.worker",
           "ServeWorkerPool", "dispatch", _SERVE, _forwards),
)

ROOTS = {"train": "Trainer.train_step",
         "forecast": "ResidualForecaster.ensemble_rollout",
         "serve": "ForecastService.run"}


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int = 0
    parent: int = -1
    attrs: dict | None = None


@dataclass
class Tracer:
    """In-memory span recorder (single-threaded) reading ``clock``, an
    integer-nanosecond clock."""

    clock: Callable[[], int] = time.perf_counter_ns
    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=list)

    def wrap(self, target: Target, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, self.clock
        name, annotate = target.name, target.annotate

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = Span(name, 0, parent=stack[-1] if stack else -1)
            spans.append(span)
            stack.append(index)
            span.start_ns = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end_ns = clock()
                stack.pop()
            if annotate is not None:
                span.attrs = annotate(args, kwargs, result)
            return result

        return wrapper

    def write(self, path: str) -> None:
        """Write every span as one JSON document."""
        with open(path, "w") as fh:
            json.dump([{"name": s.name, "start_ns": s.start_ns,
                        "end_ns": s.end_ns, "parent": s.parent,
                        **({"attrs": s.attrs} if s.attrs else {})}
                       for s in self.spans], fh)


@contextmanager
def installed(tracer: Tracer, targets=TARGETS):
    """Wrap every target for the duration of the block."""
    originals = []
    try:
        for target in targets:
            holder = target.resolve()
            original = (vars(holder)[target.attr]
                        if isinstance(holder, type)
                        else getattr(holder, target.attr))
            originals.append((holder, target.attr, original))
            setattr(holder, target.attr, tracer.wrap(target, original))
        yield tracer
    finally:
        for holder, attr, original in reversed(originals):
            setattr(holder, attr, original)


@dataclass
class Profile:
    """Per-name inclusive/self nanoseconds and call counts of one trace."""

    calls: dict
    inclusive_ns: dict
    self_ns: dict
    root_ns: int


class TraceError(RuntimeError):
    """The trace is inconsistent (bad nesting or unreconciled times)."""


def profile(spans: list, root: str) -> Profile:
    """Aggregate ``spans`` and reconcile them against ``root``.

    Every span must close, nest inside its parent, and descend from a
    ``root`` span; the self times of all spans must then sum exactly to the
    total ``root`` duration.
    """
    child_ns = [0] * len(spans)
    calls: dict = {}
    inclusive: dict = {}
    for span in spans:
        if span.end_ns < span.start_ns:
            raise TraceError(f"{span.name} span never closed")
        if span.parent < 0:
            if span.name != root:
                raise TraceError(f"{span.name} ran outside any {root} span")
        else:
            parent = spans[span.parent]
            if (span.start_ns < parent.start_ns
                    or span.end_ns > parent.end_ns):
                raise TraceError(f"{span.name} escapes its parent "
                                 f"{parent.name}")
            child_ns[span.parent] += span.end_ns - span.start_ns
        calls[span.name] = calls.get(span.name, 0) + 1
        inclusive[span.name] = (inclusive.get(span.name, 0)
                                + span.end_ns - span.start_ns)
    self_ns: dict = {}
    for index, span in enumerate(spans):
        own = span.end_ns - span.start_ns - child_ns[index]
        self_ns[span.name] = self_ns.get(span.name, 0) + own
    root_ns = sum(s.end_ns - s.start_ns for s in spans if s.parent < 0)
    if sum(self_ns.values()) != root_ns:
        raise TraceError(f"self times sum to {sum(self_ns.values())} ns, "
                         f"root spans to {root_ns} ns")
    return Profile(calls, inclusive, self_ns, root_ns)


def guard(workload: str, calls: dict, targets=TARGETS) -> list[str]:
    """Wrapper-guard violations: a target that recorded no call on a
    workload that runs it, or any call on a workload that bypasses it."""
    problems = []
    for target in targets:
        n = calls.get(target.name, 0)
        if workload in target.runs_on and n == 0:
            problems.append(f"{target.name} recorded no calls on {workload}")
        elif workload not in target.runs_on and n:
            problems.append(f"{target.name} recorded {n} calls on "
                            f"{workload}, which bypasses it")
    return problems
