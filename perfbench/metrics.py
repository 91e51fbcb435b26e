"""End-to-end and per-layer metrics of one run.

End-to-end metric names are shared by every workload (one run reports all
of them); what each measures depends on the workload:

=====================  ==================  =====================  ===================
metric                 train               forecast               serve
=====================  ==================  =====================  ===================
``throughput_per_s``   samples/s           member-steps/s         member-steps answered
                                                                  per s of serve loop
``latency_p50_s``      step p50            ensemble p50           fast-tier request p50
``latency_p90_s``      step p90            ensemble p90           fast-tier request p90
=====================  ==================  =====================  ===================

``setup_s`` (median of the run's set-ups) and ``peak_rss_bytes`` apply to all.
Times are reference seconds (see ``refclock``); the detail report adds each
rate measured on the wall clock as ``<rate>.wall`` and the mean reference
scale of the run.  Spans are timed on the same reference clock.
The detail report repeats them under workload-specific names with their
sample counts.  Per-layer metrics are per-operation means (per step, per
ensemble, or per request sent) from the traced operations; a layer the
workload bypasses reads 0.  The serve tier latencies, SLO attainment and
queue waits come from the untraced phase of the traced run, and
``trace.overhead_frac`` compares traced operations with the plain ones
interleaved between them.
"""

from __future__ import annotations

import resource
import statistics

import numpy as np

from repro.perf import forward_flops_per_sample

from .inputs import SERVE_WORKERS
from .stats import percentile
from .tracing import ROOTS

END_TO_END = {"setup_s": "s", "peak_rss_bytes": "bytes",
              "throughput_per_s": "1/s", "latency_p50_s": "s",
              "latency_p90_s": "s"}

#: Workload-specific names of the shared headline metrics.
HEADLINES = {
    "train": ("train.samples_per_s", "samples/s", "train.step"),
    "forecast": ("forecast.member_steps_per_s", "member-steps/s",
                 "forecast.ensemble"),
    "serve": ("serve.member_steps_per_s", "member-steps/s",
              "serve.fast.latency"),
}

#: Per-layer metric -> unit.
PER_LAYER = {
    "data.batch_s": "s",
    "model.forward_s": "s",
    "model.rows_per_forward": "rows",
    "model.attention_s": "s",
    "kernels.rope_s": "s",
    "kernels.attention_core_s": "s",
    "kernels.window_gather_s": "s",
    "nn.swiglu_s": "s",
    "nn.norm_s": "s",
    "diffusion.loss_s": "s",
    "tensor.backward_s": "s",
    "nn.optimizer_s": "s",
    "diffusion.solver_self_s": "s",
    "tensor.flops_fwd": "flop",
    "tensor.flops_bwd": "flop",
    "tensor.gflops_per_s": "Gflop/s",
    "perf.flops_model_ratio": "ratio",
    "tensor.alloc_peak_bytes": "bytes",
    "kernels.plan_cache_hit_frac": "frac",
    "tensor.arena_hit_frac": "frac",
    "serve.admission_s": "s",
    "serve.batch_assembly_s": "s",
    "serve.batch_members_mean": "rows",
    "serve.cache_s": "s",
    "serve.cache_hit_frac": "frac",
    "serve.forwards_per_request": "count",
    "serve.sampler_fast_s": "s",
    "serve.sampler_dpm_s": "s",
    "serve.guardrail_s": "s",
    "serve.dispatch_s": "s",
    "serve.worker_busy_frac": "frac",
    "serve.queue_wait_frac": "frac",
    "serve.queue_wait_mean_s": "s",
    "serve.loop_self_s": "s",
    "serve.standard.latency_p50_s": "s",
    "serve.high.latency_p50_s": "s",
    "serve.slo_attainment": "frac",
    "trace.root_s": "s",
    "trace.remainder_s": "s",
    "trace.overhead_frac": "frac",
}

#: Inclusive-time metrics: metric -> wrapped functions summed.
INCLUSIVE = {
    "data.batch_s": ("SyntheticReanalysis.training_batch",
                     "TrigFlow.training_pair"),
    "model.forward_s": ("Aeris.forward",),
    "model.attention_s": ("MultiHeadAttention.forward",),
    "kernels.rope_s": ("fused_apply_rotary",),
    "kernels.attention_core_s": ("fused_dot_product_attention",),
    "kernels.window_gather_s": ("plan_partition", "plan_merge"),
    "nn.swiglu_s": ("SwiGLU.forward",),
    "nn.norm_s": ("RMSNorm.forward", "AdaLNModulation.forward"),
    "diffusion.loss_s": ("weighted_velocity_loss",),
    "tensor.backward_s": ("Tensor.backward",),
    "nn.optimizer_s": ("AdamW.step", "EMA.update"),
    "serve.admission_s": ("AdmissionQueue.submit",),
    "serve.batch_assembly_s": ("MicroBatcher.next_batch",),
    "serve.cache_s": ("ForecastCache.get", "ForecastCache.put"),
    "serve.sampler_fast_s": ("OneStepForecaster.step_members",),
    "serve.sampler_dpm_s": ("ResidualForecaster.step_members",),
    "serve.guardrail_s": ("ForecastValidator.validate",),
    "serve.dispatch_s": ("ServeWorkerPool.dispatch",),
}

#: Self-time metrics: metric -> wrapped function.
SELF = {
    "diffusion.solver_self_s": "DpmSolver2S.sample_members",
    "serve.loop_self_s": "ForecastService.run",
}


def peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _entry(value, unit, n=None) -> dict:
    out = {"value": value, "unit": unit}
    if n is not None:
        out["n"] = n
    return out


def end_to_end(name: str, setup_times, phase) -> tuple[dict, dict]:
    """``(metrics, details)``: the shared end-to-end metrics, and the same
    numbers under workload-specific names with sample counts."""
    lat = phase.latencies
    values = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_bytes": peak_rss_bytes(),
        "throughput_per_s": phase.units / phase.busy_s,
        "latency_p50_s": percentile(lat, 50),
        "latency_p90_s": percentile(lat, 90),
    }
    metrics = {k: _entry(v, END_TO_END[k]) for k, v in values.items()}
    rate, rate_unit, timing = HEADLINES[name]
    details = {
        "setup_s": _entry(values["setup_s"], "s", len(setup_times)),
        "peak_rss_bytes": _entry(values["peak_rss_bytes"], "bytes", 1),
        rate: _entry(values["throughput_per_s"], rate_unit,
                     phase.attempted),
        f"{rate}.wall": _entry(phase.units / phase.wall_s, rate_unit,
                               phase.attempted),
        "reference_scale": _entry(statistics.mean(phase.scales), "ratio",
                                  len(phase.scales)),
        f"{timing}_p50_s": _entry(values["latency_p50_s"], "s", len(lat)),
        f"{timing}_p90_s": _entry(values["latency_p90_s"], "s", len(lat)),
    }
    if name == "serve":
        details.update(serve_details(phase))
    return metrics, details


def serve_details(phase) -> dict:
    out = {}
    for tier in ("standard", "high"):
        lat = phase.by_tier.get(tier, [])
        out[f"serve.{tier}.latency_p50_s"] = _entry(
            percentile(lat, 50), "s", len(lat))
    out["serve.slo_attainment"] = _entry(
        phase.within_slo / phase.attempted, "frac", phase.attempted)
    return out


def layer_metrics(name: str, untraced, plain, traced, prof, spans, flops,
                  hit_fracs: tuple[float, float], alloc_peak: float,
                  model_config) -> tuple[dict, dict]:
    """``(metrics, reconciliation)`` of one traced run.  Raises
    ``ValueError`` if the counted forward FLOPs differ from the analytic
    model."""
    ops = traced.attempted
    values = {k: 0.0 for k in PER_LAYER}

    def per_op_s(ns: int) -> float:
        return ns / 1e9 / ops

    for metric, fns in INCLUSIVE.items():
        values[metric] = per_op_s(sum(prof.inclusive_ns.get(f, 0)
                                      for f in fns))
    for metric, fn in SELF.items():
        values[metric] = per_op_s(prof.self_ns.get(fn, 0))

    rows = [s.attrs["rows"] for s in spans if s.name == "Aeris.forward"]
    values["model.rows_per_forward"] = sum(rows) / len(rows)
    predicted = forward_flops_per_sample(model_config) * sum(rows)
    values["tensor.flops_fwd"] = flops.forward / ops
    values["tensor.flops_bwd"] = flops.backward / ops
    values["tensor.gflops_per_s"] = flops.total / (prof.root_ns / 1e9) / 1e9
    values["perf.flops_model_ratio"] = flops.forward / predicted
    values["tensor.alloc_peak_bytes"] = alloc_peak
    values["kernels.plan_cache_hit_frac"], values["tensor.arena_hit_frac"] = \
        hit_fracs
    root_name = ROOTS[name]
    values["trace.root_s"] = per_op_s(prof.root_ns)
    values["trace.remainder_s"] = per_op_s(prof.self_ns.get(root_name, 0))
    values["trace.overhead_frac"] = traced.busy_s / plain.busy_s - 1.0

    if name == "serve":
        values.update(_serve_layers(untraced, traced, spans))

    reconciliation = {
        "flops_counted_fwd": flops.forward,
        "flops_model_fwd": predicted,
        "rows": sum(rows),
        "root": root_name,
        "root_ns": prof.root_ns,
        "self_ns": dict(sorted(prof.self_ns.items())),
        "calls": dict(sorted(prof.calls.items())),
    }
    if flops.forward != predicted:
        raise ValueError(f"counted forward FLOPs {flops.forward} != "
                         f"forward_flops_per_sample x {sum(rows)} rows = "
                         f"{predicted}")
    metrics = {k: _entry(v, PER_LAYER[k]) for k, v in values.items()}
    return metrics, reconciliation


def _serve_layers(untraced, traced, spans) -> dict:
    batches = [s.attrs["members"] for s in spans
               if s.name == "MicroBatcher.next_batch" and s.attrs]
    gets = [s.attrs["hit"] for s in spans if s.name == "ForecastCache.get"]
    dispatch = [s for s in spans if s.name == "ServeWorkerPool.dispatch"]
    busy_s = sum(s.end_ns - s.start_ns for s in dispatch) / 1e9
    waits = np.asarray(untraced.queue_waits)
    out = {
        "serve.batch_members_mean": sum(batches) / len(batches),
        "serve.cache_hit_frac": sum(gets) / len(gets),
        "serve.forwards_per_request": (sum(s.attrs["forwards"]
                                           for s in dispatch) / traced.attempted),
        "serve.worker_busy_frac": busy_s / (SERVE_WORKERS
                                            * traced.makespan_s),
        "serve.queue_wait_frac": float((waits > 0).mean()),
        "serve.queue_wait_mean_s": float(waits.mean()),
    }
    for key, entry in serve_details(untraced).items():
        out[key] = entry["value"]
    return out
