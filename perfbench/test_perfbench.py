"""Tests of the benchmark code: seeded inputs, metric names, output checks
and the span bookkeeping.  Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import os
import re
from collections import Counter

import numpy as np
import pytest

from perfbench import inputs, refclock
from perfbench.checks import (CheckFailed, array_digest, check_conservation,
                              check_digest, check_train)
from perfbench.metrics import END_TO_END, HEADLINES, PER_LAYER
from perfbench.stats import percentile, samples_for_tail, tail_supported
from perfbench.tracing import (ALL, TARGETS, Target, TraceError, Tracer,
                               guard, installed, profile)

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TEST = np.arange(700, 990)


# -- seeded inputs -----------------------------------------------------------
def test_seeds_are_deterministic_and_distinct():
    assert inputs.derive_seeds(3) == inputs.derive_seeds(3)
    assert inputs.derive_seeds(3) != inputs.derive_seeds(4)
    assert inputs.HELD_OUT_SEED not in range(100)


def test_serve_round_is_deterministic_per_seed():
    assert inputs.serve_round(7, 2, TEST) == inputs.serve_round(7, 2, TEST)
    assert inputs.serve_round(7, 2, TEST) != inputs.serve_round(8, 2, TEST)
    assert inputs.serve_round(7, 2, TEST) != inputs.serve_round(7, 3, TEST)


def test_serve_round_mix_and_repeats():
    specs = inputs.serve_round(5, 0, TEST)
    assert len(specs) == inputs.ROUND_SIZE
    assert Counter((s.tier, s.members) for s in specs) == \
        Counter(inputs.ROUND_DECK)
    tiers = Counter(s.tier for s in specs)
    assert {t: n / len(specs) for t, n in tiers.items()} == \
        {"fast": 0.5, "standard": 0.4, "high": 0.1}
    assert sum(s.repeat_of is not None for s in specs) == len(specs) // 2
    offsets = [s.offset_s for s in specs]
    assert offsets == sorted(offsets) and offsets[0] > 0
    sources = [s.repeat_of for s in specs if s.repeat_of is not None]
    assert len(set(sources)) == len(sources)
    by_id = {s.request_id: s for s in specs}
    for spec in specs:
        if spec.repeat_of is not None:
            source = by_id[spec.repeat_of]
            assert source.repeat_of is None and source.tier == spec.tier
            assert specs.index(source) < specs.index(spec)
            assert (source.start_index, source.member_seed,
                    source.members) == (spec.start_index, spec.member_seed,
                                        spec.members)
            assert (source.lead, spec.lead) == (inputs.FRESH_LEAD,
                                                inputs.REPEAT_LEAD)
        assert spec.start_index in TEST[:-inputs.REPEAT_LEAD]


def test_ensemble_inputs_are_deterministic_per_seed():
    def first(seed, n=20):
        stream = inputs.ensemble_inputs(seed, TEST)
        return [next(stream) for _ in range(n)]

    assert first(1) == first(1)
    assert first(1) != first(2)
    assert all(start in TEST[:-inputs.ENSEMBLE_LEAD] for start, _ in first(1))


# -- metric names ------------------------------------------------------------
def test_metric_names_and_units_are_well_formed():
    details = [h[0] for h in HEADLINES.values()] + [
        f"{h[2]}_p{q}_s" for h in HEADLINES.values() for q in (50, 90)]
    for name in [*END_TO_END, *PER_LAYER, *details]:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    for unit in [*END_TO_END.values(), *PER_LAYER.values()]:
        assert UNIT.fullmatch(unit), unit


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == {"train", "forecast",
                                                      "serve"}
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")


# -- reference clock ---------------------------------------------------------
class FakeCpu:
    """``process_time`` advancing ``step`` seconds per reading."""

    def __init__(self, step: float):
        self.now, self.step = 0.0, step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


def test_reference_clock_scales_cpu_time_to_reference_seconds(monkeypatch):
    # Every reference op reads 2x REFERENCE_S: the machine runs at half
    # the reference speed, so a CPU second is half a reference second.
    cpu = FakeCpu(2 * refclock.REFERENCE_S)
    monkeypatch.setattr(refclock.time, "process_time", cpu)
    clock = refclock.ReferenceClock()
    assert clock.scale == pytest.approx(0.5)
    assert len(clock.samples) >= refclock.INITIAL_S / (
        2 * refclock.REFERENCE_S)
    t0 = clock()
    cpu.now += 3.0
    assert clock() - t0 == pytest.approx(1.5 + cpu.step / 2)
    # The machine speeds up: only the last WINDOW samples set the scale,
    # and the clock stands still while they run.
    t0 = clock()
    cpu.step = refclock.REFERENCE_S / 2
    clock.calibrate(refclock.WINDOW * refclock.REFERENCE_S
                    / refclock.SHARE)
    assert clock.scale == pytest.approx(2.0)
    # Only the ticks of the two readings around it count, one at each scale.
    assert clock() - t0 == pytest.approx(cpu.step * 0.5 + cpu.step * 2.0)


# -- percentiles -------------------------------------------------------------
def test_p90_needs_ten_samples_beyond_it():
    assert samples_for_tail(90) == 100
    assert tail_supported(np.arange(100.0), 90)
    assert not tail_supported(np.arange(60.0), 90)
    with pytest.raises(ValueError):
        percentile(np.arange(60.0), 90)
    assert percentile(np.arange(101.0), 50) == 50.0


# -- output checks fire on corrupted outputs ---------------------------------
def _losses(n=60):
    return list(np.linspace(1.0, 0.8, n))


def test_train_check_accepts_a_good_run():
    losses = _losses()
    check_train(losses, losses[:8])


@pytest.mark.parametrize("corrupt", ["nan", "replica", "flat", "short"])
def test_train_check_fires(corrupt):
    losses, replica = _losses(), _losses()[:8]
    if corrupt == "nan":
        losses[30] = float("nan")
    elif corrupt == "replica":
        replica[3] = np.nextafter(replica[3], 2.0)
    elif corrupt == "flat":
        losses = list(np.linspace(0.8, 1.0, 60))
    else:
        losses = losses[:30]
    with pytest.raises(CheckFailed):
        check_train(losses, replica)


def test_digest_check_fires_on_one_flipped_bit():
    out = np.random.default_rng(0).normal(size=(2, 2, 4, 4, 3)).astype(
        np.float32)
    check_digest("ok", array_digest(out), out.copy())
    bad = out.copy()
    bad.view(np.uint32)[0, 1, 2, 3, 1] ^= 1
    with pytest.raises(CheckFailed):
        check_digest("flipped", array_digest(out), bad)
    with pytest.raises(CheckFailed):
        check_digest("dtype", array_digest(out), out.astype(np.float64))


def test_conservation_check_fires_on_a_lost_request():
    tally = {"submitted": 10, "accepted": 10, "rejected": 1, "completed": 8,
             "timeout": 0, "failed": 1}
    check_conservation(tally)
    with pytest.raises(CheckFailed):
        check_conservation({**tally, "completed": 7})


# -- spans -------------------------------------------------------------------
class _Toy:
    def outer(self, n):
        return sum(self.inner(k) for k in range(n))

    def inner(self, k):
        return k


_TOY = (Target("_Toy.outer", __name__, "_Toy", "outer", frozenset({"a"})),
        Target("_Toy.inner", __name__, "_Toy", "inner", frozenset({"a"})))


def test_wrappers_record_nested_spans_and_restore_originals():
    before = dict(vars(_Toy))
    tracer = Tracer()
    with installed(tracer, _TOY):
        assert _Toy().outer(3) == 3
        assert _Toy.outer.__wrapped__ is before["outer"]
    assert vars(_Toy)["outer"] is before["outer"]
    assert vars(_Toy)["inner"] is before["inner"]
    names = [s.name for s in tracer.spans]
    assert names == ["_Toy.outer"] + ["_Toy.inner"] * 3
    assert all(s.parent == 0 for s in tracer.spans[1:])
    prof = profile(tracer.spans, "_Toy.outer")
    assert prof.calls == {"_Toy.outer": 1, "_Toy.inner": 3}
    assert sum(prof.self_ns.values()) == prof.root_ns
    assert prof.inclusive_ns["_Toy.outer"] == prof.root_ns


def test_profile_rejects_spans_outside_the_root_or_their_parent():
    tracer = Tracer()
    with installed(tracer, _TOY):
        _Toy().inner(1)
    with pytest.raises(TraceError):
        profile(tracer.spans, "_Toy.outer")
    tracer = Tracer()
    with installed(tracer, _TOY):
        _Toy().outer(2)
    tracer.spans[1].end_ns = tracer.spans[0].end_ns + 1
    with pytest.raises(TraceError):
        profile(tracer.spans, "_Toy.outer")


def test_guard_fires_on_missing_and_forbidden_calls():
    assert guard("a", {"_Toy.outer": 1, "_Toy.inner": 2}, _TOY) == []
    assert len(guard("a", {"_Toy.outer": 1}, _TOY)) == 1
    assert len(guard("b", {"_Toy.inner": 2}, _TOY)) == 1


def test_every_target_resolves_and_names_a_workload():
    for target in TARGETS:
        holder = target.resolve()
        assert hasattr(holder, target.attr), target.name
        assert target.runs_on and target.runs_on <= ALL


def test_kernel_wrappers_fire_where_the_kernels_are_looked_up():
    from repro.model import Aeris, AerisConfig
    from repro.tensor import Tensor, no_grad

    model = Aeris(AerisConfig(**inputs.MODEL), seed=0)
    x = np.zeros((1, 16, 32, 9), dtype=np.float32)
    forc = np.zeros((1, 16, 32, 3), dtype=np.float32)
    tracer = Tracer()
    with installed(tracer), no_grad():
        model(Tensor(x), Tensor(np.ones(1, dtype=np.float32)), Tensor(x),
              Tensor(forc))
    calls = Counter(s.name for s in tracer.spans)
    for name in ("fused_apply_rotary", "fused_dot_product_attention",
                 "plan_partition", "plan_merge", "Aeris.forward"):
        assert calls[name] > 0, name


# -- workload checks fire on corrupted outputs --------------------------------
@pytest.fixture
def two_setups(monkeypatch):
    from perfbench import workloads
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 2)
    # Serve.setup swaps the clock the serve workers charge; undo it after.
    monkeypatch.setattr(workloads.serve_worker, "time",
                        workloads.serve_worker.time)
    return workloads


def test_forecast_check_fires_on_a_corrupted_ensemble(two_setups):
    workload = two_setups.Forecast(3)
    workload.setup()
    phase = two_setups.Phase()
    workload.one(phase)
    assert phase.failed == 0 and len(workload.done) == 1
    workload.check()
    start, member_seed, _ = workload.done[0]
    workload.done[0] = (start, member_seed, array_digest(np.zeros(1)))
    with pytest.raises(CheckFailed):
        workload.check()


def test_serve_checks_fire_on_corrupted_outputs(two_setups):
    workload = two_setups.Serve(3)
    workload.setup()
    phase = two_setups.Phase()
    workload.one(phase)
    assert phase.attempted == inputs.ROUND_SIZE and phase.failed == 0
    workload.check()
    served = list(workload.served)
    workload.served = [(req, array_digest(np.zeros(1)))
                       for req, _ in served]
    with pytest.raises(CheckFailed):
        workload.check()
    workload.served = served
    workload.service.tally["completed"] -= 1
    with pytest.raises(CheckFailed):
        workload.check()
