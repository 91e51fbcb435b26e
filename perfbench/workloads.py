"""The three workloads: set-up, one timed operation, output checks.

* ``train``: back-to-back ``Trainer.train_step`` on the 16x32 quickstart
  model (batch 4) -- the only workload with autograd backward, AdamW/EMA
  and the training-batch path.
* ``forecast``: back-to-back ``ResidualForecaster.ensemble_rollout`` of one
  fixed shape at the standard solver -- forward only, no queue, no cache.
* ``serve``: ``ForecastService.run`` with two virtual workers and physical
  guardrails, fed open-loop Poisson rounds -- the only workload with
  admission, batching, cache reads, dispatch and guardrails.  The service
  runs on a virtual clock charged with measured compute, so the schedule
  never runs late; each request is timed from its due ``arrival_s``.

Every timing is in reference seconds (:mod:`perfbench.refclock`): CPU time
of the benchmark process, which runs the program on one thread (BLAS pinned
to one), scaled by the machine's current speed on a fixed calibration
kernel run between operations.  CPU time leaves out waits for a processor;
the scale cancels the drift of the shared host's speed, which would
otherwise set the run-to-run spread.  The detail report keeps the
wall-clock rate and the scale beside them.
"""

from __future__ import annotations

import itertools
import sys
import time
import traceback
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from repro.data import ReanalysisConfig, SyntheticReanalysis
from repro.model import Aeris, AerisConfig
from repro.serve import (ForecastRequest, ForecastService, ForecastValidator,
                         ServiceConfig)
from repro.serve import worker as serve_worker
from repro.train import Trainer, TrainerConfig

from . import inputs
from .checks import (CheckFailed, array_digest, check_conservation,
                     check_digest, check_train)
from .refclock import ReferenceClock
from .stats import samples_for_tail

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Untimed operations before measuring (plan caches, arena, lazy tables).
WARMUP_OPS = 2
#: Samples the p90 of every workload needs.
TAIL_SAMPLES = samples_for_tail(90)
#: Hard stop of one measured phase, so a run ends within its time limit.
MEASURE_CAP_S = 120.0
#: Steps the second train set-up runs to reproduce the loss sequence.
REPLICA_STEPS = 8
#: Serve round numbers of warm-up and allocation requests (never measured).
OFF_SCHEDULE = 1 << 20
TIERS = ("fast", "standard", "high")


@dataclass
class Phase:
    """What one measured phase did.

    ``attempted`` counts root operations (steps, ensembles, requests
    sent); ``busy_s`` is the time inside them in reference seconds and
    ``wall_s`` on the wall clock; ``scales`` are the reference scales they
    ran at; ``units`` is the work they completed (samples, member-steps);
    ``latencies`` are the samples of the workload's headline timing.
    """

    attempted: int = 0
    failed: int = 0
    busy_s: float = 0.0
    wall_s: float = 0.0
    scales: list = field(default_factory=list)
    units: int = 0
    latencies: list = field(default_factory=list)
    by_tier: dict = field(default_factory=dict)
    queue_waits: list = field(default_factory=list)
    within_slo: int = 0
    makespan_s: float = 0.0


class Workload:
    """Set-up, timed loop and checks shared by the three workloads."""

    name = ""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.seeds = inputs.derive_seeds(seed)
        self.clock = ReferenceClock()

    # -- set-up ---------------------------------------------------------------
    def build(self):
        raise NotImplementedError

    def trainer(self) -> Trainer:
        archive = SyntheticReanalysis(ReanalysisConfig(**inputs.ARCHIVE))
        model = Aeris(self.model_config(), seed=self.seeds.model)
        return Trainer(model, archive,
                       TrainerConfig(**inputs.TRAINER,
                                     seed=self.seeds.trainer))

    def setup(self) -> list[float]:
        """Build :data:`SETUP_REPEATS` times; keep the first build for
        measuring and the second as a replica for checks."""
        times, built = [], []
        for _ in range(SETUP_REPEATS):
            c0, t0 = time.process_time(), self.clock()
            built.append(self.build())
            times.append(self.clock() - t0)
            self.clock.calibrate(time.process_time() - c0)
        self.main, self.replica = built[0], built[1]
        return times

    # -- measuring ------------------------------------------------------------
    def one(self, phase: Phase) -> None:
        """Run one timed operation and book it into ``phase``."""
        w0, c0, t0 = time.perf_counter(), time.process_time(), self.clock()
        self.run_one(phase)
        phase.busy_s += self.clock() - t0
        phase.wall_s += time.perf_counter() - w0
        phase.scales.append(self.clock.scale)
        self.clock.calibrate(time.process_time() - c0)

    def run_one(self, phase: Phase) -> None:
        """The operation :meth:`one` times."""
        raise NotImplementedError

    def warmup(self) -> None:
        for _ in range(WARMUP_OPS):
            self.one(Phase())

    def measure(self, seconds: float) -> Phase:
        """Run operations for ``seconds`` and until the headline timing has
        enough samples for its p90 (never past :data:`MEASURE_CAP_S`)."""
        phase = Phase()
        t0 = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - t0
            short = len(phase.latencies) < TAIL_SAMPLES
            if elapsed >= MEASURE_CAP_S or (elapsed >= seconds
                                            and not short):
                return phase
            self.one(phase)

    def mark(self):
        """A point :meth:`restore` can return to, so the next operation
        runs again on the same inputs (where the workload allows it)."""
        return None

    def restore(self, mark) -> None:
        pass

    def alloc_op(self, k: int) -> None:
        """The ``k``-th operation run under ``tracemalloc``."""
        self.run_one(Phase())

    def check(self) -> None:
        raise NotImplementedError

    def model_config(self) -> AerisConfig:
        return AerisConfig(**inputs.MODEL)


class Train(Workload):
    name = "train"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.losses: list[float] = []

    def build(self) -> Trainer:
        return self.trainer()

    def run_one(self, phase: Phase) -> None:
        trainer = self.main
        skipped = trainer.skipped_steps
        t0 = self.clock()
        loss = trainer.train_step()
        phase.latencies.append(self.clock() - t0)
        self.losses.append(loss)
        phase.attempted += 1
        if np.isfinite(loss) and trainer.skipped_steps == skipped:
            phase.units += trainer.config.batch_size
        else:
            phase.failed += 1

    def check(self) -> None:
        replica = [self.replica.train_step() for _ in range(REPLICA_STEPS)]
        check_train(self.losses, replica)


class Forecast(Workload):
    name = "forecast"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.done: list[tuple[int, int, str]] = []

    def build(self):
        trainer = self.trainer()
        return trainer.archive, trainer.forecaster()

    def setup(self) -> list[float]:
        times = super().setup()
        self.archive, self.forecaster = self.main
        self.stream = inputs.ensemble_inputs(
            self.seed, self.archive.split_indices("test"))
        return times

    def rollout(self, start: int, member_seed: int, batched: bool = True):
        return self.forecaster.ensemble_rollout(
            self.archive.fields[start], n_steps=inputs.ENSEMBLE_LEAD,
            n_members=inputs.ENSEMBLE_MEMBERS, seed=member_seed,
            start_index=start, batched=batched)

    def run_one(self, phase: Phase) -> None:
        start, member_seed = next(self.stream)
        phase.attempted += 1
        t0 = self.clock()
        try:
            out = self.rollout(start, member_seed)
        except Exception:  # a failed ensemble is booked, not fatal
            traceback.print_exc(file=sys.stderr)
            phase.failed += 1
            return
        phase.latencies.append(self.clock() - t0)
        if not np.isfinite(out).all():
            phase.failed += 1
            return
        phase.units += inputs.ENSEMBLE_MEMBERS * inputs.ENSEMBLE_LEAD
        self.done.append((start, member_seed, array_digest(out)))

    def check(self) -> None:
        """One seeded pick among the timed ensembles must equal the
        per-member sequential path bit for bit."""
        if not self.done:
            raise CheckFailed("no ensemble completed")
        rng = np.random.default_rng(self.seeds.ensembles)
        start, member_seed, got = self.done[int(rng.integers(len(self.done)))]
        check_digest("timed ensemble vs batched=False", got,
                     self.rollout(start, member_seed, batched=False))


class Serve(Workload):
    name = "serve"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.round = 0
        self.now_s = 0.0
        self.served: list = []

    def build(self):
        trainer = self.trainer()
        forecaster = trainer.forecaster()
        student = Aeris(self.model_config(), seed=self.seeds.student)
        service = ForecastService(
            forecaster, student=student,
            config=ServiceConfig(n_workers=inputs.SERVE_WORKERS),
            validator=ForecastValidator.from_normalizer(
                trainer.archive.state_normalizer()))
        return trainer.archive, service

    def setup(self) -> list[float]:
        # The workers charge the virtual clock with each batch's forwards
        # in reference seconds, like every other timing here.  A round
        # runs for seconds, so the scale is refreshed at every reading.
        serve_worker.time = SimpleNamespace(
            perf_counter=self.clock.calibrated)
        times = super().setup()
        self.archive, self.service = self.main
        self.test = self.archive.split_indices("test")
        return times

    def requests(self, specs, base: float) -> list[ForecastRequest]:
        return [ForecastRequest(
            init_state=self.archive.fields[s.start_index],
            n_steps=s.lead, n_members=s.members, tier=s.tier,
            seed=s.member_seed, start_index=s.start_index,
            arrival_s=base + s.offset_s, request_id=s.request_id)
            for s in specs]

    def run_one(self, phase: Phase) -> None:
        """Serve one round.  Rounds are laid end to end on the virtual
        clock, each starting once the previous one has drained."""
        # The headline timing is the fast tier's latency.
        phase.latencies = phase.by_tier.setdefault("fast", [])
        base = self.now_s
        requests = self.requests(
            inputs.serve_round(self.seed, self.round, self.test), base)
        self.round += 1
        responses = self.service.run(requests, start_s=base)
        if len(responses) != len(requests):
            raise CheckFailed(f"{len(requests)} requests sent, "
                              f"{len(responses)} answered")
        policies = self.service.router.policies
        end = base
        for resp in responses:
            req = resp.request
            phase.attempted += 1
            if not resp.ok:
                phase.failed += 1
                continue
            end = max(end, req.arrival_s + resp.latency_s)
            phase.units += req.n_members * req.n_steps
            phase.by_tier.setdefault(req.tier, []).append(resp.latency_s)
            phase.queue_waits.append(resp.queue_wait_s)
            phase.within_slo += resp.latency_s <= policies[req.tier].slo_s
            self.served.append((req, array_digest(resp.forecast)))
        phase.makespan_s += end - base
        self.now_s = max(end, requests[-1].arrival_s)

    def mark(self) -> int:
        """The next round, to be served from an empty forecast cache."""
        self.service.cache.clear()
        return self.round

    def restore(self, mark: int) -> None:
        self.round = mark
        self.service.cache.clear()

    def single(self, round_no: int, tier: str) -> None:
        """Serve one off-schedule request of ``tier`` alone."""
        spec = next(s for s in inputs.serve_round(self.seed, round_no,
                                                  self.test)
                    if s.tier == tier)
        req = self.requests([spec], self.now_s - spec.offset_s)[0]
        resp = self.service.serve(req)
        self.now_s = max(self.now_s, req.arrival_s + resp.latency_s)

    def warmup(self) -> None:
        for k in range(WARMUP_OPS):
            for tier in TIERS:
                self.single(OFF_SCHEDULE + k, tier)

    def alloc_op(self, k: int) -> None:
        self.single(OFF_SCHEDULE + WARMUP_OPS, TIERS[k % len(TIERS)])

    def check(self) -> None:
        """Request conservation, and per tier one seeded fresh and one
        seeded repeated (cache-restored) forecast equal bit for bit to a
        direct rollout at that tier."""
        check_conservation(self.service.tally)
        rng = np.random.default_rng(self.seeds.schedule)
        for tier, lead in itertools.product(
                TIERS, (inputs.FRESH_LEAD, inputs.REPEAT_LEAD)):
            pool = [(r, d) for r, d in self.served
                    if r.tier == tier and r.n_steps == lead]
            if not pool:
                raise CheckFailed(f"no {tier} request of lead {lead} "
                                  "completed")
            req, got = pool[int(rng.integers(len(pool)))]
            want = self.service.stepper(tier).ensemble_rollout(
                req.init_state, req.n_steps, req.n_members, seed=req.seed,
                start_index=req.start_index)
            check_digest(f"served {tier} forecast {req.request_id} vs "
                         "direct ensemble_rollout", got, want)


WORKLOADS = {w.name: w for w in (Train, Forecast, Serve)}
