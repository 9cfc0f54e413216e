"""The training loop.

Every application, driver and entry point trains through :class:`Trainer`,
which enforces the paper's experimental protocol:

* the learning rate is read from the schedule at every iteration (so
  warmup behaves identically across solvers),
* optional global-norm gradient clipping sits between backward and step,
* divergence (NaN/inf loss or eval metric) is detected and recorded
  rather than crashing — the comprehensive-tuning figures *need* diverged
  runs as data points,
* per-iteration loss/lr and per-epoch eval metrics land in a
  :class:`~repro.utils.log.RunLog` for the figure drivers.

The one loop composes four parts: how a step's gradient is made (plain,
amp with a loss scaler, a cluster's ``as_loss_fn`` adapter, or
accumulation over micro-batches); the LR envelope
(:class:`~repro.train.resilience.RecoverySchedule`); an epoch-start hook
(:class:`~repro.adapt.BatchGrowth`); and a fault policy (record and
stop, or :class:`~repro.train.resilience.Rollback`).  With a checkpoint
manager every stateful part is saved as a named component, and
``run(..., resume=True)`` continues a killed run bit-exactly.

Observability: pass an :class:`repro.obs.Obs` to get span timing around
forward/backward/clip/step (plus eval) and structured metrics (loss, lr,
grad-norm histogram) without touching the protocol.  With ``obs=None``
the loop is the uninstrumented seed path — the guards are plain ``None``
checks hoisted out of the hot spots, and no span or metric object is
allocated per iteration.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable

import numpy as np

from repro.compile import CompiledStep
from repro.compile.config import compiled_enabled
from repro.obs import Obs
from repro.obs.metrics import GRAD_NORM_BUCKETS
from repro.obs.profiler import get_active as active_profiler
from repro.obs.telemetry import HealthMonitor, default_training_rules
from repro.optim.base import Optimizer
from repro.optim.clip import clip_grad_norm
from repro.optim.ema import EMAWeights
from repro.optim.loss_scaler import DynamicLossScaler
from repro.parallel.cluster import ClusterLoss
from repro.schedules.base import Schedule
from repro.tensor.amp import amp_enabled, autocast
from repro.tensor.tensor import Tensor
from repro.train.accumulate import accumulate_gradients
from repro.train.resilience import RecoverySchedule, Rollback
from repro.utils.checkpoint import CheckpointManager, RNGState
from repro.utils.log import RunLog

if TYPE_CHECKING:  # repro.adapt drives this loop; imported for annotations only
    from repro.adapt import BatchGrowth


@dataclass
class TrainResult:
    """Outcome of a training run."""

    log: RunLog
    diverged: bool = False
    epochs_completed: int = 0
    final_metrics: dict[str, float] = field(default_factory=dict)
    stopped_early: bool = False

    def metric(self, name: str, default: float | None = None) -> float | None:
        return self.final_metrics.get(name, default)


def _record_point(
    log: RunLog, step: int, loss_val: float, lr: float, norm: float | None
) -> None:
    """Record one synchronized (loss, lr[, grad_norm]) sample.

    All series that exist are appended together so they can never
    desynchronize — divergence points and the final-iteration flush go
    through here exactly like the periodic ``log_every`` samples.
    """
    log.record("loss", step, loss_val)
    log.record("lr", step, lr)
    if norm is not None:
        log.record("grad_norm", step, norm)


_NO_SPAN = contextlib.nullcontext()  # reusable: the untraced path allocates nothing


def _no_span(name: str) -> contextlib.nullcontext:
    return _NO_SPAN


class _Epoch:
    """The loop's position in whole epochs (the ``loop`` component)."""

    value = 0

    def state_dict(self) -> dict[str, int]:
        return {"epoch": self.value}

    def load_state_dict(self, state) -> None:
        self.value = int(state["epoch"])


class _LoaderRNG(RNGState):
    """The current loader's shuffling stream — batch growth may replace
    the loader, so the generator is looked up when saved or restored."""

    def __init__(self, trainer: "Trainer") -> None:
        self.trainer = trainer

    @property
    def rng(self) -> np.random.Generator:
        return self.trainer.train_iter.rng


class Trainer:
    """Drive a model through ``epochs`` epochs of mini-batch training.

    Parameters
    ----------
    loss_fn:
        ``loss_fn(batch) -> Tensor`` — a scalar loss built on the model's
        parameters (the five applications each provide ``model.loss``),
        or a cluster's ``as_loss_fn`` adapter.
    optimizer:
        Any :class:`repro.optim.Optimizer`.
    schedule:
        Iteration-indexed LR schedule, wrapped in the
        :class:`~repro.train.resilience.RecoverySchedule` envelope
        (``self.envelope``).
    train_iter:
        Re-iterable over batches with a ``steps_per_epoch`` attribute
        (:class:`~repro.data.loader.BatchIterator` or the padded variant).
        When it exposes a ``rng`` generator, checkpoints cover the
        shuffling stream.  A one-shot iterator (a generator) is rejected
        in its second epoch.
    eval_fn:
        Optional ``() -> dict[str, float]`` run after every epoch; entries
        are recorded as series ``eval_<name>`` keyed by epoch.  A
        non-finite entry is a fault.
    grad_clip:
        Optional global-norm clip threshold.
    callbacks:
        Optional list of :class:`repro.train.callbacks.Callback` hooks;
        a callback returning ``True`` from ``on_epoch_end`` stops training
        (``result.stopped_early`` is set — distinct from divergence).
    obs:
        Optional :class:`repro.obs.Obs`; enabled instruments receive
        phase spans and per-iteration metrics.  ``None`` (the default)
        keeps the loop on the uninstrumented seed path.
    metrics_every:
        Sample the metrics registry into its time-series ring (and any
        attached JSONL stream) every this many iterations; ``0`` (the
        default) keeps end-of-run snapshots only.  With metrics disabled
        the flag is inert.
    compiled:
        Run steps through the trace-and-replay compiler
        (:class:`repro.compile.CompiledStep`): capture the step graph
        once, replay it bit-identically with preallocated buffers, and
        transparently recapture on any fallback (shape/dtype change,
        parameter surgery such as a checkpoint rollback).  ``None`` (the
        default) follows the global :func:`repro.tensor.use_compiled` /
        ``REPRO_COMPILE`` switch; an explicit bool overrides it.
        ``compile/*`` counters land in the obs metrics registry when one
        is attached.  A cluster's ``as_loss_fn`` adapter builds no graph
        to capture: ``compiled=True`` with one raises, and under the
        global switch the run stays eager and counts one
        ``compile/fallbacks`` per step.
    amp:
        Emulated mixed-precision training (:mod:`repro.tensor.amp`):
        the forward pass runs under :func:`~repro.tensor.amp.autocast`,
        gradients are stored as real ``np.float16`` after backward, the
        loss is scaled by a :class:`~repro.optim.loss_scaler.
        DynamicLossScaler`, and the optimizer keeps float64 master
        weights.  Overflow steps are *skipped* (scale backs off, the
        schedule marches on) — never clipped — but still counted,
        logged and passed to the callbacks.  ``None`` (the default)
        follows the global :func:`repro.tensor.use_amp` / ``REPRO_AMP``
        switch; an explicit bool overrides it.  AMP is incompatible with
        graph capture, so a ``compiled`` trainer never defaults AMP on
        (requesting both explicitly raises).
    loss_scaler:
        The scaler to use under ``amp`` (a default-configured
        :class:`DynamicLossScaler` is created when omitted).  May also
        be passed without ``amp`` to exercise the scale/unscale
        algorithm on float64 gradients, where it is bit-exact.
    model:
        The model being trained; required with ``checkpoint``, whose
        saves and rollbacks snapshot its full state.
    accum_steps:
        Form each logical batch from this many consecutive loader
        batches, weighted by their sizes (a ragged tail group at the
        epoch boundary is weighted by its true size).  Schedules and
        iteration counts operate on *logical* iterations, matching how
        the paper counts steps.  Needs a graph loss; not combined with
        ``amp``, ``compiled`` or a ``loss_scaler``.
    ema:
        Optional :class:`~repro.optim.ema.EMAWeights`, updated after
        every applied step and checkpointed.
    checkpoint / checkpoint_every:
        Hardened checkpoints land in the manager's directory every
        ``checkpoint_every`` epochs (and always after the final epoch),
        plus a baseline at the start of a fresh run.
    faults:
        The fault policy: ``None`` records a fault as divergence and
        stops; a :class:`~repro.train.resilience.Rollback` (needs
        ``checkpoint``) rolls back and re-warms at a backed-off LR.
    growth:
        Optional :class:`~repro.adapt.BatchGrowth` epoch-start hook that
        grows the batch from the online noise scale; it replaces
        ``train_iter`` at each growth event.
    """

    def __init__(
        self,
        loss_fn: Callable[[object], "object"],
        optimizer: Optimizer,
        schedule: Schedule,
        train_iter: Iterable,
        eval_fn: Callable[[], dict[str, float]] | None = None,
        grad_clip: float | None = None,
        callbacks: list | None = None,
        obs: Obs | None = None,
        metrics_every: int = 0,
        compiled: bool | None = None,
        amp: bool | None = None,
        loss_scaler: DynamicLossScaler | None = None,
        *,
        model=None,
        accum_steps: int = 1,
        ema: EMAWeights | None = None,
        checkpoint: CheckpointManager | None = None,
        checkpoint_every: int = 1,
        faults: Rollback | None = None,
        growth: BatchGrowth | None = None,
    ) -> None:
        if metrics_every < 0:
            raise ValueError("metrics_every must be >= 0")
        if accum_steps < 1:
            raise ValueError("accum_steps must be >= 1")
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if checkpoint is not None and model is None:
            raise ValueError("checkpointing needs the model")
        if faults is not None and checkpoint is None:
            raise ValueError("the Rollback fault policy needs a checkpoint manager")
        if amp and compiled:
            raise ValueError(
                "amp=True is incompatible with compiled=True: autocast "
                "replaces op output buffers, breaking in-place replay"
            )
        if accum_steps > 1 and (amp or compiled or loss_scaler is not None):
            raise ValueError(
                "gradient accumulation does not combine with amp, compiled "
                "or a loss_scaler"
            )
        cluster = isinstance(loss_fn, ClusterLoss)
        if compiled and cluster:
            raise ValueError(
                "compiled=True needs a graph loss: a cluster's as_loss_fn "
                "adapter installs gradients and returns no graph to capture"
            )
        # the REPRO_COMPILE / REPRO_AMP defaults apply to single-batch
        # steps, and an explicit amp=True wins over the compile default
        single = accum_steps == 1
        # REPRO_COMPILE asked for a compiled step that a cluster adapter
        # cannot give: the run stays eager, one compile/fallbacks a step
        self._compile_declined = False
        if compiled is None:
            compiled = compiled_enabled() and not amp and single
            if compiled and cluster:
                compiled, self._compile_declined = False, True
        if amp is None:
            amp = amp_enabled() and not compiled and single
        if compiled and not isinstance(loss_fn, CompiledStep):
            loss_fn = CompiledStep(loss_fn)
        self.loss_fn = loss_fn
        self.optimizer = optimizer
        self.schedule = schedule
        self.envelope = RecoverySchedule(schedule)
        self.train_iter = train_iter
        self.eval_fn = eval_fn
        self.grad_clip = grad_clip
        self.callbacks = list(callbacks or [])
        self.obs = obs
        self.metrics_every = metrics_every
        self.amp = bool(amp)
        if self.amp and loss_scaler is None:
            loss_scaler = DynamicLossScaler()
        self.loss_scaler = loss_scaler
        if self.amp:
            optimizer.use_master_weights()
        self.model = model
        self.accum_steps = int(accum_steps)
        self.ema = ema
        self.checkpoint = checkpoint
        self.checkpoint_every = int(checkpoint_every)
        if faults is not None and faults.health is None and metrics_every > 0:
            faults.health = HealthMonitor(default_training_rules())
        self.faults = faults
        self.growth = growth
        self._epoch = _Epoch()
        if growth is not None:
            growth.bind(self)

    # -- checkpoint plumbing ------------------------------------------------

    def _components(self) -> dict:
        """The named state checkpoints carry, in restore order."""
        components = {"loop": self._epoch, "envelope": self.envelope}
        if self.loss_scaler is not None:
            components["scaler"] = self.loss_scaler
        if self.ema is not None:
            components["ema"] = self.ema
        if self.faults is not None:
            components["faults"] = self.faults
        if self.growth is not None:
            # restores (and rebuilds) the loader before its RNG below
            components.update(self.growth.components())
        if getattr(self.train_iter, "rng", None) is not None:
            components["data_rng"] = _LoaderRNG(self)
        return components

    def _save(self, iteration: int, epoch: int) -> None:
        self._epoch.value = epoch
        self.checkpoint.save(
            self.model, self.optimizer, iteration, components=self._components()
        )

    def _restore(self) -> tuple[int, int] | None:
        """Load the newest good checkpoint; returns (iteration, epoch)."""
        loaded = self.checkpoint.load_latest(
            self.model, self.optimizer, components=self._components()
        )
        if loaded is None:
            return None
        return loaded[0], self._epoch.value

    def _rollback(self) -> tuple[int, int]:
        """Restore the last good checkpoint and back off the peak LR.

        The envelope comes back as it was saved and is backed off once per
        recovery since that save, so repeated faults compound while a
        rolled-back batch growth is not applied twice; the fault counters
        stay live.
        """
        faults = self.faults
        live = faults.recoveries + 1, faults.faults_detected
        span = self.obs.span if self.obs is not None else _no_span
        with span("recover"):
            restored = self._restore()
        if restored is None:  # pragma: no cover - the baseline save precludes it
            raise RuntimeError("no checkpoint available to roll back to")
        saved = faults.recoveries
        faults.recoveries, faults.faults_detected = live
        iteration = restored[0]
        rewarmup = faults.rewarmup_iters
        if rewarmup is None:
            rewarmup = int(getattr(self.train_iter, "steps_per_epoch", 1) or 1)
        for _ in range(faults.recoveries - saved):
            self.envelope.back_off(faults.lr_backoff, iteration, rewarmup)
        self._count("resilience/recoveries")
        return restored

    def _count(self, name: str) -> None:
        if self.obs is not None and self.obs.metrics is not None:
            self.obs.metrics.counter(name).inc()

    # -- the loop -----------------------------------------------------------

    def run(self, epochs: int, log_every: int = 1, resume: bool = False) -> TrainResult:
        """Train to ``epochs`` total epochs (``resume`` continues from the
        newest checkpoint, counting the epochs it already holds)."""
        obs = self.obs
        if obs is not None and obs.tracer is not None:
            with obs.span("train"):
                return self._run(epochs, log_every, resume)
        return self._run(epochs, log_every, resume)

    def _run(self, epochs: int, log_every: int, resume: bool) -> TrainResult:
        # every exit path (normal end, early stop, divergence) fires the
        # callbacks' on_train_end hook exactly once
        result = self._loop(epochs, log_every, resume)
        for callback in self.callbacks:
            callback.on_train_end(result)
        return result

    def _steps(self):
        """One epoch's steps: groups of ``accum_steps`` loader batches."""
        group = []
        for batch in self.train_iter:
            group.append(batch)
            if len(group) == self.accum_steps:
                yield group
                group = []
        if group:  # ragged tail group at the epoch boundary
            yield group

    def _accumulate(self, group: list) -> float:
        sizes = [len(b[0] if isinstance(b, (tuple, list)) else b) for b in group]
        total = sum(sizes)
        return accumulate_gradients(
            self.loss_fn, group, self._params, [s / total for s in sizes]
        )

    def _sample(self, mreg, iteration: int) -> bool:
        """Sample the registry into its time series; True on a critical
        health event."""
        sample = mreg.sample(step=iteration)
        health = self.faults.health if self.faults is not None else None
        return health is not None and any(ev.critical for ev in health.observe(sample))

    def _loop(self, epochs: int, log_every: int, resume: bool) -> TrainResult:
        obs = self.obs
        tracer = obs.tracer if obs is not None else None
        mreg = obs.metrics if obs is not None else None
        span = obs.span if tracer is not None else _no_span
        if (
            mreg is not None
            and isinstance(self.loss_fn, CompiledStep)
            and self.loss_fn.metrics is None
        ):
            # route compile/* counters into this run's registry
            self.loss_fn.metrics = mreg
        # hoisted so the disabled path never even tests the flag's truthiness
        # against an allocation — one int compare per iteration, nothing more
        sample_every = self.metrics_every if mreg is not None else 0
        optimizer, scaler, faults, growth = (
            self.optimizer, self.loss_scaler, self.faults, self.growth
        )
        injector = faults.injector if faults is not None else None
        params = self._params = [p for _, p in optimizer.params]
        amp_on = self.amp
        declined = self._compile_declined and mreg is not None
        log = RunLog()
        result = TrainResult(log=log)

        iteration = epoch = 0
        if self.checkpoint is not None:
            restored = self._restore() if resume else None
            if restored is None:
                # the baseline checkpoint: an epoch-0 fault needs a rollback target
                self._save(iteration, epoch)
            else:
                iteration, epoch = restored
        elif resume:
            raise ValueError("resume=True requires a checkpoint manager")
        result.epochs_completed = epoch
        # the last step's point when log_every skipped it: the final
        # iteration's sample must land in the log, or figure series end
        # one point short
        unlogged: tuple | None = None
        prev_steps: int | None = None
        while epoch < epochs:
            # the growth decision for epoch N is made as N *starts*, never
            # after the last boundary checkpoint — so a resumed run re-makes
            # the very decision the uninterrupted run made
            if growth is not None:
                growth.on_epoch_start(epoch, iteration)
            fault = False
            n_steps = 0
            for group in self._steps():
                n_steps += 1
                lr = self.envelope(iteration)
                optimizer.zero_grad()
                if declined:
                    mreg.counter("compile/fallbacks").inc()
                profiler = active_profiler()
                if profiler is not None:
                    # the step's first op must not absorb the optimizer
                    # step, eval and loop work since the last engine event
                    profiler.mark()
                if self.accum_steps == 1:
                    with autocast() if amp_on else _NO_SPAN, span("forward"):
                        loss = self.loss_fn(group[0])
                    loss_val = float(loss.data)
                else:
                    loss = None
                    with span("accumulate"):
                        loss_val = self._accumulate(group)
                if injector is not None:
                    loss_val = injector(iteration, loss_val)
                if not math.isfinite(loss_val):
                    _record_point(log, iteration, loss_val, lr, None)
                    unlogged = None
                    if mreg is not None:
                        # the divergence point must land in the time series
                        # (and fire the nonfinite-loss health rule)
                        mreg.gauge("train/loss").set(loss_val)
                        if sample_every:
                            self._sample(mreg, iteration)
                    fault = True
                    break
                # the scaler only applies to a real graph loss: cluster
                # adapters (repro.parallel) install pre-averaged gradients
                # and return a no-op-backward stub that cannot be scaled
                use_scaler = scaler is not None and isinstance(loss, Tensor)
                if loss is not None:
                    with span("backward"):
                        (scaler.scaled(loss) if use_scaler else loss).backward()
                if amp_on and use_scaler:
                    # emulated fp16 gradient storage: overflow to inf above
                    # 65504 is genuine here — it is what the scaler skips on
                    with np.errstate(over="ignore"):
                        for p in params:
                            if p.grad is not None:
                                p.grad = p.grad.astype(np.float16)
                norm: float | None = None
                # overflow: skip the step (never clip), back off the scale,
                # and let the schedule march on
                if not use_scaler or scaler.unscale_and_check(params):
                    if self.grad_clip is not None:
                        with span("clip"):
                            norm = clip_grad_norm(params, self.grad_clip)
                    with span("step"):
                        optimizer.step(lr=lr)
                    if self.ema is not None:
                        self.ema.update()
                if growth is not None:
                    with span("noise_probe"):
                        growth.after_step(iteration, mreg)
                if mreg is not None:
                    mreg.counter("train/iterations").inc()
                    mreg.gauge("train/loss").set(loss_val)
                    mreg.gauge("train/lr").set(lr)
                    if norm is not None:
                        mreg.histogram(
                            "train/grad_norm", GRAD_NORM_BUCKETS
                        ).observe(norm)
                    if (
                        sample_every
                        and (iteration + 1) % sample_every == 0
                        and self._sample(mreg, iteration)
                    ):
                        # a critical health rule (grad-norm blow-up,
                        # trust-ratio collapse, ...) is a fault even
                        # though the loss itself still looks finite
                        _record_point(log, iteration, math.nan, lr, None)
                        unlogged = None
                        fault = True
                        break
                if iteration % log_every == 0:
                    _record_point(log, iteration, loss_val, lr, norm)
                    unlogged = None
                else:
                    unlogged = (iteration, loss_val, lr, norm)
                for callback in self.callbacks:
                    callback.on_iteration(iteration, loss_val, lr)
                iteration += 1

            metrics: dict[str, float] = {}
            if not fault:
                if n_steps == 0 and prev_steps:
                    # a generator train_iter is exhausted after its first
                    # epoch; silently "completing" the rest with zero
                    # iterations would corrupt every fixed-epoch comparison
                    raise ValueError(
                        f"train_iter yielded no batches in epoch {epoch} after "
                        f"{prev_steps} step(s) in the previous one — it is a "
                        "one-shot iterator (e.g. a generator); pass a "
                        "re-iterable like BatchIterator"
                    )
                prev_steps = n_steps
                if growth is not None:
                    growth.on_epoch_end(log, epoch)
                epoch += 1
                result.epochs_completed = epoch
                if self.eval_fn is not None:
                    with span("eval"):
                        metrics = self.eval_fn()
                    for name, value in metrics.items():
                        if not math.isfinite(value):
                            fault = True
                            value = math.nan
                        log.record(f"eval_{name}", epoch - 1, value)
                    result.final_metrics = dict(metrics)
            if fault:
                if faults is not None:
                    faults.faults_detected += 1
                    self._count("resilience/faults_detected")
                if faults is None or faults.recoveries >= faults.max_recoveries:
                    result.diverged = True
                    result.final_metrics["diverged"] = 1.0
                    break
                iteration, epoch = self._rollback()
                result.epochs_completed = epoch
                prev_steps = unlogged = None
                continue
            if self.checkpoint is not None and (
                epoch % self.checkpoint_every == 0 or epoch == epochs
            ):
                self._save(iteration, epoch)
            stop = False
            for callback in self.callbacks:
                stop = callback.on_epoch_end(epoch - 1, metrics) or stop
            if stop:
                result.stopped_early = True
                break

        if unlogged is not None:
            _record_point(log, *unlogged)
        result.final_metrics.setdefault("diverged", 0.0)
        if faults is not None:
            result.final_metrics["recoveries"] = float(faults.recoveries)
            result.final_metrics["faults_detected"] = float(faults.faults_detected)
            if faults.health is not None:
                result.final_metrics["health_events"] = float(len(faults.health.events))
        if growth is not None:
            result.final_metrics["optimizer_steps"] = float(iteration)
            result.final_metrics.update(growth.final_metrics())
        return result
