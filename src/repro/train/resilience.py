"""Fault tolerance: the LR envelope and the rollback fault policy.

The paper's whole argument concerns the unstable early phase of
large-batch training — warmup exists because large peak LRs diverge
early.  By default :class:`~repro.train.trainer.Trainer` *records* a
NaN/inf loss and stops (the comprehensive-tuning figures need diverged
runs as data points); with a :class:`Rollback` fault policy it instead
treats the fault as recoverable and applies the paper-faithful remedy:

1. restore the last good checkpoint (model, optimizer and every named
   component — loss scaler, EMA shadow, LR envelope, batch-growth state,
   data-shuffling RNG — the full bit-exact state);
2. back off the peak learning rate by ``lr_backoff`` and re-enter a
   linear warmup ramp from the restored iteration;
3. retry, up to ``max_recoveries`` times; only then give up and report
   divergence like the default policy would.

Checkpoints are written through the hardened
:class:`~repro.utils.checkpoint.CheckpointManager` (atomic writes,
checksums, keep-last-``k``), so the process itself can also be killed and
resumed with ``run(..., resume=True)`` — the resumed run reproduces the
uninterrupted run bit-exactly, which the tests pin down for every solver.

Every fault, retry and recovery is recorded through ``repro.obs``
(counters ``resilience/faults_detected`` / ``resilience/recoveries``,
span ``recover``) when an :class:`~repro.obs.Obs` is supplied.

The log kept in the result is the *true* history: a rolled-back segment's
points stay in the series, and the replayed iterations append after them.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.obs.telemetry import HealthMonitor
from repro.schedules.base import Schedule


class RecoverySchedule(Schedule):
    """A base schedule under a recovery envelope.

    The envelope multiplies the base LR by an accumulated scale and, after
    each change, applies a fresh linear warmup ramp from that iteration.
    Fault recovery *backs off* the scale ("re-enter warmup at a
    backed-off peak LR"); batch growth *scales it up* by the Sqrt Scaling
    factor (:meth:`grow`).  With neither it is the identity wrapper.
    """

    def __init__(self, base: Schedule) -> None:
        self.base = base
        self.lr_scale = 1.0
        self.rewarmup_from: int | None = None
        self.rewarmup_steps = 0

    def lr_at(self, iteration: int) -> float:
        lr = self.base(iteration) * self.lr_scale
        if self.rewarmup_from is not None and self.rewarmup_steps > 0:
            k = iteration - self.rewarmup_from
            if 0 <= k < self.rewarmup_steps:
                lr *= (k + 1) / self.rewarmup_steps
        return lr

    def back_off(self, factor: float, at_iteration: int, rewarmup_steps: int) -> None:
        self.lr_scale *= factor
        self.rewarmup_from = int(at_iteration)
        self.rewarmup_steps = int(rewarmup_steps)

    def grow(self, batch_ratio: float, at_iteration: int, rewarmup_steps: int) -> None:
        """Sqrt-scale the LR for a batch grown by ``batch_ratio``.

        ``rewarmup_steps > 0`` re-enters the scaled LR through a linear
        ramp from ``at_iteration``; ``0`` applies the rescale alone.
        """
        if batch_ratio <= 0:
            raise ValueError("batch_ratio must be positive")
        self.lr_scale *= math.sqrt(batch_ratio)
        if rewarmup_steps > 0:
            self.rewarmup_from = int(at_iteration)
            self.rewarmup_steps = int(rewarmup_steps)

    # checkpointed as the ``envelope`` component, so a resumed process
    # continues under the same backed-off / grown schedule
    def state_dict(self) -> dict[str, float | int]:
        return {
            "lr_scale": self.lr_scale,
            "rewarmup_from": -1 if self.rewarmup_from is None else self.rewarmup_from,
            "rewarmup_steps": self.rewarmup_steps,
        }

    def load_state_dict(self, state) -> None:
        self.lr_scale = float(state["lr_scale"])
        raw = int(state["rewarmup_from"])
        self.rewarmup_from = None if raw < 0 else raw
        self.rewarmup_steps = int(state["rewarmup_steps"])


class Rollback:
    """Fault policy: roll back to the last good checkpoint and re-warm.

    Pass as ``Trainer(..., faults=Rollback(...))`` together with a
    checkpoint manager.  A fault is a non-finite training loss (after the
    optional ``injector``), a non-finite eval metric, or a **critical**
    :class:`~repro.obs.telemetry.HealthEvent` raised by ``health`` on a
    periodic metrics sample.

    Parameters
    ----------
    max_recoveries / lr_backoff / rewarmup_iters:
        How many rollbacks before giving up and reporting divergence, the
        peak-LR back-off factor per recovery, and the re-warmup ramp
        length (default: one epoch of the current loader).
    injector:
        Optional ``(iteration, loss) -> loss`` hook, e.g.
        :class:`~repro.parallel.faults.LossFaultInjector` — how the tests
        and the demo produce deterministic divergence.
    health:
        A :class:`~repro.obs.telemetry.HealthMonitor` fed every metrics
        sample; a trainer with ``metrics_every > 0`` installs one with
        :func:`~repro.obs.telemetry.default_training_rules` when omitted.
        A non-finite loss is force-sampled before its rollback so the
        ``nonfinite-loss`` rule fires as a structured event on the very
        iteration it recovers from.

    The fault counters ride in checkpoints as the ``faults`` component,
    so a resumed run keeps its recovery budget.
    """

    def __init__(
        self,
        max_recoveries: int = 2,
        lr_backoff: float = 0.5,
        rewarmup_iters: int | None = None,
        injector: Callable[[int, float], float] | None = None,
        health: HealthMonitor | None = None,
    ) -> None:
        if max_recoveries < 0:
            raise ValueError("max_recoveries must be >= 0")
        if not 0.0 < lr_backoff <= 1.0:
            raise ValueError("lr_backoff must be in (0, 1]")
        self.max_recoveries = int(max_recoveries)
        self.lr_backoff = float(lr_backoff)
        self.rewarmup_iters = rewarmup_iters
        self.injector = injector
        self.health = health
        self.recoveries = 0
        self.faults_detected = 0

    def state_dict(self) -> dict[str, int]:
        return {"recoveries": self.recoveries, "faults_detected": self.faults_detected}

    def load_state_dict(self, state) -> None:
        self.recoveries = int(state["recoveries"])
        self.faults_detected = int(state["faults_detected"])
