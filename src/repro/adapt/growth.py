"""Closed-loop adaptive batch size: the trainer's epoch-start hook.

:class:`BatchGrowth` joins the estimator (sensor) and the controller
(actuator) into the loop the paper's LEGW recipe implies but never
closes: instead of *choosing* a large batch up front and warming up into
it, start at the base batch, measure the gradient noise scale online,
and grow the batch whenever the measured critical batch says the larger
batch would still train efficiently — "don't decay the LR, increase the
batch size", with the milestone schedule replaced by measurement.

Each growth event preserves the LEGW invariant that makes large-batch
training stable in the first place:

* **Sqrt Scaling** — the trainer's LR envelope
  (:class:`~repro.train.resilience.RecoverySchedule`) is multiplied by
  ``sqrt(new_batch / old_batch)`` (:meth:`RecoverySchedule.grow`), so the
  per-update gradient-noise contribution stays constant across the
  growth — the same lr-scale + re-warmup machinery fault recovery uses,
  pointed up instead of down;
* **Linear-Epoch re-warmup** — the scaled-up LR is re-entered through a
  linear ramp of ``warmup_epochs * steps_per_epoch(base_batch)``
  iterations, the same *iteration count* LEGW warmup prescribes at every
  batch ratio (warmup epochs ∝ k, steps per epoch ∝ 1/k).

Growth happens at epoch boundaries only: the loader is rebuilt at the
new batch size (fresh shuffling stream, deterministically derived from
the data seed and the growth count), so an epoch remains one pass over
the data and checkpoint/resume accounting stays exact.  The hook's state
— current batch, growth count and the whole ``(epoch, batch)``
trajectory — rides in checkpoints as the ``growth`` component next to
``estimator`` and ``controller``, so a killed-and-resumed (or rolled
back) run reproduces the batch-size trajectory bit-exactly.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from repro.adapt.controller import BatchSizeController
from repro.adapt.estimator import OnlineNoiseScale, probe_batch_fn


class BatchGrowth:
    """Grow the training batch from the online gradient noise scale.

    Pass as ``Trainer(..., growth=BatchGrowth(...))``; the trainer's
    ``train_iter`` must be the base-batch loader
    ``make_train_iter(controller.base_batch, data_seed)``.

    Parameters
    ----------
    controller:
        The :class:`~repro.adapt.controller.BatchSizeController`; it owns
        the base batch, ``max_batch`` and the growth policy.
    estimator:
        An :class:`~repro.adapt.estimator.OnlineNoiseScale` (default:
        library defaults).
    noise_every / probe_ratio:
        Serial probe cadence and small-batch divisor
        (``b_small = max(1, batch // probe_ratio)``, ``b_big = batch``);
        probe draws are seeded by ``(data_seed, iteration)``.
    rewarmup:
        ``False`` is the CLARS-style no-warmup ablation: sqrt rescale only.
    make_train_iter / data_seed:
        The loader factory ``(batch_size, seed) -> iterator``, called again
        at every growth event; growth ``i`` rebuilds with seed
        ``data_seed + 1 + i``.
    warmup_epochs:
        Re-warmup length per growth event, in base-batch epochs.
    cluster:
        Optional :class:`~repro.parallel.cluster.SimCluster` or
        :class:`~repro.parallel.mp.MultiprocessCluster` the trainer's loss
        adapter runs on; its per-shard gradients feed the estimator every
        step for free (``noise_tap``).  Without one, paired micro-batch
        probes run every ``noise_every`` iterations.

    :meth:`Workload.run <repro.experiments.common.Workload.run>` fills in
    ``make_train_iter``, ``data_seed``, ``warmup_epochs`` and ``cluster``.
    """

    def __init__(
        self,
        controller: BatchSizeController,
        *,
        estimator: OnlineNoiseScale | None = None,
        noise_every: int = 16,
        probe_ratio: int = 8,
        rewarmup: bool = True,
        make_train_iter: Callable[[int, int], Iterable] | None = None,
        data_seed: int = 0,
        warmup_epochs: float = 0.0,
        cluster=None,
    ) -> None:
        if noise_every < 1:
            raise ValueError("noise_every must be >= 1")
        if probe_ratio < 2:
            raise ValueError("probe_ratio must be >= 2 (b_small must shrink)")
        self.controller = controller
        self.estimator = estimator or OnlineNoiseScale()
        self.noise_every = int(noise_every)
        self.probe_ratio = int(probe_ratio)
        self.rewarmup = bool(rewarmup)
        self.make_train_iter = make_train_iter
        self.data_seed = int(data_seed)
        self.warmup_epochs = float(warmup_epochs)
        self.cluster = cluster
        self.batch = controller.base_batch
        self.growths = 0
        # [(epoch, batch)] — entry 0 is the start; one entry per growth
        self.trajectory: list[tuple[int, int]] = [(0, self.batch)]
        self.trainer = None
        self.rewarmup_iters = 0
        self._probe_fn = None  # built lazily from the current loader

    def bind(self, trainer) -> None:
        """Attach to the trainer whose loader and envelope this hook drives."""
        if self.make_train_iter is None:
            raise ValueError("BatchGrowth needs make_train_iter to rebuild the loader")
        self.trainer = trainer
        if self.cluster is not None:
            self.cluster.noise_tap = True
        base_steps = int(getattr(trainer.train_iter, "steps_per_epoch", 1) or 1)
        # the LEGW-invariant re-warmup length: warmup epochs ∝ k and steps
        # per epoch ∝ 1/k cancel, so every growth re-warms over the same
        # number of iterations the base-batch warmup took
        if self.rewarmup:
            self.rewarmup_iters = max(1, int(round(self.warmup_epochs * base_steps)))

    def components(self) -> dict:
        """Checkpoint components, in restore order."""
        return {"growth": self, "estimator": self.estimator, "controller": self.controller}

    def _rebuild_loader(self) -> None:
        seed = self.data_seed + 1 + self.growths if self.growths else self.data_seed
        self.trainer.train_iter = self.make_train_iter(self.batch, seed)
        self._probe_fn = None

    # -- trainer hooks -------------------------------------------------------

    def on_epoch_start(self, epoch: int, iteration: int) -> None:
        if epoch == 0:
            return
        proposed = self.controller.propose(self.estimator, self.batch, epoch)
        if proposed <= self.batch:
            return
        self.trainer.envelope.grow(
            proposed / self.batch,
            at_iteration=iteration,
            rewarmup_steps=self.rewarmup_iters,
        )
        self.batch = int(proposed)
        self.growths += 1
        self._rebuild_loader()
        self.trajectory.append((int(epoch), self.batch))
        obs = self.trainer.obs
        if obs is not None and obs.metrics is not None:
            obs.metrics.counter("adapt/growth_events").inc()

    def after_step(self, iteration: int, mreg) -> None:
        """Feed the estimator and publish the ``adapt/*`` gauges."""
        if self.cluster is not None:
            self.estimator.update_from_tap(self.cluster.last_noise_tap)
        elif iteration % self.noise_every == 0:
            self._probe(iteration)
        if mreg is not None:
            mreg.gauge("adapt/batch_size").set(float(self.batch))
            self.estimator.observe(mreg)

    def _probe(self, iteration: int) -> None:
        b_big = self.batch
        b_small = max(1, b_big // self.probe_ratio)
        if b_small >= b_big:
            return  # batch too small to split — no probe possible
        trainer = self.trainer
        if self._probe_fn is None:
            self._probe_fn = probe_batch_fn(trainer.train_iter)
        # probe draws are a pure function of (data_seed, iteration): a
        # resumed run replays the identical probes with no extra RNG state
        gen = np.random.default_rng((self.data_seed, iteration))
        params = [p for _, p in trainer.optimizer.params]
        self.estimator.update_from_probes(
            trainer.loss_fn, self._probe_fn, params, b_small, b_big, gen
        )

    def on_epoch_end(self, log, epoch: int) -> None:
        log.record("batch_size", epoch, float(self.batch))
        log.record("noise_scale", epoch, self.estimator.noise_scale)

    def final_metrics(self) -> dict[str, float]:
        return {
            "final_batch": float(self.batch),
            "growth_events": float(self.growths),
            "noise_scale": self.estimator.noise_scale,
        }

    # -- checkpoint coverage (the ``growth`` component) ----------------------

    def state_dict(self) -> dict:
        return {
            "batch": self.batch,
            "growths": self.growths,
            "trajectory": np.asarray(self.trajectory, dtype=np.int64),
        }

    def load_state_dict(self, state) -> None:
        batch, growths = int(state["batch"]), int(state["growths"])
        self.trajectory = [(int(e), int(b)) for e, b in state["trajectory"]]
        if (batch, growths) != (self.batch, self.growths):
            # the loader must exist at the checkpointed batch size before
            # the data_rng component restores its shuffling stream
            self.batch, self.growths = batch, growths
            self._rebuild_loader()
