"""Closed-loop adaptive batch sizing (repro.adapt)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.adapt import (
    BatchGrowth,
    BatchSizeController,
    OnlineNoiseScale,
    probe_batch_fn,
    two_batch_elimination,
)
from repro.data.dataset import ArrayDataset
from repro.data.loader import BatchIterator
from repro.nn import Linear, Module
from repro.optim.sgd import SGD
from repro.parallel.cluster import NoiseTap, SimCluster
from repro.schedules.base import ConstantLR
from repro.tensor import Tensor
from repro.train import RecoverySchedule, Trainer
from repro.utils import CheckpointManager


def exact_pair(trace: float, gsq: float, b_small: int, b_big: int):
    """Squared norms that eliminate back to exactly (trace, gsq)."""
    small_sq = gsq + trace / b_small
    big_sq = gsq + trace / b_big
    return small_sq, big_sq


def fed_estimator(noise_scale: float, updates: int = 3, **kwargs) -> OnlineNoiseScale:
    """An estimator reading exactly ``noise_scale`` (gsq pinned to 1)."""
    est = OnlineNoiseScale(**kwargs)
    small_sq, big_sq = exact_pair(noise_scale, 1.0, 8, 64)
    for _ in range(updates):
        est.update_pair(small_sq, 8, big_sq, 64)
    return est


class TestTwoBatchElimination:
    def test_recovers_exact_moments(self):
        small_sq, big_sq = exact_pair(trace=24.0, gsq=3.0, b_small=8, b_big=64)
        trace, gsq = two_batch_elimination(small_sq, 8, big_sq, 64)
        assert trace == pytest.approx(24.0)
        assert gsq == pytest.approx(3.0)

    def test_samples_are_unclamped(self):
        """Raw per-step samples may go negative; the EMA needs them raw."""
        trace, gsq = two_batch_elimination(0.5, 8, 1.0, 64)
        assert trace < 0.0
        assert gsq > 0.0

    def test_degenerate_sizes_rejected(self):
        with pytest.raises(ValueError):
            two_batch_elimination(1.0, 8, 1.0, 8)
        with pytest.raises(ValueError):
            two_batch_elimination(1.0, 64, 1.0, 8)
        with pytest.raises(ValueError):
            two_batch_elimination(1.0, 0, 1.0, 8)


class QuadraticProblem:
    """f_i(w) = 0.5 ||w - x_i||^2 — per-example gradients are w - x_i, so
    the finite-population tr(Sigma) and ||G||^2 are exact array moments."""

    def __init__(self, rng, n=4096, d=8, mu=1.0, sigma=3.0):
        self.xs = mu + sigma * rng.standard_normal((n, d))
        self.n, self.d = n, d
        self.w = Tensor(np.zeros(d), requires_grad=True)
        # per-example grad at w=0 is -x_i
        self.g_true = -self.xs.mean(axis=0)
        self.trace_true = float(self.xs.var(axis=0).sum())
        self.gsq_true = float(self.g_true @ self.g_true)
        self.scale_true = self.trace_true / self.gsq_true

    def loss_fn(self, batch):
        xb, _ = batch
        resid = Tensor(xb) - self.w
        return (resid * resid).mean() * (0.5 * self.d)

    def make_batch(self, size, gen):
        idx = gen.integers(0, self.n, size)
        return self.xs[idx], np.zeros(size)


class TestOnlineNoiseScale:
    def test_single_update_is_bias_corrected(self):
        """One exact pair must read back exactly (Adam-style correction
        keeps early EMA reads from being damped toward zero)."""
        est = OnlineNoiseScale(beta=0.9, min_updates=1)
        small_sq, big_sq = exact_pair(trace=40.0, gsq=5.0, b_small=4, b_big=32)
        est.update_pair(small_sq, 4, big_sq, 32)
        assert est.trace_sigma == pytest.approx(40.0)
        assert est.grad_sq_norm == pytest.approx(5.0)
        assert est.noise_scale == pytest.approx(8.0)
        assert est.critical_batch() == est.noise_scale

    def test_ready_gates_on_min_updates(self):
        est = fed_estimator(4.0, updates=2, min_updates=3)
        assert not est.ready
        small_sq, big_sq = exact_pair(4.0, 1.0, 8, 64)
        est.update_pair(small_sq, 8, big_sq, 64)
        assert est.ready

    def test_nonfinite_samples_are_skipped(self):
        est = OnlineNoiseScale(min_updates=1)
        small_sq, big_sq = exact_pair(4.0, 1.0, 8, 64)
        est.update_pair(small_sq, 8, big_sq, 64)
        before = est.noise_scale
        est.update_pair(float("inf"), 8, 1.0, 64)
        est.update_pair(float("nan"), 8, float("nan"), 64)
        assert est.updates == 1
        assert est.noise_scale == before

    def test_clamps_at_read_time_only(self):
        # negative trace sample: raw EMA goes negative, readout floors at 0
        est = OnlineNoiseScale(min_updates=1)
        est.update_pair(0.5, 8, 1.0, 64)
        assert est.trace_sigma == 0.0
        assert est.grad_sq_norm > 0.0
        assert est.noise_scale == 0.0

    def test_state_dict_roundtrip(self):
        est = fed_estimator(7.0, updates=5, beta=0.7, min_updates=2)
        clone = OnlineNoiseScale()
        clone.load_state_dict(est.state_dict())
        assert clone.beta == est.beta
        assert clone.min_updates == est.min_updates
        assert clone.updates == est.updates
        assert clone.noise_scale == pytest.approx(est.noise_scale)
        assert clone.trace_sigma == pytest.approx(est.trace_sigma)

    def test_validation(self):
        with pytest.raises(ValueError):
            OnlineNoiseScale(beta=1.0)
        with pytest.raises(ValueError):
            OnlineNoiseScale(beta=0.0)
        with pytest.raises(ValueError):
            OnlineNoiseScale(min_updates=0)

    def test_tap_path(self):
        est = OnlineNoiseScale(min_updates=1)
        assert not est.update_from_tap(None)
        # one active shard degenerates to b_small == b_big: unusable
        lone = NoiseTap([32], [5.0], 32, 5.0)
        assert not lone.usable()
        assert not est.update_from_tap(lone)
        assert est.updates == 0
        small_sq, big_sq = exact_pair(trace=32.0, gsq=2.0, b_small=8, b_big=32)
        tap = NoiseTap([8, 8, 8, 8], [small_sq] * 4, 32, big_sq)
        assert tap.usable()
        assert tap.small_size == pytest.approx(8.0)
        assert est.update_from_tap(tap)
        assert est.noise_scale == pytest.approx(16.0)

    def test_probe_path_matches_known_truth(self, rng):
        prob = QuadraticProblem(rng)
        est = OnlineNoiseScale(beta=0.9, min_updates=1)
        est.update_from_probes(
            prob.loss_fn,
            prob.make_batch,
            [prob.w],
            4,
            256,
            np.random.default_rng(0),
            n_pairs=24,
        )
        assert est.noise_scale == pytest.approx(prob.scale_true, rel=0.5)

    def test_tap_path_matches_known_truth(self, rng):
        prob = QuadraticProblem(rng)
        cluster = SimCluster([prob.w], prob.loss_fn, 8)
        cluster.noise_tap = True
        est = OnlineNoiseScale(beta=0.9, min_updates=1)
        gen = np.random.default_rng(1)
        for _ in range(24):
            cluster.gradient_step(prob.make_batch(256, gen))
            assert est.update_from_tap(cluster.last_noise_tap)
        assert est.noise_scale == pytest.approx(prob.scale_true, rel=0.5)

    def test_probes_preserve_training_gradients(self, rng):
        prob = QuadraticProblem(rng)
        sentinel = rng.standard_normal(prob.d)
        prob.w.grad = sentinel.copy()
        OnlineNoiseScale(min_updates=1).update_from_probes(
            prob.loss_fn,
            prob.make_batch,
            [prob.w],
            4,
            64,
            np.random.default_rng(2),
            n_pairs=3,
        )
        np.testing.assert_array_equal(prob.w.grad, sentinel)


class TestProbeBatchFn:
    def test_array_dataset_iterator(self, rng):
        ds = ArrayDataset(rng.standard_normal((64, 3)), rng.standard_normal(64))
        it = BatchIterator(ds, 8, rng=0)
        make_batch = probe_batch_fn(it)
        gen = np.random.default_rng(3)
        xb, yb = make_batch(16, gen)
        assert xb.shape == (16, 3) and yb.shape == (16,)
        # probe draws must not advance the loader's shuffling stream
        before = it.rng.bit_generator.state
        make_batch(16, gen)
        assert it.rng.bit_generator.state == before

    def test_padded_pair_iterator(self, rng):
        from repro.data.loader import PaddedBatchIterator

        pairs = [
            (
                rng.integers(1, 9, rng.integers(2, 6)),
                rng.integers(1, 9, rng.integers(2, 6)),
            )
            for _ in range(32)
        ]
        it = PaddedBatchIterator(pairs, 4, rng=0, pad_id=0, bos_id=9, eos_id=10)
        make_batch = probe_batch_fn(it)
        batch = make_batch(6, np.random.default_rng(4))
        assert batch[0].shape[0] == 6

    def test_rejects_unknown_iterators(self):
        with pytest.raises(TypeError):
            probe_batch_fn([1, 2, 3])


class TestBatchSizeController:
    def test_grows_when_critical_batch_clears_bar(self):
        ctl = BatchSizeController(8, 128, target_ratio=2.0, hysteresis=1.1)
        # grown = 16; bar = 1.1 * 16 = 17.6; 2 * B_noise = 20 clears it
        assert ctl.propose(fed_estimator(10.0), 8, epoch=1) == 16
        assert ctl.last_growth_epoch == 1

    def test_hysteresis_blocks_marginal_evidence(self):
        ctl = BatchSizeController(8, 128, target_ratio=2.0, hysteresis=1.1)
        # 2 * 8.5 = 17 < 17.6: inside the margin, hold
        assert ctl.propose(fed_estimator(8.5), 8, epoch=1) == 8
        assert ctl.last_growth_epoch is None

    def test_not_ready_holds(self):
        ctl = BatchSizeController(8, 128)
        est = fed_estimator(1000.0, updates=2, min_updates=3)
        assert ctl.propose(est, 8, epoch=1) == 8

    def test_cooldown_spaces_growth_events(self):
        ctl = BatchSizeController(8, 128, cooldown_epochs=1)
        est = fed_estimator(1000.0)
        assert ctl.propose(est, 8, epoch=1) == 16
        assert ctl.propose(est, 16, epoch=2) == 16  # inside cooldown
        assert ctl.propose(est, 16, epoch=3) == 32

    def test_zero_cooldown_grows_every_epoch(self):
        ctl = BatchSizeController(8, 128, cooldown_epochs=0)
        est = fed_estimator(1000.0)
        assert ctl.propose(est, 8, epoch=1) == 16
        assert ctl.propose(est, 16, epoch=2) == 32

    def test_clamps_to_max_batch(self):
        ctl = BatchSizeController(8, 24, cooldown_epochs=0)
        est = fed_estimator(1000.0)
        assert ctl.propose(est, 16, epoch=1) == 24
        assert ctl.propose(est, 24, epoch=2) == 24  # at the cap: hold

    def test_never_shrinks(self):
        ctl = BatchSizeController(8, 128)
        assert ctl.propose(fed_estimator(0.0), 64, epoch=1) == 64

    def test_state_dict_roundtrip(self):
        ctl = BatchSizeController(8, 128)
        ctl.propose(fed_estimator(1000.0), 8, epoch=4)
        clone = BatchSizeController(8, 128)
        clone.load_state_dict(ctl.state_dict())
        assert clone.last_growth_epoch == 4
        fresh = BatchSizeController(8, 128)
        clone.load_state_dict(fresh.state_dict())
        assert clone.last_growth_epoch is None

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchSizeController(0, 64)
        with pytest.raises(ValueError):
            BatchSizeController(64, 32)
        with pytest.raises(ValueError):
            BatchSizeController(8, 64, target_ratio=0.0)
        with pytest.raises(ValueError):
            BatchSizeController(8, 64, hysteresis=0.9)
        with pytest.raises(ValueError):
            BatchSizeController(8, 64, growth_factor=1.0)
        with pytest.raises(ValueError):
            BatchSizeController(8, 64, cooldown_epochs=-1)


class TestAdaptiveLRSchedule:
    """Batch growth on the :class:`RecoverySchedule` envelope."""

    def test_growth_applies_sqrt_scaling(self):
        env = RecoverySchedule(ConstantLR(0.1))
        env.grow(4.0, at_iteration=100, rewarmup_steps=0)
        assert env.lr_scale == pytest.approx(2.0)
        assert env(100) == pytest.approx(0.2)

    def test_growth_rewarmup_ramp(self):
        env = RecoverySchedule(ConstantLR(0.1))
        env.grow(4.0, at_iteration=100, rewarmup_steps=10)
        assert env(100) == pytest.approx(0.2 * 1 / 10)
        assert env(104) == pytest.approx(0.2 * 5 / 10)
        assert env(110) == pytest.approx(0.2)
        assert env(99) == pytest.approx(0.2)  # ramp only applies forward

    def test_zero_rewarmup_skips_ramp(self):
        env = RecoverySchedule(ConstantLR(0.1))
        env.grow(2.0, at_iteration=50, rewarmup_steps=0)
        assert env.rewarmup_from is None
        assert env(50) == pytest.approx(0.1 * math.sqrt(2.0))

    def test_compound_growths(self):
        env = RecoverySchedule(ConstantLR(1.0))
        env.grow(2.0, at_iteration=0, rewarmup_steps=0)
        env.grow(2.0, at_iteration=0, rewarmup_steps=0)
        assert env.lr_scale == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            RecoverySchedule(ConstantLR(0.1)).grow(0.0, 0, 0)


class TinyRegressor(Module):
    def __init__(self, d: int, seed: int = 0):
        super().__init__()
        self.fc = Linear(d, 1, rng=seed)

    def loss(self, batch):
        xb, yb = batch
        resid = self.fc(Tensor(xb)) - Tensor(yb.reshape(-1, 1))
        return (resid * resid).mean()


def make_trainer(
    seed=0,
    base_batch=8,
    max_batch=64,
    checkpoint_dir=None,
    noise_every=2,
    rewarmup=True,
    workers=0,
    min_updates=1,
    **ctl_kwargs,
):
    """A tiny least-squares trainer — fast enough for exact assertions."""
    rng = np.random.default_rng(seed)
    d, n = 4, 256
    xs = rng.standard_normal((n, d))
    ys = xs @ rng.standard_normal(d) + 0.5 * rng.standard_normal(n)
    ds = ArrayDataset(xs, ys)
    model = TinyRegressor(d, seed=seed + 7)
    optimizer = SGD(model, lr=0.05)
    controller = BatchSizeController(base_batch, max_batch, **ctl_kwargs)
    cluster = (
        SimCluster(model.parameters(), model.loss, workers) if workers else None
    )

    def make_train_iter(batch, data_seed):
        return BatchIterator(ds, batch, rng=data_seed)

    def eval_fn():
        return {"loss": float(model.loss((xs, ys)).data)}

    growth = BatchGrowth(
        controller,
        estimator=OnlineNoiseScale(min_updates=min_updates),
        noise_every=noise_every,
        probe_ratio=4,
        rewarmup=rewarmup,
        make_train_iter=make_train_iter,
        data_seed=seed,
        warmup_epochs=0.25,
        cluster=cluster,
    )
    return Trainer(
        model.loss if cluster is None else cluster.as_loss_fn(),
        optimizer,
        ConstantLR(0.05),
        make_train_iter(base_batch, seed),
        eval_fn=eval_fn,
        model=model,
        checkpoint=None if checkpoint_dir is None else CheckpointManager(checkpoint_dir),
        growth=growth,
    )


class TestAdaptiveBatchTrainer:
    def test_growth_applies_legw_invariant(self):
        """Every growth must sqrt-rescale the LR envelope and re-enter it
        through the LEGW-invariant re-warmup ramp."""
        trainer = make_trainer(target_ratio=1e9, cooldown_epochs=0)
        result = trainer.run(epochs=4)
        assert not result.diverged
        assert trainer.growth.growths >= 1
        ratio = trainer.growth.batch / trainer.growth.controller.base_batch
        assert trainer.envelope.lr_scale == pytest.approx(math.sqrt(ratio))
        assert trainer.envelope.rewarmup_steps == trainer.growth.rewarmup_iters
        batches = [b for _, b in trainer.growth.trajectory]
        assert batches == sorted(batches)  # never shrinks
        assert result.final_metrics["final_batch"] == trainer.growth.batch
        assert result.final_metrics["growth_events"] == trainer.growth.growths

    def test_no_rewarmup_arm_keeps_sqrt_scale_only(self):
        trainer = make_trainer(rewarmup=False, target_ratio=1e9, cooldown_epochs=0)
        trainer.run(epochs=3)
        assert trainer.growth.growths >= 1
        assert trainer.envelope.lr_scale > 1.0
        assert trainer.envelope.rewarmup_from is None

    def test_unready_estimator_never_grows(self):
        trainer = make_trainer(target_ratio=1e9, min_updates=10**9)
        result = trainer.run(epochs=3)
        assert trainer.growth.trajectory == [(0, 8)]
        assert result.final_metrics["growth_events"] == 0.0

    def test_probes_do_not_perturb_training(self):
        """The serial probe path must leave the training trajectory
        bit-identical (regression for the grad-preserving probe)."""
        sparse = make_trainer(max_batch=8, noise_every=64)
        dense = make_trainer(max_batch=8, noise_every=1)
        sparse.run(epochs=2)
        dense.run(epochs=2)
        assert dense.growth.estimator.updates > sparse.growth.estimator.updates
        for key, arr in sparse.model.state_dict().items():
            np.testing.assert_array_equal(arr, dense.model.state_dict()[key])

    def test_cluster_tap_feeds_estimator(self):
        trainer = make_trainer(workers=4, target_ratio=1e9, cooldown_epochs=0)
        result = trainer.run(epochs=2)
        assert not result.diverged
        # every data-parallel step feeds the tap — no probe cadence
        assert trainer.growth.estimator.updates >= trainer.train_iter.steps_per_epoch
        assert trainer.growth.growths >= 1

    def test_resume_reproduces_trajectory_bit_exactly(self, tmp_path):
        full = make_trainer(
            checkpoint_dir=tmp_path / "full", target_ratio=1e9, cooldown_epochs=0
        )
        full_result = full.run(epochs=4)

        part = make_trainer(
            checkpoint_dir=tmp_path / "part", target_ratio=1e9, cooldown_epochs=0
        )
        part.run(epochs=2)
        resumed = make_trainer(
            checkpoint_dir=tmp_path / "part", target_ratio=1e9, cooldown_epochs=0
        )
        resumed_result = resumed.run(epochs=4, resume=True)

        assert resumed.growth.trajectory == full.growth.trajectory
        assert resumed.growth.batch == full.growth.batch
        assert resumed.envelope.lr_scale == pytest.approx(full.envelope.lr_scale)
        assert (
            resumed_result.final_metrics["optimizer_steps"]
            == full_result.final_metrics["optimizer_steps"]
        )
        assert (
            resumed_result.final_metrics["loss"]
            == full_result.final_metrics["loss"]
        )
        for key, arr in full.model.state_dict().items():
            np.testing.assert_array_equal(arr, resumed.model.state_dict()[key])

    def test_resume_past_corrupt_newest_checkpoint(self, tmp_path):
        """A torn newest file falls back to the previous one, and every
        component (batch, trajectory, estimator, loader RNG) comes from
        that same file."""
        kwargs = dict(target_ratio=1e9, cooldown_epochs=0)
        full = make_trainer(checkpoint_dir=tmp_path / "full", **kwargs)
        full.run(epochs=4)
        make_trainer(checkpoint_dir=tmp_path / "part", **kwargs).run(epochs=3)
        newest = sorted((tmp_path / "part").glob("ckpt_*.npz"))[-1]
        newest.write_bytes(b"torn" * 16)
        resumed = make_trainer(checkpoint_dir=tmp_path / "part", **kwargs)
        resumed.run(epochs=4, resume=True)
        assert resumed.checkpoint.corrupt_skipped == [newest]
        assert resumed.growth.trajectory == full.growth.trajectory
        for key, arr in full.model.state_dict().items():
            np.testing.assert_array_equal(arr, resumed.model.state_dict()[key])

    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(ValueError):
            make_trainer().run(epochs=1, resume=True)

    def test_records_batch_and_noise_series(self):
        trainer = make_trainer(target_ratio=1e9, cooldown_epochs=0)
        result = trainer.run(epochs=3)
        assert len(result.log.values("batch_size")) == 3
        assert len(result.log.values("noise_scale")) == 3
        assert result.log.values("batch_size")[0] == 8.0

    def test_validation(self):
        with pytest.raises(ValueError):
            make_trainer(base_batch=0)
        with pytest.raises(ValueError):
            make_trainer(noise_every=0)
