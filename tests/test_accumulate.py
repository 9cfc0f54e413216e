"""Gradient accumulation: exact equivalence with large-batch training."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import ArrayDataset, BatchIterator, make_sequential_mnist
from repro.models import MnistLSTMClassifier
from repro.optim import Momentum, SGD
from repro.schedules import ConstantLR
from repro.tensor.amp import amp_enabled
from repro.train import Trainer, accumulate_gradients


def make_model():
    return MnistLSTMClassifier(rng=3, input_dim=8, transform_dim=8, hidden=8)


@pytest.fixture
def mnist_small():
    train, _ = make_sequential_mnist(48, 8, rng=0, size=8)
    return train


class TestAccumulateGradients:
    def test_equals_full_batch_gradient(self, mnist_small):
        train = mnist_small
        full_batch = (train.inputs[:24], train.targets[:24])
        micro = [
            (train.inputs[i : i + 8], train.targets[i : i + 8])
            for i in range(0, 24, 8)
        ]
        ref = make_model()
        ref.zero_grad()
        ref_loss = ref.loss(full_batch)
        ref_loss.backward()
        acc = make_model()
        loss = accumulate_gradients(acc.loss, micro, acc.parameters())
        assert loss == pytest.approx(float(ref_loss.data))
        for a, b in zip(ref.parameters(), acc.parameters()):
            assert np.allclose(a.grad, b.grad, atol=1e-12)

    def test_ragged_micro_batches_weighted(self, mnist_small):
        train = mnist_small
        full_batch = (train.inputs[:20], train.targets[:20])
        micro = [
            (train.inputs[:8], train.targets[:8]),
            (train.inputs[8:20], train.targets[8:20]),
        ]
        weights = [8 / 20, 12 / 20]
        ref = make_model()
        ref.zero_grad()
        ref.loss(full_batch).backward()
        acc = make_model()
        accumulate_gradients(acc.loss, micro, acc.parameters(), weights)
        for a, b in zip(ref.parameters(), acc.parameters()):
            assert np.allclose(a.grad, b.grad, atol=1e-12)

    def test_validation(self, mnist_small):
        model = make_model()
        with pytest.raises(ValueError):
            accumulate_gradients(model.loss, [], model.parameters())
        batch = (mnist_small.inputs[:4], mnist_small.targets[:4])
        with pytest.raises(ValueError):
            accumulate_gradients(
                model.loss, [batch], model.parameters(), weights=[0.5]
            )
        with pytest.raises(ValueError):
            accumulate_gradients(
                model.loss, [batch, batch], model.parameters(), weights=[0.5]
            )


class TestAccumulatingTrainer:
    """``Trainer(..., accum_steps=k)``."""

    def test_matches_large_batch_trainer_exactly(self, mnist_small):
        """accum_steps=4 over batch-8 micro-batches == batch-32 training."""
        train = mnist_small  # 48 examples
        sched = ConstantLR(0.1)

        big_model = make_model()
        big_it = BatchIterator(train, 32, rng=1, shuffle=False)
        Trainer(big_model.loss, Momentum(big_model, lr=0.1), sched, big_it).run(2)

        acc_model = make_model()
        small_it = BatchIterator(train, 8, rng=1, shuffle=False)
        Trainer(
            acc_model.loss, Momentum(acc_model, lr=0.1), sched, small_it,
            accum_steps=4,
        ).run(2)

        # Under emulated mixed precision the forward quantizes op outputs
        # to the fp16 grid, and a batch-32 forward does not round the same
        # way as four batch-8 forwards — the equivalence is only exact in
        # full precision.
        atol = 5e-3 if amp_enabled() else 1e-10
        for (na, pa), (nb, pb) in zip(
            big_model.named_parameters(), acc_model.named_parameters()
        ):
            assert np.allclose(pa.data, pb.data, atol=atol), na

    def test_logical_iteration_count(self, mnist_small):
        model = make_model()
        it = BatchIterator(mnist_small, 8, rng=1)  # 6 micro-batches/epoch
        result = Trainer(
            model.loss, SGD(model, lr=0.05), ConstantLR(0.05), it, accum_steps=3
        ).run(2)
        # 6 micro / 3 accum = 2 logical iterations per epoch
        assert len(result.log.values("loss")) == 4

    def test_ragged_tail_group_applied(self, mnist_small):
        model = make_model()
        it = BatchIterator(mnist_small, 8, rng=1)  # 6 micro-batches
        result = Trainer(
            model.loss, SGD(model, lr=0.05), ConstantLR(0.05), it, accum_steps=4
        ).run(1)
        # groups of 4 then 2 -> 2 logical steps
        assert len(result.log.values("loss")) == 2

    def test_eval_fn_runs(self, mnist_small):
        model = make_model()
        it = BatchIterator(mnist_small, 8, rng=1)
        result = Trainer(
            model.loss, SGD(model, lr=0.05), ConstantLR(0.05), it,
            accum_steps=2, eval_fn=lambda: {"m": 1.0},
        ).run(2)
        assert result.final_metrics["m"] == 1.0

    def test_invalid_accum_steps(self, mnist_small):
        model = make_model()
        it = BatchIterator(mnist_small, 8, rng=1)
        with pytest.raises(ValueError):
            Trainer(
                model.loss, SGD(model, lr=0.1), ConstantLR(0.1), it, accum_steps=0
            )

    def test_diverged_run_keeps_series_aligned(self, mnist_small):
        """A NaN loss must append loss *and* lr together (no desync)."""
        model = make_model()
        it = BatchIterator(mnist_small, 8, rng=1)
        calls = {"n": 0}

        def poisoned_loss(batch):
            calls["n"] += 1
            loss = model.loss(batch)
            if calls["n"] == 3:
                loss.data = np.array(float("nan"))
            return loss

        result = Trainer(
            poisoned_loss, SGD(model, lr=0.05), ConstantLR(0.05), it,
            accum_steps=2,
        ).run(2)
        assert result.diverged
        log = result.log
        assert len(log.values("loss")) == len(log.values("lr"))
        assert log.steps("loss") == log.steps("lr")
        assert np.isnan(log.values("loss")[-1])

    def test_one_shot_iterator_detected(self, mnist_small):
        """A generator exhausts after epoch 0; epoch 1 must fail loudly."""
        model = make_model()
        one_shot = iter(BatchIterator(mnist_small, 8, rng=1))
        trainer = Trainer(
            model.loss, SGD(model, lr=0.05), ConstantLR(0.05), one_shot,
            accum_steps=2,
        )
        with pytest.raises(ValueError, match="one-shot iterator"):
            trainer.run(2)
