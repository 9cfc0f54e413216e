"""Shared experiment machinery: the five workloads, scaled down.

A :class:`Workload` bundles everything a figure/table driver needs to train
one of the paper's applications at any batch size under any schedule:
dataset, model factory, solver, decay family, the batch ladder, and the
baseline (base_batch, base_lr, base_warmup_epochs) triple that LEGW scales
from.

Scaling-down policy (full argument in DESIGN.md §2, numbers in
EXPERIMENTS.md): datasets shrink by a constant factor and the batch ladder
shrinks with them, preserving the paper's batch *ratios* — LEGW's rules
consume only ratios, so the schedule arithmetic is identical to the
paper's.  Baseline (base_lr, base_warmup_epochs) triples were tuned once
at the base batch, exactly the protocol of Section 3.3; the calibrated
constants live in the builder functions below and nowhere else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.data import (
    BatchIterator,
    MarkovLanguageSource,
    PaddedBatchIterator,
    TranslationTask,
    Vocab,
    make_image_classification,
    make_ptb_corpus,
    make_sequential_mnist,
    make_translation_dataset,
)
from repro.data.vocab import BOS, EOS, PAD
from repro.models import GNMT, MiniResNet, MnistLSTMClassifier, PTBLanguageModel
from repro.optim import SOLVERS, Optimizer
from repro.schedules import (
    ConstantLR,
    ExponentialEpochDecay,
    GradualWarmup,
    LEGW,
    MultiStepDecay,
    PolynomialDecay,
    Schedule,
    linear_scaled_lr,
    sqrt_scaled_lr,
)
from repro.adapt import BatchGrowth
from repro.parallel.buckets import DEFAULT_BUCKET_MB
from repro.parallel.cluster import SimCluster
from repro.parallel.mp import MultiprocessCluster
from repro.train import Rollback, Trainer, TrainResult
from repro.utils.checkpoint import CheckpointManager

PRESETS = ("smoke", "small")


def _check_preset(preset: str) -> None:
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}; expected one of {PRESETS}")


@dataclass
class Workload:
    """One of the paper's five applications, ready to train."""

    name: str
    metric: str
    mode: str  # "max" or "min"
    n_train: int
    base_batch: int
    batches: list[int]
    base_lr: float
    base_warmup_epochs: float
    epochs: int
    solver: str
    grad_clip: float | None
    make_model: Callable[[int], Any]
    make_train_iter: Callable[[int, int], Any]
    make_eval_fn: Callable[[Any], Callable[[], dict[str, float]]]
    # (peak_lr, steps_per_epoch, total_epochs) -> post-warmup decay schedule
    decay: Callable[[float, int, int], Schedule] | None = None
    solver_kwargs: dict[str, Any] = field(default_factory=dict)
    adam_grid: tuple[float, ...] = ()
    lr_grid: tuple[float, ...] = ()
    # paper batch = ours * paper_batch_factor (reporting only):
    paper_batch_factor: int = 1

    # -- schedule construction ------------------------------------------------

    def steps_per_epoch(self, batch: int) -> int:
        return math.ceil(self.n_train / batch)

    def _decay_factory(self, batch: int, epochs: int | None = None):
        """Adapt ``self.decay`` to LEGW's ``peak_lr -> Schedule`` factory."""
        if self.decay is None:
            return None
        spe = self.steps_per_epoch(batch)
        total = epochs if epochs is not None else self.epochs
        return lambda peak: self.decay(peak, spe, total)

    def legw_schedule(self, batch: int, epochs: int | None = None) -> LEGW:
        """The paper's method at this batch size — zero extra tuning."""
        return LEGW(
            base_lr=self.base_lr,
            base_batch=self.base_batch,
            base_warmup_epochs=self.base_warmup_epochs,
            batch=batch,
            steps_per_epoch=self.steps_per_epoch(batch),
            decay=self._decay_factory(batch, epochs),
        )

    def scaled_schedule(
        self,
        batch: int,
        scaling: str = "linear",
        warmup_epochs: float = 0.0,
        epochs: int | None = None,
        lr: float | None = None,
    ) -> Schedule:
        """Baseline schedules: linear/sqrt scaling with fixed-epoch warmup.

        ``scaling='linear', warmup_epochs=5`` is the Goyal et al. recipe;
        ``warmup_epochs=0`` gives the no-warmup strawmen of Figures 1/5.
        ``lr`` overrides the scaled peak (used by the tuning sweeps).
        """
        if lr is None:
            if scaling == "linear":
                lr = linear_scaled_lr(self.base_lr, self.base_batch, batch)
            elif scaling == "sqrt":
                lr = sqrt_scaled_lr(self.base_lr, self.base_batch, batch)
            elif scaling == "none":
                lr = self.base_lr
            else:
                raise ValueError(f"unknown scaling {scaling!r}")
        factory = self._decay_factory(batch, epochs)
        inner = ConstantLR(lr) if factory is None else factory(lr)
        spe = self.steps_per_epoch(batch)
        return GradualWarmup(inner, int(round(warmup_epochs * spe)))

    # -- training -----------------------------------------------------------------

    def make_optimizer(self, model, solver: str | None = None) -> Optimizer:
        solver = solver or self.solver
        cls = SOLVERS[solver]
        # constructor lr is a placeholder; the trainer sets it per iteration
        return cls(model, lr=self.base_lr, **self.solver_kwargs.get(solver, {}))

    def run(
        self,
        batch: int,
        schedule: Schedule,
        solver: str | None = None,
        seed: int = 0,
        epochs: int | None = None,
        obs=None,
        metrics_every: int = 0,
        amp: bool | None = None,
        *,
        workers: int = 0,
        backend: str = "sim",
        cluster_kwargs: dict[str, Any] | None = None,
        checkpoint: CheckpointManager | None = None,
        resume: bool = False,
        faults: Rollback | None = None,
        growth: BatchGrowth | None = None,
    ) -> TrainResult:
        """Train one configuration from scratch and evaluate each epoch.

        The one entry point: model, loader and optimizer are built from
        ``seed`` (in that order) and trained by a
        :class:`~repro.train.trainer.Trainer`.  ``obs``/``metrics_every``
        instrument the run; ``amp`` selects emulated mixed precision
        (``None`` follows ``REPRO_AMP``).

        ``workers > 0`` trains on the all-reduced gradients of a
        data-parallel cluster — numerically the serial run to round-off.
        ``backend="sim"`` runs the in-process
        :class:`~repro.parallel.cluster.SimCluster`; ``"mp"`` real worker
        processes (:class:`~repro.parallel.mp.MultiprocessCluster`, with
        worker telemetry when ``obs`` is on).  ``cluster_kwargs`` go to
        either (``algorithm``, ``bucket_mb``, ``wire_dtype``,
        ``stochastic_rounding``).

        ``checkpoint``/``resume`` give hardened per-epoch checkpoints and
        bit-exact resume; ``faults`` is the fault policy; ``growth`` (a
        :class:`~repro.adapt.BatchGrowth`, started at ``base_batch`` under
        the base LEGW schedule) steers the batch by the online noise
        scale — the workload supplies its loader factory, data seed,
        warmup and cluster.
        """
        model = self.make_model(seed)
        train_iter = self.make_train_iter(batch, seed + 1)
        optimizer = self.make_optimizer(model, solver)
        cluster = None
        loss_fn = model.loss
        if workers > 0:
            cluster = self._make_cluster(
                model, seed, workers, backend, obs, cluster_kwargs or {}
            )
            loss_fn = (
                cluster.as_loss_fn() if backend == "sim" else cluster.as_loss_fn(model)
            )
        if growth is not None:
            growth.make_train_iter = self.make_train_iter
            growth.data_seed = seed + 1
            growth.warmup_epochs = self.base_warmup_epochs
            growth.cluster = cluster
        trainer = Trainer(
            loss_fn,
            optimizer,
            schedule,
            train_iter,
            eval_fn=self.make_eval_fn(model),
            grad_clip=self.grad_clip,
            obs=obs,
            metrics_every=metrics_every,
            amp=amp,
            model=model,
            checkpoint=checkpoint,
            faults=faults,
            growth=growth,
        )
        try:
            result = trainer.run(
                epochs if epochs is not None else self.epochs, resume=resume
            )
        finally:
            if backend == "mp" and cluster is not None:
                cluster.close()
        if cluster is not None:
            result.final_metrics.setdefault("workers", float(workers))
            if backend == "sim" and cluster.last_timeline is not None:
                result.final_metrics.setdefault(
                    "overlap_fraction", cluster.last_timeline.overlap_fraction
                )
        return result

    def _make_cluster(self, model, seed, workers, backend, obs, kwargs):
        if backend == "sim":
            return SimCluster(list(model.parameters()), model.loss, workers, **kwargs)
        if backend == "mp":
            telemetry = obs is not None and (
                obs.metrics is not None or obs.tracer is not None
            )
            # fork-start workers inherit this closure without pickling
            return MultiprocessCluster(
                lambda: self.make_model(seed),
                workers,
                timeout=120.0,
                telemetry=telemetry,
                tracer=obs.tracer if obs is not None else None,
                **kwargs,
            )
        raise ValueError(f"unknown backend {backend!r} (sim or mp)")

    def run_parallel(
        self,
        batch: int,
        schedule: Schedule,
        *,
        workers: int,
        algorithm: str = "ring",
        bucket_mb: float | None = DEFAULT_BUCKET_MB,
        solver: str | None = None,
        seed: int = 0,
        epochs: int | None = None,
        obs=None,
        metrics_every: int = 0,
        backend: str = "sim",
        wire_dtype: str | None = None,
        stochastic_rounding: bool = False,
    ) -> TrainResult:
        """:meth:`run` through a ``workers``-way data-parallel cluster,
        with the cluster's reduction settings spelled out."""
        return self.run(
            batch,
            schedule,
            solver=solver,
            seed=seed,
            epochs=epochs,
            obs=obs,
            metrics_every=metrics_every,
            workers=workers,
            backend=backend,
            cluster_kwargs={
                "algorithm": algorithm,
                "bucket_mb": bucket_mb,
                "wire_dtype": wire_dtype,
                "stochastic_rounding": stochastic_rounding,
            },
        )

    def run_legw(
        self, batch: int, seed: int = 0, epochs: int | None = None
    ) -> TrainResult:
        return self.run(
            batch, self.legw_schedule(batch, epochs), seed=seed, epochs=epochs
        )

    def run_adam(
        self, batch: int, lr: float, seed: int = 0, epochs: int | None = None
    ) -> TrainResult:
        """Adam baseline at a fixed LR (the paper tunes this LR on a grid)."""
        return self.run(batch, ConstantLR(lr), solver="adam", seed=seed, epochs=epochs)

    def paper_batch(self, batch: int) -> int:
        """The paper-scale batch size this scaled batch stands for."""
        return batch * self.paper_batch_factor


def score_of(result: TrainResult, metric: str) -> float:
    """A run's reportable score; diverged runs score NaN."""
    if result.diverged:
        return float("nan")
    value = result.metric(metric)
    return float("nan") if value is None else float(value)


# ---------------------------------------------------------------------------
# workload builders — every calibrated constant lives here, one place each
# ---------------------------------------------------------------------------


def mnist_workload(preset: str = "smoke", seed: int = 100) -> Workload:
    """MNIST-LSTM (paper §5.1.1): momentum, constant LR, batch 128→8K.

    Smoke preset: 14×14 glyphs (half the paper's 28 LSTM steps), batch
    ladder 16→256 standing for 128→2K; small preset: full 28×28 geometry,
    ladder to 1024 (→8K, the paper's full ×64 span).
    """
    _check_preset(preset)
    if preset == "smoke":
        size, n_train, n_test, epochs = 14, 1024, 256, 18
        batches = [16, 64, 256]
    else:
        size, n_train, n_test, epochs = 28, 4096, 512, 25
        batches = [16, 64, 256, 1024]
    train, test = make_sequential_mnist(n_train, n_test, rng=seed, size=size)

    def make_model(model_seed: int):
        return MnistLSTMClassifier(
            rng=model_seed, input_dim=size, transform_dim=32, hidden=32
        )

    return Workload(
        name="mnist",
        metric="accuracy",
        mode="max",
        n_train=n_train,
        base_batch=16,
        batches=batches,
        base_lr=0.06,
        base_warmup_epochs=0.1,
        epochs=epochs,
        solver="momentum",
        grad_clip=None,
        make_model=make_model,
        make_train_iter=lambda batch, s: BatchIterator(train, batch, rng=s),
        make_eval_fn=lambda model: (lambda: model.evaluate(test)),
        decay=None,  # constant LR, as in the paper's MNIST setup
        # the paper's MNIST grid is {1e-4..1e-3}; the scaled task's usable
        # Adam range sits higher (fewer steps per epoch), same span in log
        adam_grid=(0.0005, 0.001, 0.002, 0.005, 0.01),
        lr_grid=(0.01, 0.02, 0.04, 0.08, 0.16),  # paper's effective range
        paper_batch_factor=8,
    )


def ptb_small_workload(preset: str = "smoke", seed: int = 200) -> Workload:
    """PTB-small (paper §5.1.2): momentum + exponential decay, batch 20→640.

    Decay is the paper's: hold, then ×0.4 per epoch (hold 7 of 13 epochs;
    the smoke preset keeps the 7-epoch hold inside a 12-epoch run).
    """
    _check_preset(preset)
    if preset == "smoke":
        n_tokens, n_val, epochs, hold = 12000, 1600, 12, 7
        batches = [5, 20, 40]
    else:
        n_tokens, n_val, epochs, hold = 24000, 3200, 13, 7
        batches = [5, 20, 80, 160]
    source = MarkovLanguageSource(50, rng=seed)
    seq_len = 20
    train = make_ptb_corpus(source, n_tokens, seq_len, rng=seed + 1)
    val = make_ptb_corpus(source, n_val, seq_len, rng=seed + 2)

    def make_model(model_seed: int):
        return PTBLanguageModel(
            source.vocab_size, rng=model_seed, embed_dim=32, hidden=32,
            init_scale=0.1,
        )

    wl = Workload(
        name="ptb_small",
        metric="perplexity",
        mode="min",
        n_train=len(train),
        base_batch=5,
        batches=batches,
        base_lr=2.0,
        base_warmup_epochs=0.05,
        epochs=epochs,
        solver="momentum",
        grad_clip=5.0,
        make_model=make_model,
        make_train_iter=lambda batch, s: BatchIterator(train, batch, rng=s),
        make_eval_fn=lambda model: (lambda: model.evaluate(val)),
        decay=lambda peak, spe, total: ExponentialEpochDecay(
            peak, hold_epochs=hold, decay_rate=0.4, steps_per_epoch=spe
        ),
        adam_grid=(0.002, 0.005, 0.01, 0.02, 0.04),
        lr_grid=(0.5, 1.0, 2.0, 4.0, 8.0),
        paper_batch_factor=4,
    )
    wl.source = source  # type: ignore[attr-defined]  # exposed for tests
    return wl


def ptb_large_workload(preset: str = "smoke", seed: int = 300) -> Workload:
    """PTB-large (paper §5.1.2): LARS + poly decay (p=2), batch 20→640."""
    _check_preset(preset)
    if preset == "smoke":
        n_tokens, n_val, epochs = 14000, 2000, 12
        batches = [5, 20, 40]
    else:
        n_tokens, n_val, epochs = 28000, 4000, 14
        batches = [5, 20, 80, 160]
    source = MarkovLanguageSource(60, rng=seed)
    seq_len = 35
    train = make_ptb_corpus(source, n_tokens, seq_len, rng=seed + 1)
    val = make_ptb_corpus(source, n_val, seq_len, rng=seed + 2)

    def make_model(model_seed: int):
        return PTBLanguageModel(
            source.vocab_size, rng=model_seed, embed_dim=48, hidden=48,
            init_scale=0.04,
        )

    wl = Workload(
        name="ptb_large",
        metric="perplexity",
        mode="min",
        n_train=len(train),
        base_batch=5,
        batches=batches,
        base_lr=2.0,
        base_warmup_epochs=0.05,
        epochs=epochs,
        solver="lars",
        solver_kwargs={"lars": {"weight_decay": 1e-4, "trust_coefficient": 0.02}},
        grad_clip=5.0,
        make_model=make_model,
        make_train_iter=lambda batch, s: BatchIterator(train, batch, rng=s),
        make_eval_fn=lambda model: (lambda: model.evaluate(val)),
        decay=lambda peak, spe, total: PolynomialDecay(
            peak, total_iterations=spe * total, power=2.0
        ),
        adam_grid=(0.002, 0.005, 0.01, 0.02, 0.04),
        lr_grid=(0.5, 1.0, 2.0, 4.0),
        paper_batch_factor=4,
    )
    wl.source = source  # type: ignore[attr-defined]
    return wl


def gnmt_workload(preset: str = "smoke", seed: int = 400) -> Workload:
    """GNMT (paper §5.1.3): Adam-scale LRs, sqrt scaling, batch 256→4K.

    Ladder 8→64 stands for 256→2K (span ×8 of Table 2's ×16; the small
    preset extends to 128 → 4K).
    """
    _check_preset(preset)
    if preset == "smoke":
        n_pairs, n_test, epochs = 512, 64, 20
        batches = [8, 16, 32, 64]
    else:
        n_pairs, n_test, epochs = 1024, 128, 24
        batches = [8, 16, 32, 64, 128]
    vocab = Vocab(20)
    task = TranslationTask(vocab, rng=seed, fertility_fraction=0.1)
    pairs = make_translation_dataset(task, n_pairs, rng=seed + 1, min_len=3, max_len=7)
    test_pairs = make_translation_dataset(
        task, n_test, rng=seed + 2, min_len=3, max_len=7
    )

    def make_model(model_seed: int):
        return GNMT(
            vocab, rng=model_seed, embed_dim=32, hidden=32,
            enc_layers=2, dec_layers=2,
        )

    def make_iter(batch: int, s: int):
        return PaddedBatchIterator(
            pairs, batch, rng=s, pad_id=PAD, bos_id=BOS, eos_id=EOS
        )

    wl = Workload(
        name="gnmt",
        metric="bleu",
        mode="max",
        n_train=n_pairs,
        base_batch=8,
        batches=batches,
        base_lr=0.01,
        base_warmup_epochs=0.05,
        epochs=epochs,
        solver="adam",
        grad_clip=5.0,
        make_model=make_model,
        make_train_iter=make_iter,
        make_eval_fn=lambda model: (lambda: model.evaluate_bleu(test_pairs)),
        decay=None,  # Table 2 specifies init LR + warmup only
        adam_grid=(0.0025, 0.005, 0.01, 0.02, 0.04),
        lr_grid=(0.0025, 0.005, 0.01, 0.02, 0.04),
        paper_batch_factor=32,
    )
    wl.task = task  # type: ignore[attr-defined]
    wl.test_pairs = test_pairs  # type: ignore[attr-defined]
    return wl


def resnet_workload(preset: str = "smoke", seed: int = 500) -> Workload:
    """ImageNet/ResNet-50 (paper §6): LARS + LEGW, batch 1K→32K.

    Ladder 8→256 stands for 1K→32K (the full ×32 span of Table 3).
    Decay: multi-step ×0.1 at 1/3, 2/3 and 8/9 of the run — the paper's
    {30, 60, 80}/90 pattern.
    """
    _check_preset(preset)
    if preset == "smoke":
        n_train, n_test, epochs = 960, 200, 9
        batches = [8, 32, 128, 256]
    else:
        n_train, n_test, epochs = 1920, 400, 12
        batches = [8, 16, 32, 64, 128, 256]
    train, test, num_classes = make_image_classification(
        n_train, n_test, rng=seed, num_classes=20, size=10
    )

    def make_model(model_seed: int):
        return MiniResNet(
            3, num_classes, rng=model_seed, stage_channels=(8, 16),
            blocks_per_stage=1,
        )

    def decay(peak: float, spe: int, total: int) -> Schedule:
        milestones = [total / 3, 2 * total / 3, 8 * total / 9]
        return MultiStepDecay(peak, milestones, gamma=0.1, steps_per_epoch=spe)

    return Workload(
        name="resnet",
        metric="top5",
        mode="max",
        n_train=n_train,
        base_batch=8,
        batches=batches,
        base_lr=0.5,
        base_warmup_epochs=0.1,
        epochs=epochs,
        solver="lars",
        solver_kwargs={"lars": {"weight_decay": 1e-4, "trust_coefficient": 0.02}},
        grad_clip=None,
        make_model=make_model,
        make_train_iter=lambda batch, s: BatchIterator(train, batch, rng=s),
        make_eval_fn=lambda model: (lambda: model.evaluate(test)),
        decay=decay,
        adam_grid=tuple(k / 1000 for k in range(1, 11)),
        lr_grid=(0.125, 0.25, 0.5, 1.0, 2.0),
        paper_batch_factor=128,
    )


_BUILDERS = {
    "mnist": mnist_workload,
    "ptb_small": ptb_small_workload,
    "ptb_large": ptb_large_workload,
    "gnmt": gnmt_workload,
    "resnet": resnet_workload,
}


def build_workload(name: str, preset: str = "smoke") -> Workload:
    """Build any of the five workloads by name."""
    if name not in _BUILDERS:
        raise KeyError(f"unknown workload {name!r}; options: {sorted(_BUILDERS)}")
    return _BUILDERS[name](preset)
